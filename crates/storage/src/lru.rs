//! A fixed-capacity, order-preserving LRU cache: a table of frames kept in
//! recency order by `u32` links, and an id map from each key to its frame.
//!
//! Used for the disk caches (volatile and non-volatile), the second-level
//! NVEM database buffer, the NVEM write buffer and the main-memory buffer.
//!
//! A frame is `{ key, value, prev, next }` with `Copy` keys and values, so
//! a page's frame in the main-memory buffer or in a write-behind store
//! takes 24 bytes.  A frame that leaves the cache goes on a free list
//! linked through `next`; nothing tags it as vacant, because only the map
//! and the recency list lead to live frames.  The free list's order is
//! unobservable, the recency order is not: every eviction follows it.
//!
//! [`LruCache::insert`], [`LruCache::absorb`] and [`LruCache::admit`] probe
//! the map once for their key.  A miss on a full cache enters the key into
//! its victim's frame in place and then removes the victim's key with one
//! more probe; the map is sized for one entry more than the capacity, so
//! that transient extra entry never grows it.
//!
//! A *write-behind store* — the non-volatile disk cache, the NVEM cache and
//! the NVEM write buffer — is an `LruCache<K, u32>` whose value counts the
//! page's asynchronous disk writes in flight (zero means clean).  Such a
//! store follows one rule (§3.2–3.3): a write takes a frame, the disk copy is
//! updated asynchronously, and a full store replaces "the least recently
//! accessed unmodified page" ([`LruCache::absorb`], [`LruCache::admit`],
//! [`LruCache::destaged`]).

use std::collections::hash_map::Entry;
use std::hash::Hash;

use simkernel::IdMap;

/// The end of a list: no frame.
const NIL: u32 = u32::MAX;

/// The largest capacity an [`LruCache`] accepts: every frame index must fit
/// a `u32` below the list end marker.
pub const MAX_CAPACITY: usize = NIL as usize;

/// One cache entry and its place in the recency list.
#[derive(Debug, Clone, Copy)]
struct Frame<K, V> {
    key: K,
    value: V,
    /// The next more recently used frame.
    prev: u32,
    /// The next less recently used frame; on the free list, the next free
    /// frame.
    next: u32,
}

// A page's frame in a write-behind store (a `u32` count of writes in
// flight) fills 24 bytes; the buffer manager pins its main-memory frame.
const _: () = assert!(LruCache::<dbmodel::PageId, u32>::FRAME_BYTES == 24);

/// Where one map probe left a key: in its own frame, or entered into a
/// frame that still has to take it.
enum Probe {
    /// The key is cached in this frame.
    Hit(u32),
    /// The key now maps to this unused frame (the cache was not full).
    Free(u32),
    /// The key now maps to this victim frame, whose key must leave the map.
    Victim(u32),
    /// The cache is full and has no victim: nothing changed.
    Refused,
}

/// A fixed-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: IdMap<K, u32>,
    frames: Vec<Frame<K, V>>,
    capacity: usize,
    free: u32, // first frame of the free list
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl<K: Copy + Eq + Hash, V: Copy> LruCache<K, V> {
    /// The bytes one entry's frame takes, links included.
    pub const FRAME_BYTES: usize = std::mem::size_of::<Frame<K, V>>();

    /// Creates a cache holding at most `capacity` entries
    /// (`1 ..= MAX_CAPACITY`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        assert!(
            capacity <= MAX_CAPACITY,
            "LRU capacity {capacity} does not fit a u32 frame index"
        );
        // One spare slot for the key a full cache enters before it removes
        // its victim's.
        let slots = (capacity + 1).min(1 << 20);
        Self {
            map: IdMap::with_capacity_and_hasher(slots, Default::default()),
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            free: NIL,
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// True if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn frame(&self, idx: u32) -> &Frame<K, V> {
        &self.frames[idx as usize]
    }

    fn frame_mut(&mut self, idx: u32) -> &mut Frame<K, V> {
        &mut self.frames[idx as usize]
    }

    /// Takes frame `idx` out of the recency list.
    fn unlink(&mut self, idx: u32) {
        let Frame { prev, next, .. } = *self.frame(idx);
        if prev == NIL {
            self.head = next;
        } else {
            self.frame_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.frame_mut(next).prev = prev;
        }
    }

    /// Links frame `idx` in as the most recently used.
    fn link_front(&mut self, idx: u32) {
        let old = self.head;
        let frame = self.frame_mut(idx);
        frame.prev = NIL;
        frame.next = old;
        if old == NIL {
            self.tail = idx;
        } else {
            self.frame_mut(old).prev = idx;
        }
        self.head = idx;
    }

    /// Marks the linked frame `idx` most recently used.
    fn promote(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Looks `key` up once.  An absent key is entered into the map at once:
    /// into an unused frame while the cache is not full, else into the
    /// frame `victim` picks from the frames and the list's tail (called only
    /// then; `None` refuses the key).
    fn probe(&mut self, key: K, victim: impl FnOnce(&[Frame<K, V>], u32) -> Option<u32>) -> Probe {
        let next = match self.free {
            NIL => self.frames.len() as u32,
            free => free,
        };
        let unused = (self.map.len() < self.capacity).then_some(next);
        match self.map.entry(key) {
            Entry::Occupied(slot) => Probe::Hit(*slot.get()),
            Entry::Vacant(slot) => {
                if let Some(idx) = unused {
                    slot.insert(idx);
                    Probe::Free(idx)
                } else if let Some(idx) = victim(&self.frames, self.tail) {
                    slot.insert(idx);
                    Probe::Victim(idx)
                } else {
                    Probe::Refused
                }
            }
        }
    }

    /// Fills the unused frame `idx` that [`probe`](Self::probe) gave `key`
    /// and makes it the most recently used.
    fn fill(&mut self, idx: u32, key: K, value: V) {
        let frame = Frame {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        if idx as usize == self.frames.len() {
            self.frames.push(frame);
        } else {
            debug_assert_eq!(idx, self.free, "an unused frame is the free list's first");
            self.free = self.frame(idx).next;
            *self.frame_mut(idx) = frame;
        }
        self.link_front(idx);
    }

    /// Hands the victim frame `idx` over to `key` as the most recently
    /// used, and removes the victim's key from the map.  Returns the
    /// victim's entry.
    fn replace(&mut self, idx: u32, key: K, value: V) -> (K, V) {
        let frame = self.frame_mut(idx);
        let victim = (frame.key, frame.value);
        frame.key = key;
        frame.value = value;
        self.promote(idx);
        self.map.remove(&victim.0);
        victim
    }

    /// Puts the unlinked frame `idx` on the free list.
    fn release(&mut self, idx: u32) {
        self.frame_mut(idx).next = self.free;
        self.free = idx;
    }

    /// Marks `key` as most recently used.  Returns false if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                self.promote(idx);
                true
            }
            None => false,
        }
    }

    /// Returns the value for `key` and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|value| &*value)
    }

    /// Mutable access to the value for `key`, marking it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.promote(idx);
        Some(&mut self.frame_mut(idx).value)
    }

    /// Returns the value for `key` without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.frame(idx).value)
    }

    /// Mutable access without affecting recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        Some(&mut self.frame_mut(idx).value)
    }

    /// Inserts (or updates) `key`, marking it most recently used.  If the
    /// cache is full the least-recently-used entry is evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        match self.probe(key, |_, tail| Some(tail)) {
            Probe::Hit(idx) => {
                self.frame_mut(idx).value = value;
                self.promote(idx);
                None
            }
            Probe::Free(idx) => {
                self.fill(idx, key, value);
                None
            }
            Probe::Victim(idx) => Some(self.replace(idx, key, value)),
            Probe::Refused => unreachable!("a full cache always has a least recently used entry"),
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.release(idx);
        Some(self.frame(idx).value)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let Frame { key, value, .. } = *self.frame(self.tail);
        self.remove(&key)?;
        Some((key, value))
    }

    /// Key of the least-recently-used entry.
    pub fn lru_key(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.frame(self.tail).key)
    }

    /// Iterates from least-recently-used to most-recently-used.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            if idx == NIL {
                None
            } else {
                let frame = self.frame(idx);
                idx = frame.prev;
                Some((&frame.key, &frame.value))
            }
        })
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The least recently used clean frame (no write in flight), walking the
/// recency list from `tail`.
fn lru_clean<K>(frames: &[Frame<K, u32>], tail: u32) -> Option<u32> {
    let mut idx = tail;
    while idx != NIL {
        let frame = &frames[idx as usize];
        if frame.value == 0 {
            return Some(idx);
        }
        idx = frame.prev;
    }
    None
}

/// The write-behind rule: the value counts the page's asynchronous disk
/// writes in flight, and a page with none is clean (replaceable).
impl<K: Copy + Eq + Hash> LruCache<K, u32> {
    /// True if `key` is cached with no write in flight.
    pub fn is_clean(&self, key: &K) -> bool {
        self.peek(key) == Some(&0)
    }

    /// A write of `key` that the store absorbs, starting one asynchronous
    /// disk write.  A cached page counts one more write and becomes most
    /// recently used; otherwise the page takes a free frame or the least
    /// recently used clean one.  Returns whether the page was cached, or
    /// `None` — changing nothing — when every frame has a write in flight.
    pub fn absorb(&mut self, key: K) -> Option<bool> {
        match self.probe(key, lru_clean) {
            Probe::Hit(idx) => {
                self.frame_mut(idx).value += 1;
                self.promote(idx);
                Some(true)
            }
            Probe::Free(idx) => {
                self.fill(idx, key, 1);
                Some(false)
            }
            Probe::Victim(idx) => {
                self.replace(idx, key, 1);
                Some(false)
            }
            Probe::Refused => None,
        }
    }

    /// Brings `key` in with `pending` writes in flight.  A cached page adds
    /// them to its count and becomes most recently used; otherwise a full
    /// store replaces its least recently used clean page, or its plain least
    /// recently used page when none is clean (that page's writes are already
    /// under way, so nothing is lost).  Returns the page that left.
    pub fn admit(&mut self, key: K, pending: u32) -> Option<K> {
        let victim = |frames: &[Frame<K, u32>], tail| lru_clean(frames, tail).or(Some(tail));
        match self.probe(key, victim) {
            Probe::Hit(idx) => {
                self.frame_mut(idx).value += pending;
                self.promote(idx);
                None
            }
            Probe::Free(idx) => {
                self.fill(idx, key, pending);
                None
            }
            Probe::Victim(idx) => Some(self.replace(idx, key, pending).0),
            Probe::Refused => unreachable!("a full store always has a least recently used page"),
        }
    }

    /// One asynchronous write of `key` completed (saturating at clean).
    /// Returns false when the page is no longer cached.
    pub fn destaged(&mut self, key: &K) -> bool {
        match self.peek_mut(key) {
            Some(pending) => {
                *pending = pending.saturating_sub(1);
                true
            }
            None => false,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut c = LruCache::new(3);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.len(), 2);
        assert!(!c.is_full());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.contains(&1) && c.contains(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&2));
        c.insert(4, 40);
        c.insert(5, 50); // evicts 1 (LRU)
        assert!(!c.contains(&1));
        assert!(c.contains(&3) && c.contains(&4) && c.contains(&5));
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.insert(3, 'c');
        c.touch(&1);
        assert_eq!(c.pop_lru(), Some((2, 'b')));
        assert_eq!(c.pop_lru(), Some((3, 'c')));
        assert_eq!(c.pop_lru(), Some((1, 'a')));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_lru_walks_from_cold_to_hot() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        let order: Vec<i32> = c.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn peek_does_not_change_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.peek(&1);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)));
    }

    #[test]
    fn get_mut_and_peek_mut() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        *c.peek_mut(&1).unwrap() += 1;
        // peek_mut did not touch; 1 is still LRU.
        assert_eq!(c.lru_key(), Some(&1));
        *c.get_mut(&1).unwrap() += 1;
        assert_eq!(c.peek(&1), Some(&12));
        assert_eq!(c.lru_key(), Some(&2));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.insert(2, 2).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_one_cache() {
        let mut c = LruCache::new(1);
        assert!(c.insert(1, 'x').is_none());
        assert_eq!(c.insert(2, 'y'), Some((1, 'x')));
        assert_eq!(c.lru_key(), Some(&2));
    }

    #[test]
    fn capacity_one_eviction_order_under_churn() {
        // At capacity 1 the sole resident entry is simultaneously MRU and
        // LRU: every insert of a new key must evict exactly the previous
        // key, in insertion order, and touch/get must not change that.
        let mut c = LruCache::new(1);
        c.insert(10, "a");
        c.get(&10);
        c.touch(&10);
        assert!(c.is_full());
        for (next, prev) in [(11u64, 10u64), (12, 11), (13, 12)] {
            let evicted = c.insert(next, "x");
            assert_eq!(evicted.map(|(k, _)| k), Some(prev));
            assert_eq!(c.len(), 1);
            assert_eq!(c.lru_key(), Some(&next));
            assert!(c.contains(&next) && !c.contains(&prev));
        }
        // Re-inserting the resident key is an update, not an eviction.
        assert!(c.insert(13, "y").is_none());
        assert_eq!(c.peek(&13), Some(&"y"));
    }

    #[test]
    fn absorb_takes_a_free_frame_then_the_lru_clean_one() {
        let mut c: LruCache<u64, u32> = LruCache::new(3);
        assert_eq!(c.absorb(1), Some(false));
        assert_eq!(c.admit(2, 0), None); // clean
        assert_eq!(c.absorb(3), Some(false));
        assert!(c.is_full());
        // A cached page counts one more write and becomes most recent.
        assert_eq!(c.absorb(1), Some(true));
        assert_eq!(c.peek(&1), Some(&2));
        assert_eq!(c.lru_key(), Some(&2));
        // A miss on a full store replaces the least recently used clean page.
        assert_eq!(c.absorb(4), Some(false));
        assert!(!c.contains(&2));
        assert_eq!(c.peek(&4), Some(&1));
        // With every frame written behind, the write is refused untouched.
        let order: Vec<u64> = c.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(c.absorb(5), None);
        assert!(!c.contains(&5));
        assert_eq!(c.iter_lru().map(|(k, _)| *k).collect::<Vec<_>>(), order);
    }

    #[test]
    fn admit_prefers_the_lru_clean_page_and_falls_back_to_the_lru_page() {
        let mut c: LruCache<u64, u32> = LruCache::new(3);
        c.admit(1, 1); // written behind, oldest
        c.admit(2, 0); // clean
        c.admit(3, 1);
        // The clean page leaves although page 1 is older.
        assert_eq!(c.admit(4, 0), Some(2));
        // A cached page adds to its count, evicts nothing and becomes most
        // recent.
        assert_eq!(c.admit(1, 1), None);
        assert_eq!(c.peek(&1), Some(&2));
        assert_eq!(c.lru_key(), Some(&3));
        // Page 4 is the only clean one left.
        assert_eq!(c.admit(5, 1), Some(4));
        // No page is clean: the plain LRU page leaves.
        assert_eq!(c.admit(6, 0), Some(3));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn destaged_counts_down_to_clean_and_reports_missing_pages() {
        let mut c: LruCache<u64, u32> = LruCache::new(2);
        c.absorb(1);
        c.absorb(1);
        assert!(!c.is_clean(&1));
        assert!(c.destaged(&1));
        assert!(!c.is_clean(&1), "one write is still in flight");
        assert!(c.destaged(&1));
        assert!(c.is_clean(&1));
        // Saturating: a late completion leaves the page clean.
        assert!(c.destaged(&1));
        assert_eq!(c.peek(&1), Some(&0));
        // A page that left the store is neither clean nor destaged.
        assert!(!c.destaged(&9));
        assert!(!c.is_clean(&9));
        // Completions change no recency.
        c.absorb(2);
        c.destaged(&1);
        assert_eq!(c.lru_key(), Some(&1));
    }

    #[test]
    fn capacity_one_write_behind_store() {
        let mut c: LruCache<u64, u32> = LruCache::new(1);
        assert_eq!(c.absorb(7), Some(false));
        // The sole frame has a write in flight: the next write is refused.
        assert_eq!(c.absorb(8), None);
        assert_eq!(c.absorb(7), Some(true));
        // A read miss replaces the sole frame even while it is written behind.
        assert_eq!(c.admit(8, 0), Some(7));
        assert!(c.is_clean(&8));
        // A clean sole frame takes the next write.
        assert_eq!(c.absorb(9), Some(false));
        assert_eq!(c.lru_key(), Some(&9));
        assert!(c.destaged(&9));
        assert_eq!(c.admit(10, 1), Some(9));
    }

    #[test]
    #[should_panic(expected = "does not fit a u32 frame index")]
    fn capacity_beyond_a_u32_frame_index_is_rejected() {
        let _ = LruCache::<u64, u32>::new(MAX_CAPACITY + 1);
    }

    #[test]
    fn a_full_cache_keeps_a_spare_map_slot() {
        // A miss on a full cache enters its key before it removes the
        // victim's: without room for that transient entry the replacement
        // would grow the map.  Tables sized for exactly 3, 7, 14, 28, 56
        // or 112 entries would have none.
        for capacity in [1usize, 3, 7, 14, 28, 56, 112, 2_000] {
            let mut c: LruCache<u64, u32> = LruCache::new(capacity);
            for key in 0..capacity as u64 {
                c.insert(key, 0);
            }
            let slots = c.map.capacity();
            assert!(slots > capacity, "capacity {capacity}");
            let key = capacity as u64;
            assert!(c.insert(key, 0).is_some());
            assert_eq!(c.absorb(key + 1), Some(false));
            assert!(c.admit(key + 2, 1).is_some());
            assert!(
                c.map.capacity() <= slots,
                "capacity {capacity}: the map grew"
            );
        }
    }

    #[test]
    fn removed_frames_are_reused_before_new_ones() {
        let mut c: LruCache<u64, u32> = LruCache::new(4);
        for key in 0..4 {
            c.insert(key, 0);
        }
        c.remove(&1);
        c.pop_lru();
        c.insert(7, 0);
        c.admit(8, 1);
        assert_eq!(c.frames.len(), 4, "no frame beyond the capacity");
        let order: Vec<u64> = c.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, [2, 3, 7, 8]);
        c.clear();
        assert!(c.is_empty() && c.lru_key().is_none());
        assert_eq!(c.absorb(5), Some(false));
        assert_eq!(c.iter_lru().collect::<Vec<_>>(), [(&5, &1)]);
    }

    #[test]
    fn heavy_mixed_workload_is_consistent() {
        // Cross-check against a naive reference implementation.
        let mut c = LruCache::new(8);
        let mut reference: Vec<(u32, u32)> = Vec::new(); // front = MRU
        let mut seed = 123456789u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for step in 0..5000u32 {
            let key = next() % 20;
            match next() % 4 {
                0 | 1 => {
                    // insert
                    if let Some(pos) = reference.iter().position(|(k, _)| *k == key) {
                        reference.remove(pos);
                    } else if reference.len() == 8 {
                        reference.pop();
                    }
                    reference.insert(0, (key, step));
                    c.insert(key, step);
                }
                2 => {
                    // get
                    let expect = reference.iter().position(|(k, _)| *k == key);
                    let got = c.get(&key).copied();
                    match expect {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            assert_eq!(got, Some(entry.1));
                            reference.insert(0, entry);
                        }
                        None => assert_eq!(got, None),
                    }
                }
                _ => {
                    // remove
                    let expect = reference.iter().position(|(k, _)| *k == key);
                    let got = c.remove(&key);
                    match expect {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            assert_eq!(got, Some(entry.1));
                        }
                        None => assert_eq!(got, None),
                    }
                }
            }
            assert_eq!(c.len(), reference.len());
            // LRU order must match the reference exactly.
            let order: Vec<u32> = c.iter_lru().map(|(k, _)| *k).collect();
            let expected: Vec<u32> = reference.iter().rev().map(|(k, _)| *k).collect();
            assert_eq!(order, expected, "divergence at step {step}");
        }
    }
}
