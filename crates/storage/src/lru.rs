//! An order-preserving LRU cache with O(1) access, insert and removal.
//!
//! Used for the disk caches (volatile and non-volatile), the second-level
//! NVEM database buffer, the NVEM write buffer and the main-memory buffer.
//!
//! A *write-behind store* — the non-volatile disk cache, the NVEM cache and
//! the NVEM write buffer — is an `LruCache<K, u32>` whose value counts the
//! page's asynchronous disk writes in flight (zero means clean).  Such a
//! store follows one rule (§3.2–3.3): a write takes a frame, the disk copy is
//! updated asynchronously, and a full store replaces "the least recently
//! accessed unmodified page" ([`LruCache::absorb`], [`LruCache::admit`],
//! [`LruCache::destaged`]).

use std::hash::Hash;

use simkernel::IdMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` only for slots on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: IdMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (capacity >= 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        Self {
            capacity,
            map: IdMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
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

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks `key` as most recently used.  Returns false if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            true
        } else {
            false
        }
    }

    /// Returns the value for `key` and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            self.nodes[idx].value.as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the value for `key`, marking it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            self.nodes[idx].value.as_mut()
        } else {
            None
        }
    }

    /// Returns the value for `key` without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.nodes[idx].value.as_ref())
    }

    /// Mutable access without affecting recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(&idx) = self.map.get(key) {
            self.nodes[idx].value.as_mut()
        } else {
            None
        }
    }

    /// Inserts (or updates) `key`, marking it most recently used.  If the
    /// cache is full the least-recently-used entry is evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicted = if self.is_full() { self.pop_lru() } else { None };
        let idx = if let Some(free) = self.free.pop() {
            self.nodes[free] = Node {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            };
            free
        } else {
            self.nodes.push(Node {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.nodes[idx].value.take()
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail].key.clone();
        let value = self.remove(&key)?;
        Some((key, value))
    }

    /// Key of the least-recently-used entry.
    pub fn lru_key(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail].key)
    }

    /// Iterates from least-recently-used to most-recently-used.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            if idx == NIL {
                None
            } else {
                let node = &self.nodes[idx];
                idx = node.prev;
                Some((
                    &node.key,
                    node.value.as_ref().expect("live node has a value"),
                ))
            }
        })
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The write-behind rule: the value counts the page's asynchronous disk
/// writes in flight, and a page with none is clean (replaceable).
impl<K: Eq + Hash + Clone> LruCache<K, u32> {
    /// True if `key` is cached with no write in flight.
    pub fn is_clean(&self, key: &K) -> bool {
        self.peek(key) == Some(&0)
    }

    /// The least recently used clean page.
    fn lru_clean(&self) -> Option<K> {
        let mut idx = self.tail;
        while idx != NIL {
            if self.nodes[idx].value == Some(0) {
                return Some(self.nodes[idx].key.clone());
            }
            idx = self.nodes[idx].prev;
        }
        None
    }

    /// A write of `key` that the store absorbs, starting one asynchronous
    /// disk write.  A cached page counts one more write and becomes most
    /// recently used; otherwise the page takes a free frame or the least
    /// recently used clean one.  Returns whether the page was cached, or
    /// `None` — changing nothing — when every frame has a write in flight.
    pub fn absorb(&mut self, key: K) -> Option<bool> {
        if let Some(pending) = self.get_mut(&key) {
            *pending += 1;
            return Some(true);
        }
        if self.is_full() {
            let clean = self.lru_clean()?;
            self.remove(&clean);
        }
        self.insert(key, 1);
        Some(false)
    }

    /// Brings `key` in with `pending` writes in flight.  A cached page adds
    /// them to its count and becomes most recently used; otherwise a full
    /// store replaces its least recently used clean page, or its plain least
    /// recently used page when none is clean (that page's writes are already
    /// under way, so nothing is lost).  Returns the page that left.
    pub fn admit(&mut self, key: K, pending: u32) -> Option<K> {
        if let Some(count) = self.get_mut(&key) {
            *count += pending;
            return None;
        }
        let victim = if self.is_full() {
            self.lru_clean().or_else(|| self.lru_key().cloned())
        } else {
            None
        };
        if let Some(victim) = &victim {
            self.remove(victim);
        }
        self.insert(key, pending);
        victim
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
