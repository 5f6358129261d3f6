//! Randomized property tests for the storage substrate.
//!
//! The workspace builds without external crates, so instead of `proptest`
//! these tests drive the same invariants with many deterministic
//! pseudo-random cases generated by the kernel's seedable RNG.

use simkernel::SimRng;
use storage::{DiskUnit, DiskUnitKind, DiskUnitParams, IoKind, LruCache, StorageDevice};

use dbmodel::PageId;

const CASES: u64 = 64;

/// The LRU cache never exceeds its capacity, and a key just inserted is
/// always present.
#[test]
fn lru_capacity_invariant() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x14C4 + case);
        let capacity = 1 + rng.below(31) as usize;
        let ops = 1 + rng.below(500) as usize;
        let mut c: LruCache<u64, u64> = LruCache::new(capacity);
        for i in 0..ops {
            let key = rng.below(64);
            if rng.chance(0.5) {
                c.insert(key, i as u64);
                assert!(c.contains(&key), "case {case}");
            } else {
                c.remove(&key);
                assert!(!c.contains(&key), "case {case}");
            }
            assert!(c.len() <= capacity, "case {case}");
        }
    }
}

/// The LRU cache behaves identically to a naive reference model under an
/// arbitrary mix of inserts, gets and removes.
#[test]
fn lru_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x14C5 + case);
        let capacity = 1 + rng.below(15) as usize;
        let ops = 1 + rng.below(400) as usize;
        let mut c: LruCache<u64, u64> = LruCache::new(capacity);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // front = MRU
        for i in 0..ops {
            let op = rng.below(3);
            let key = rng.below(32);
            match op {
                0 => {
                    if let Some(pos) = reference.iter().position(|(k, _)| *k == key) {
                        reference.remove(pos);
                    } else if reference.len() == capacity {
                        reference.pop();
                    }
                    reference.insert(0, (key, i as u64));
                    c.insert(key, i as u64);
                }
                1 => {
                    let expected = reference.iter().position(|(k, _)| *k == key);
                    let got = c.get(&key).copied();
                    match expected {
                        Some(pos) => {
                            let e = reference.remove(pos);
                            assert_eq!(got, Some(e.1), "case {case}");
                            reference.insert(0, e);
                        }
                        None => assert_eq!(got, None, "case {case}"),
                    }
                }
                _ => {
                    let expected = reference
                        .iter()
                        .position(|(k, _)| *k == key)
                        .map(|p| reference.remove(p).1);
                    assert_eq!(c.remove(&key), expected, "case {case}");
                }
            }
            let order: Vec<u64> = c.iter_lru().map(|(k, _)| *k).collect();
            let expected_order: Vec<u64> = reference.iter().rev().map(|(k, _)| *k).collect();
            assert_eq!(order, expected_order, "case {case}");
        }
    }
}

/// A naive write-behind store: `(key, writes in flight)`, most recently
/// used first.
struct ReferenceStore {
    capacity: usize,
    entries: Vec<(u64, u32)>,
}

impl ReferenceStore {
    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|&(k, _)| k == key)
    }

    /// Moves the entry at `pos` to the front and returns it.
    fn promote(&mut self, pos: usize) -> &mut (u64, u32) {
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        &mut self.entries[0]
    }

    /// The least recently used clean entry.
    fn lru_clean(&self) -> Option<usize> {
        self.entries.iter().rposition(|&(_, pending)| pending == 0)
    }

    fn absorb(&mut self, key: u64) -> Option<bool> {
        if let Some(pos) = self.position(key) {
            self.promote(pos).1 += 1;
            return Some(true);
        }
        if self.entries.len() == self.capacity {
            let clean = self.lru_clean()?;
            self.entries.remove(clean);
        }
        self.entries.insert(0, (key, 1));
        Some(false)
    }

    fn admit(&mut self, key: u64, pending: u32) -> Option<u64> {
        if let Some(pos) = self.position(key) {
            self.promote(pos).1 += pending;
            return None;
        }
        let victim = (self.entries.len() == self.capacity).then(|| {
            let pos = self.lru_clean().unwrap_or(self.entries.len() - 1);
            self.entries.remove(pos).0
        });
        self.entries.insert(0, (key, pending));
        victim
    }
}

/// The LRU cache as a write-behind store behaves exactly like a naive
/// model under an arbitrary mix of every operation at capacities 1–16: the
/// whole recency order and every value agree after each one.
#[test]
fn lru_write_behind_store_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x14C6 + case);
        let capacity = 1 + rng.below(16) as usize;
        let ops = 1 + rng.below(600) as usize;
        let mut c: LruCache<u64, u32> = LruCache::new(capacity);
        let mut model = ReferenceStore {
            capacity,
            entries: Vec::new(),
        };
        for step in 0..ops {
            let key = rng.below(24);
            let pos = model.position(key);
            let at = format!("case {case}, step {step}, key {key}");
            match rng.below(14) {
                0 => {
                    let value = rng.below(3) as u32;
                    let evicted = match pos {
                        Some(pos) => {
                            model.promote(pos).1 = value;
                            None
                        }
                        None => {
                            let evicted = (model.entries.len() == capacity)
                                .then(|| model.entries.pop().expect("full"));
                            model.entries.insert(0, (key, value));
                            evicted
                        }
                    };
                    assert_eq!(c.insert(key, value), evicted, "{at}");
                }
                1 => {
                    let expected = pos.map(|pos| model.promote(pos).1);
                    assert_eq!(c.get(&key).copied(), expected, "{at}");
                }
                2 => {
                    let expected = pos.map(|pos| model.entries.remove(pos).1);
                    assert_eq!(c.remove(&key), expected, "{at}");
                }
                3 => {
                    if let Some(pos) = pos {
                        model.promote(pos);
                    }
                    assert_eq!(c.touch(&key), pos.is_some(), "{at}");
                }
                4 => {
                    let expected = pos.map(|pos| model.entries[pos].1);
                    assert_eq!(c.peek(&key).copied(), expected, "{at}");
                }
                5 => {
                    let value = rng.below(3) as u32;
                    if let Some(pos) = pos {
                        model.entries[pos].1 = value;
                    }
                    match c.peek_mut(&key) {
                        Some(slot) => *slot = value,
                        None => assert!(pos.is_none(), "{at}"),
                    }
                }
                6 => {
                    let clean = pos.is_some_and(|pos| model.entries[pos].1 == 0);
                    assert_eq!(c.is_clean(&key), clean, "{at}");
                }
                7 | 8 => assert_eq!(c.absorb(key), model.absorb(key), "{at}"),
                9 | 10 => {
                    let pending = rng.below(3) as u32;
                    assert_eq!(c.admit(key, pending), model.admit(key, pending), "{at}");
                }
                11 | 12 => {
                    if let Some(pos) = pos {
                        model.entries[pos].1 = model.entries[pos].1.saturating_sub(1);
                    }
                    assert_eq!(c.destaged(&key), pos.is_some(), "{at}");
                }
                _ => {
                    assert_eq!(
                        c.lru_key().copied(),
                        model.entries.last().map(|&(k, _)| k),
                        "{at}"
                    );
                    if rng.chance(0.5) {
                        assert_eq!(c.pop_lru(), model.entries.pop(), "{at}");
                    }
                }
            }
            let order: Vec<(u64, u32)> = c.iter_lru().map(|(&k, &v)| (k, v)).collect();
            let expected: Vec<(u64, u32)> = model.entries.iter().rev().copied().collect();
            assert_eq!(order, expected, "{at}");
            assert_eq!(c.len(), model.entries.len(), "{at}");
            assert_eq!(c.is_full(), model.entries.len() == capacity, "{at}");
        }
    }
}

/// Disk-unit invariants that must hold for every request sequence:
/// * the cache never grows beyond its configured size,
/// * every decision has a positive foreground service time,
/// * only non-volatile caches and SSDs ever absorb writes,
/// * an absorbed write on a cached unit schedules exactly one destage.
#[test]
fn disk_unit_invariants() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xD15C + case);
        let kind = match rng.below(4) {
            0 => DiskUnitKind::Regular,
            1 => DiskUnitKind::VolatileCache,
            2 => DiskUnitKind::NonVolatileCache,
            _ => DiskUnitKind::Ssd,
        };
        let cache_size = 1 + rng.below(15) as usize;
        let ops = 1 + rng.below(400) as usize;
        let mut unit = DiskUnit::new(
            "p",
            DiskUnitParams {
                kind,
                cache_size,
                ..DiskUnitParams::default()
            },
        );
        let mut destage_backlog: Vec<PageId> = Vec::new();
        for _ in 0..ops {
            let is_write = rng.chance(0.5);
            let page = rng.below(48);
            let kind_io = if is_write {
                IoKind::Write
            } else {
                IoKind::Read
            };
            // Exercise the unit through the StorageDevice trait, as the
            // engine does.
            let absorbed_before = StorageDevice::stats(&unit).absorbed_writes;
            let d = StorageDevice::request(&mut unit, kind_io, PageId(page));
            assert!(d.foreground_service_time() > 0.0, "case {case}");
            assert!(unit.cached_pages() <= cache_size, "case {case}");
            if StorageDevice::stats(&unit).absorbed_writes > absorbed_before {
                assert!(kind.absorbs_writes(), "case {case}");
                assert!(is_write, "case {case}");
            }
            if !d.background.is_empty() {
                assert_eq!(kind, DiskUnitKind::NonVolatileCache, "case {case}");
                destage_backlog.push(PageId(page));
            }
            // Occasionally complete the oldest destage, as the engine would.
            if destage_backlog.len() > 4 {
                let p = destage_backlog.remove(0);
                unit.destage_complete(p);
            }
        }
        // Statistics are consistent.
        let s = StorageDevice::stats(&unit);
        assert!(s.read_hits <= s.reads, "case {case}");
        assert!(s.write_hits <= s.writes, "case {case}");
        assert!(
            s.absorbed_writes + s.forced_sync_writes <= s.writes + s.reads,
            "case {case}"
        );
    }
}
