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
