//! Randomized property tests for the buffer manager invariants.
//!
//! The workspace builds without external crates, so instead of `proptest`
//! these tests drive the same invariants with many deterministic
//! pseudo-random cases generated by the kernel's seedable RNG.

use bufmgr::{BufferConfig, BufferManager, PageOp, UpdateStrategy};
use dbmodel::database::PartitionSpec;
use dbmodel::{Database, PageId};
use simkernel::SimRng;

const CASES: u64 = 48;

fn database() -> Database {
    Database::from_specs(vec![
        PartitionSpec::uniform("A", 10_000, 10),
        PartitionSpec::uniform("B", 10_000, 10),
    ])
}

fn check_invariants(bm: &BufferManager, mm_cap: usize, nvem_cap: usize, case: u64) {
    assert!(bm.mm_pages() <= mm_cap, "case {case}");
    assert!(bm.nvem_pages() <= nvem_cap.max(1), "case {case}");
    let s = bm.stats();
    let mm_hits: u64 = s.per_partition.iter().map(|p| p.mm_hits).sum();
    let nvem_hits: u64 = s.per_partition.iter().map(|p| p.nvem_hits).sum();
    assert!(mm_hits + nvem_hits <= s.references(), "case {case}");
    assert!(s.dirty_evictions <= s.mm_evictions, "case {case}");
}

/// Under NOFORCE with an NVEM cache, a page is never cached in main memory
/// and the NVEM cache at the same time (exclusive caching), buffers never
/// exceed their capacity, and every dirty eviction produces exactly one
/// write (synchronous or asynchronous).
#[test]
fn noforce_exclusive_caching_invariants() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xB0F0 + case);
        let mm_cap = 1 + rng.below(11) as usize;
        let nvem_cap = 1 + rng.below(11) as usize;
        let refs = 1 + rng.below(400) as usize;
        let db = database();
        let cfg = BufferConfig::disk_based(&db, mm_cap).with_nvem_cache(nvem_cap);
        let mut bm = BufferManager::new(cfg);
        for _ in 0..refs {
            let page = rng.below(40);
            let is_write = rng.chance(0.5);
            let out = bm.reference_page(0, PageId(page), is_write);
            // Exclusive caching: the referenced page is in MM, not in NVEM.
            assert!(bm.mm_contains(PageId(page)), "case {case}");
            assert!(!bm.nvem_contains(PageId(page)), "case {case}");
            // Any UnitWrite/UnitWriteAsync in the ops refers to a page that is
            // no longer dirty in main memory (it was evicted or forced).
            for op in &out.ops {
                if let PageOp::UnitWrite { page, .. } | PageOp::UnitWriteAsync { page, .. } = op {
                    assert!(!bm.mm_is_dirty(*page), "case {case}");
                }
            }
            check_invariants(&bm, mm_cap, nvem_cap, case);
        }
    }
}

/// Under FORCE, committing (forcing) every written page leaves no dirty
/// frames behind, regardless of the reference pattern.
#[test]
fn force_leaves_no_dirty_pages() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xF04C + case);
        let mm_cap = 2 + rng.below(14) as usize;
        let num_txs = 1 + rng.below(60) as usize;
        let db = database();
        let cfg = BufferConfig::disk_based(&db, mm_cap).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        for _ in 0..num_txs {
            let tx_len = 1 + rng.below(7) as usize;
            let mut written = Vec::new();
            for _ in 0..tx_len {
                let page = rng.below(30);
                let is_write = rng.chance(0.5);
                bm.reference_page(0, PageId(page), is_write);
                if is_write {
                    written.push(PageId(page));
                }
            }
            written.sort_unstable();
            written.dedup();
            for page in written {
                bm.force_page(0, page);
                assert!(!bm.mm_is_dirty(page), "case {case}");
            }
        }
        // After forcing every transaction's pages, no page is dirty.
        for p in 0..30u64 {
            assert!(
                !bm.mm_is_dirty(PageId(p)),
                "case {case}: page {p} still dirty"
            );
        }
    }
}

/// The write buffer absorbs at most its capacity of concurrently pending
/// writes; overflows fall back to synchronous writes but never lose a
/// write-back (each dirty eviction produces exactly one write op).
#[test]
fn write_buffer_conservation() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x3B3B + case);
        let wb_cap = 1 + rng.below(5) as usize;
        let refs = 1 + rng.below(300) as usize;
        let db = database();
        let cfg = BufferConfig::disk_based(&db, 1).with_nvem_write_buffer(wb_cap);
        let mut bm = BufferManager::new(cfg);
        let mut dirty_evictions_writes = 0u64;
        for _ in 0..refs {
            // Every reference is a write with a 1-frame buffer: each new page
            // evicts the previous dirty page.
            let page = rng.below(50);
            let out = bm.reference_page(0, PageId(page), true);
            let writes = out
                .ops
                .iter()
                .filter(|o| matches!(o, PageOp::UnitWrite { .. } | PageOp::UnitWriteAsync { .. }))
                .count();
            dirty_evictions_writes += writes as u64;
        }
        let s = bm.stats();
        assert_eq!(s.dirty_evictions, dirty_evictions_writes, "case {case}");
        assert!(bm.write_buffer_pages() <= wb_cap, "case {case}");
        assert_eq!(
            s.write_buffer_absorbed + s.write_buffer_overflows,
            s.dirty_evictions,
            "case {case}"
        );
    }
}
