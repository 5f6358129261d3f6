//! The buffer manager proper.
//!
//! All decisions of §3.2 live here: main-memory LRU caching, victim
//! write-back (directly to disk, through the NVEM write buffer, or by
//! migration into the second-level NVEM cache), exclusive (NOFORCE) versus
//! replicated (FORCE) NVEM caching, and commit-time forcing of modified pages.

use dbmodel::PageId;
use storage::LruCache;

use crate::config::{BufferConfig, PageLocation, UpdateStrategy};
use crate::dirty::{DirtyPageTable, RecLsn};
use crate::ops::{PageOp, PageOps, PageOutcome};
use crate::stats::BufferStats;

/// State of a page frame in the main-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameState {
    /// The page's partition (an index into the per-partition statistics).
    partition: u32,
    dirty: bool,
}

// A main-memory frame, links included, fills 24 bytes.
const _: () = assert!(LruCache::<PageId, FrameState>::FRAME_BYTES == 24);

/// The TPSIM buffer manager.
///
/// The second-level NVEM cache and the NVEM write buffer are write-behind
/// stores: each entry counts its page's asynchronous disk writes in flight,
/// and an entry with none is clean (freely replaceable).
#[derive(Debug)]
pub struct BufferManager {
    config: BufferConfig,
    mm: LruCache<PageId, FrameState>,
    nvem_cache: Option<LruCache<PageId, u32>>,
    write_buffer: Option<LruCache<PageId, u32>>,
    /// Committed-but-unpropagated updates for crash recovery; fed by the
    /// engine at commit, drained here whenever a page is propagated.
    dirty_table: DirtyPageTable,
    stats: BufferStats,
}

impl BufferManager {
    /// Creates a buffer manager for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`BufferConfig::validate`].
    pub fn new(config: BufferConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid buffer configuration: {msg}");
        }
        let nvem_cache =
            (config.nvem_cache_pages > 0).then(|| LruCache::new(config.nvem_cache_pages));
        let write_buffer = (config.nvem_write_buffer_pages > 0
            && config.partitions.iter().any(|p| p.use_nvem_write_buffer))
        .then(|| LruCache::new(config.nvem_write_buffer_pages));
        let stats = BufferStats::new(config.partitions.len());
        Self {
            mm: LruCache::new(config.mm_buffer_pages),
            config,
            nvem_cache,
            write_buffer,
            dirty_table: DirtyPageTable::new(),
            stats,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Current statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Resets the statistics (end of warm-up) without flushing the buffers.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of pages in the main-memory buffer.
    pub fn mm_pages(&self) -> usize {
        self.mm.len()
    }

    /// True if `page` is in the main-memory buffer.
    pub fn mm_contains(&self, page: PageId) -> bool {
        self.mm.contains(&page)
    }

    /// True if the main-memory copy of `page` is dirty.
    pub fn mm_is_dirty(&self, page: PageId) -> bool {
        self.mm.peek(&page).map(|f| f.dirty).unwrap_or(false)
    }

    /// Number of pages in the second-level NVEM cache.
    pub fn nvem_pages(&self) -> usize {
        self.nvem_cache.as_ref().map(LruCache::len).unwrap_or(0)
    }

    /// True if `page` is in the second-level NVEM cache.
    pub fn nvem_contains(&self, page: PageId) -> bool {
        self.nvem_cache.as_ref().is_some_and(|c| c.contains(&page))
    }

    /// Number of pages in the NVEM write buffer.
    pub fn write_buffer_pages(&self) -> usize {
        self.write_buffer.as_ref().map(LruCache::len).unwrap_or(0)
    }

    /// The pool's dirty-page table: pages with committed-but-unpropagated
    /// updates and their recovery LSNs (crash recovery).
    pub fn dirty_page_table(&self) -> &DirtyPageTable {
        &self.dirty_table
    }

    /// True if [`BufferManager::invalidate_page`] on `page` would do any
    /// work at all: a main-memory copy or a second-level NVEM cache entry
    /// (even one with an in-flight write, which invalidation spares but
    /// still constitutes a held copy).  For any page, a pool with
    /// `!holds_page(page)` experiences `invalidate_page(page)` as a complete
    /// no-op, so skipping it cannot change simulation state.  Under
    /// broadcast invalidation the engine's page → holders index keeps a
    /// node's bit exactly while this is true: it clears the bit when this
    /// turns false after an eviction the pool reports
    /// ([`PageOutcome::evicted`]) or after an invalidation (which reports
    /// it), and debug builds assert it at every commit fan-out.
    /// Under on-request validation a commit also clears the other nodes'
    /// bits, so a held page without its bit is a stale copy.
    pub fn holds_page(&self, page: PageId) -> bool {
        self.mm.contains(&page) || self.nvem_contains(page)
    }

    /// True if this pool holds a copy of `page` that may be shipped to
    /// another node by a direct cache-to-cache transfer: a main-memory frame
    /// or a second-level NVEM cache entry with no disk write-backs in
    /// flight.  An NVEM entry *with* pending write-backs is excluded — such
    /// an entry is spared by [`BufferManager::invalidate_page`] and may
    /// therefore be stale, so it must never serve as a donor.
    pub fn has_current_copy(&self, page: PageId) -> bool {
        self.mm.contains(&page) || self.nvem_cache.as_ref().is_some_and(|c| c.is_clean(&page))
    }

    /// Records that a transaction committed an update to `page` of
    /// `partition` under log sequence number `lsn`.  The page enters the
    /// dirty-page table only while its committed content is volatile: a
    /// main-memory-resident page always is, any other page only while its
    /// main-memory frame is dirty (a page already written back, migrated to
    /// NVEM or evicted has its committed content in non-volatile storage and
    /// needs no redo).
    pub fn note_committed_update(&mut self, partition: usize, page: PageId, lsn: RecLsn) {
        let volatile = match self.config.policy(partition).location {
            PageLocation::MainMemoryResident => true,
            _ => self.mm.peek(&page).map(|f| f.dirty).unwrap_or(false),
        };
        // Every propagation clears the page's entry, so a tracked page is
        // still volatile and its update count covers every later commit.
        debug_assert!(
            volatile || !self.dirty_table.contains(page),
            "page {page:?} reached non-volatile storage but kept its dirty-page table entry"
        );
        if volatile {
            self.dirty_table.note_committed_update(partition, page, lsn);
        }
    }

    /// References `page` of `partition` on behalf of a transaction, with
    /// `is_write` indicating a write access.  Returns the operations the
    /// transaction must perform before the access is complete.
    pub fn reference_page(
        &mut self,
        partition: usize,
        page: PageId,
        is_write: bool,
    ) -> PageOutcome {
        self.ensure_partition_stats(partition);
        self.stats.per_partition[partition].references += 1;
        let policy = self.config.policy(partition);

        // Memory-resident partitions always hit and need no propagation
        // (NOFORCE with logging only, §3.2).
        if policy.location == PageLocation::MainMemoryResident {
            self.stats.per_partition[partition].mm_hits += 1;
            return PageOutcome::default();
        }

        // Main-memory hit.
        if let Some(frame) = self.mm.get_mut(&page) {
            frame.dirty |= is_write;
            self.stats.per_partition[partition].mm_hits += 1;
            return PageOutcome::default();
        }

        // Miss: make room, fetch the page, insert it.
        let mut ops = PageOps::new();
        let evicted = if self.mm.is_full() {
            self.evict_one(&mut ops)
        } else {
            None
        };
        if self.fetch_missing_page(page, policy.location, &mut ops) {
            self.stats.per_partition[partition].nvem_hits += 1;
        }
        self.mm.insert(
            page,
            FrameState {
                partition: partition as u32,
                dirty: is_write,
            },
        );
        PageOutcome { ops, evicted }
    }

    /// Evicts the least recently used frame from main memory, appending any
    /// write-back / migration operations to `ops`.  Returns the page that
    /// left the pool: the victim itself, or — when the victim migrates into
    /// the NVEM cache — the cache's own victim, if the insert displaced one.
    fn evict_one(&mut self, ops: &mut PageOps) -> Option<PageId> {
        let (vpage, vstate) = self.mm.pop_lru()?;
        self.stats.mm_evictions += 1;
        if vstate.dirty {
            self.stats.dirty_evictions += 1;
        }
        let partition = vstate.partition as usize;
        match self.config.policy(partition).location {
            PageLocation::MainMemoryResident => {
                // Memory-resident pages never occupy buffer frames; nothing to do.
            }
            PageLocation::NvemResident => {
                if vstate.dirty {
                    // Write the page back to its NVEM home copy.
                    ops.push(PageOp::NvemTransfer {
                        page: vpage,
                        to_nvem: true,
                    });
                    self.dirty_table.clear_page(vpage);
                }
            }
            PageLocation::DiskUnit(unit) => {
                if self.nvem_cache.is_some() {
                    // The NVEM cache copy is non-volatile: committed updates
                    // survive a crash from here on.
                    self.dirty_table.clear_page(vpage);
                    ops.push(PageOp::NvemTransfer {
                        page: vpage,
                        to_nvem: true,
                    });
                    if vstate.dirty {
                        // Start the asynchronous disk update immediately so the
                        // NVEM frame can later be replaced without delay (§3.2).
                        ops.push(PageOp::UnitWriteAsync { unit, page: vpage });
                    }
                    self.stats.migrations_to_nvem += 1;
                    return self.insert_into_nvem_cache(vpage, vstate.dirty);
                } else if vstate.dirty {
                    self.write_back_dirty(vpage, partition, unit, ops);
                }
                // Without an NVEM cache, clean pages are simply dropped.
            }
        }
        Some(vpage)
    }

    /// Handles the write-back of a dirty page that does not migrate to the
    /// NVEM cache: through the NVEM write buffer if configured (and not
    /// saturated), otherwise synchronously to the partition's disk unit.
    fn write_back_dirty(&mut self, page: PageId, partition: usize, unit: usize, ops: &mut PageOps) {
        // Every path below propagates the page to non-volatile storage (the
        // NVEM write buffer or the disk itself): committed updates to it no
        // longer need redo.
        self.dirty_table.clear_page(page);
        let use_wb = self.config.policy(partition).use_nvem_write_buffer;
        if use_wb {
            if let Some(wb) = self.write_buffer.as_mut() {
                if wb.absorb(page).is_some() {
                    ops.push(PageOp::NvemTransfer {
                        page,
                        to_nvem: true,
                    });
                    ops.push(PageOp::UnitWriteAsync { unit, page });
                    self.stats.write_buffer_absorbed += 1;
                    return;
                }
                // Every write-buffer frame still has a pending disk update:
                // fall through to a synchronous disk write.
                self.stats.write_buffer_overflows += 1;
            }
        }
        ops.push(PageOp::UnitWrite { unit, page });
    }

    /// Produces the read operation for a missing page and reports whether it
    /// was a second-level NVEM cache hit.
    fn fetch_missing_page(
        &mut self,
        page: PageId,
        location: PageLocation,
        ops: &mut PageOps,
    ) -> bool {
        match location {
            PageLocation::MainMemoryResident => false,
            PageLocation::NvemResident => {
                ops.push(PageOp::NvemTransfer {
                    page,
                    to_nvem: false,
                });
                false
            }
            PageLocation::DiskUnit(unit) => {
                let in_nvem = self
                    .nvem_cache
                    .as_mut()
                    .is_some_and(|c| c.get(&page).is_some());
                if in_nvem {
                    ops.push(PageOp::NvemTransfer {
                        page,
                        to_nvem: false,
                    });
                    if self.config.update_strategy == UpdateStrategy::NoForce {
                        // Exclusive caching: the page now lives in main memory
                        // only ("the page copy in NVEM is deleted", §3.2).
                        if let Some(c) = self.nvem_cache.as_mut() {
                            c.remove(&page);
                        }
                        self.stats.migrations_from_nvem += 1;
                    }
                    true
                } else {
                    ops.push(PageOp::UnitRead { unit, page });
                    false
                }
            }
        }
    }

    /// Inserts a page into the second-level NVEM cache, with one disk write
    /// in flight if it is `dirty`, preferring to replace a clean (already
    /// destaged) frame when the cache is full.  Returns the page the insert
    /// displaced, if any.
    fn insert_into_nvem_cache(&mut self, page: PageId, dirty: bool) -> Option<PageId> {
        self.nvem_cache.as_mut()?.admit(page, u32::from(dirty))
    }

    /// Commit-time forcing of a modified page (FORCE strategy).  Returns the
    /// operations the committing transaction must wait for (asynchronous disk
    /// updates excluded) and the page the force evicted from the NVEM cache.
    pub fn force_page(&mut self, partition: usize, page: PageId) -> PageOutcome {
        self.ensure_partition_stats(partition);
        let policy = self.config.policy(partition);
        let mut forced = PageOutcome::default();
        match policy.location {
            PageLocation::MainMemoryResident => {
                // Memory-resident partitions use NOFORCE semantics.
            }
            PageLocation::NvemResident => {
                if self.mark_clean_if_dirty(page) {
                    self.dirty_table.clear_page(page);
                    forced.ops.push(PageOp::NvemTransfer {
                        page,
                        to_nvem: true,
                    });
                    self.stats.forced_pages += 1;
                }
            }
            PageLocation::DiskUnit(unit) => {
                if !self.mark_clean_if_dirty(page) {
                    // The page was already written back (e.g. evicted before
                    // commit); nothing to force.
                    return forced;
                }
                self.stats.forced_pages += 1;
                if self.nvem_cache.is_some() {
                    // FORCE writes the update to the NVEM cache; the page also
                    // stays buffered in main memory (replication, §3.2).
                    self.dirty_table.clear_page(page);
                    forced.ops.push(PageOp::NvemTransfer {
                        page,
                        to_nvem: true,
                    });
                    forced.ops.push(PageOp::UnitWriteAsync { unit, page });
                    forced.evicted = self.insert_into_nvem_cache(page, true);
                    self.stats.migrations_to_nvem += 1;
                } else {
                    self.write_back_dirty(page, partition, unit, &mut forced.ops);
                }
            }
        }
        forced
    }

    /// Marks the main-memory copy of `page` clean.  Returns true if the page
    /// was present and dirty.
    fn mark_clean_if_dirty(&mut self, page: PageId) -> bool {
        if let Some(frame) = self.mm.peek_mut(&page) {
            if frame.dirty {
                frame.dirty = false;
                return true;
            }
        }
        false
    }

    /// Reports the completion of an asynchronous disk write started by an
    /// earlier [`PageOp::UnitWriteAsync`]: the corresponding NVEM cache or
    /// write-buffer frame becomes clean (replaceable).
    pub fn async_write_complete(&mut self, page: PageId) {
        if self.nvem_cache.as_mut().is_some_and(|c| c.destaged(&page)) {
            return;
        }
        if let Some(wb) = self.write_buffer.as_mut() {
            wb.destaged(&page);
        }
    }

    /// Drops any buffered copy of `page` because another node committed an
    /// update to it (data sharing: cross-node buffer invalidation).  The
    /// stale copy is discarded without a write-back even if it is dirty
    /// (possible under NOFORCE): its update is superseded by the committing
    /// node's version, which that node holds dirty in its own pool and will
    /// itself propagate — only the latest owner writes the page, as in a
    /// real coherence protocol.
    ///
    /// Frames that track an *in-flight* asynchronous disk write of a version
    /// this node produced earlier are left alone so the write's completion
    /// bookkeeping stays consistent: write-buffer frames always, and
    /// NVEM-cache entries while their pending count is non-zero.  Returns
    /// true if the pool still holds the page afterwards
    /// ([`BufferManager::holds_page`]): an NVEM-cache entry spared for its
    /// in-flight write.
    ///
    /// The dirty-page table is not touched: it has entries only on a
    /// single-node run, where no other node's commit invalidates a page.
    pub fn invalidate_page(&mut self, page: PageId) -> bool {
        let mut dropped = self.mm.remove(&page).is_some();
        let mut spared = false;
        if let Some(cache) = self.nvem_cache.as_mut() {
            match cache.peek(&page) {
                Some(0) => {
                    cache.remove(&page);
                    dropped = true;
                }
                Some(_) => spared = true,
                None => {}
            }
        }
        if dropped {
            self.stats.invalidations += 1;
        }
        spared
    }

    /// Drops any buffered copy of `page` *unconditionally* because a
    /// reference found it stale (on-request validation: the pool holds the
    /// page, but another node's commit has since cleared this node's holder
    /// bit).
    /// Unlike commit-time [`BufferManager::invalidate_page`] this also
    /// removes a second-level NVEM entry with write-backs still in flight:
    /// the stale copy must not satisfy the re-read that follows, and the
    /// in-flight writes' completions tolerate a missing entry
    /// ([`BufferManager::async_write_complete`] simply finds nothing to
    /// decrement).  Like invalidation it leaves the dirty-page table alone,
    /// which is empty on every multi-node run.  Returns true if a copy was
    /// dropped.
    pub fn discard_stale_copy(&mut self, page: PageId) -> bool {
        let mut dropped = self.mm.remove(&page).is_some();
        if let Some(cache) = self.nvem_cache.as_mut() {
            dropped |= cache.remove(&page).is_some();
        }
        if dropped {
            self.stats.invalidations += 1;
        }
        dropped
    }

    fn ensure_partition_stats(&mut self, partition: usize) {
        if partition >= self.stats.per_partition.len() {
            self.stats
                .per_partition
                .resize(partition + 1, Default::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionPolicy;
    use dbmodel::database::PartitionSpec;
    use dbmodel::Database;

    fn db() -> Database {
        Database::from_specs(vec![
            PartitionSpec::uniform("A", 1000, 10),
            PartitionSpec::uniform("B", 1000, 10),
        ])
    }

    fn disk_config(mm: usize) -> BufferConfig {
        BufferConfig::disk_based(&db(), mm)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut bm = BufferManager::new(disk_config(10));
        let miss = bm.reference_page(0, PageId(1), false);
        assert_eq!(bm.stats().per_partition[0].mm_hits, 0);
        assert_eq!(
            miss.ops.to_vec(),
            vec![PageOp::UnitRead {
                unit: 0,
                page: PageId(1)
            }]
        );
        let hit = bm.reference_page(0, PageId(1), false);
        assert_eq!(bm.stats().per_partition[0].mm_hits, 1);
        assert!(hit.ops.is_empty());
        assert!((bm.stats().mm_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_access_marks_frame_dirty_and_forces_writeback_on_eviction() {
        let mut bm = BufferManager::new(disk_config(2));
        bm.reference_page(0, PageId(1), true);
        assert!(bm.mm_is_dirty(PageId(1)));
        bm.reference_page(0, PageId(2), false);
        // Third page evicts page 1 (dirty) → synchronous write-back + read.
        let out = bm.reference_page(0, PageId(3), false);
        assert_eq!(
            out.ops.to_vec(),
            vec![
                PageOp::UnitWrite {
                    unit: 0,
                    page: PageId(1)
                },
                PageOp::UnitRead {
                    unit: 0,
                    page: PageId(3)
                },
            ]
        );
        assert_eq!(bm.stats().mm_evictions, 1);
        assert_eq!(bm.stats().dirty_evictions, 1);
        assert!(!bm.mm_contains(PageId(1)));
    }

    #[test]
    fn clean_eviction_needs_no_writeback() {
        let mut bm = BufferManager::new(disk_config(1));
        bm.reference_page(0, PageId(1), false);
        let out = bm.reference_page(0, PageId(2), false);
        assert_eq!(
            out.ops.to_vec(),
            vec![PageOp::UnitRead {
                unit: 0,
                page: PageId(2)
            }]
        );
        assert_eq!(bm.stats().dirty_evictions, 0);
    }

    #[test]
    fn memory_resident_partition_always_hits() {
        let mut cfg = disk_config(1);
        cfg.partitions[1] = PartitionPolicy::memory_resident();
        let mut bm = BufferManager::new(cfg);
        for i in 0..100 {
            let out = bm.reference_page(1, PageId(1000 + i), true);
            assert_eq!(out, PageOutcome::default());
        }
        assert_eq!(bm.mm_pages(), 0);
        assert!((bm.stats().per_partition[1].mm_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nvem_resident_partition_reads_and_writes_through_nvem() {
        let mut cfg = disk_config(1);
        cfg.partitions[0] = PartitionPolicy::nvem_resident();
        let mut bm = BufferManager::new(cfg);
        let out = bm.reference_page(0, PageId(1), true);
        assert_eq!(
            out.ops.to_vec(),
            vec![PageOp::NvemTransfer {
                page: PageId(1),
                to_nvem: false
            }]
        );
        // Evicting the dirty page writes it back to NVEM, not to a disk unit.
        let out2 = bm.reference_page(0, PageId(2), false);
        assert_eq!(
            out2.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1),
                    to_nvem: true
                },
                PageOp::NvemTransfer {
                    page: PageId(2),
                    to_nvem: false
                },
            ]
        );
    }

    #[test]
    fn nvem_write_buffer_absorbs_dirty_evictions() {
        let cfg = disk_config(1).with_nvem_write_buffer(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        let out = bm.reference_page(0, PageId(2), false);
        assert_eq!(
            out.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1),
                    to_nvem: true
                },
                PageOp::UnitWriteAsync {
                    unit: 0,
                    page: PageId(1)
                },
                PageOp::UnitRead {
                    unit: 0,
                    page: PageId(2)
                },
            ]
        );
        assert_eq!(bm.stats().write_buffer_absorbed, 1);
        assert_eq!(bm.write_buffer_pages(), 1);
        // Completion of the async write makes the frame clean again.
        bm.async_write_complete(PageId(1));
    }

    #[test]
    fn full_write_buffer_falls_back_to_synchronous_writes() {
        let cfg = disk_config(1).with_nvem_write_buffer(2);
        let mut bm = BufferManager::new(cfg);
        // Three dirty evictions without any async completion: the third one
        // finds the write buffer full of pending pages.
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), true); // evicts 1 → WB
        bm.reference_page(0, PageId(3), true); // evicts 2 → WB
        let out = bm.reference_page(0, PageId(4), true); // evicts 3 → overflow
        assert!(out.ops.contains(&PageOp::UnitWrite {
            unit: 0,
            page: PageId(3)
        }));
        assert_eq!(bm.stats().write_buffer_overflows, 1);
        // After a completion there is room again.
        bm.async_write_complete(PageId(1));
        let out = bm.reference_page(0, PageId(5), true); // evicts 4
        assert!(out.ops.contains(&PageOp::UnitWriteAsync {
            unit: 0,
            page: PageId(4)
        }));
    }

    #[test]
    fn noforce_nvem_cache_is_exclusive() {
        let cfg = disk_config(2).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false);
        // Page 3 evicts page 1 → migrates to NVEM cache (dirty → async write).
        let out = bm.reference_page(0, PageId(3), false);
        assert_eq!(
            out.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1),
                    to_nvem: true
                },
                PageOp::UnitWriteAsync {
                    unit: 0,
                    page: PageId(1)
                },
                PageOp::UnitRead {
                    unit: 0,
                    page: PageId(3)
                },
            ]
        );
        assert!(bm.nvem_contains(PageId(1)));
        assert!(!bm.mm_contains(PageId(1)));
        // Re-referencing page 1: NVEM hit, page moves back to main memory and
        // is removed from the NVEM cache (exclusive caching).
        let out = bm.reference_page(0, PageId(1), false);
        assert_eq!(bm.stats().per_partition[0].nvem_hits, 1);
        assert_eq!(out.ops.len(), 2); // eviction of page 2 (clean → dropped) has no op
        assert!(matches!(
            out.ops.last(),
            Some(PageOp::NvemTransfer { to_nvem: false, .. })
        ));
        assert!(!bm.nvem_contains(PageId(1)));
        assert!(bm.mm_contains(PageId(1)));
        assert_eq!(bm.stats().migrations_from_nvem, 1);
    }

    #[test]
    fn force_nvem_cache_replicates_pages() {
        let cfg = disk_config(4)
            .with_nvem_cache(4)
            .with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        let forced = bm.force_page(0, PageId(1));
        assert_eq!(
            forced.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1),
                    to_nvem: true
                },
                PageOp::UnitWriteAsync {
                    unit: 0,
                    page: PageId(1)
                },
            ]
        );
        // The page stays in main memory *and* in the NVEM cache.
        assert!(bm.mm_contains(PageId(1)));
        assert!(bm.nvem_contains(PageId(1)));
        assert!(!bm.mm_is_dirty(PageId(1)));
        assert_eq!(bm.stats().forced_pages, 1);
        // Under FORCE an NVEM hit does not remove the NVEM copy.
        // Evict page 1 from MM first (clean now, so it is silently dropped).
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(3), false);
        bm.reference_page(0, PageId(4), false);
        bm.reference_page(0, PageId(5), false);
        assert!(!bm.mm_contains(PageId(1)));
        let out = bm.reference_page(0, PageId(1), false);
        assert_eq!(
            out.ops.last(),
            Some(&PageOp::NvemTransfer {
                page: PageId(1),
                to_nvem: false
            })
        );
        assert_eq!(bm.stats().per_partition[0].nvem_hits, 1);
        assert!(bm.nvem_contains(PageId(1)));
    }

    #[test]
    fn force_page_without_dirty_copy_is_a_noop() {
        let cfg = disk_config(4).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        assert!(bm.force_page(0, PageId(1)).ops.is_empty());
        assert!(bm.force_page(0, PageId(99)).ops.is_empty());
        assert_eq!(bm.stats().forced_pages, 0);
    }

    #[test]
    fn force_page_without_nvem_goes_to_disk_synchronously() {
        let cfg = disk_config(4).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(1, PageId(7), true);
        let forced = bm.force_page(1, PageId(7));
        assert_eq!(
            forced.ops.to_vec(),
            vec![PageOp::UnitWrite {
                unit: 0,
                page: PageId(7)
            }]
        );
        assert!(!bm.mm_is_dirty(PageId(7)));
        // Forcing again is a no-op (already clean).
        assert!(bm.force_page(1, PageId(7)).ops.is_empty());
    }

    #[test]
    fn nvem_cache_serves_only_disk_resident_partitions() {
        let mut cfg = disk_config(1).with_nvem_cache(4);
        cfg.partitions = vec![
            PartitionPolicy::on_disk_unit(0),
            PartitionPolicy::nvem_resident(),
            PartitionPolicy::memory_resident(),
        ];
        let mut bm = BufferManager::new(cfg);
        // A memory-resident page never occupies a frame, so it never migrates.
        assert_eq!(
            bm.reference_page(2, PageId(2000), true),
            PageOutcome::default()
        );
        bm.reference_page(1, PageId(1000), true);
        // The dirty NVEM-resident victim goes back to its NVEM home copy.
        let out = bm.reference_page(0, PageId(1), true);
        assert_eq!(
            out.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1000),
                    to_nvem: true
                },
                PageOp::UnitRead {
                    unit: 0,
                    page: PageId(1)
                },
            ]
        );
        // The disk partition's dirty victim migrates and starts its disk update.
        let out = bm.reference_page(1, PageId(1001), false);
        assert_eq!(
            out.ops.to_vec(),
            vec![
                PageOp::NvemTransfer {
                    page: PageId(1),
                    to_nvem: true
                },
                PageOp::UnitWriteAsync {
                    unit: 0,
                    page: PageId(1)
                },
                PageOp::NvemTransfer {
                    page: PageId(1001),
                    to_nvem: false
                },
            ]
        );
        // A clean NVEM-resident victim is simply dropped.
        bm.reference_page(0, PageId(2), false);
        for page in [1000, 1001, 2000] {
            assert!(!bm.nvem_contains(PageId(page)), "page {page}");
        }
        assert!(bm.nvem_contains(PageId(1)));
        assert_eq!(bm.nvem_pages(), 1);
        assert_eq!(bm.stats().migrations_to_nvem, 1);
    }

    #[test]
    fn nvem_cache_prefers_replacing_clean_frames() {
        let cfg = disk_config(1).with_nvem_cache(2);
        let mut bm = BufferManager::new(cfg);
        // Create three migrations: 1 dirty, 2 clean, 3 clean.
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 (dirty) → NVEM
        bm.reference_page(0, PageId(3), false); // evicts 2 (clean) → NVEM
        assert!(bm.nvem_contains(PageId(1)) && bm.nvem_contains(PageId(2)));
        // Next migration must replace page 2 (clean) and keep page 1 (pending
        // disk update).
        bm.reference_page(0, PageId(4), false); // evicts 3 → NVEM
        assert!(bm.nvem_contains(PageId(1)));
        assert!(!bm.nvem_contains(PageId(2)));
        assert!(bm.nvem_contains(PageId(3)));
        // After the async write of page 1 completes it becomes replaceable.
        bm.async_write_complete(PageId(1));
        bm.reference_page(0, PageId(5), false); // evicts 4 → NVEM replaces 1
        assert!(!bm.nvem_contains(PageId(1)));
    }

    #[test]
    fn per_partition_hit_ratios_are_tracked_separately() {
        let mut bm = BufferManager::new(disk_config(10));
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(1, PageId(500), false);
        let s = bm.stats();
        assert_eq!(s.per_partition[0].references, 2);
        assert!((s.per_partition[0].mm_hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.per_partition[1].references, 1);
        assert_eq!(s.per_partition[1].mm_hits, 0);
        assert_eq!(s.references(), 3);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let mut cfg = disk_config(10);
        cfg.mm_buffer_pages = 0;
        let _ = BufferManager::new(cfg);
    }

    #[test]
    fn invalidate_page_drops_mm_and_nvem_copies() {
        let cfg = disk_config(2).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(3), false); // evicts 1 (clean) → NVEM cache
        assert!(bm.nvem_contains(PageId(1)));
        assert!(bm.mm_contains(PageId(2)));
        // Invalidate a main-memory copy and a clean NVEM-cache copy: the
        // pool holds neither page afterwards.
        assert!(!bm.invalidate_page(PageId(2)));
        assert!(!bm.invalidate_page(PageId(1)));
        assert!(!bm.mm_contains(PageId(2)));
        assert!(!bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 2);
        // Pages this node never buffered are a no-op.
        assert!(!bm.invalidate_page(PageId(99)));
        assert_eq!(bm.stats().invalidations, 2);
        // The next reference misses again (the stale copy is gone).
        let out = bm.reference_page(0, PageId(2), false);
        assert_eq!(
            out.ops.last(),
            Some(&PageOp::UnitRead {
                unit: 0,
                page: PageId(2)
            })
        );
    }

    #[test]
    fn invalidate_page_spares_nvem_entries_with_inflight_writes() {
        let cfg = disk_config(1).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, async write pending
        assert!(bm.nvem_contains(PageId(1)));
        // The pending entry tracks an in-flight disk write: invalidation must
        // leave its bookkeeping alone, and reports that the pool still
        // holds the page.
        assert!(bm.invalidate_page(PageId(1)));
        assert!(bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 0);
        // Once the write completes the entry is a plain (clean) cache copy
        // and becomes invalidatable.
        bm.async_write_complete(PageId(1));
        assert!(!bm.invalidate_page(PageId(1)));
        assert!(!bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 1);
    }

    #[test]
    fn dirty_table_tracks_committed_updates_until_writeback() {
        let mut bm = BufferManager::new(disk_config(2));
        bm.reference_page(0, PageId(1), true);
        // Commit of the update: the page is dirty in MM only → tracked.
        bm.note_committed_update(0, PageId(1), 7);
        assert_eq!(bm.dirty_page_table().rec_lsn(PageId(1)), Some(7));
        assert_eq!(bm.dirty_page_table().min_rec_lsn(), Some(7));
        // Eviction writes the page back → the committed update is durable.
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(3), false); // evicts page 1 (dirty)
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn dirty_table_ignores_already_propagated_commits() {
        let mut bm = BufferManager::new(disk_config(1));
        bm.reference_page(0, PageId(1), true);
        // Evicting page 1 writes it back synchronously.
        bm.reference_page(0, PageId(2), false);
        // The commit arrives after the page was already written back: no redo
        // will ever be needed, so the table must stay empty.
        bm.note_committed_update(0, PageId(1), 3);
        assert!(bm.dirty_page_table().is_empty());
        // A clean page (read only) is never tracked either.
        bm.note_committed_update(0, PageId(2), 4);
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn dirty_table_always_tracks_memory_resident_partitions() {
        let mut cfg = disk_config(1);
        cfg.partitions[1] = PartitionPolicy::memory_resident();
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(1, PageId(500), true);
        bm.note_committed_update(1, PageId(500), 9);
        // MM-resident pages are never written back; their committed updates
        // stay volatile until a crash replays them from the log.
        assert_eq!(bm.dirty_page_table().rec_lsn(PageId(500)), Some(9));
    }

    #[test]
    fn force_and_migration_clear_the_dirty_table() {
        // FORCE to disk.
        let cfg = disk_config(4).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.note_committed_update(0, PageId(1), 1);
        assert_eq!(bm.dirty_page_table().len(), 1);
        bm.force_page(0, PageId(1));
        assert!(bm.dirty_page_table().is_empty());
        // Migration into the (non-volatile) NVEM cache.
        let cfg = disk_config(1).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.note_committed_update(0, PageId(1), 2);
        bm.reference_page(0, PageId(2), false); // evicts 1 → NVEM cache
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn holds_page_matches_invalidate_page_reach() {
        // `holds_page` must be true exactly when `invalidate_page` would do
        // any work: MM copy or NVEM-cache entry (pending or not); and
        // `invalidate_page` reports what the pool still holds.
        let cfg = disk_config(1).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        assert!(!bm.holds_page(PageId(1)));
        bm.reference_page(0, PageId(1), true);
        assert!(bm.holds_page(PageId(1))); // MM copy
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, pending write
        assert!(bm.holds_page(PageId(1))); // NVEM entry, even with pending > 0
        assert!(bm.invalidate_page(PageId(1))); // spared
        assert!(bm.holds_page(PageId(1)));
        bm.async_write_complete(PageId(1));
        assert!(bm.holds_page(PageId(1))); // NVEM entry, clean
        assert!(!bm.invalidate_page(PageId(1)));
        assert!(!bm.holds_page(PageId(1)));
        // FORCE replicates a page in main memory and the NVEM cache: the
        // main-memory copy goes, the entry with its write in flight stays.
        let cfg = disk_config(2)
            .with_nvem_cache(4)
            .with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.force_page(0, PageId(1));
        assert!(bm.mm_contains(PageId(1)) && bm.nvem_contains(PageId(1)));
        assert!(bm.invalidate_page(PageId(1)));
        assert!(!bm.mm_contains(PageId(1)) && bm.holds_page(PageId(1)));
        assert_eq!(bm.stats().invalidations, 1);
    }

    #[test]
    fn eviction_report_names_main_memory_victims_that_leave_the_pool() {
        let mut cfg = disk_config(1);
        cfg.partitions[1] = PartitionPolicy::nvem_resident();
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        // A dirty victim is written back and reported ...
        let out = bm.reference_page(0, PageId(2), false);
        assert_eq!(out.evicted, Some(PageId(1)));
        assert!(!bm.holds_page(PageId(1)));
        // ... and so is a clean one, which is simply dropped.
        let out = bm.reference_page(1, PageId(1000), true);
        assert_eq!(out.evicted, Some(PageId(2)));
        // An NVEM-resident victim goes back to its home copy, not to a cache.
        let out = bm.reference_page(0, PageId(3), false);
        assert_eq!(out.evicted, Some(PageId(1000)));
        assert!(!bm.holds_page(PageId(1000)));
    }

    #[test]
    fn eviction_report_names_nvem_cache_victims_but_not_migrations() {
        let cfg = disk_config(1).with_nvem_cache(1);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        // Page 1 migrates into the NVEM cache: the pool still holds it.
        let out = bm.reference_page(0, PageId(2), false);
        assert_eq!(out.evicted, None);
        assert!(bm.holds_page(PageId(1)));
        // Page 2's migration displaces page 1 from the full cache.
        let out = bm.reference_page(0, PageId(3), false);
        assert_eq!(out.evicted, Some(PageId(1)));
        assert!(!bm.holds_page(PageId(1)));

        // FORCE: the forced page's NVEM insert displaces an earlier forced
        // page, whose replicated main-memory copy the pool still holds.
        let cfg = disk_config(4)
            .with_nvem_cache(1)
            .with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        assert_eq!(bm.force_page(0, PageId(1)).evicted, None);
        bm.reference_page(0, PageId(2), true);
        assert_eq!(bm.force_page(0, PageId(2)).evicted, Some(PageId(1)));
        assert!(!bm.nvem_contains(PageId(1)));
        assert!(bm.holds_page(PageId(1)));
    }

    #[test]
    fn hits_and_misses_without_eviction_report_nothing() {
        let mut cfg = disk_config(2);
        cfg.partitions[1] = PartitionPolicy::memory_resident();
        let mut bm = BufferManager::new(cfg);
        assert_eq!(bm.reference_page(0, PageId(1), true).evicted, None);
        assert_eq!(bm.reference_page(0, PageId(1), false).evicted, None);
        assert_eq!(bm.reference_page(1, PageId(500), true).evicted, None);
        assert_eq!(bm.reference_page(0, PageId(2), false).evicted, None);
        // Forcing without an NVEM cache writes to disk and evicts nothing.
        let cfg = disk_config(2).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        assert_eq!(bm.force_page(0, PageId(1)).evicted, None);
    }

    #[test]
    fn spared_pending_nvem_entry_still_serves_hits_afterwards() {
        // Pins the current (intended under BroadcastInvalidate) behavior for
        // the stale-NVEM-hit window: an NVEM entry spared by invalidation
        // because of an in-flight write remains referencable and serves a
        // second-level hit on the next miss.  OnRequestValidate closes this
        // window at the engine level: a commit clears the other nodes'
        // holder bits, and a reference to a held copy without its bit
        // discards the copy first.
        let cfg = disk_config(1).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, pending
        assert!(bm.invalidate_page(PageId(1))); // spared: pending > 0
        bm.reference_page(0, PageId(1), false); // evicts 2, refetches 1
        assert_eq!(
            bm.stats().per_partition[0].nvem_hits,
            1,
            "spared entry serves the stale hit"
        );
    }

    #[test]
    fn discard_stale_copy_removes_even_pending_nvem_entries() {
        // Same setup as above, but the on-request-validation discard must
        // remove the pending entry so the re-read cannot hit it, and the
        // in-flight write's completion must tolerate the missing entry.
        let cfg = disk_config(1).with_nvem_cache(4);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, pending
        assert!(bm.nvem_contains(PageId(1)));
        assert!(
            !bm.has_current_copy(PageId(1)),
            "a pending NVEM entry may be stale and must never donate"
        );
        assert!(bm.has_current_copy(PageId(2)));
        assert!(bm.discard_stale_copy(PageId(1)));
        assert!(!bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 1);
        bm.async_write_complete(PageId(1)); // in-flight write completes: no-op
        let out = bm.reference_page(0, PageId(1), false);
        assert_eq!(
            bm.stats().per_partition[0].nvem_hits,
            0,
            "discarded entry no longer serves hits"
        );
        assert!(out.ops.contains(&PageOp::UnitRead {
            unit: 0,
            page: PageId(1)
        }));
        // Discard with no copy anywhere is a complete no-op.
        assert!(!bm.discard_stale_copy(PageId(99)));
        assert_eq!(bm.stats().invalidations, 1);
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn mm_evicts_in_lru_order() {
        // A hit refreshes the page's recency before the next eviction.
        let mut bm = BufferManager::new(disk_config(2));
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(1), false); // touch 1; 2 is now LRU
        bm.reference_page(0, PageId(3), false); // evicts 2
        assert!(bm.mm_contains(PageId(1)));
        assert!(!bm.mm_contains(PageId(2)));
    }

    #[test]
    fn reset_stats_keeps_buffer_contents() {
        let mut bm = BufferManager::new(disk_config(10));
        bm.reference_page(0, PageId(1), false);
        bm.reset_stats();
        assert_eq!(bm.stats().references(), 0);
        assert!(bm.mm_contains(PageId(1)));
        let out = bm.reference_page(0, PageId(1), false);
        assert!(out.ops.is_empty());
        assert_eq!(bm.stats().per_partition[0].mm_hits, 1);
    }
}
