//! The buffer manager proper.
//!
//! All decisions of §3.2 live here: main-memory LRU caching, victim
//! write-back (directly to disk, through the NVEM write buffer, or by
//! migration into the second-level NVEM cache), exclusive (NOFORCE) versus
//! replicated (FORCE) NVEM caching, and commit-time forcing of modified pages.

use dbmodel::PageId;
use storage::{LruCache, LruKTracker};

use crate::config::{BufferConfig, PageLocation, UpdateStrategy};
use crate::dirty::{DirtyPageTable, RecLsn};
use crate::ops::{FetchOutcome, PageOp, PageOps};
use crate::stats::BufferStats;

/// State of a page frame in the main-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameState {
    partition: usize,
    dirty: bool,
    /// The frame was filled by a speculative (prefetch) read and has not
    /// been referenced yet.  The first reference clears it and counts a
    /// prefetch hit; dropping the frame unreferenced counts it wasted.
    prefetched: bool,
}

/// Outcome of admitting a speculatively read page
/// ([`BufferManager::admit_prefetched`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchAdmit {
    /// The page was inserted into the main-memory buffer.
    Admitted,
    /// A copy was already buffered; the speculative read bought nothing
    /// (counted wasted).
    AlreadyResident,
    /// The buffer is full and every victim candidate is dirty: speculative
    /// data never evicts dirty pages, so the page was dropped (counted
    /// wasted).
    Rejected,
}

/// State of a page in the second-level NVEM cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NvemEntry {
    partition: usize,
    /// Asynchronous disk writes still in flight for this page.  The entry is
    /// "clean" (freely replaceable) once this reaches zero.
    pending: u32,
}

/// The TPSIM buffer manager.
#[derive(Debug)]
pub struct BufferManager {
    config: BufferConfig,
    mm: LruCache<PageId, FrameState>,
    /// LRU-K access history for the main-memory buffer, active only when
    /// `config.lru_k > 1`; with K = 1 victim selection uses the buffer's
    /// intrinsic LRU chain, bit-for-bit as before.  Kept strictly in sync
    /// with `mm`'s key set.
    lru_k: Option<LruKTracker<PageId>>,
    nvem_cache: Option<LruCache<PageId, NvemEntry>>,
    write_buffer: Option<LruCache<PageId, u32>>,
    /// Committed-but-unpropagated updates for crash recovery; fed by the
    /// engine at commit, drained here whenever a page is propagated.
    dirty_table: DirtyPageTable,
    stats: BufferStats,
    /// Invalidations that found no buffered copy to drop but did clear a
    /// dirty-page-table entry (the page was evicted/written back while a
    /// remote commit superseded its redo entry).  Kept outside
    /// [`BufferStats`] so report renderings stay byte-identical.
    dpt_only_clears: u64,
    /// Per-partition count of prefetched frames whose first reference was a
    /// main-memory hit.  Kept outside [`BufferStats`] (like
    /// `dpt_only_clears`) so report renderings stay byte-identical; the
    /// engine folds these into the per-device scheduler report.
    prefetch_hits: Vec<u64>,
    /// Per-partition count of speculative reads that bought nothing: the
    /// page was already resident at admission, admission was rejected, or
    /// the prefetched frame was dropped without ever being referenced.
    prefetch_wasted: Vec<u64>,
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
        let nvem_cache = (config.nvem_cache_pages > 0
            && config.partitions.iter().any(|p| p.nvem_cache.enabled()))
        .then(|| LruCache::new(config.nvem_cache_pages));
        let write_buffer = (config.nvem_write_buffer_pages > 0
            && config.partitions.iter().any(|p| p.use_nvem_write_buffer))
        .then(|| LruCache::new(config.nvem_write_buffer_pages));
        let stats = BufferStats::new(config.partitions.len());
        let lru_k = (config.lru_k > 1).then(|| LruKTracker::new(config.lru_k));
        let partitions = config.partitions.len();
        Self {
            mm: LruCache::new(config.mm_buffer_pages),
            lru_k,
            config,
            nvem_cache,
            write_buffer,
            dirty_table: DirtyPageTable::new(),
            stats,
            dpt_only_clears: 0,
            prefetch_hits: vec![0; partitions],
            prefetch_wasted: vec![0; partitions],
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
        self.dpt_only_clears = 0;
        self.prefetch_hits.iter_mut().for_each(|c| *c = 0);
        self.prefetch_wasted.iter_mut().for_each(|c| *c = 0);
    }

    /// Invalidations that cleared only a dirty-page-table entry (no buffered
    /// copy was present any more); see [`BufferManager::invalidate_page`].
    pub fn dpt_only_clears(&self) -> u64 {
        self.dpt_only_clears
    }

    /// Per-partition count of prefetched frames whose first reference hit
    /// in main memory (see [`BufferManager::admit_prefetched`]).
    pub fn prefetch_hits(&self) -> &[u64] {
        &self.prefetch_hits
    }

    /// Per-partition count of speculative reads that bought nothing (see
    /// [`BufferManager::admit_prefetched`]).
    pub fn prefetch_wasted(&self) -> &[u64] {
        &self.prefetch_wasted
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
    /// work at all: a main-memory copy, a second-level NVEM cache entry
    /// (even one with an in-flight write, which invalidation spares but
    /// still constitutes a held copy) or a dirty-page-table entry.  The
    /// engine's page→holders index uses this as the ground truth when
    /// asserting index-vs-broadcast equivalence: for any page, a node with
    /// `!holds_page(page)` experiences `invalidate_page(page)` as a complete
    /// no-op, so skipping it cannot change simulation state.
    pub fn holds_page(&self, page: PageId) -> bool {
        self.mm.contains(&page)
            || self.nvem_contains(page)
            || self.dirty_table.rec_lsn(page).is_some()
    }

    /// True if this pool holds a copy of `page` that may be shipped to
    /// another node by a direct cache-to-cache transfer: a main-memory frame
    /// or a second-level NVEM cache entry with no disk write-backs in
    /// flight.  An NVEM entry *with* pending write-backs is excluded — such
    /// an entry is spared by [`BufferManager::invalidate_page`] and may
    /// therefore be stale, so it must never serve as a donor.
    pub fn has_current_copy(&self, page: PageId) -> bool {
        self.mm.contains(&page)
            || self
                .nvem_cache
                .as_ref()
                .is_some_and(|c| c.peek(&page).is_some_and(|e| e.pending == 0))
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
        if volatile {
            self.dirty_table.note_committed_update(page, lsn);
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
    ) -> FetchOutcome {
        self.ensure_partition_stats(partition);
        self.stats.per_partition[partition].references += 1;
        let policy = self.config.policy(partition);

        // Memory-resident partitions always hit and need no propagation
        // (NOFORCE with logging only, §3.2).
        if policy.location == PageLocation::MainMemoryResident {
            self.stats.per_partition[partition].mm_hits += 1;
            return FetchOutcome::hit();
        }

        // Main-memory hit.
        if let Some(frame) = self.mm.get_mut(&page) {
            frame.dirty |= is_write;
            let first_prefetch_use = frame.prefetched;
            frame.prefetched = false;
            if let Some(tracker) = self.lru_k.as_mut() {
                tracker.record_access(page);
            }
            self.stats.per_partition[partition].mm_hits += 1;
            if first_prefetch_use {
                self.prefetch_hits[partition] += 1;
            }
            return FetchOutcome::hit();
        }

        // Miss: make room, fetch the page, insert it.
        let mut ops = PageOps::new();
        if self.mm.is_full() {
            self.evict_one(&mut ops);
        }
        let nvem_cache_hit = self.fetch_missing_page(partition, page, policy.location, &mut ops);
        if nvem_cache_hit {
            self.stats.per_partition[partition].nvem_hits += 1;
        }
        self.mm.insert(
            page,
            FrameState {
                partition,
                dirty: is_write,
                prefetched: false,
            },
        );
        if let Some(tracker) = self.lru_k.as_mut() {
            tracker.record_access(page);
        }
        FetchOutcome {
            main_memory_hit: false,
            nvem_cache_hit,
            ops,
        }
    }

    /// Evicts one frame from main memory — the LRU frame with K = 1, the
    /// largest-backward-K-distance frame under LRU-K — appending any
    /// write-back / migration operations to `ops`.
    fn evict_one(&mut self, ops: &mut PageOps) {
        let victim = match self.lru_k.as_mut() {
            Some(tracker) => tracker
                .evict()
                .and_then(|page| self.mm.remove(&page).map(|state| (page, state))),
            None => self.mm.pop_lru(),
        };
        let Some((vpage, vstate)) = victim else {
            return;
        };
        self.stats.mm_evictions += 1;
        if vstate.dirty {
            self.stats.dirty_evictions += 1;
        }
        if vstate.prefetched {
            // The speculative read was paid for but the page left the
            // buffer without ever being referenced.
            self.prefetch_wasted[vstate.partition] += 1;
        }
        let vpolicy = self.config.policy(vstate.partition);
        match vpolicy.location {
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
                let migrate =
                    self.nvem_cache.is_some() && vpolicy.nvem_cache.migrates(vstate.dirty);
                if migrate {
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
                    self.insert_into_nvem_cache(vpage, vstate.partition, vstate.dirty);
                    self.stats.migrations_to_nvem += 1;
                } else if vstate.dirty {
                    self.write_back_dirty(vpage, vstate.partition, unit, ops);
                }
                // Clean, non-migrating pages are simply dropped.
            }
        }
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
                let absorbed = if let Some(pending) = wb.get_mut(&page) {
                    *pending += 1;
                    true
                } else if !wb.is_full() {
                    wb.insert(page, 1);
                    true
                } else if let Some(clean) = wb.lru_matching(|pending| *pending == 0) {
                    wb.remove(&clean);
                    wb.insert(page, 1);
                    true
                } else {
                    false
                };
                if absorbed {
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
        partition: usize,
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
                let policy = self.config.policy(partition);
                let in_nvem = policy.nvem_cache.enabled()
                    && self
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

    /// Inserts a page into the second-level NVEM cache, preferring to replace
    /// a clean (already destaged) frame when the cache is full.
    fn insert_into_nvem_cache(&mut self, page: PageId, partition: usize, dirty: bool) {
        let Some(cache) = self.nvem_cache.as_mut() else {
            return;
        };
        if cache.is_full() && !cache.contains(&page) {
            if let Some(clean) = cache.lru_matching(|e| e.pending == 0) {
                cache.remove(&clean);
            }
            // Otherwise the plain LRU frame is evicted by `insert`; its disk
            // update is already under way, so no data is lost.
        }
        let pending_from_existing = cache.peek(&page).map(|e| e.pending).unwrap_or(0);
        cache.insert(
            page,
            NvemEntry {
                partition,
                pending: pending_from_existing + u32::from(dirty),
            },
        );
    }

    /// Admits a page a speculative (prefetch) read just brought in.  The
    /// admission contract for speculative data is deliberately narrow:
    ///
    /// * a page that is already buffered is left untouched — the
    ///   speculative read bought nothing (counted wasted),
    /// * a full buffer only ever gives up a *clean* frame; if every frame
    ///   is dirty the page is dropped rather than triggering write-backs
    ///   or NVEM migrations on behalf of data nobody asked for (counted
    ///   wasted),
    /// * an admitted frame enters clean and flagged prefetched: its first
    ///   reference counts a prefetch hit, dropping it unreferenced counts
    ///   it wasted.
    ///
    /// Called by the engine when the speculative I/O *completes* — the page
    /// is not buffered while the read is in flight (a demand miss in
    /// between coalesces onto the in-flight request at the scheduler).
    pub fn admit_prefetched(&mut self, partition: usize, page: PageId) -> PrefetchAdmit {
        self.ensure_partition_stats(partition);
        if self.mm.contains(&page) {
            self.prefetch_wasted[partition] += 1;
            return PrefetchAdmit::AlreadyResident;
        }
        if self.mm.is_full() {
            let Some(victim) = self.mm.lru_matching(|f| !f.dirty) else {
                self.prefetch_wasted[partition] += 1;
                return PrefetchAdmit::Rejected;
            };
            let state = self.mm.remove(&victim).expect("matched victim present");
            self.stats.mm_evictions += 1;
            if state.prefetched {
                self.prefetch_wasted[state.partition] += 1;
            }
            if let Some(tracker) = self.lru_k.as_mut() {
                tracker.remove(&victim);
            }
        }
        self.mm.insert(
            page,
            FrameState {
                partition,
                dirty: false,
                prefetched: true,
            },
        );
        if let Some(tracker) = self.lru_k.as_mut() {
            tracker.record_access(page);
        }
        PrefetchAdmit::Admitted
    }

    /// Commit-time forcing of a modified page (FORCE strategy).  Returns the
    /// operations the committing transaction must wait for (asynchronous disk
    /// updates excluded).
    pub fn force_page(&mut self, partition: usize, page: PageId) -> PageOps {
        self.ensure_partition_stats(partition);
        let policy = self.config.policy(partition);
        let mut ops = PageOps::new();
        match policy.location {
            PageLocation::MainMemoryResident => {
                // Memory-resident partitions use NOFORCE semantics.
                return ops;
            }
            PageLocation::NvemResident => {
                if self.mark_clean_if_dirty(page) {
                    self.dirty_table.clear_page(page);
                    ops.push(PageOp::NvemTransfer {
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
                    return ops;
                }
                self.stats.forced_pages += 1;
                if self.nvem_cache.is_some() && policy.nvem_cache.enabled() {
                    // FORCE writes the update to the NVEM cache; the page also
                    // stays buffered in main memory (replication, §3.2).
                    self.dirty_table.clear_page(page);
                    ops.push(PageOp::NvemTransfer {
                        page,
                        to_nvem: true,
                    });
                    ops.push(PageOp::UnitWriteAsync { unit, page });
                    self.insert_into_nvem_cache(page, partition, true);
                    self.stats.migrations_to_nvem += 1;
                } else {
                    self.write_back_dirty(page, partition, unit, &mut ops);
                }
            }
        }
        ops
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
        if let Some(cache) = self.nvem_cache.as_mut() {
            if let Some(entry) = cache.peek_mut(&page) {
                entry.pending = entry.pending.saturating_sub(1);
                return;
            }
        }
        if let Some(wb) = self.write_buffer.as_mut() {
            if let Some(pending) = wb.peek_mut(&page) {
                *pending = pending.saturating_sub(1);
            }
        }
    }

    /// Drops any buffered copy of `page` because another node committed an
    /// update to it (data sharing: cross-node buffer invalidation).  The
    /// stale copy is discarded without a write-back even if it is dirty
    /// (possible under NOFORCE): its update is superseded by the committing
    /// node's version, which that node holds dirty in its own pool and will
    /// itself propagate — only the latest owner writes the page, as in a
    /// real coherence protocol.  Returns true if a copy was dropped.
    ///
    /// Frames that track an *in-flight* asynchronous disk write of a version
    /// this node produced earlier are left alone so the write's completion
    /// bookkeeping stays consistent: write-buffer frames always, and
    /// NVEM-cache entries while their pending count is non-zero.
    pub fn invalidate_page(&mut self, page: PageId) -> bool {
        // Whatever this node committed to the page is superseded: the
        // committing node now tracks the page in *its* dirty-page table.
        let dpt_cleared = self.dirty_table.clear_page(page).is_some();
        let removed = self.mm.remove(&page);
        if let Some(state) = removed {
            if state.prefetched {
                self.prefetch_wasted[state.partition] += 1;
            }
            if let Some(tracker) = self.lru_k.as_mut() {
                tracker.remove(&page);
            }
        }
        let mut dropped = removed.is_some();
        if let Some(cache) = self.nvem_cache.as_mut() {
            if cache.peek(&page).is_some_and(|e| e.pending == 0) {
                cache.remove(&page);
                dropped = true;
            }
        }
        if dropped {
            self.stats.invalidations += 1;
        } else if dpt_cleared {
            // The stale copy was already evicted / written back, but the
            // remote commit still superseded this node's redo entry.  Count
            // it so the invalidation really is visible in reports.
            self.dpt_only_clears += 1;
        }
        dropped
    }

    /// Clears a *superseded* dirty-page-table entry for `page` without
    /// touching any buffered copy (on-request validation: a remote commit
    /// produced a newer committed version, so this node's pending redo
    /// entry is obsolete — but no invalidation message exists to drop the
    /// copy itself; the copy is detected stale at the next reference).
    /// Keeping the DPT exact between the remote commit and that reference
    /// tightens `min_rec_lsn`, so fuzzy checkpoints record the true redo
    /// boundary instead of a superseded one.  Returns true if an entry was
    /// cleared.
    pub fn clear_superseded_dpt(&mut self, page: PageId) -> bool {
        let cleared = self.dirty_table.clear_page(page).is_some();
        if cleared {
            self.dpt_only_clears += 1;
        }
        cleared
    }

    /// Drops any buffered copy of `page` *unconditionally* because a
    /// reference-time version check found it stale (on-request validation).
    /// Unlike commit-time [`BufferManager::invalidate_page`] this also
    /// removes a second-level NVEM entry with write-backs still in flight:
    /// the stale copy must not satisfy the re-read that follows, and the
    /// in-flight writes' completions tolerate a missing entry
    /// ([`BufferManager::async_write_complete`] simply finds nothing to
    /// decrement).  The dirty-page-table entry is cleared like any other
    /// superseded redo entry.  Returns true if a copy was dropped.
    pub fn discard_stale_copy(&mut self, page: PageId) -> bool {
        let dpt_cleared = self.dirty_table.clear_page(page).is_some();
        let removed = self.mm.remove(&page);
        if let Some(state) = removed {
            if state.prefetched {
                self.prefetch_wasted[state.partition] += 1;
            }
            if let Some(tracker) = self.lru_k.as_mut() {
                tracker.remove(&page);
            }
        }
        let mut dropped = removed.is_some();
        if let Some(cache) = self.nvem_cache.as_mut() {
            dropped |= cache.remove(&page).is_some();
        }
        if dropped {
            self.stats.invalidations += 1;
        } else if dpt_cleared {
            self.dpt_only_clears += 1;
        }
        dropped
    }

    fn ensure_partition_stats(&mut self, partition: usize) {
        if partition >= self.stats.per_partition.len() {
            self.stats
                .per_partition
                .resize(partition + 1, Default::default());
        }
        if partition >= self.prefetch_hits.len() {
            self.prefetch_hits.resize(partition + 1, 0);
            self.prefetch_wasted.resize(partition + 1, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionPolicy, SecondLevelMode};
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
        assert!(!miss.main_memory_hit);
        assert_eq!(
            miss.ops.to_vec(),
            vec![PageOp::UnitRead {
                unit: 0,
                page: PageId(1)
            }]
        );
        let hit = bm.reference_page(0, PageId(1), false);
        assert!(hit.main_memory_hit);
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
            assert!(out.main_memory_hit);
            assert!(out.ops.is_empty());
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
        let cfg = disk_config(2).with_nvem_cache(4, SecondLevelMode::All);
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
        assert!(out.nvem_cache_hit);
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
            .with_nvem_cache(4, SecondLevelMode::All)
            .with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        let ops = bm.force_page(0, PageId(1));
        assert_eq!(
            ops.to_vec(),
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
        assert!(out.nvem_cache_hit);
        assert!(bm.nvem_contains(PageId(1)));
    }

    #[test]
    fn force_page_without_dirty_copy_is_a_noop() {
        let cfg = disk_config(4).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        assert!(bm.force_page(0, PageId(1)).is_empty());
        assert!(bm.force_page(0, PageId(99)).is_empty());
        assert_eq!(bm.stats().forced_pages, 0);
    }

    #[test]
    fn force_page_without_nvem_goes_to_disk_synchronously() {
        let cfg = disk_config(4).with_update_strategy(UpdateStrategy::Force);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(1, PageId(7), true);
        let ops = bm.force_page(1, PageId(7));
        assert_eq!(
            ops.to_vec(),
            vec![PageOp::UnitWrite {
                unit: 0,
                page: PageId(7)
            }]
        );
        assert!(!bm.mm_is_dirty(PageId(7)));
        // Forcing again is a no-op (already clean).
        assert!(bm.force_page(1, PageId(7)).is_empty());
    }

    #[test]
    fn migration_mode_only_modified_drops_clean_victims() {
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::OnlyModified);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false); // clean
        let out = bm.reference_page(0, PageId(2), true);
        // Clean victim is dropped, not migrated.
        assert_eq!(
            out.ops.to_vec(),
            vec![PageOp::UnitRead {
                unit: 0,
                page: PageId(2)
            }]
        );
        assert!(!bm.nvem_contains(PageId(1)));
        // Dirty victim migrates.
        let out = bm.reference_page(0, PageId(3), false);
        assert!(out.ops.contains(&PageOp::NvemTransfer {
            page: PageId(2),
            to_nvem: true
        }));
        assert!(bm.nvem_contains(PageId(2)));
    }

    #[test]
    fn nvem_cache_prefers_replacing_clean_frames() {
        let cfg = disk_config(1).with_nvem_cache(2, SecondLevelMode::All);
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
        let cfg = disk_config(2).with_nvem_cache(4, SecondLevelMode::All);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(3), false); // evicts 1 (clean) → NVEM cache
        assert!(bm.nvem_contains(PageId(1)));
        assert!(bm.mm_contains(PageId(2)));
        // Invalidate a main-memory copy and a clean NVEM-cache copy.
        assert!(bm.invalidate_page(PageId(2)));
        assert!(bm.invalidate_page(PageId(1)));
        assert!(!bm.mm_contains(PageId(2)));
        assert!(!bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 2);
        // Pages this node never buffered are a no-op.
        assert!(!bm.invalidate_page(PageId(99)));
        assert_eq!(bm.stats().invalidations, 2);
        // The next reference misses again (the stale copy is gone).
        let out = bm.reference_page(0, PageId(2), false);
        assert!(!out.main_memory_hit && !out.nvem_cache_hit);
    }

    #[test]
    fn invalidate_page_spares_nvem_entries_with_inflight_writes() {
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::All);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, async write pending
        assert!(bm.nvem_contains(PageId(1)));
        // The pending entry tracks an in-flight disk write: invalidation must
        // leave its bookkeeping alone.
        assert!(!bm.invalidate_page(PageId(1)));
        assert!(bm.nvem_contains(PageId(1)));
        assert_eq!(bm.stats().invalidations, 0);
        // Once the write completes the entry is a plain (clean) cache copy
        // and becomes invalidatable.
        bm.async_write_complete(PageId(1));
        assert!(bm.invalidate_page(PageId(1)));
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
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::All);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.note_committed_update(0, PageId(1), 2);
        bm.reference_page(0, PageId(2), false); // evicts 1 → NVEM cache
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn invalidation_clears_the_dirty_table_entry() {
        let mut bm = BufferManager::new(disk_config(4));
        bm.reference_page(0, PageId(1), true);
        bm.note_committed_update(0, PageId(1), 5);
        assert!(bm.invalidate_page(PageId(1)));
        assert!(bm.dirty_page_table().is_empty());
    }

    #[test]
    fn dpt_only_clear_is_counted_for_evicted_then_remotely_committed_pages() {
        // Regression for the invisible-invalidation bug: a node holding a
        // dirty-page-table entry for a page it no longer buffers (here a
        // memory-resident partition, which never occupies buffer frames) is
        // remotely invalidated.  The DPT entry must be cleared — and, new in
        // this PR, the clear must be counted instead of vanishing from every
        // report because no buffered copy dropped.
        let mut cfg = disk_config(1);
        cfg.partitions[1] = PartitionPolicy::memory_resident();
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(1, PageId(500), true);
        bm.note_committed_update(1, PageId(500), 7);
        // MM-resident pages never occupy buffer frames: a remote commit finds
        // no copy to drop but must still clear (and now count) the DPT entry.
        assert!(!bm.invalidate_page(PageId(500)));
        assert!(bm.dirty_page_table().is_empty());
        assert_eq!(bm.stats().invalidations, 0);
        assert_eq!(bm.dpt_only_clears(), 1);
        // A pure no-op invalidation (no copy, no DPT entry) counts nothing.
        assert!(!bm.invalidate_page(PageId(501)));
        assert_eq!(bm.dpt_only_clears(), 1);
        // Reset at end of warm-up clears the counter.
        bm.reset_stats();
        assert_eq!(bm.dpt_only_clears(), 0);
    }

    #[test]
    fn holds_page_matches_invalidate_page_reach() {
        // `holds_page` must be true exactly when `invalidate_page` would do
        // any work: MM copy, NVEM-cache entry (pending or not), DPT entry.
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::All);
        let mut bm = BufferManager::new(cfg);
        assert!(!bm.holds_page(PageId(1)));
        bm.reference_page(0, PageId(1), true);
        assert!(bm.holds_page(PageId(1))); // MM copy
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, pending write
        assert!(bm.holds_page(PageId(1))); // NVEM entry, even with pending > 0
        bm.async_write_complete(PageId(1));
        assert!(bm.holds_page(PageId(1))); // NVEM entry, clean
        bm.invalidate_page(PageId(1));
        assert!(!bm.holds_page(PageId(1)));
        // DPT-only holding (memory-resident partition).
        let mut cfg = disk_config(1);
        cfg.partitions[1] = PartitionPolicy::memory_resident();
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(1, PageId(500), true);
        bm.note_committed_update(1, PageId(500), 3);
        assert!(bm.holds_page(PageId(500))); // DPT entry only
        bm.invalidate_page(PageId(500));
        assert!(!bm.holds_page(PageId(500)));
    }

    #[test]
    fn spared_pending_nvem_entry_still_serves_hits_afterwards() {
        // Pins the current (intended under BroadcastInvalidate) behavior for
        // the stale-NVEM-hit window: an NVEM entry spared by invalidation
        // because of an in-flight write remains referencable and serves a
        // second-level hit on the next miss.  OnRequestValidate closes this
        // window at the engine level with per-page version stamps.
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::All);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), false); // evicts 1 dirty → NVEM, pending
        assert!(!bm.invalidate_page(PageId(1))); // spared: pending > 0
        let out = bm.reference_page(0, PageId(1), false); // evicts 2, refetches 1
        assert!(out.nvem_cache_hit, "spared entry serves the stale hit");
    }

    #[test]
    fn discard_stale_copy_removes_even_pending_nvem_entries() {
        // Same setup as above, but the on-request-validation discard must
        // remove the pending entry so the re-read cannot hit it, and the
        // in-flight write's completion must tolerate the missing entry.
        let cfg = disk_config(1).with_nvem_cache(4, SecondLevelMode::All);
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
        assert!(!out.nvem_cache_hit, "discarded entry no longer serves hits");
        // Discard with no copy anywhere is a complete no-op.
        assert!(!bm.discard_stale_copy(PageId(99)));
        assert_eq!(bm.stats().invalidations, 1);
        assert_eq!(bm.dpt_only_clears(), 0);
    }

    #[test]
    fn lru_k2_evicts_single_touch_pages_before_the_hot_page() {
        // mm holds 3 frames; page 1 is referenced twice (full K=2 history),
        // then a scan of single-touch pages must evict among itself and leave
        // the hot page resident (plain LRU would evict page 1 first).
        let cfg = disk_config(3).with_lru_k(2);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(3), false);
        bm.reference_page(0, PageId(4), false); // evicts 2 (oldest single-touch)
        assert!(bm.mm_contains(PageId(1)));
        assert!(!bm.mm_contains(PageId(2)));
        bm.reference_page(0, PageId(5), false); // evicts 3
        assert!(bm.mm_contains(PageId(1)));
        assert!(!bm.mm_contains(PageId(3)));
        assert_eq!(bm.stats().mm_evictions, 2);
    }

    #[test]
    fn lru_k1_config_keeps_the_plain_lru_chain() {
        // K = 1 must not allocate a tracker and must evict in LRU order.
        let cfg = disk_config(2).with_lru_k(1);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        bm.reference_page(0, PageId(1), false); // touch 1; 2 is now LRU
        bm.reference_page(0, PageId(3), false); // evicts 2
        assert!(bm.mm_contains(PageId(1)));
        assert!(!bm.mm_contains(PageId(2)));
    }

    #[test]
    fn lru_k_tracker_stays_in_sync_across_invalidations() {
        let cfg = disk_config(2).with_lru_k(2);
        let mut bm = BufferManager::new(cfg);
        bm.reference_page(0, PageId(1), false);
        bm.reference_page(0, PageId(2), false);
        assert!(bm.invalidate_page(PageId(1)));
        // The freed frame is reusable and the tracker no longer knows page 1:
        // filling the buffer again must evict among resident pages only.
        bm.reference_page(0, PageId(3), false);
        bm.reference_page(0, PageId(4), false); // evicts 2 or 3, never panics
        assert_eq!(bm.mm_pages(), 2);
        assert!(!bm.mm_contains(PageId(1)));
    }

    #[test]
    fn reset_stats_keeps_buffer_contents() {
        let mut bm = BufferManager::new(disk_config(10));
        bm.reference_page(0, PageId(1), false);
        bm.reset_stats();
        assert_eq!(bm.stats().references(), 0);
        assert!(bm.mm_contains(PageId(1)));
        let out = bm.reference_page(0, PageId(1), false);
        assert!(out.main_memory_hit);
    }

    #[test]
    fn prefetch_admission_hit_and_waste_accounting() {
        let mut bm = BufferManager::new(disk_config(10));
        assert_eq!(bm.admit_prefetched(0, PageId(1)), PrefetchAdmit::Admitted);
        assert!(bm.mm_contains(PageId(1)));
        assert!(!bm.mm_is_dirty(PageId(1)));
        // The first reference of the prefetched frame is a hit.
        let hit = bm.reference_page(0, PageId(1), false);
        assert!(hit.main_memory_hit);
        assert_eq!(bm.prefetch_hits()[0], 1);
        // ... and only the first: the flag is consumed.
        bm.reference_page(0, PageId(1), false);
        assert_eq!(bm.prefetch_hits()[0], 1);
        // Re-admitting a resident page bought nothing.
        assert_eq!(
            bm.admit_prefetched(0, PageId(1)),
            PrefetchAdmit::AlreadyResident
        );
        assert_eq!(bm.prefetch_wasted()[0], 1);
    }

    #[test]
    fn prefetch_never_evicts_dirty_pages() {
        let mut bm = BufferManager::new(disk_config(2));
        bm.reference_page(0, PageId(1), true);
        bm.reference_page(0, PageId(2), true);
        assert_eq!(bm.admit_prefetched(0, PageId(3)), PrefetchAdmit::Rejected);
        assert!(!bm.mm_contains(PageId(3)));
        assert!(bm.mm_contains(PageId(1)) && bm.mm_contains(PageId(2)));
        assert_eq!(bm.prefetch_wasted()[0], 1);
    }

    #[test]
    fn prefetch_admission_replaces_the_oldest_clean_frame() {
        let mut bm = BufferManager::new(disk_config(2));
        bm.reference_page(0, PageId(1), true); // dirty
        bm.reference_page(0, PageId(2), false); // clean
        assert_eq!(bm.admit_prefetched(0, PageId(3)), PrefetchAdmit::Admitted);
        assert!(bm.mm_contains(PageId(1)), "dirty frame must survive");
        assert!(!bm.mm_contains(PageId(2)));
        assert!(bm.mm_contains(PageId(3)));
    }

    #[test]
    fn dropping_an_unreferenced_prefetched_frame_counts_wasted() {
        let mut bm = BufferManager::new(disk_config(10));
        assert_eq!(bm.admit_prefetched(0, PageId(1)), PrefetchAdmit::Admitted);
        assert!(bm.invalidate_page(PageId(1)));
        assert_eq!(bm.prefetch_wasted()[0], 1);
        assert_eq!(bm.prefetch_hits()[0], 0);
        // reset clears the counters like every other statistic.
        bm.reset_stats();
        assert_eq!(bm.prefetch_wasted()[0], 0);
    }
}
