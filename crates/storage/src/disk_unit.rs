//! Disk-unit model: regular disks, cached disks (volatile / non-volatile) and
//! solid-state disks.
//!
//! The management of the controller caches follows the description in §3.3,
//! which in turn models IBM's 3990-style caches:
//!
//! * **Reads**: a read hit is served from the cache (controller + transmission
//!   only); on a read miss the page is read from disk, stored in the cache and
//!   transferred to the requesting system.
//! * **Writes, volatile cache**: every write results in a disk access; a write
//!   hit refreshes the cached copy, a write miss leaves the cache unchanged.
//! * **Writes, non-volatile cache**: the write is satisfied in the cache and
//!   the disk copy is updated asynchronously.  On a write miss the least
//!   recently used *unmodified* page is replaced; if every cached page still
//!   has a pending disk update the write goes synchronously to disk.  The disk
//!   update of an absorbed write is started immediately.
//! * **SSD**: all data lives in non-volatile semiconductor memory; no request
//!   ever touches a disk server.

use dbmodel::PageId;

use crate::io::{BackgroundStages, ForegroundStages, IoDecision, IoKind, ServiceStage};
use crate::lru::LruCache;
use crate::params::{DiskUnitKind, DiskUnitParams};

/// Per-unit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskUnitStats {
    /// Read requests received.
    pub reads: u64,
    /// Write requests received.
    pub writes: u64,
    /// Read requests satisfied from the controller cache.
    pub read_hits: u64,
    /// Write requests that found the page in the controller cache.
    pub write_hits: u64,
    /// Writes absorbed by a non-volatile cache (asynchronous disk update).
    pub absorbed_writes: u64,
    /// Writes that had to go to disk because no clean cache frame was free.
    pub forced_sync_writes: u64,
    /// Asynchronous destages completed.
    pub destages_completed: u64,
}

impl DiskUnitStats {
    /// Read hit ratio (0 when no reads were issued).
    pub fn read_hit_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads as f64
        }
    }
}

/// Cache entry state: number of pending asynchronous disk updates for the
/// page.  An entry is "unmodified" (clean, replaceable) when the count is 0.
type PendingDestages = u32;

/// A disk unit: policy state (cache contents) and statistics.
///
/// The unit does not advance simulated time; it returns [`IoDecision`]s that
/// the engine executes against the unit's controller and disk resources.
#[derive(Debug)]
pub struct DiskUnit {
    name: String,
    params: DiskUnitParams,
    cache: Option<LruCache<PageId, PendingDestages>>,
    stats: DiskUnitStats,
}

impl DiskUnit {
    /// Creates a disk unit.
    pub fn new(name: impl Into<String>, params: DiskUnitParams) -> Self {
        let cache = params
            .kind
            .has_cache()
            .then(|| LruCache::new(params.cache_size.max(1)));
        Self {
            name: name.into(),
            params,
            cache,
            stats: DiskUnitStats::default(),
        }
    }

    /// The unit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit's parameters.
    pub fn params(&self) -> &DiskUnitParams {
        &self.params
    }

    /// Current statistics.
    pub fn stats(&self) -> DiskUnitStats {
        self.stats
    }

    /// Resets the statistics (end of warm-up) without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = DiskUnitStats::default();
    }

    /// Number of pages currently in the controller cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.as_ref().map(LruCache::len).unwrap_or(0)
    }

    /// True if `page` is currently in the controller cache.
    pub fn cache_contains(&self, page: PageId) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(&page))
    }

    fn full_access(&self) -> ForegroundStages {
        let mut stages = ForegroundStages::new();
        stages.push(ServiceStage::Controller(self.params.controller_delay));
        stages.push(ServiceStage::Disk(self.params.disk_delay));
        stages.push(ServiceStage::Transmission(self.params.transmission_delay));
        stages
    }

    fn cache_access(&self) -> ForegroundStages {
        let mut stages = ForegroundStages::new();
        stages.push(ServiceStage::Controller(self.params.controller_delay));
        stages.push(ServiceStage::Transmission(self.params.transmission_delay));
        stages
    }

    fn destage(&self) -> BackgroundStages {
        let mut stages = BackgroundStages::new();
        stages.push(ServiceStage::Disk(self.params.disk_delay));
        stages
    }

    /// Handles an I/O request for `page` and returns the service decision.
    pub fn request(&mut self, kind: IoKind, page: PageId) -> IoDecision {
        match kind {
            IoKind::Read => self.read(page),
            IoKind::Write => self.write(page),
        }
    }

    fn read(&mut self, page: PageId) -> IoDecision {
        self.stats.reads += 1;
        match self.params.kind {
            DiskUnitKind::Regular => IoDecision {
                foreground: self.full_access(),
                background: BackgroundStages::new(),
                cache_hit: false,
                absorbed_write: false,
            },
            DiskUnitKind::Ssd => {
                self.stats.read_hits += 1;
                IoDecision {
                    foreground: self.cache_access(),
                    background: BackgroundStages::new(),
                    cache_hit: true,
                    absorbed_write: false,
                }
            }
            DiskUnitKind::VolatileCache | DiskUnitKind::NonVolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                if cache.get(&page).is_some() {
                    self.stats.read_hits += 1;
                    IoDecision {
                        foreground: self.cache_access(),
                        background: BackgroundStages::new(),
                        cache_hit: true,
                        absorbed_write: false,
                    }
                } else {
                    // Read miss: fetch from disk and allocate in the cache.
                    // The evicted frame must be clean for a non-volatile cache;
                    // prefer the LRU clean frame, otherwise drop the LRU frame
                    // (its destage is already under way and will simply find
                    // the page gone when it completes).
                    Self::allocate_frame(cache, page, 0);
                    IoDecision {
                        foreground: self.full_access(),
                        background: BackgroundStages::new(),
                        cache_hit: false,
                        absorbed_write: false,
                    }
                }
            }
        }
    }

    fn write(&mut self, page: PageId) -> IoDecision {
        self.stats.writes += 1;
        match self.params.kind {
            DiskUnitKind::Regular => IoDecision {
                foreground: self.full_access(),
                background: BackgroundStages::new(),
                cache_hit: false,
                absorbed_write: false,
            },
            DiskUnitKind::Ssd => {
                self.stats.write_hits += 1;
                self.stats.absorbed_writes += 1;
                IoDecision {
                    foreground: self.cache_access(),
                    background: BackgroundStages::new(),
                    cache_hit: true,
                    absorbed_write: true,
                }
            }
            DiskUnitKind::VolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                // Write-through: the disk is always accessed.  A write hit
                // refreshes the cached copy (LRU update); a write miss leaves
                // the cache unchanged.
                let hit = cache.touch(&page);
                if hit {
                    self.stats.write_hits += 1;
                }
                IoDecision {
                    foreground: self.full_access(),
                    background: BackgroundStages::new(),
                    cache_hit: hit,
                    absorbed_write: false,
                }
            }
            DiskUnitKind::NonVolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                if let Some(pending) = cache.get_mut(&page) {
                    // Write hit: absorb, destage asynchronously.
                    *pending += 1;
                    self.stats.write_hits += 1;
                    self.stats.absorbed_writes += 1;
                    IoDecision {
                        foreground: self.cache_access(),
                        background: self.destage(),
                        cache_hit: true,
                        absorbed_write: true,
                    }
                } else {
                    // Write miss: need a clean (fully destaged) frame.
                    let have_room = !cache.is_full();
                    let clean_victim = if have_room {
                        None
                    } else {
                        cache.lru_matching(|pending| *pending == 0)
                    };
                    if have_room || clean_victim.is_some() {
                        if let Some(victim) = clean_victim {
                            cache.remove(&victim);
                        }
                        cache.insert(page, 1);
                        self.stats.absorbed_writes += 1;
                        IoDecision {
                            foreground: self.cache_access(),
                            background: self.destage(),
                            cache_hit: false,
                            absorbed_write: true,
                        }
                    } else {
                        // Every cached page still has a pending disk update:
                        // "we cannot satisfy the write I/O in the cache but
                        // directly go to the disk".
                        self.stats.forced_sync_writes += 1;
                        IoDecision {
                            foreground: self.full_access(),
                            background: BackgroundStages::new(),
                            cache_hit: false,
                            absorbed_write: false,
                        }
                    }
                }
            }
        }
    }

    /// Allocates a cache frame for `page` after a read miss.
    fn allocate_frame(
        cache: &mut LruCache<PageId, PendingDestages>,
        page: PageId,
        initial: PendingDestages,
    ) {
        if cache.is_full() && !cache.contains(&page) {
            // Prefer evicting a clean frame; fall back to the plain LRU frame.
            if let Some(victim) = cache.lru_matching(|pending| *pending == 0) {
                cache.remove(&victim);
            }
        }
        cache.insert(page, initial);
    }

    /// Called by the engine when an asynchronous destage for `page` completed:
    /// the disk copy is now current and the frame becomes replaceable.
    pub fn destage_complete(&mut self, page: PageId) {
        self.stats.destages_completed += 1;
        if let Some(cache) = self.cache.as_mut() {
            if let Some(pending) = cache.peek_mut(&page) {
                *pending = pending.saturating_sub(1);
            }
        }
    }
}

impl crate::device::StorageDevice for DiskUnit {
    fn name(&self) -> &str {
        DiskUnit::name(self)
    }

    fn request(&mut self, kind: IoKind, page: PageId) -> IoDecision {
        DiskUnit::request(self, kind, page)
    }

    fn destage_complete(&mut self, page: PageId) {
        DiskUnit::destage_complete(self, page)
    }

    fn stats(&self) -> DiskUnitStats {
        DiskUnit::stats(self)
    }

    fn reset_stats(&mut self) {
        DiskUnit::reset_stats(self)
    }

    fn uncached_latency(&self) -> simkernel::time::SimTime {
        match self.params.kind {
            DiskUnitKind::Ssd => self.params.cache_hit_latency(),
            _ => self.params.disk_access_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(kind: DiskUnitKind, cache_size: usize) -> DiskUnit {
        DiskUnit::new(
            "u",
            DiskUnitParams {
                kind,
                cache_size,
                ..DiskUnitParams::default()
            },
        )
    }

    #[test]
    fn regular_disk_always_pays_full_access() {
        let mut u = unit(DiskUnitKind::Regular, 10);
        for kind in [IoKind::Read, IoKind::Write] {
            let d = u.request(kind, PageId(1));
            assert!((d.foreground_service_time() - 16.4).abs() < 1e-9);
            assert!(!d.cache_hit);
            assert!(d.background.is_empty());
        }
        assert_eq!(u.cached_pages(), 0);
    }

    #[test]
    fn ssd_never_touches_disk() {
        let mut u = unit(DiskUnitKind::Ssd, 10);
        let r = u.request(IoKind::Read, PageId(1));
        let w = u.request(IoKind::Write, PageId(2));
        assert!((r.foreground_service_time() - 1.4).abs() < 1e-9);
        assert!((w.foreground_service_time() - 1.4).abs() < 1e-9);
        assert!(!r.touches_disk_in_foreground());
        assert!(w.absorbed_write);
        assert!(w.background.is_empty());
    }

    #[test]
    fn volatile_cache_read_miss_then_hit() {
        let mut u = unit(DiskUnitKind::VolatileCache, 10);
        let miss = u.request(IoKind::Read, PageId(7));
        assert!(!miss.cache_hit);
        assert!(miss.touches_disk_in_foreground());
        let hit = u.request(IoKind::Read, PageId(7));
        assert!(hit.cache_hit);
        assert!((hit.foreground_service_time() - 1.4).abs() < 1e-9);
        assert_eq!(u.stats().read_hits, 1);
        assert!((u.stats().read_hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn volatile_cache_writes_always_go_to_disk_and_miss_does_not_allocate() {
        let mut u = unit(DiskUnitKind::VolatileCache, 10);
        // Write miss: disk access, cache unchanged.
        let w = u.request(IoKind::Write, PageId(3));
        assert!(w.touches_disk_in_foreground());
        assert!(!w.absorbed_write);
        assert!(!u.cache_contains(PageId(3)));
        // Read allocates; subsequent write hit still goes to disk.
        u.request(IoKind::Read, PageId(3));
        let w2 = u.request(IoKind::Write, PageId(3));
        assert!(w2.cache_hit);
        assert!(w2.touches_disk_in_foreground());
        assert_eq!(u.stats().write_hits, 1);
        assert_eq!(u.stats().absorbed_writes, 0);
    }

    #[test]
    fn nonvolatile_cache_absorbs_writes_and_destages() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 10);
        let w = u.request(IoKind::Write, PageId(5));
        assert!(w.absorbed_write);
        assert!(!w.touches_disk_in_foreground());
        assert!((w.foreground_service_time() - 1.4).abs() < 1e-9);
        assert_eq!(w.background.len(), 1);
        assert!(u.cache_contains(PageId(5)));
        // Destage completes → page becomes clean and replaceable.
        u.destage_complete(PageId(5));
        assert_eq!(u.stats().destages_completed, 1);
        // A read of the page now hits.
        let r = u.request(IoKind::Read, PageId(5));
        assert!(r.cache_hit);
    }

    #[test]
    fn nonvolatile_cache_write_hit_on_dirty_page_is_still_absorbed() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 4);
        u.request(IoKind::Write, PageId(1));
        let w2 = u.request(IoKind::Write, PageId(1));
        assert!(w2.cache_hit && w2.absorbed_write);
        // Two destages pending; the first completion does not make it clean.
        u.destage_complete(PageId(1));
        // Fill the cache with dirty pages and check page 1 only becomes a
        // replacement candidate after its second destage completes.
        for p in 2..=4 {
            u.request(IoKind::Write, PageId(p));
        }
        assert!(u.cache_contains(PageId(1)));
        let w5 = u.request(IoKind::Write, PageId(5));
        // No clean frame anywhere → forced synchronous write.
        assert!(!w5.absorbed_write);
        u.destage_complete(PageId(1));
        let w6 = u.request(IoKind::Write, PageId(6));
        assert!(w6.absorbed_write);
        assert!(!u.cache_contains(PageId(1)), "clean LRU frame was replaced");
    }

    #[test]
    fn nonvolatile_cache_forced_sync_write_when_all_frames_dirty() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 3);
        for p in 1..=3 {
            assert!(u.request(IoKind::Write, PageId(p)).absorbed_write);
        }
        let w = u.request(IoKind::Write, PageId(99));
        assert!(!w.absorbed_write);
        assert!(w.touches_disk_in_foreground());
        assert_eq!(u.stats().forced_sync_writes, 1);
        // After destaging one page, absorption works again.
        u.destage_complete(PageId(2));
        assert!(u.request(IoKind::Write, PageId(100)).absorbed_write);
    }

    #[test]
    fn nonvolatile_cache_read_allocation_prefers_clean_victims() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 2);
        u.request(IoKind::Write, PageId(1)); // dirty
        u.request(IoKind::Read, PageId(2)); // clean
                                            // Cache full {1 dirty, 2 clean}; a read miss should evict page 2 (the
                                            // clean one) even though page 1 is least recently used.
        u.request(IoKind::Read, PageId(3));
        assert!(u.cache_contains(PageId(1)));
        assert!(!u.cache_contains(PageId(2)));
        assert!(u.cache_contains(PageId(3)));
    }

    #[test]
    fn stats_reset_keeps_cache_contents() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 4);
        u.request(IoKind::Write, PageId(1));
        u.reset_stats();
        assert_eq!(u.stats(), DiskUnitStats::default());
        assert!(u.cache_contains(PageId(1)));
        assert_eq!(u.name(), "u");
        assert_eq!(u.params().kind, DiskUnitKind::NonVolatileCache);
    }
}
