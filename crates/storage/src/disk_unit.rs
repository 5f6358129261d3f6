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

use crate::device::StorageDevice;
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

/// A disk unit: policy state (cache contents) and statistics.
///
/// The unit does not advance simulated time; it returns [`IoDecision`]s that
/// the engine executes against the unit's controller and disk resources.
/// A non-volatile cache is a write-behind store: each cached page counts its
/// destages in flight ([`LruCache::absorb`]).
#[derive(Debug)]
pub struct DiskUnit {
    name: String,
    params: DiskUnitParams,
    cache: Option<LruCache<PageId, u32>>,
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

    /// The unit's parameters.
    pub fn params(&self) -> &DiskUnitParams {
        &self.params
    }

    /// Number of pages currently in the controller cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.as_ref().map(LruCache::len).unwrap_or(0)
    }

    /// True if `page` is currently in the controller cache.
    #[cfg(test)]
    pub fn cache_contains(&self, page: PageId) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(&page))
    }

    /// Controller, disk and transmission: a miss, or any uncached unit.
    fn full_access(&self) -> IoDecision {
        let mut foreground = ForegroundStages::new();
        foreground.push(ServiceStage::Controller(self.params.controller_delay));
        foreground.push(ServiceStage::Disk(self.params.disk_delay));
        foreground.push(ServiceStage::Transmission(self.params.transmission_delay));
        IoDecision {
            foreground,
            background: BackgroundStages::new(),
        }
    }

    /// Controller and transmission only: served from the cache.
    fn cache_access(&self) -> IoDecision {
        let mut foreground = ForegroundStages::new();
        foreground.push(ServiceStage::Controller(self.params.controller_delay));
        foreground.push(ServiceStage::Transmission(self.params.transmission_delay));
        IoDecision {
            foreground,
            background: BackgroundStages::new(),
        }
    }

    /// A write a non-volatile cache absorbs: a cache access, then the
    /// destage to disk in the background.
    fn absorbed_write(&self) -> IoDecision {
        let mut decision = self.cache_access();
        decision
            .background
            .push(ServiceStage::Disk(self.params.disk_delay));
        decision
    }

    fn read(&mut self, page: PageId) -> IoDecision {
        self.stats.reads += 1;
        let hit = match self.params.kind {
            DiskUnitKind::Regular => false,
            DiskUnitKind::Ssd => true,
            DiskUnitKind::VolatileCache | DiskUnitKind::NonVolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                let hit = cache.get(&page).is_some();
                if !hit {
                    // Read miss: fetch from disk and allocate in the cache,
                    // replacing the LRU clean frame, else the LRU frame (its
                    // destage is already under way and will simply find the
                    // page gone when it completes).
                    cache.admit(page, 0);
                }
                hit
            }
        };
        if hit {
            self.stats.read_hits += 1;
            self.cache_access()
        } else {
            self.full_access()
        }
    }

    fn write(&mut self, page: PageId) -> IoDecision {
        self.stats.writes += 1;
        match self.params.kind {
            DiskUnitKind::Regular => self.full_access(),
            DiskUnitKind::Ssd => {
                self.stats.write_hits += 1;
                self.stats.absorbed_writes += 1;
                self.cache_access()
            }
            DiskUnitKind::VolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                // Write-through: the disk is always accessed.  A write hit
                // refreshes the cached copy (LRU update); a write miss leaves
                // the cache unchanged.
                if cache.touch(&page) {
                    self.stats.write_hits += 1;
                }
                self.full_access()
            }
            DiskUnitKind::NonVolatileCache => {
                let cache = self.cache.as_mut().expect("cached unit has a cache");
                match cache.absorb(page) {
                    Some(hit) => {
                        if hit {
                            self.stats.write_hits += 1;
                        }
                        self.stats.absorbed_writes += 1;
                        self.absorbed_write()
                    }
                    None => {
                        // Every cached page still has a pending disk update:
                        // "we cannot satisfy the write I/O in the cache but
                        // directly go to the disk".
                        self.stats.forced_sync_writes += 1;
                        self.full_access()
                    }
                }
            }
        }
    }
}

impl StorageDevice for DiskUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn request(&mut self, kind: IoKind, page: PageId) -> IoDecision {
        match kind {
            IoKind::Read => self.read(page),
            IoKind::Write => self.write(page),
        }
    }

    /// The disk copy is now current and the frame becomes replaceable.
    fn destage_complete(&mut self, page: PageId) {
        self.stats.destages_completed += 1;
        if let Some(cache) = self.cache.as_mut() {
            cache.destaged(&page);
        }
    }

    fn stats(&self) -> DiskUnitStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DiskUnitStats::default();
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
            assert!(d.background.is_empty());
        }
        assert_eq!(u.cached_pages(), 0);
        let s = u.stats();
        assert_eq!((s.read_hits, s.write_hits, s.absorbed_writes), (0, 0, 0));
    }

    #[test]
    fn ssd_never_touches_disk() {
        let mut u = unit(DiskUnitKind::Ssd, 10);
        let r = u.request(IoKind::Read, PageId(1));
        let w = u.request(IoKind::Write, PageId(2));
        assert!((r.foreground_service_time() - 1.4).abs() < 1e-9);
        assert!((w.foreground_service_time() - 1.4).abs() < 1e-9);
        assert!(!r.touches_disk_in_foreground());
        assert!(w.background.is_empty());
        let s = u.stats();
        assert_eq!((s.read_hits, s.write_hits, s.absorbed_writes), (1, 1, 1));
    }

    #[test]
    fn volatile_cache_read_miss_then_hit() {
        let mut u = unit(DiskUnitKind::VolatileCache, 10);
        let miss = u.request(IoKind::Read, PageId(7));
        assert_eq!(u.stats().read_hits, 0);
        assert!(miss.touches_disk_in_foreground());
        let hit = u.request(IoKind::Read, PageId(7));
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
        assert!(w.background.is_empty());
        assert!(!u.cache_contains(PageId(3)));
        assert_eq!(u.stats().write_hits, 0);
        // Read allocates; subsequent write hit still goes to disk.
        u.request(IoKind::Read, PageId(3));
        let w2 = u.request(IoKind::Write, PageId(3));
        assert!(w2.touches_disk_in_foreground());
        assert_eq!(u.stats().write_hits, 1);
        assert_eq!(u.stats().absorbed_writes, 0);
    }

    #[test]
    fn nonvolatile_cache_absorbs_writes_and_destages() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 10);
        let w = u.request(IoKind::Write, PageId(5));
        assert_eq!(u.stats().absorbed_writes, 1);
        assert!(!w.touches_disk_in_foreground());
        assert!((w.foreground_service_time() - 1.4).abs() < 1e-9);
        assert_eq!(w.background.len(), 1);
        assert!(u.cache_contains(PageId(5)));
        // Destage completes → page becomes clean and replaceable.
        u.destage_complete(PageId(5));
        assert_eq!(u.stats().destages_completed, 1);
        // A read of the page now hits.
        let r = u.request(IoKind::Read, PageId(5));
        assert!(!r.touches_disk_in_foreground());
        assert_eq!(u.stats().read_hits, 1);
    }

    #[test]
    fn nonvolatile_cache_write_hit_on_dirty_page_is_still_absorbed() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 4);
        u.request(IoKind::Write, PageId(1));
        let w2 = u.request(IoKind::Write, PageId(1));
        assert_eq!(w2.background.len(), 1);
        assert_eq!((u.stats().write_hits, u.stats().absorbed_writes), (1, 2));
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
        assert!(w5.touches_disk_in_foreground());
        assert_eq!(u.stats().forced_sync_writes, 1);
        u.destage_complete(PageId(1));
        let w6 = u.request(IoKind::Write, PageId(6));
        assert!(!w6.touches_disk_in_foreground());
        assert_eq!(u.stats().absorbed_writes, 6);
        assert!(!u.cache_contains(PageId(1)), "clean LRU frame was replaced");
    }

    #[test]
    fn nonvolatile_cache_forced_sync_write_when_all_frames_dirty() {
        let mut u = unit(DiskUnitKind::NonVolatileCache, 3);
        for p in 1..=3 {
            u.request(IoKind::Write, PageId(p));
        }
        assert_eq!(u.stats().absorbed_writes, 3);
        let w = u.request(IoKind::Write, PageId(99));
        assert!(w.touches_disk_in_foreground());
        assert!(w.background.is_empty());
        assert_eq!(u.stats().forced_sync_writes, 1);
        assert_eq!(u.stats().absorbed_writes, 3);
        // After destaging one page, absorption works again.
        u.destage_complete(PageId(2));
        let again = u.request(IoKind::Write, PageId(100));
        assert!(!again.touches_disk_in_foreground());
        assert_eq!(u.stats().absorbed_writes, 4);
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
