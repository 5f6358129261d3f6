//! Device parameters (Table 2.1 and Table 3.4 of the paper).

use simkernel::time::SimTime;

/// The four kinds of disk units TPSIM supports ("regular, volatile cache,
/// non-volatile cache, SSD", Table 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskUnitKind {
    /// Plain magnetic disks: every I/O pays the disk access time.
    #[default]
    Regular,
    /// Disks fronted by a volatile controller cache: read hits avoid the disk,
    /// writes always go through to disk.
    VolatileCache,
    /// Disks fronted by a non-volatile controller cache: read hits avoid the
    /// disk, writes are absorbed by the cache when possible and destaged
    /// asynchronously.
    NonVolatileCache,
    /// Solid-state disk: the whole unit is semiconductor memory, no disk
    /// access ever.
    Ssd,
}

impl DiskUnitKind {
    /// True if the unit has a controller cache (volatile or non-volatile).
    pub fn has_cache(self) -> bool {
        matches!(
            self,
            DiskUnitKind::VolatileCache | DiskUnitKind::NonVolatileCache
        )
    }

    /// True if writes can be absorbed without a synchronous disk access.
    pub fn absorbs_writes(self) -> bool {
        matches!(self, DiskUnitKind::NonVolatileCache | DiskUnitKind::Ssd)
    }
}

/// Parameters of one disk unit (Table 3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskUnitParams {
    /// Kind of unit.
    pub kind: DiskUnitKind,
    /// Number of disk controllers serving the unit.
    pub num_controllers: usize,
    /// Average controller service time per page (ms).
    pub controller_delay: SimTime,
    /// Average transmission time per page between main memory and the unit (ms).
    pub transmission_delay: SimTime,
    /// Number of disk servers (drives) the unit's data is spread over.
    pub num_disks: usize,
    /// Average disk access time per page (ms).
    pub disk_delay: SimTime,
    /// Size of the controller cache in page frames (ignored for `Regular` and
    /// `Ssd` units).
    pub cache_size: usize,
}

impl Default for DiskUnitParams {
    fn default() -> Self {
        // Database-disk defaults of Table 4.1.
        Self {
            kind: DiskUnitKind::Regular,
            num_controllers: 1,
            controller_delay: 1.0,
            transmission_delay: 0.4,
            num_disks: 1,
            disk_delay: 15.0,
            cache_size: 1_000,
        }
    }
}

impl DiskUnitParams {
    /// Database-disk unit with the paper's default timings (15 ms disk access)
    /// and enough controllers/disks to avoid bottlenecks at the studied rates.
    pub fn database_disks(kind: DiskUnitKind, num_controllers: usize, num_disks: usize) -> Self {
        Self {
            kind,
            num_controllers,
            num_disks,
            ..Self::default()
        }
    }

    /// Log-disk unit: sequential access shortens seeks, so the paper assumes a
    /// 5 ms disk access time.
    pub fn log_disks(kind: DiskUnitKind, num_controllers: usize, num_disks: usize) -> Self {
        Self {
            kind,
            num_controllers,
            num_disks,
            disk_delay: 5.0,
            ..Self::default()
        }
    }

    /// Sets the controller cache size (page frames).
    pub fn with_cache_size(mut self, pages: usize) -> Self {
        self.cache_size = pages;
        self
    }

    /// Minimal service time of a read that hits in the controller cache or an
    /// SSD (controller + transmission, no queueing): 1.4 ms with the default
    /// parameters, matching §4.1.
    #[cfg(test)]
    pub fn cache_hit_latency(&self) -> SimTime {
        self.controller_delay + self.transmission_delay
    }

    /// Minimal service time of an access that must touch the disk
    /// (controller + disk + transmission, no queueing): 16.4 ms for database
    /// disks / 6.4 ms for log disks with the default parameters (§4.1).
    #[cfg(test)]
    pub fn disk_access_latency(&self) -> SimTime {
        self.controller_delay + self.disk_delay + self.transmission_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_section_4_1() {
        let db = DiskUnitParams::database_disks(DiskUnitKind::Regular, 4, 16);
        assert!((db.disk_access_latency() - 16.4).abs() < 1e-9);
        assert!((db.cache_hit_latency() - 1.4).abs() < 1e-9);
        let log = DiskUnitParams::log_disks(DiskUnitKind::Regular, 1, 1);
        assert!((log.disk_access_latency() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn kind_capability_predicates() {
        assert!(!DiskUnitKind::Regular.has_cache());
        assert!(DiskUnitKind::VolatileCache.has_cache());
        assert!(DiskUnitKind::NonVolatileCache.has_cache());
        assert!(!DiskUnitKind::Ssd.has_cache());
        assert!(DiskUnitKind::NonVolatileCache.absorbs_writes());
        assert!(DiskUnitKind::Ssd.absorbs_writes());
        assert!(!DiskUnitKind::VolatileCache.absorbs_writes());
        assert!(!DiskUnitKind::Regular.absorbs_writes());
    }

    #[test]
    fn builder_helpers() {
        let p =
            DiskUnitParams::database_disks(DiskUnitKind::VolatileCache, 2, 8).with_cache_size(500);
        assert_eq!(p.cache_size, 500);
        assert_eq!(p.num_controllers, 2);
        assert_eq!(p.num_disks, 8);
        assert_eq!(p.kind, DiskUnitKind::VolatileCache);
    }
}
