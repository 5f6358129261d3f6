//! Buffer-manager configuration: buffer sizes, update strategy, and the
//! per-partition storage policies of Fig. 3.2 (allocation and NVEM write
//! buffer use).  A second-level NVEM cache, when sized, serves every
//! disk-resident partition.

use dbmodel::Database;
use storage::lru::MAX_CAPACITY;

/// Where the home copy of a partition lives (the "DBallocation" parameter of
/// Table 3.4 plus the main-memory-resident option of Table 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLocation {
    /// The partition is main-memory resident: every reference is a hit and
    /// only logging is performed at commit.
    MainMemoryResident,
    /// The partition resides in non-volatile extended memory; accesses are
    /// synchronous NVEM page transfers.
    NvemResident,
    /// The partition is stored on the disk unit with the given index (which
    /// may be a regular disk, a cached disk or an SSD).
    DiskUnit(usize),
}

impl Default for PageLocation {
    fn default() -> Self {
        PageLocation::DiskUnit(0)
    }
}

/// Propagation strategy for modified pages (Härder/Reuter 1983).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// NOFORCE: modified pages stay in the buffer after commit and are written
    /// back on replacement; checkpoint overhead is ignored (fuzzy
    /// checkpointing).
    #[default]
    NoForce,
    /// FORCE: all pages modified by a transaction are written to the permanent
    /// database (or to non-volatile intermediate storage) at commit.
    Force,
}

/// Per-partition buffer-management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionPolicy {
    /// Where the partition's home copy lives.
    pub location: PageLocation,
    /// Whether page writes of this partition use the NVEM write buffer.
    pub use_nvem_write_buffer: bool,
}

impl PartitionPolicy {
    /// Partition stored on the given disk unit with no NVEM usage.
    pub fn on_disk_unit(unit: usize) -> Self {
        Self {
            location: PageLocation::DiskUnit(unit),
            ..Self::default()
        }
    }

    /// Main-memory-resident partition.
    pub fn memory_resident() -> Self {
        Self {
            location: PageLocation::MainMemoryResident,
            ..Self::default()
        }
    }

    /// NVEM-resident partition.
    pub fn nvem_resident() -> Self {
        Self {
            location: PageLocation::NvemResident,
            ..Self::default()
        }
    }

    /// Routes page writes of the partition through the NVEM write buffer.
    pub fn with_nvem_write_buffer(mut self) -> Self {
        self.use_nvem_write_buffer = true;
        self
    }
}

/// Complete buffer-manager configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferConfig {
    /// Size of the main-memory database buffer in page frames.
    pub mm_buffer_pages: usize,
    /// Size of the second-level NVEM database buffer in page frames; when
    /// non-zero the cache serves every disk-resident partition (0 disables
    /// it).
    pub nvem_cache_pages: usize,
    /// Size of the NVEM write buffer in page frames (0 disables it).
    pub nvem_write_buffer_pages: usize,
    /// FORCE or NOFORCE propagation.
    pub update_strategy: UpdateStrategy,
    /// Per-partition policies, indexed by partition id.
    pub partitions: Vec<PartitionPolicy>,
}

impl BufferConfig {
    /// A configuration for `db` where every partition is stored on disk unit 0
    /// and only main-memory caching is performed.
    pub fn disk_based(db: &Database, mm_buffer_pages: usize) -> Self {
        Self {
            mm_buffer_pages,
            nvem_cache_pages: 0,
            nvem_write_buffer_pages: 0,
            update_strategy: UpdateStrategy::NoForce,
            partitions: vec![PartitionPolicy::on_disk_unit(0); db.num_partitions()],
        }
    }

    /// Sets the update strategy.
    pub fn with_update_strategy(mut self, s: UpdateStrategy) -> Self {
        self.update_strategy = s;
        self
    }

    /// Enables the NVEM write buffer of the given size for every partition.
    pub fn with_nvem_write_buffer(mut self, pages: usize) -> Self {
        self.nvem_write_buffer_pages = pages;
        for p in &mut self.partitions {
            p.use_nvem_write_buffer = true;
        }
        self
    }

    /// Enables a shared second-level NVEM cache of the given size: every
    /// page replaced from main memory of a disk-resident partition migrates
    /// into it.
    pub fn with_nvem_cache(mut self, pages: usize) -> Self {
        self.nvem_cache_pages = pages;
        self
    }

    /// Policy of partition `id` (defaults to disk unit 0 if out of range).
    pub fn policy(&self, id: usize) -> PartitionPolicy {
        self.partitions.get(id).copied().unwrap_or_default()
    }

    /// Basic consistency checks; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.mm_buffer_pages == 0 {
            return Err("main-memory buffer must have at least one frame".to_string());
        }
        for (pages, pool) in [
            (self.mm_buffer_pages, "main-memory buffer"),
            (self.nvem_cache_pages, "NVEM cache"),
            (self.nvem_write_buffer_pages, "NVEM write buffer"),
        ] {
            if pages > MAX_CAPACITY {
                return Err(format!(
                    "{pool} of {pages} frames exceeds the {MAX_CAPACITY} a buffer pool indexes"
                ));
            }
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.use_nvem_write_buffer && self.nvem_write_buffer_pages == 0 {
                return Err(format!(
                    "partition {i} requests the NVEM write buffer but its size is 0"
                ));
            }
            if p.use_nvem_write_buffer && self.nvem_cache_pages > 0 {
                // "when NVEM caching is employed for a partition there is no
                // further need for a write buffer" (§3.3, footnote 4).
                return Err(format!(
                    "partition {i} uses the NVEM write buffer but the NVEM cache serves it"
                ));
            }
            if p.use_nvem_write_buffer
                && matches!(
                    p.location,
                    PageLocation::MainMemoryResident | PageLocation::NvemResident
                )
            {
                return Err(format!(
                    "partition {i} is semiconductor-resident and needs no write buffer"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::database::PartitionSpec;

    fn db() -> Database {
        Database::from_specs(vec![
            PartitionSpec::uniform("A", 100, 10),
            PartitionSpec::uniform("B", 100, 10),
        ])
    }

    #[test]
    fn disk_based_config_is_valid() {
        let c = BufferConfig::disk_based(&db(), 100);
        assert!(c.validate().is_ok());
        assert_eq!(c.partitions.len(), 2);
        assert_eq!(c.policy(0).location, PageLocation::DiskUnit(0));
        assert_eq!(c.policy(99).location, PageLocation::DiskUnit(0));
    }

    #[test]
    fn builders_compose() {
        let c = BufferConfig::disk_based(&db(), 100)
            .with_update_strategy(UpdateStrategy::Force)
            .with_nvem_cache(500);
        assert_eq!(c.update_strategy, UpdateStrategy::Force);
        assert_eq!(c.nvem_cache_pages, 500);
        assert_eq!(c.policy(1), PartitionPolicy::on_disk_unit(0));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_write_buffer_without_size() {
        let mut c = BufferConfig::disk_based(&db(), 100);
        c.partitions[1].use_nvem_write_buffer = true;
        assert!(c.validate().is_err());
        let c = BufferConfig::disk_based(&db(), 100).with_nvem_write_buffer(200);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_cache_plus_write_buffer() {
        let c = BufferConfig::disk_based(&db(), 100).with_nvem_write_buffer(100);
        assert!(c.validate().is_ok());
        let c = c.with_nvem_cache(100);
        let err = c.validate().unwrap_err();
        assert!(err.contains("NVEM cache serves it"), "{err}");
    }

    #[test]
    fn validation_rejects_zero_mm_buffer() {
        let mut c = BufferConfig::disk_based(&db(), 100);
        c.mm_buffer_pages = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_pools_beyond_a_u32_frame_index() {
        let c = BufferConfig::disk_based(&db(), MAX_CAPACITY)
            .with_nvem_cache(MAX_CAPACITY)
            .with_update_strategy(UpdateStrategy::Force);
        assert!(c.validate().is_ok());
        let mut c = BufferConfig::disk_based(&db(), MAX_CAPACITY + 1);
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("main-memory buffer of"), "{err}");
        c.mm_buffer_pages = 100;
        c.nvem_cache_pages = MAX_CAPACITY + 1;
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("NVEM cache of"), "{err}");
        let c = BufferConfig::disk_based(&db(), 100).with_nvem_write_buffer(MAX_CAPACITY + 1);
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("NVEM write buffer of"), "{err}");
    }

    #[test]
    fn resident_partitions_need_no_write_buffer() {
        let mut c = BufferConfig::disk_based(&db(), 100).with_nvem_write_buffer(100);
        c.partitions[0] = PartitionPolicy {
            location: PageLocation::NvemResident,
            use_nvem_write_buffer: true,
        };
        assert!(c.validate().is_err());
    }
}
