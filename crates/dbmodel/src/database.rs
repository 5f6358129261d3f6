//! Database model: partitions and blocking factors.
//!
//! "The database is a collection of partitions.  A partition may be used to
//! represent a file, a record type (relation), part of a record type, or an
//! index structure. ... A partition consists of a number of database pages
//! which in turn consist of a specific number of objects.  The number of
//! objects per page is determined by the blocking factor." (§3.1)
//!
//! Objects inside a partition are drawn uniformly; skewed access comes from
//! the Zipf hot spots of [`crate::hotspot`].

use simkernel::SimRng;

use crate::types::{ObjectId, PageId};

/// Identifier of a database partition.
pub type PartitionId = usize;

/// Static description of a database partition.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Diagnostic name ("ACCOUNT", "BRANCH/TELLER", ...).
    pub name: String,
    /// Number of objects in the partition.
    pub num_objects: u64,
    /// Objects per page.
    pub block_factor: u64,
}

impl PartitionSpec {
    /// Uniform-access partition.
    pub fn uniform(name: impl Into<String>, num_objects: u64, block_factor: u64) -> Self {
        Self {
            name: name.into(),
            num_objects,
            block_factor,
        }
    }

    /// Number of pages in the partition.
    pub fn num_pages(&self) -> u64 {
        debug_assert!(self.block_factor >= 1);
        self.num_objects.div_ceil(self.block_factor.max(1))
    }
}

/// A partition instantiated inside a [`Database`], with its global page and
/// object range.
#[derive(Debug, Clone)]
pub struct Partition {
    spec: PartitionSpec,
    id: PartitionId,
    first_page: u64,
    first_object: u64,
    /// Append cursor of [`Partition::next_append`] (object index).
    append_cursor: u64,
}

impl Partition {
    /// Partition identifier.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Partition name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of objects.
    pub fn num_objects(&self) -> u64 {
        self.spec.num_objects
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u64 {
        self.spec.num_pages()
    }

    /// Blocking factor (objects per page).
    pub fn block_factor(&self) -> u64 {
        self.spec.block_factor
    }

    /// First global page id owned by this partition.
    pub fn first_page(&self) -> PageId {
        PageId(self.first_page)
    }

    /// Global page id of local page index `local` (0-based).
    pub fn page(&self, local: u64) -> PageId {
        debug_assert!(local < self.num_pages());
        PageId(self.first_page + local)
    }

    /// Global object id of local object index `local` (0-based).
    pub fn object(&self, local: u64) -> ObjectId {
        debug_assert!(local < self.spec.num_objects);
        ObjectId(self.first_object + local)
    }

    /// Global page id that holds local object index `local`.
    pub fn page_of_object(&self, local: u64) -> PageId {
        PageId(self.first_page + local / self.spec.block_factor.max(1))
    }

    /// Samples a local object index uniformly over the partition.
    pub fn sample_object(&self, rng: &mut SimRng) -> u64 {
        rng.below(self.spec.num_objects)
    }

    /// Next append position at the end of the partition (the Debit-Credit
    /// HISTORY relation is appended this way); wraps around when the
    /// partition is exhausted (the paper notes the HISTORY size is immaterial).
    pub fn next_append(&mut self) -> u64 {
        let obj = self.append_cursor;
        self.append_cursor = (self.append_cursor + 1) % self.spec.num_objects.max(1);
        obj
    }
}

/// The database: an ordered collection of partitions with globally unique page
/// and object numbering.
#[derive(Debug, Clone, Default)]
pub struct Database {
    partitions: Vec<Partition>,
    total_pages: u64,
    total_objects: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from partition specifications.
    pub fn from_specs(specs: Vec<PartitionSpec>) -> Self {
        let mut db = Self::new();
        for spec in specs {
            db.add_partition(spec);
        }
        db
    }

    /// Adds a partition and returns its id.
    pub fn add_partition(&mut self, spec: PartitionSpec) -> PartitionId {
        assert!(spec.num_objects > 0, "partition must contain objects");
        assert!(spec.block_factor > 0, "blocking factor must be positive");
        let id = self.partitions.len();
        let partition = Partition {
            spec,
            id,
            first_page: self.total_pages,
            first_object: self.total_objects,
            append_cursor: 0,
        };
        self.total_pages += partition.num_pages();
        self.total_objects += partition.num_objects();
        self.partitions.push(partition);
        id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of pages across all partitions.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Total number of objects across all partitions.
    pub fn total_objects(&self) -> u64 {
        self.total_objects
    }

    /// Accessor for a partition.
    pub fn partition(&self, id: PartitionId) -> &Partition {
        &self.partitions[id]
    }

    /// Mutable accessor (needed for the append cursors).
    pub fn partition_mut(&mut self, id: PartitionId) -> &mut Partition {
        &mut self.partitions[id]
    }

    /// Iterates over all partitions.
    pub fn partitions(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_count_uses_blocking_factor() {
        let spec = PartitionSpec::uniform("ACCOUNT", 50_000_000, 10);
        assert_eq!(spec.num_pages(), 5_000_000);
        let spec = PartitionSpec::uniform("X", 101, 10);
        assert_eq!(spec.num_pages(), 11);
    }

    #[test]
    fn global_numbering_is_contiguous_and_disjoint() {
        let db = Database::from_specs(vec![
            PartitionSpec::uniform("A", 100, 10),
            PartitionSpec::uniform("B", 55, 10),
            PartitionSpec::uniform("C", 10, 1),
        ]);
        assert_eq!(db.num_partitions(), 3);
        assert_eq!(db.total_pages(), 10 + 6 + 10);
        assert_eq!(db.partition(0).first_page(), PageId(0));
        assert_eq!(db.partition(1).first_page(), PageId(10));
        assert_eq!(db.partition(2).first_page(), PageId(16));
        // Each partition ends where the next begins; the last ends at the total.
        let ends: Vec<u64> = db
            .partitions()
            .map(|p| p.first_page().0 + p.num_pages())
            .collect();
        assert_eq!(ends, vec![10, 16, 26]);
        assert_eq!(ends[2], db.total_pages());
    }

    #[test]
    fn page_of_object_respects_block_factor() {
        let db = Database::from_specs(vec![PartitionSpec::uniform("A", 100, 10)]);
        let p = db.partition(0);
        assert_eq!(p.page_of_object(0), PageId(0));
        assert_eq!(p.page_of_object(9), PageId(0));
        assert_eq!(p.page_of_object(10), PageId(1));
        assert_eq!(p.page_of_object(99), PageId(9));
    }

    #[test]
    fn uniform_partition_samples_whole_range() {
        let db = Database::from_specs(vec![PartitionSpec::uniform("U", 1000, 10)]);
        let p = db.partition(0);
        let mut rng = SimRng::seed_from(9);
        let mut seen_high = false;
        let mut seen_low = false;
        for _ in 0..10_000 {
            let o = p.sample_object(&mut rng);
            assert!(o < 1000);
            if o < 100 {
                seen_low = true;
            }
            if o >= 900 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn sequential_append_wraps() {
        let mut db = Database::from_specs(vec![PartitionSpec::uniform("H", 4, 2)]);
        let p = db.partition_mut(0);
        let seq: Vec<u64> = (0..6).map(|_| p.next_append()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn empty_partition_rejected() {
        let mut db = Database::new();
        db.add_partition(PartitionSpec::uniform("bad", 0, 1));
    }
}
