//! The synthetic workload of the lock-contention experiment (§4.7,
//! Fig. 4.8).
//!
//! TPSIM's SOURCE describes "general synthetic transaction loads" (§3.1) by
//! transaction types with arrival weights, fixed or variable sizes,
//! sequential or non-sequential access patterns and a relative reference
//! matrix.  The paper's evaluation runs one such load, and so does this
//! simulator: one variable-size update transaction type over two
//! partitions, which is all this module generates.

use simkernel::SimRng;

use crate::database::{Database, PartitionId, PartitionSpec};
use crate::types::{AccessMode, ObjectRef, TransactionTemplate, WorkloadGenerator};

/// The small partition, which receives [`SMALL_SHARE`] of the accesses.
const SMALL: PartitionId = 0;
/// The large partition, which receives the remaining accesses.
const LARGE: PartitionId = 1;
/// Share of the object accesses that go to the small partition.
const SMALL_SHARE: f64 = 0.8;
/// Mean number of object accesses per transaction.
const MEAN_SIZE: f64 = 10.0;

/// The lock-contention workload of §4.7, built by [`contention_workload`].
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    database: Database,
}

impl SyntheticWorkload {
    /// The database this workload runs against.
    pub fn database(&self) -> &Database {
        &self.database
    }
}

impl WorkloadGenerator for SyntheticWorkload {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let mut template = TransactionTemplate::default();
        self.next_into(rng, &mut template).then_some(template)
    }

    fn next_into(&mut self, rng: &mut SimRng, out: &mut TransactionTemplate) -> bool {
        // Exponential over the mean, rounded, but at least one access.
        let size = rng.exponential(MEAN_SIZE).round().max(1.0) as u64;
        out.tx_type = 0;
        out.refs.clear();
        for _ in 0..size {
            let partition = if rng.chance(SMALL_SHARE) {
                SMALL
            } else {
                LARGE
            };
            let p = self.database.partition(partition);
            let local = p.sample_object(rng);
            out.refs.push(ObjectRef {
                partition,
                page: p.page_of_object(local),
                object: p.object(local),
                mode: AccessMode::Write,
            });
        }
        true
    }

    fn num_tx_types(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "lock-contention"
    }

    fn total_pages(&self) -> u64 {
        self.database.total_pages()
    }
}

/// Builds the two-partition, high-contention synthetic workload used in the
/// lock-contention experiment (§4.7 / Fig. 4.8):
///
/// * one variable-size transaction type, mean 10 object accesses, 100 % update
///   probability;
/// * 80 % of the accesses go to a small partition of 10,000 objects, 20 % to a
///   large partition of 100,000 objects;
/// * blocking factor 10 for both partitions.
pub fn contention_workload() -> SyntheticWorkload {
    SyntheticWorkload {
        database: Database::from_specs(vec![
            PartitionSpec::uniform("SMALL", 10_000, 10),
            PartitionSpec::uniform("LARGE", 100_000, 10),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_workload_shape() {
        let mut w = contention_workload();
        assert_eq!(w.database().total_pages(), 1000 + 10_000);
        assert_eq!(w.total_pages(), 1000 + 10_000);
        let mut rng = SimRng::seed_from(5);
        let (mut small, mut total) = (0usize, 0usize);
        for _ in 0..2000 {
            for r in &w.next_transaction(&mut rng).unwrap().refs {
                total += 1;
                if r.partition == SMALL {
                    small += 1;
                }
            }
        }
        let share = small as f64 / total as f64;
        assert!((share - 0.8).abs() < 0.02, "small-partition share {share}");
    }

    #[test]
    fn variable_size_type_varies_and_is_update() {
        let mut w = contention_workload();
        let mut rng = SimRng::seed_from(2);
        let draws = 2000;
        let mut sizes = std::collections::HashSet::new();
        let mut total = 0usize;
        for _ in 0..draws {
            let t = w.next_transaction(&mut rng).unwrap();
            assert!(!t.is_empty());
            assert!(t.is_update());
            assert!(t.refs.iter().all(|r| r.mode.is_write()));
            sizes.insert(t.len());
            total += t.len();
        }
        assert!(sizes.len() > 5, "sizes should vary, got {sizes:?}");
        let mean = total as f64 / draws as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean size {mean}");
    }

    #[test]
    fn generator_trait_produces_transactions() {
        let mut w = contention_workload();
        let mut rng = SimRng::seed_from(6);
        assert_eq!(w.name(), "lock-contention");
        assert_eq!(w.num_tx_types(), 1);
        let t = w.next_transaction(&mut rng).unwrap();
        assert_eq!(t.tx_type, 0);
    }

    #[test]
    fn next_into_matches_next_transaction_and_reuses_the_buffer() {
        crate::types::assert_next_into_matches(&contention_workload(), 8, 300);
    }
}
