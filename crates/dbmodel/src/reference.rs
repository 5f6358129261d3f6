//! The relative reference matrix.
//!
//! "This matrix defines for every transaction type T and database partition P
//! which fraction of T's accesses should go to P." (§3.1, Table 3.2)
//!
//! Rows are transaction types, columns are partitions; rows need not be
//! normalized.  The matrix is also the place where inter-transaction-type
//! locality is expressed: two transaction types referencing the same
//! partitions with similar weights share working sets.

use simkernel::dist::DiscreteDist;
use simkernel::SimRng;

use crate::database::PartitionId;
use crate::types::TxTypeId;

/// Relative reference matrix (transaction types × partitions).
#[derive(Debug, Clone)]
pub struct ReferenceMatrix {
    num_partitions: usize,
    rows: Vec<Vec<f64>>,
    dists: Vec<Option<DiscreteDist>>,
}

impl ReferenceMatrix {
    /// Builds a matrix from explicit rows.  Every row must have the same
    /// number of columns.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let num_partitions = rows.first().map(Vec::len).unwrap_or(0);
        assert!(
            rows.iter().all(|r| r.len() == num_partitions),
            "all reference-matrix rows must have the same number of partitions"
        );
        let mut m = Self {
            num_partitions,
            rows,
            dists: Vec::new(),
        };
        m.dists = m.rows.iter().map(|r| DiscreteDist::new(r)).collect();
        m
    }

    /// Number of transaction types (rows).
    pub fn num_tx_types(&self) -> usize {
        self.rows.len()
    }

    /// Number of partitions (columns).
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Fraction of type `tx_type`'s accesses that go to `partition`
    /// (normalized over the row).
    pub fn fraction(&self, tx_type: TxTypeId, partition: PartitionId) -> f64 {
        let row = &self.rows[tx_type];
        let total: f64 = row.iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            row[partition] / total
        }
    }

    /// Samples the partition for the next access of a type-`tx_type`
    /// transaction.  Panics if the row is all zeros (a transaction type that
    /// never accesses anything is a configuration error).
    pub fn sample_partition(&self, tx_type: TxTypeId, rng: &mut SimRng) -> PartitionId {
        self.dists[tx_type]
            .as_ref()
            .unwrap_or_else(|| panic!("reference matrix row {tx_type} has no positive weight"))
            .sample(rng)
    }

    /// True if the row has at least one positive weight.
    pub fn row_is_valid(&self, tx_type: TxTypeId) -> bool {
        self.dists[tx_type].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matrix from Table 3.2 of the paper.
    fn paper_matrix() -> ReferenceMatrix {
        ReferenceMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.4, 0.1, 0.5],
            vec![0.25, 0.25, 0.25, 0.25],
        ])
    }

    #[test]
    fn fractions_are_normalized_per_row() {
        let m = paper_matrix();
        assert_eq!(m.num_tx_types(), 3);
        assert_eq!(m.num_partitions(), 4);
        assert!((m.fraction(0, 0) - 1.0).abs() < 1e-12);
        assert!((m.fraction(1, 3) - 0.5).abs() < 1e-12);
        assert!((m.fraction(2, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_weights() {
        let m = paper_matrix();
        let mut rng = SimRng::seed_from(17);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[m.sample_partition(1, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!((counts[1] as f64 / n as f64 - 0.4).abs() < 0.01);
        assert!((counts[3] as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn tt1_only_accesses_partition_one() {
        let m = paper_matrix();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert_eq!(m.sample_partition(0, &mut rng), 0);
        }
    }

    #[test]
    #[should_panic]
    fn sampling_invalid_row_panics() {
        let m = ReferenceMatrix::from_rows(vec![vec![0.0, 0.0]]);
        let mut rng = SimRng::seed_from(1);
        let _ = m.sample_partition(0, &mut rng);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        let _ = ReferenceMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
