//! General synthetic workload generator.
//!
//! Implements the SOURCE module for "general synthetic transaction loads with
//! a high flexibility for studying different load profiles" (§3.1): multiple
//! transaction types, each with an arrival weight, an average number of object
//! accesses (fixed or exponentially distributed), a write probability, and a
//! sequential or non-sequential access pattern; the partition accessed per
//! reference is drawn from the relative reference matrix, the object within
//! the partition uniformly or from its hot-spot sampler.

use simkernel::SimRng;

use crate::database::Database;
use crate::hotspot::{HotSpotParams, HotSpotSampler};
use crate::reference::ReferenceMatrix;
use crate::types::{AccessMode, ObjectRef, TransactionTemplate, TxTypeId, WorkloadGenerator};

/// Per-transaction-type parameters of the synthetic model (Table 3.1).
#[derive(Debug, Clone)]
pub struct TransactionTypeSpec {
    /// Diagnostic name.
    pub name: String,
    /// Relative arrival weight (the mix is sampled proportionally to this).
    pub arrival_weight: f64,
    /// Average number of objects accessed per transaction.
    pub tx_size: f64,
    /// Probability that an individual access is a write.
    pub write_prob: f64,
    /// Sequential transactions access `tx_size` consecutive objects of one
    /// partition; non-sequential transactions draw each access independently.
    pub sequential: bool,
    /// Variable-size transactions draw their size from an exponential
    /// distribution over `tx_size`; fixed-size transactions always access
    /// exactly `tx_size` objects.
    pub variable_size: bool,
}

impl TransactionTypeSpec {
    /// A non-sequential, fixed-size transaction type.
    pub fn fixed(name: impl Into<String>, tx_size: u64, write_prob: f64) -> Self {
        Self {
            name: name.into(),
            arrival_weight: 1.0,
            tx_size: tx_size as f64,
            write_prob,
            sequential: false,
            variable_size: false,
        }
    }

    /// A non-sequential, variable-size transaction type.
    pub fn variable(name: impl Into<String>, mean_size: f64, write_prob: f64) -> Self {
        Self {
            name: name.into(),
            arrival_weight: 1.0,
            tx_size: mean_size,
            write_prob,
            sequential: false,
            variable_size: true,
        }
    }

    /// Sets the relative arrival weight.
    pub fn with_arrival_weight(mut self, w: f64) -> Self {
        self.arrival_weight = w;
        self
    }

    /// Marks the type as sequential.
    pub fn sequential(mut self) -> Self {
        self.sequential = true;
        self
    }
}

/// The general synthetic workload generator.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    database: Database,
    tx_types: Vec<TransactionTypeSpec>,
    /// `tx_types`' arrival weights, the argument of every type draw.
    arrival_weights: Vec<f64>,
    matrix: ReferenceMatrix,
    /// Per-partition hot-spot samplers; when set they replace the uniform
    /// object draw (the partition mix is unchanged).
    hot_spot: Option<Vec<HotSpotSampler>>,
}

impl SyntheticWorkload {
    /// Creates a generator.  The reference matrix must have one row per
    /// transaction type and one column per database partition.
    pub fn new(
        name: impl Into<String>,
        database: Database,
        tx_types: Vec<TransactionTypeSpec>,
        matrix: ReferenceMatrix,
    ) -> Self {
        assert_eq!(
            matrix.num_tx_types(),
            tx_types.len(),
            "reference matrix rows must match the number of transaction types"
        );
        assert_eq!(
            matrix.num_partitions(),
            database.num_partitions(),
            "reference matrix columns must match the number of partitions"
        );
        for (i, _) in tx_types.iter().enumerate() {
            assert!(
                matrix.row_is_valid(i),
                "transaction type {i} has an all-zero reference matrix row"
            );
        }
        let arrival_weights = tx_types.iter().map(|t| t.arrival_weight).collect();
        Self {
            name: name.into(),
            database,
            tx_types,
            arrival_weights,
            matrix,
            hot_spot: None,
        }
    }

    /// Samples a local object index of `partition`: from the hot-spot curve
    /// when skew is active, uniformly otherwise.
    fn sample_local(&self, partition: usize, rng: &mut SimRng) -> u64 {
        match &self.hot_spot {
            Some(samplers) => samplers[partition].sample(rng),
            None => self.database.partition(partition).sample_object(rng),
        }
    }

    /// The database this workload runs against.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The transaction type specifications.
    pub fn tx_types(&self) -> &[TransactionTypeSpec] {
        &self.tx_types
    }

    /// Samples which transaction type arrives next.
    pub fn sample_tx_type(&self, rng: &mut SimRng) -> TxTypeId {
        rng.weighted_index(&self.arrival_weights)
    }

    /// Number of object accesses for one instance of `tx_type`.
    fn sample_size(&self, tx_type: TxTypeId, rng: &mut SimRng) -> u64 {
        let spec = &self.tx_types[tx_type];
        if spec.variable_size {
            // Exponential over the mean, rounded, but at least one access.
            rng.exponential(spec.tx_size).round().max(1.0) as u64
        } else {
            spec.tx_size.round().max(1.0) as u64
        }
    }

    /// Generates one transaction of the given type.
    pub fn generate_of_type(&mut self, tx_type: TxTypeId, rng: &mut SimRng) -> TransactionTemplate {
        let mut template = TransactionTemplate::default();
        self.fill_of_type(tx_type, rng, &mut template);
        template
    }

    /// Writes one transaction of the given type into `out`, reusing its
    /// reference buffer.
    fn fill_of_type(&self, tx_type: TxTypeId, rng: &mut SimRng, out: &mut TransactionTemplate) {
        let size = self.sample_size(tx_type, rng);
        let spec = &self.tx_types[tx_type];
        let write_prob = spec.write_prob;
        let sequential = spec.sequential;
        out.tx_type = tx_type;
        let refs = &mut out.refs;
        refs.clear();

        if sequential {
            // Sequential transactions: all accesses to one partition, starting
            // at a sampled object and following its successors (§3.1).
            let partition = self.matrix.sample_partition(tx_type, rng);
            let start = self.sample_local(partition, rng);
            let p = self.database.partition(partition);
            for i in 0..size {
                let local = (start + i) % p.num_objects();
                let mode = if rng.chance(write_prob) {
                    AccessMode::Write
                } else {
                    AccessMode::Read
                };
                refs.push(ObjectRef {
                    partition,
                    page: p.page_of_object(local),
                    object: p.object(local),
                    mode,
                });
            }
        } else {
            for _ in 0..size {
                let partition = self.matrix.sample_partition(tx_type, rng);
                let local = self.sample_local(partition, rng);
                let p = self.database.partition(partition);
                let mode = if rng.chance(write_prob) {
                    AccessMode::Write
                } else {
                    AccessMode::Read
                };
                refs.push(ObjectRef {
                    partition,
                    page: p.page_of_object(local),
                    object: p.object(local),
                    mode,
                });
            }
        }
    }
}

impl WorkloadGenerator for SyntheticWorkload {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let mut template = TransactionTemplate::default();
        self.next_into(rng, &mut template).then_some(template)
    }

    fn next_into(&mut self, rng: &mut SimRng, out: &mut TransactionTemplate) -> bool {
        let tx_type = self.sample_tx_type(rng);
        self.fill_of_type(tx_type, rng, out);
        true
    }

    fn num_tx_types(&self) -> usize {
        self.tx_types.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn total_pages(&self) -> u64 {
        self.database.total_pages()
    }

    fn apply_hot_spot(&mut self, params: HotSpotParams) {
        let samplers = self
            .database
            .partitions()
            .map(|p| HotSpotSampler::new(p.num_objects(), params))
            .collect();
        self.hot_spot = Some(samplers);
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
    use crate::database::PartitionSpec;

    let database = Database::from_specs(vec![
        PartitionSpec::uniform("SMALL", 10_000, 10),
        PartitionSpec::uniform("LARGE", 100_000, 10),
    ]);
    let tx = TransactionTypeSpec::variable("UPDATE-TX", 10.0, 1.0);
    let matrix = ReferenceMatrix::from_rows(vec![vec![0.8, 0.2]]);
    SyntheticWorkload::new("lock-contention", database, vec![tx], matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::PartitionSpec;

    fn simple_workload() -> SyntheticWorkload {
        let database = Database::from_specs(vec![
            PartitionSpec::uniform("P1", 1000, 10),
            PartitionSpec::uniform("P2", 2000, 10),
        ]);
        let types = vec![
            TransactionTypeSpec::fixed("T1", 4, 0.0),
            TransactionTypeSpec::variable("T2", 8.0, 1.0).with_arrival_weight(3.0),
        ];
        let matrix = ReferenceMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        SyntheticWorkload::new("test", database, types, matrix)
    }

    #[test]
    fn fixed_size_type_always_generates_same_length() {
        let mut w = simple_workload();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..50 {
            let t = w.generate_of_type(0, &mut rng);
            assert_eq!(t.len(), 4);
            assert!(!t.is_update());
            assert!(t.refs.iter().all(|r| r.partition == 0));
        }
    }

    #[test]
    fn variable_size_type_varies_and_is_update() {
        let mut w = simple_workload();
        let mut rng = SimRng::seed_from(2);
        let sizes: Vec<usize> = (0..200)
            .map(|_| w.generate_of_type(1, &mut rng).len())
            .collect();
        let distinct: std::collections::HashSet<_> = sizes.iter().collect();
        assert!(distinct.len() > 5, "sizes should vary, got {distinct:?}");
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 8.0).abs() < 2.0, "mean size {mean}");
        let t = w.generate_of_type(1, &mut rng);
        assert!(t.is_update());
    }

    #[test]
    fn arrival_mix_follows_weights() {
        let w = simple_workload();
        let mut rng = SimRng::seed_from(3);
        let n = 40_000;
        let t2 = (0..n).filter(|_| w.sample_tx_type(&mut rng) == 1).count() as f64 / n as f64;
        assert!((t2 - 0.75).abs() < 0.02, "type-2 share {t2}");
    }

    #[test]
    fn sequential_type_accesses_consecutive_objects() {
        let database = Database::from_specs(vec![PartitionSpec::uniform("S", 100, 10)]);
        let types = vec![TransactionTypeSpec::fixed("SEQ", 5, 0.0).sequential()];
        let matrix = ReferenceMatrix::from_rows(vec![vec![1.0]]);
        let mut w = SyntheticWorkload::new("seq", database, types, matrix);
        let mut rng = SimRng::seed_from(4);
        let t = w.generate_of_type(0, &mut rng);
        assert_eq!(t.len(), 5);
        let objs: Vec<u64> = t.refs.iter().map(|r| r.object.0).collect();
        for pair in objs.windows(2) {
            let next = (pair[0] + 1) % 100;
            assert_eq!(pair[1], next);
        }
    }

    #[test]
    fn contention_workload_shape() {
        let mut w = contention_workload();
        assert_eq!(w.num_tx_types(), 1);
        assert_eq!(w.database().total_pages(), 1000 + 10_000);
        let mut rng = SimRng::seed_from(5);
        let mut small = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let t = w.next_transaction(&mut rng).unwrap();
            assert!(t.is_update());
            for r in &t.refs {
                total += 1;
                if r.partition == 0 {
                    small += 1;
                }
            }
        }
        let share = small as f64 / total as f64;
        assert!((share - 0.8).abs() < 0.02, "small-partition share {share}");
    }

    #[test]
    fn generator_trait_produces_transactions() {
        let mut w = simple_workload();
        let mut rng = SimRng::seed_from(6);
        assert_eq!(w.name(), "test");
        assert_eq!(w.num_tx_types(), 2);
        assert!(w.next_transaction(&mut rng).is_some());
    }

    #[test]
    fn next_into_matches_next_transaction_and_reuses_the_buffer() {
        // A fixed-size and a variable-size type ...
        crate::types::assert_next_into_matches(&simple_workload(), 8, 300);
        // ... and a variable-size sequential one next to a non-sequential one.
        let database = Database::from_specs(vec![
            PartitionSpec::uniform("P1", 1000, 10),
            PartitionSpec::uniform("P2", 2000, 10),
        ]);
        let types = vec![
            TransactionTypeSpec::variable("VAR", 8.0, 0.5),
            TransactionTypeSpec::variable("SEQ", 6.0, 0.2).sequential(),
        ];
        let matrix = ReferenceMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]);
        let w = SyntheticWorkload::new("mix", database, types, matrix);
        crate::types::assert_next_into_matches(&w, 9, 300);
    }

    #[test]
    fn hot_spot_mode_skews_object_draws() {
        let mut w = simple_workload();
        w.apply_hot_spot(crate::hotspot::HotSpotParams::new(0.9, 0.1));
        let mut rng = SimRng::seed_from(7);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let t = w.generate_of_type(0, &mut rng);
            for r in &t.refs {
                // Type 0 only touches partition P1 (1000 objects, first
                // object id 0): the hottest 10% are object ids 0..100.
                total += 1;
                if r.object.0 < 100 {
                    hot += 1;
                }
            }
        }
        let share = hot as f64 / total as f64;
        assert!((share - 0.9).abs() < 0.03, "hot share {share}");
    }

    #[test]
    #[should_panic]
    fn mismatched_matrix_is_rejected() {
        let database = Database::from_specs(vec![PartitionSpec::uniform("P1", 10, 1)]);
        let types = vec![TransactionTypeSpec::fixed("T1", 1, 0.0)];
        let matrix = ReferenceMatrix::from_rows(vec![vec![1.0, 1.0]]);
        let _ = SyntheticWorkload::new("bad", database, types, matrix);
    }
}
