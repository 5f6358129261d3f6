//! Trace-driven workload generation.
//!
//! TPSIM can replay database traces: "For every transaction, the transaction
//! type and all database (page) references with their access mode (read or
//! write) are recorded in the trace.  Our workload generator simply extracts
//! the transactions from the trace and submits them to the processing node
//! according to a specified arrival rate." (§3.1)
//!
//! The real-life trace used in §4.6 (from a large IBM installation) is not
//! available.  As a substitution we provide a **synthetic trace generator**
//! that reproduces every statistic the paper reports about the trace:
//!
//! * more than 17,500 transactions of twelve transaction types,
//! * about one million page references,
//! * roughly 66,000 distinct pages in 13 files touched (out of a ≈4 GB database),
//! * about 20 % of the transactions perform updates but only ≈1.6 % of all
//!   references are writes,
//! * significant variation in transaction sizes, including one ad-hoc query
//!   with more than 11,000 references,
//! * strong locality of reference (a main-memory buffer of 2,000 pages yields
//!   a hit ratio above 80 %).

use std::collections::BTreeSet;

use simkernel::dist::Zipf;
use simkernel::SimRng;

use crate::database::{Database, PartitionSpec};
#[cfg(test)]
use crate::types::PageId;
use crate::types::{
    AccessMode, ObjectId, ObjectRef, TransactionTemplate, TxTypeId, WorkloadGenerator,
};

/// One transaction recorded in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTransaction {
    /// Transaction type recorded in the trace.
    pub tx_type: TxTypeId,
    /// Page references: (file index, page index within file, access mode).
    pub refs: Vec<(usize, u64, AccessMode)>,
}

impl TraceTransaction {
    /// True if the transaction contains at least one write reference.
    pub fn is_update(&self) -> bool {
        self.refs.iter().any(|(_, _, m)| m.is_write())
    }
}

/// A database trace: the referenced files and the recorded transactions.
#[derive(Debug, Clone)]
pub struct Trace {
    /// File names and sizes in pages, in file-index order.
    pub files: Vec<(String, u64)>,
    /// The recorded transactions in execution order.
    pub transactions: Vec<TraceTransaction>,
}

impl Trace {
    /// Total number of page references in the trace.
    pub fn total_references(&self) -> usize {
        self.transactions.iter().map(|t| t.refs.len()).sum()
    }

    /// Number of write references in the trace.
    pub fn write_references(&self) -> usize {
        self.transactions
            .iter()
            .flat_map(|t| t.refs.iter())
            .filter(|(_, _, m)| m.is_write())
            .count()
    }

    /// Number of update transactions.
    pub fn update_transactions(&self) -> usize {
        self.transactions.iter().filter(|t| t.is_update()).count()
    }

    /// Number of distinct (file, page) pairs referenced.
    pub fn distinct_pages(&self) -> usize {
        let mut set = BTreeSet::new();
        for t in &self.transactions {
            for (f, p, _) in &t.refs {
                set.insert((*f, *p));
            }
        }
        set.len()
    }

    /// Number of distinct transaction types appearing in the trace.
    pub fn distinct_tx_types(&self) -> usize {
        let mut set = BTreeSet::new();
        for t in &self.transactions {
            set.insert(t.tx_type);
        }
        set.len()
    }

    /// Size of the largest transaction (in references).
    pub fn max_transaction_size(&self) -> usize {
        self.transactions
            .iter()
            .map(|t| t.refs.len())
            .max()
            .unwrap_or(0)
    }

    /// Builds the [`Database`] corresponding to the traced files (one
    /// partition per file, blocking factor 1, i.e. page-level objects).
    pub fn build_database(&self) -> Database {
        let mut db = Database::new();
        for (name, pages) in &self.files {
            db.add_partition(PartitionSpec::uniform(name.clone(), (*pages).max(1), 1));
        }
        db
    }
}

/// Parameters of the synthetic trace generator.
///
/// Defaults reproduce the statistics of the real-life trace of §4.6 at full
/// scale; [`SyntheticTraceSpec::scaled_down`] gives smaller traces for tests.
#[derive(Debug, Clone)]
pub struct SyntheticTraceSpec {
    /// Number of transactions to generate (paper: >17,500).
    pub num_transactions: usize,
    /// Number of files (paper: 13).
    pub num_files: usize,
    /// Total number of *referenced* pages across all files (paper: ≈66,000).
    pub referenced_pages: u64,
    /// Total number of pages across all files (paper: ≈4 GB ≈ 1M 4-KB pages).
    pub total_pages: u64,
    /// Number of transaction types (paper: 12).
    pub num_tx_types: usize,
    /// Mean references per normal transaction (paper average ≈ 57).
    pub mean_tx_size: f64,
    /// Size of the single large ad-hoc query (paper: >11,000 references).
    pub adhoc_query_size: usize,
    /// Fraction of transactions that perform updates (paper: ≈20 %).
    pub update_tx_fraction: f64,
    /// Fraction of references that are writes (paper: ≈1.6 %).
    pub write_ref_fraction: f64,
    /// Zipf skew of page popularity inside each file's referenced set.
    pub locality_theta: f64,
}

impl Default for SyntheticTraceSpec {
    fn default() -> Self {
        Self {
            num_transactions: 17_500,
            num_files: 13,
            referenced_pages: 66_000,
            total_pages: 1_000_000,
            num_tx_types: 12,
            mean_tx_size: 56.0,
            adhoc_query_size: 11_200,
            update_tx_fraction: 0.20,
            write_ref_fraction: 0.016,
            locality_theta: 0.95,
        }
    }
}

impl SyntheticTraceSpec {
    /// A smaller trace with the same qualitative shape, for fast tests.
    pub fn scaled_down(factor: usize) -> Self {
        let d = Self::default();
        let factor = factor.max(1);
        Self {
            num_transactions: (d.num_transactions / factor).max(200),
            referenced_pages: (d.referenced_pages / factor as u64).max(1_000),
            total_pages: (d.total_pages / factor as u64).max(10_000),
            adhoc_query_size: (d.adhoc_query_size / factor).max(500),
            ..d
        }
    }

    /// Generates the trace deterministically from `rng`.
    pub fn generate(&self, rng: &mut SimRng) -> Trace {
        assert!(self.num_files >= 1 && self.num_tx_types >= 1);
        assert!(self.referenced_pages >= self.num_files as u64);

        // Split referenced pages and total pages over the files with mildly
        // uneven sizes (larger index → larger file), mimicking a mix of small
        // administrative files and large data files.
        let mut file_weights = Vec::with_capacity(self.num_files);
        for i in 0..self.num_files {
            file_weights.push(1.0 + i as f64);
        }
        let weight_sum: f64 = file_weights.iter().sum();
        let mut files = Vec::with_capacity(self.num_files);
        let mut referenced_per_file = Vec::with_capacity(self.num_files);
        for (i, w) in file_weights.iter().enumerate() {
            let total = ((self.total_pages as f64) * w / weight_sum).ceil() as u64;
            let referenced =
                (((self.referenced_pages as f64) * w / weight_sum).ceil() as u64).max(1);
            files.push((format!("FILE{i:02}"), total.max(referenced)));
            referenced_per_file.push(referenced.min(total.max(referenced)));
        }

        // Per-file popularity distribution over its referenced subset and a
        // random offset of that subset within the file.
        let mut zipfs = Vec::with_capacity(self.num_files);
        let mut subset_offsets = Vec::with_capacity(self.num_files);
        for (i, (_, total)) in files.iter().enumerate() {
            let referenced = referenced_per_file[i];
            zipfs.push(Zipf::new(referenced, self.locality_theta));
            let max_offset = total.saturating_sub(referenced);
            let offset = if max_offset == 0 {
                0
            } else {
                rng.below(max_offset + 1)
            };
            subset_offsets.push(offset);
        }

        // Transaction-type profiles: which files a type touches and its mean
        // size.  Type (num_tx_types - 1) is the ad-hoc query type.
        let mut type_files: Vec<Vec<usize>> = Vec::with_capacity(self.num_tx_types);
        let mut type_mean_size: Vec<f64> = Vec::with_capacity(self.num_tx_types);
        for t in 0..self.num_tx_types {
            let num = 1 + (t % 4);
            let mut fs = Vec::with_capacity(num);
            for k in 0..num {
                fs.push((t * 3 + k * 5) % self.num_files);
            }
            fs.sort_unstable();
            fs.dedup();
            type_files.push(fs);
            // Sizes vary significantly across types (x0.25 .. x2.5 of the mean).
            let scale = 0.25 + 2.25 * (t as f64 / (self.num_tx_types.max(2) - 1) as f64);
            type_mean_size.push((self.mean_tx_size * scale).max(2.0));
        }

        let adhoc_type = self.num_tx_types - 1;
        let mut transactions = Vec::with_capacity(self.num_transactions);
        for n in 0..self.num_transactions {
            let tx_type = if n == self.num_transactions / 2 {
                adhoc_type
            } else {
                rng.below(self.num_tx_types.max(2) as u64 - 1) as usize
            };
            let size = if n == self.num_transactions / 2 {
                self.adhoc_query_size
            } else {
                rng.exponential(type_mean_size[tx_type]).round().max(1.0) as usize
            };
            let is_update_tx =
                n != self.num_transactions / 2 && rng.chance(self.update_tx_fraction);
            // Per-reference write probability, scaled so the global write
            // fraction comes out near `write_ref_fraction` even though only
            // `update_tx_fraction` of the transactions may write at all.
            let write_prob = if is_update_tx {
                (self.write_ref_fraction / self.update_tx_fraction).min(1.0)
            } else {
                0.0
            };
            let fs = &type_files[tx_type];
            let mut refs = Vec::with_capacity(size);
            for _ in 0..size {
                let file = fs[rng.below(fs.len() as u64) as usize];
                let rank = zipfs[file].sample(rng);
                // Spread the popularity ranks over the referenced subset so the
                // hot pages of different files do not collide on low indices.
                let page = subset_offsets[file] + rank;
                let mode = if rng.chance(write_prob) {
                    AccessMode::Write
                } else {
                    AccessMode::Read
                };
                refs.push((file, page, mode));
            }
            // Guarantee the "update transaction" property when selected.
            if is_update_tx && !refs.iter().any(|(_, _, m)| m.is_write()) {
                let last = refs.len() - 1;
                refs[last].2 = AccessMode::Write;
            }
            transactions.push(TraceTransaction { tx_type, refs });
        }
        Trace {
            files,
            transactions,
        }
    }
}

/// Replays a [`Trace`] as a [`WorkloadGenerator`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    trace: Trace,
    database: Database,
    next: usize,
    cycle: bool,
}

impl TraceGenerator {
    /// Creates a replay generator.  With `cycle = true` the trace is replayed
    /// from the beginning once exhausted (useful for fixed-duration
    /// simulations); otherwise the generator terminates after the last
    /// recorded transaction.
    pub fn new(trace: Trace, cycle: bool) -> Self {
        let database = trace.build_database();
        Self {
            trace,
            database,
            next: 0,
            cycle,
        }
    }

    /// The database corresponding to the traced files.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl WorkloadGenerator for TraceGenerator {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let mut template = TransactionTemplate::default();
        self.next_into(rng, &mut template).then_some(template)
    }

    fn next_into(&mut self, _rng: &mut SimRng, out: &mut TransactionTemplate) -> bool {
        if self.trace.transactions.is_empty() {
            return false;
        }
        if self.next >= self.trace.transactions.len() {
            if self.cycle {
                self.next = 0;
            } else {
                return false;
            }
        }
        let t = &self.trace.transactions[self.next];
        self.next += 1;
        out.tx_type = t.tx_type;
        out.refs.clear();
        out.refs.extend(t.refs.iter().map(|(file, page, mode)| {
            let p = self.database.partition(*file);
            // Trace references are page references; with blocking factor 1
            // the page index doubles as the object index.  Clamp to the
            // declared file size to stay robust against slightly
            // inconsistent traces.
            let local = (*page).min(p.num_objects() - 1);
            ObjectRef {
                partition: *file,
                page: p.page_of_object(local),
                object: ObjectId(p.object(local).0),
                mode: *mode,
            }
        }));
        true
    }

    fn num_tx_types(&self) -> usize {
        self.trace.distinct_tx_types().max(1)
    }

    fn name(&self) -> &str {
        "trace-replay"
    }

    fn total_pages(&self) -> u64 {
        self.database.total_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SyntheticTraceSpec {
        SyntheticTraceSpec {
            num_transactions: 1_000,
            referenced_pages: 6_000,
            total_pages: 60_000,
            adhoc_query_size: 800,
            mean_tx_size: 20.0,
            ..SyntheticTraceSpec::default()
        }
    }

    #[test]
    fn synthetic_trace_matches_requested_statistics() {
        let spec = small_spec();
        let mut rng = SimRng::seed_from(42);
        let trace = spec.generate(&mut rng);
        assert_eq!(trace.transactions.len(), 1_000);
        assert_eq!(trace.files.len(), 13);
        assert_eq!(trace.distinct_tx_types(), 12);
        assert!(trace.max_transaction_size() >= 800);
        // Write fraction near 1.6 %.
        let wf = trace.write_references() as f64 / trace.total_references() as f64;
        assert!(wf > 0.005 && wf < 0.04, "write fraction {wf}");
        // Update transaction fraction near 20 %.
        let uf = trace.update_transactions() as f64 / trace.transactions.len() as f64;
        assert!((uf - 0.20).abs() < 0.06, "update tx fraction {uf}");
        // Distinct pages bounded by the referenced-page budget (with slack for
        // rounding per file).
        assert!(trace.distinct_pages() as u64 <= spec.referenced_pages + 50);
        assert!(trace.distinct_pages() > 1_000);
    }

    #[test]
    fn synthetic_trace_has_locality() {
        let spec = small_spec();
        let mut rng = SimRng::seed_from(7);
        let trace = spec.generate(&mut rng);
        // Count accesses per page and check that the hottest 10 % of the
        // referenced pages receive well over half of all accesses.
        let mut counts: std::collections::HashMap<(usize, u64), u64> = Default::default();
        for t in &trace.transactions {
            for (f, p, _) in &t.refs {
                *counts.entry((*f, *p)).or_default() += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top = freqs.len() / 10;
        let hot: u64 = freqs[..top].iter().sum();
        let total: u64 = freqs.iter().sum();
        let share = hot as f64 / total as f64;
        assert!(share > 0.6, "hot-10% share {share}");
    }

    #[test]
    fn generator_replays_in_order_and_terminates() {
        let trace = Trace {
            files: vec![("A".into(), 100)],
            transactions: vec![
                TraceTransaction {
                    tx_type: 1,
                    refs: vec![(0, 5, AccessMode::Read)],
                },
                TraceTransaction {
                    tx_type: 2,
                    refs: vec![(0, 7, AccessMode::Write)],
                },
            ],
        };
        let mut g = TraceGenerator::new(trace, false);
        let mut rng = SimRng::seed_from(1);
        let t1 = g.next_transaction(&mut rng).unwrap();
        assert_eq!(t1.tx_type, 1);
        assert_eq!(t1.refs[0].page, PageId(5));
        let t2 = g.next_transaction(&mut rng).unwrap();
        assert_eq!(t2.tx_type, 2);
        assert!(t2.is_update());
        assert!(g.next_transaction(&mut rng).is_none());
    }

    #[test]
    fn cycling_generator_wraps_around() {
        let trace = Trace {
            files: vec![("A".into(), 10)],
            transactions: vec![TraceTransaction {
                tx_type: 0,
                refs: vec![(0, 1, AccessMode::Read)],
            }],
        };
        let mut g = TraceGenerator::new(trace, true);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..5 {
            assert!(g.next_transaction(&mut rng).is_some());
        }
    }

    #[test]
    fn next_into_matches_next_transaction_and_reuses_the_buffer() {
        let trace = Trace {
            files: vec![("A".into(), 100), ("B".into(), 50)],
            transactions: vec![
                TraceTransaction {
                    tx_type: 0,
                    refs: vec![(0, 5, AccessMode::Read), (1, 3, AccessMode::Write)],
                },
                TraceTransaction {
                    tx_type: 1,
                    refs: vec![(1, 7, AccessMode::Read)],
                },
                TraceTransaction {
                    tx_type: 2,
                    refs: vec![(0, 9, AccessMode::Read); 3],
                },
            ],
        };
        // Cycling: ten calls wrap around the three transactions three times.
        crate::types::assert_next_into_matches(&TraceGenerator::new(trace.clone(), true), 1, 10);
        // Replay once: the fourth and fifth calls find the trace exhausted.
        crate::types::assert_next_into_matches(&TraceGenerator::new(trace, false), 1, 5);
    }

    #[test]
    fn trace_database_maps_files_to_partitions() {
        let spec = SyntheticTraceSpec {
            num_transactions: 20,
            referenced_pages: 200,
            total_pages: 400,
            adhoc_query_size: 30,
            mean_tx_size: 4.0,
            ..SyntheticTraceSpec::default()
        };
        let mut rng = SimRng::seed_from(11);
        let trace = spec.generate(&mut rng);
        let g = TraceGenerator::new(trace, false);
        assert_eq!(g.database().num_partitions(), 13);
        assert_eq!(g.name(), "trace-replay");
        assert!(g.num_tx_types() >= 1);
    }

    #[test]
    fn scaled_down_spec_is_smaller() {
        let s = SyntheticTraceSpec::scaled_down(10);
        let d = SyntheticTraceSpec::default();
        assert!(s.num_transactions < d.num_transactions);
        assert!(s.referenced_pages < d.referenced_pages);
        assert_eq!(s.num_files, d.num_files);
    }
}
