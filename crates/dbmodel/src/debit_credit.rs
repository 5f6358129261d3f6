//! Debit-Credit workload generator.
//!
//! Implements the special SOURCE module of §3.1 for the Debit-Credit (TP1 /
//! TPC-A style) benchmark [An85, Gr91]:
//!
//! * four partitions — ACCOUNT, BRANCH, TELLER and HISTORY;
//! * a single transaction type with four object accesses, all updates;
//! * the BRANCH record is selected at random, the TELLER record at random from
//!   the tellers of that branch, and K % of the ACCOUNT accesses (K = 85) go
//!   to an account of the selected branch;
//! * HISTORY is sequentially appended;
//! * BRANCH and TELLER records are clustered into the same page (§4.1),
//!   which reduces the page accesses per transaction to three;
//! * the small TELLER and BRANCH records are accessed last to keep their lock
//!   holding times short (ordering: ACCOUNT, HISTORY, TELLER, BRANCH).

use simkernel::SimRng;

use crate::database::{Database, PartitionId, PartitionSpec};
use crate::hotspot::{HotSpotParams, HotSpotSampler};
use crate::types::{AccessMode, ObjectRef, TransactionTemplate, WorkloadGenerator};

/// Parameters of the Debit-Credit workload (defaults follow Table 4.1).
#[derive(Debug, Clone)]
pub struct DebitCreditConfig {
    /// Number of BRANCH records (500 in the paper's default setting).
    pub num_branches: u64,
    /// Number of TELLER records (10 per branch → 5,000).
    pub num_tellers: u64,
    /// Number of ACCOUNT records (50,000,000).
    pub num_accounts: u64,
    /// Blocking factor of the ACCOUNT partition (10 → 5,000,000 pages).
    pub account_block_factor: u64,
    /// Blocking factor of the HISTORY partition (20).
    pub history_block_factor: u64,
    /// Number of HISTORY objects (size immaterial; the file wraps around).
    pub history_objects: u64,
    /// Percentage of ACCOUNT accesses that stay within the selected branch.
    pub k_same_branch_percent: f64,
}

impl Default for DebitCreditConfig {
    fn default() -> Self {
        Self {
            num_branches: 500,
            num_tellers: 5_000,
            num_accounts: 50_000_000,
            account_block_factor: 10,
            history_block_factor: 20,
            history_objects: 1_000_000,
            k_same_branch_percent: 85.0,
        }
    }
}

impl DebitCreditConfig {
    /// A scaled-down configuration useful in tests and quick examples: the
    /// large partitions (ACCOUNT, HISTORY) shrink by `factor` while the
    /// BRANCH/TELLER partition keeps at least 200 branches.  Keeping many
    /// branches preserves the paper's property that Debit-Credit has
    /// negligible lock contention (with very few branches every transaction
    /// would serialize on the same BRANCH page).
    pub fn scaled_down(factor: u64) -> Self {
        let d = Self::default();
        let factor = factor.max(1);
        let num_branches = (d.num_branches / factor).clamp(200, d.num_branches);
        Self {
            num_branches,
            num_tellers: num_branches * 10,
            num_accounts: (d.num_accounts / factor).max(1000),
            history_objects: (d.history_objects / factor).max(1000),
            ..d
        }
    }

    /// Tellers per branch.
    pub fn tellers_per_branch(&self) -> u64 {
        (self.num_tellers / self.num_branches).max(1)
    }

    /// Accounts per branch.
    pub fn accounts_per_branch(&self) -> u64 {
        (self.num_accounts / self.num_branches).max(1)
    }
}

/// Identifiers of the Debit-Credit partitions inside the generated database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DebitCreditPartitions {
    /// BRANCH/TELLER partition: each page holds a BRANCH record and its
    /// TELLER records.
    pub branch: PartitionId,
    /// ACCOUNT partition.
    pub account: PartitionId,
    /// HISTORY partition.
    pub history: PartitionId,
}

/// The Debit-Credit workload generator.
#[derive(Debug, Clone)]
pub struct DebitCreditGenerator {
    config: DebitCreditConfig,
    database: Database,
    partitions: DebitCreditPartitions,
    /// When set, the ACCOUNT record is drawn from a Zipfian hot-spot curve
    /// over all accounts instead of the branch-local K % rule.
    account_hot_spot: Option<HotSpotSampler>,
}

impl DebitCreditGenerator {
    /// Builds the database for `config` and the generator over it.
    pub fn new(config: DebitCreditConfig) -> Self {
        let mut database = Database::new();
        // One partition whose pages each hold a BRANCH record and its TELLER
        // records.  With 500 branches this yields the 500 BRANCH/TELLER pages
        // of §4.1.  Objects are laid out per branch: object
        // (branch * (1 + tellers_per_branch)) is the branch record, the
        // following tellers_per_branch objects are its tellers.
        let per_branch = 1 + config.tellers_per_branch();
        let branch = database.add_partition(PartitionSpec::uniform(
            "BRANCH/TELLER",
            config.num_branches * per_branch,
            per_branch,
        ));
        let account = database.add_partition(PartitionSpec::uniform(
            "ACCOUNT",
            config.num_accounts,
            config.account_block_factor,
        ));
        let history = database.add_partition(PartitionSpec::uniform(
            "HISTORY",
            config.history_objects,
            config.history_block_factor,
        ));
        Self {
            config,
            database,
            partitions: DebitCreditPartitions {
                branch,
                account,
                history,
            },
            account_hot_spot: None,
        }
    }

    /// The generated database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The partition ids of the four record types.
    pub fn partitions(&self) -> DebitCreditPartitions {
        self.partitions
    }

    /// The configuration in use.
    pub fn config(&self) -> &DebitCreditConfig {
        &self.config
    }

    fn branch_ref(&self, branch: u64) -> ObjectRef {
        let p = self.database.partition(self.partitions.branch);
        let local = branch * (1 + self.config.tellers_per_branch());
        ObjectRef {
            partition: self.partitions.branch,
            page: p.page_of_object(local),
            object: p.object(local),
            mode: AccessMode::Write,
        }
    }

    fn teller_ref(&self, branch: u64, teller_in_branch: u64) -> ObjectRef {
        let p = self.database.partition(self.partitions.branch);
        let local = branch * (1 + self.config.tellers_per_branch()) + 1 + teller_in_branch;
        ObjectRef {
            partition: self.partitions.branch,
            page: p.page_of_object(local),
            object: p.object(local),
            mode: AccessMode::Write,
        }
    }

    fn account_ref(&self, account: u64) -> ObjectRef {
        let p = self.database.partition(self.partitions.account);
        ObjectRef {
            partition: self.partitions.account,
            page: p.page_of_object(account),
            object: p.object(account),
            mode: AccessMode::Write,
        }
    }
}

impl WorkloadGenerator for DebitCreditGenerator {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let mut template = TransactionTemplate::default();
        self.next_into(rng, &mut template).then_some(template)
    }

    fn next_into(&mut self, rng: &mut SimRng, out: &mut TransactionTemplate) -> bool {
        let cfg = &self.config;
        let branch = rng.below(cfg.num_branches);
        let teller_in_branch = rng.below(cfg.tellers_per_branch());

        // ACCOUNT selection.  Hot-spot mode replaces the paper's branch-local
        // K % rule with a Zipfian popularity curve over all accounts — the
        // access pattern of millions of users hitting a handful of hot rows.
        let accounts_per_branch = cfg.accounts_per_branch();
        let account = if let Some(hot) = &self.account_hot_spot {
            hot.sample(rng)
        } else if rng.chance(cfg.k_same_branch_percent / 100.0) {
            branch * accounts_per_branch + rng.below(accounts_per_branch)
        } else {
            // An account of another branch.
            let mut a = rng.below(cfg.num_accounts);
            if cfg.num_branches > 1 {
                while a / accounts_per_branch == branch {
                    a = rng.below(cfg.num_accounts);
                }
            }
            a
        };

        // HISTORY append.
        let history_local = self
            .database
            .partition_mut(self.partitions.history)
            .next_append();
        let hp = self.database.partition(self.partitions.history);
        let history_ref = ObjectRef {
            partition: self.partitions.history,
            page: hp.page_of_object(history_local),
            object: hp.object(history_local),
            mode: AccessMode::Write,
        };

        // Reference order: ACCOUNT first, BRANCH and TELLER last (shortest
        // lock holding times for the high-contention records), HISTORY in
        // between; all four record types in the same order for every
        // transaction so no deadlocks can occur among Debit-Credit
        // transactions (§3.1).
        out.tx_type = 0;
        out.refs.clear();
        out.refs.extend([
            self.account_ref(account),
            history_ref,
            self.teller_ref(branch, teller_in_branch),
            self.branch_ref(branch),
        ]);
        true
    }

    fn num_tx_types(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "debit-credit"
    }

    fn total_pages(&self) -> u64 {
        self.database.total_pages()
    }

    fn apply_hot_spot(&mut self, params: HotSpotParams) {
        self.account_hot_spot = Some(HotSpotSampler::new(self.config.num_accounts, params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_database_matches_paper_sizes() {
        let g = DebitCreditGenerator::new(DebitCreditConfig::default());
        let db = g.database();
        let parts = g.partitions();
        // Clustered BRANCH/TELLER: 500 pages (§4.1).
        assert_eq!(db.partition(parts.branch).num_pages(), 500);
        // ACCOUNT: 5 million pages.
        assert_eq!(db.partition(parts.account).num_pages(), 5_000_000);
    }

    #[test]
    fn every_transaction_has_four_updates_on_three_pages() {
        let mut g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(100));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            let t = g.next_transaction(&mut rng).unwrap();
            assert_eq!(t.len(), 4);
            assert!(t.refs.iter().all(|r| r.mode == AccessMode::Write));
            // Clustered BRANCH/TELLER share a page; HISTORY and ACCOUNT are
            // separate, so at most 3 distinct pages (could be 3 exactly).
            assert_eq!(t.distinct_pages(), 3);
        }
    }

    #[test]
    fn reference_order_is_account_history_teller_branch() {
        let mut g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(100));
        let parts = g.partitions();
        let mut rng = SimRng::seed_from(2);
        let t = g.next_transaction(&mut rng).unwrap();
        assert_eq!(t.refs[0].partition, parts.account);
        assert_eq!(t.refs[1].partition, parts.history);
        assert_eq!(t.refs[2].partition, parts.branch);
        assert_eq!(t.refs[3].partition, parts.branch);
        // The TELLER record follows its BRANCH record in the shared page.
        assert!(t.refs[2].object.0 > t.refs[3].object.0);
    }

    #[test]
    fn teller_belongs_to_selected_branch_when_clustered() {
        let cfg = DebitCreditConfig::scaled_down(100);
        let mut g = DebitCreditGenerator::new(cfg);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let t = g.next_transaction(&mut rng).unwrap();
            // With clustering, teller and branch references land on the same page.
            assert_eq!(t.refs[2].page, t.refs[3].page);
        }
    }

    #[test]
    fn same_branch_account_fraction_close_to_k() {
        let cfg = DebitCreditConfig {
            num_branches: 100,
            num_tellers: 1_000,
            num_accounts: 1_000_000,
            ..DebitCreditConfig::default()
        };
        let accounts_per_branch = cfg.accounts_per_branch();
        let per_branch_objs = 1 + cfg.tellers_per_branch();
        let mut g = DebitCreditGenerator::new(cfg);
        let mut rng = SimRng::seed_from(4);
        let n = 20_000;
        let mut same = 0;
        for _ in 0..n {
            let t = g.next_transaction(&mut rng).unwrap();
            // Recover branch and account indices from object ids.
            let branch_obj =
                t.refs[3].object.0 - g.database().partition(g.partitions().branch).object(0).0;
            let branch = branch_obj / per_branch_objs;
            let account_obj =
                t.refs[0].object.0 - g.database().partition(g.partitions().account).object(0).0;
            if account_obj / accounts_per_branch == branch {
                same += 1;
            }
        }
        let frac = same as f64 / n as f64;
        assert!((frac - 0.85).abs() < 0.02, "same-branch fraction {frac}");
    }

    #[test]
    fn history_is_appended_sequentially() {
        let mut g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(100));
        let mut rng = SimRng::seed_from(5);
        let h0 = g.next_transaction(&mut rng).unwrap().refs[1].object.0;
        let h1 = g.next_transaction(&mut rng).unwrap().refs[1].object.0;
        let h2 = g.next_transaction(&mut rng).unwrap().refs[1].object.0;
        assert_eq!(h1, h0 + 1);
        assert_eq!(h2, h1 + 1);
    }

    #[test]
    fn generator_metadata() {
        let g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(1000));
        assert_eq!(g.num_tx_types(), 1);
        assert_eq!(g.name(), "debit-credit");
    }

    #[test]
    fn hot_spot_mode_concentrates_account_accesses() {
        let cfg = DebitCreditConfig::scaled_down(1000);
        let num_accounts = cfg.num_accounts;
        let mut g = DebitCreditGenerator::new(cfg);
        let account_first = g.database().partition(g.partitions().account).object(0).0;
        g.apply_hot_spot(crate::hotspot::HotSpotParams::new(0.9, 0.1));
        let mut rng = SimRng::seed_from(6);
        let n = 5_000;
        let hot_cut = num_accounts / 10;
        let mut hot = 0usize;
        for _ in 0..n {
            let t = g.next_transaction(&mut rng).unwrap();
            let account = t.refs[0].object.0 - account_first;
            assert!(account < num_accounts);
            if account < hot_cut {
                hot += 1;
            }
        }
        let share = hot as f64 / n as f64;
        // 90% of accesses fall in the hottest 10% of accounts.
        assert!((share - 0.9).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn next_into_matches_next_transaction_and_reuses_the_buffer() {
        let mut g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(100));
        crate::types::assert_next_into_matches(&g, 8, 200);
        g.apply_hot_spot(crate::hotspot::HotSpotParams::new(0.9, 0.1));
        crate::types::assert_next_into_matches(&g, 9, 200);
    }

    #[test]
    fn hot_spot_mode_keeps_transaction_shape() {
        let mut g = DebitCreditGenerator::new(DebitCreditConfig::scaled_down(1000));
        g.apply_hot_spot(crate::hotspot::HotSpotParams::new(0.5, 0.2));
        let parts = g.partitions();
        let mut rng = SimRng::seed_from(7);
        for _ in 0..100 {
            let t = g.next_transaction(&mut rng).unwrap();
            assert_eq!(t.len(), 4);
            assert_eq!(t.refs[0].partition, parts.account);
            assert_eq!(t.refs[1].partition, parts.history);
            assert_eq!(t.refs[2].partition, parts.branch);
            assert_eq!(t.refs[3].partition, parts.branch);
        }
    }
}
