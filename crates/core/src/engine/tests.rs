//! Engine-level tests: end-to-end runs of small configurations, plus direct
//! regression tests against the commit-path internals (group commit,
//! cross-node invalidation, log write-buffer accounting).

use dbmodel::{AccessMode, ObjectId, ObjectRef, PageId, TransactionTemplate};
use storage::{IoKind, IoSchedulerParams, NvemDeviceParams};

use bufmgr::PageOp;

use crate::config::{CoherenceParams, LogAllocation, RecoveryParams};
use crate::presets::{
    data_sharing_config, debit_credit_config, debit_credit_workload, recovery_config,
    shared_nothing_config, DebitCreditStorage, LOG_UNIT,
};

use super::transaction::{MicroOp, TxState};
use super::{Ev, Flow, Simulation};
use crate::config::SimulationConfig;
use crate::metrics::SimulationReport;

fn quick_config(storage: DebitCreditStorage, tps: f64) -> SimulationConfig {
    let mut c = debit_credit_config(storage, tps);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c
}

/// A single-reference update transaction touching `page` of partition 0
/// (for tests that drive the commit path by hand).
fn write_template(page: u64) -> TransactionTemplate {
    TransactionTemplate {
        tx_type: 0,
        refs: vec![ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(page),
            mode: AccessMode::Write,
        }],
    }
}

#[test]
fn disk_based_debit_credit_completes_transactions() {
    let config = quick_config(DebitCreditStorage::Disk, 50.0);
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.completed > 20, "completed {}", report.completed);
    // Disk-based response time: ~2 disk I/Os + log I/O + CPU ≈ 40+ ms.
    assert!(
        report.response_time.mean > 20.0,
        "mean {}",
        report.response_time.mean
    );
    assert!(report.cpu_utilization > 0.0 && report.cpu_utilization < 1.0);
    assert!(report.throughput_tps > 20.0);
}

#[test]
fn nvem_resident_debit_credit_is_cpu_bound_and_fast() {
    let config = quick_config(DebitCreditStorage::NvemResident, 50.0);
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.completed > 20);
    // NVEM-resident: response time close to the pure CPU path length (5 ms).
    assert!(
        report.response_time.mean < 15.0,
        "mean {}",
        report.response_time.mean
    );
    assert!(report.nvem_utilization > 0.0);
}

#[test]
fn write_buffer_halves_disk_based_response_time() {
    // Use a small main-memory buffer and a higher rate so the buffer
    // reaches steady state (victim write-backs) within the short run.
    let configure = |storage| {
        let mut c = quick_config(storage, 150.0);
        c.buffer.mm_buffer_pages = 300;
        c.warmup_ms = 1_000.0;
        c.measure_ms = 2_500.0;
        c
    };
    let disk = Simulation::new(
        configure(DebitCreditStorage::Disk),
        debit_credit_workload(100),
    )
    .run();
    let wb = Simulation::new(
        configure(DebitCreditStorage::DiskWithNvemWriteBuffer),
        debit_credit_workload(100),
    )
    .run();
    assert!(
        disk.buffer.dirty_evictions > 0,
        "disk-based run should reach steady state with dirty evictions"
    );
    assert!(
        wb.response_time.mean < disk.response_time.mean * 0.75,
        "write buffer {} vs disk {}",
        wb.response_time.mean,
        disk.response_time.mean
    );
}

#[test]
fn deterministic_for_fixed_seed() {
    let a = Simulation::new(
        quick_config(DebitCreditStorage::Ssd, 80.0),
        debit_credit_workload(100),
    )
    .run();
    let b = Simulation::new(
        quick_config(DebitCreditStorage::Ssd, 80.0),
        debit_credit_workload(100),
    )
    .run();
    assert_eq!(a.completed, b.completed);
    assert!((a.response_time.mean - b.response_time.mean).abs() < 1e-9);
    assert_eq!(a.buffer.references(), b.buffer.references());
}

#[test]
fn single_log_disk_saturates_at_high_rates() {
    // With one 5 ms log disk, ~200 TPS is the maximum log rate; at 300 TPS
    // the input queue grows and response times explode (Fig. 4.1).
    let mut config =
        crate::presets::log_allocation_config(crate::presets::LogVariant::SingleDisk, 300.0);
    config.warmup_ms = 200.0;
    config.measure_ms = 2_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    let log_unit = &report.devices[1];
    assert!(
        log_unit.disk_utilization > 0.9,
        "log disk utilization {}",
        log_unit.disk_utilization
    );
    assert!(report.throughput_tps < 260.0);
}

#[test]
fn group_commit_lifts_the_single_log_disk_ceiling() {
    // Same saturated single-log-disk configuration as above, but with group
    // commit batching up to 8 committers per log page write: the log-disk
    // bottleneck disappears and throughput approaches the arrival rate.
    let make = |group: usize| {
        let mut c =
            crate::presets::log_allocation_config(crate::presets::LogVariant::SingleDisk, 300.0);
        c.warmup_ms = 500.0;
        c.measure_ms = 3_000.0;
        c.cm.group_commit_size = group;
        c.cm.group_commit_timeout_ms = 2.0;
        c
    };
    let single = Simulation::new(make(1), debit_credit_workload(100)).run();
    let grouped = Simulation::new(make(8), debit_credit_workload(100)).run();
    assert_eq!(single.log_group_writes, 0);
    assert!(grouped.log_group_writes > 0, "group commit never batched");
    assert!(
        grouped.throughput_tps > single.throughput_tps * 1.2,
        "group {} vs single {}",
        grouped.throughput_tps,
        single.throughput_tps
    );
    // Fewer log-device writes than completed transactions: batching worked.
    assert!(
        grouped.devices[LOG_UNIT].stats.writes < grouped.completed,
        "log writes {} vs completed {}",
        grouped.devices[LOG_UNIT].stats.writes,
        grouped.completed
    );
}

#[test]
fn group_commit_batches_write_buffer_overflow_log_writes() {
    // With a 1-page NVEM write buffer at 300 TPS the buffer saturates and
    // log writes overflow to synchronous disk writes; group commit must
    // batch those overflows too.
    let mut config = debit_credit_config(DebitCreditStorage::DiskWithNvemWriteBuffer, 300.0);
    config.warmup_ms = 300.0;
    config.measure_ms = 2_000.0;
    config.buffer.nvem_write_buffer_pages = 1;
    config.cm.group_commit_size = 8;
    config.cm.group_commit_timeout_ms = 2.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.completed > 100);
    assert!(
        report.log_group_writes > 0,
        "overflow log writes were not batched"
    );
}

#[test]
fn single_node_report_carries_one_matching_node_entry() {
    let config = quick_config(DebitCreditStorage::Disk, 50.0);
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_eq!(report.nodes.len(), 1);
    let node = &report.nodes[0];
    assert_eq!(node.node, 0);
    assert_eq!(node.completed, report.completed);
    assert_eq!(node.aborts, report.aborts);
    assert!((node.throughput_tps - report.throughput_tps).abs() < 1e-9);
    assert!((node.mean_response_ms - report.response_time.mean).abs() < 1e-9);
    assert!((node.cpu_utilization - report.cpu_utilization).abs() < 1e-12);
    assert!((node.avg_active_transactions - report.avg_active_transactions).abs() < 1e-9);
    assert_eq!(node.buffer, report.buffer);
    // A single node exchanges no lock messages and sees no invalidations.
    assert_eq!(node.remote_lock_requests, 0);
    assert_eq!(report.remote_lock_requests(), 0);
    assert_eq!(report.invalidations(), 0);
    assert_eq!(report.global_locks.messages, 0);
    assert_eq!(report.global_locks.local_requests, report.locks.requests);
}

#[test]
fn multi_node_run_shares_storage_and_scales_work_across_nodes() {
    let mut config = data_sharing_config(4, 200.0);
    config.warmup_ms = 500.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_eq!(report.nodes.len(), 4);
    // Round-robin assignment spreads the load: every node completes work.
    for node in &report.nodes {
        assert!(node.completed > 0, "node {} completed nothing", node.node);
    }
    assert_eq!(
        report.nodes.iter().map(|n| n.completed).sum::<u64>(),
        report.completed
    );
    // Nodes 1..3 pay remote lock messages; node 0 hosts the lock service.
    assert_eq!(report.nodes[0].remote_lock_requests, 0);
    for node in &report.nodes[1..] {
        assert!(node.remote_lock_requests > 0, "node {}", node.node);
    }
    assert_eq!(
        report.global_locks.remote_requests,
        report.nodes.iter().map(|n| n.remote_lock_requests).sum()
    );
    assert_eq!(
        report.global_locks.messages,
        2 * report.global_locks.remote_requests
    );
    // The hot BRANCH/TELLER pages are written on every node, so commits must
    // invalidate stale copies in the other nodes' pools.
    assert!(report.invalidations() > 0);
    // The aggregate buffer statistics sum the per-node pools.
    assert_eq!(
        report.buffer.references(),
        report
            .nodes
            .iter()
            .map(|n| n.buffer.references())
            .sum::<u64>()
    );
}

#[test]
fn multi_node_same_seed_same_report() {
    let make = || {
        let mut c = data_sharing_config(3, 150.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 2_000.0;
        c
    };
    let a = Simulation::new(make(), debit_credit_workload(100)).run();
    let b = Simulation::new(make(), debit_credit_workload(100)).run();
    assert_eq!(a, b);
    assert_eq!(a.nodes.len(), 3);
}

#[test]
fn shared_log_disk_and_lock_messages_cap_multi_node_scaling() {
    // 4 nodes at 4× the per-node rate: the CPU complex scales linearly but
    // the single shared log disk (~200 TPS ceiling) does not, so throughput
    // stays well below the offered 400 TPS while a 4-log-disk baseline keeps
    // up.  This is the data-sharing analogue of Fig. 4.1's log bottleneck.
    let sharing = {
        let mut c = data_sharing_config(4, 400.0);
        c.warmup_ms = 500.0;
        c.measure_ms = 3_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    assert!(
        sharing.devices[LOG_UNIT].disk_utilization > 0.9,
        "shared log disk utilization {}",
        sharing.devices[LOG_UNIT].disk_utilization
    );
    assert!(
        sharing.throughput_tps < 300.0,
        "throughput {} should be capped by the shared log disk",
        sharing.throughput_tps
    );
}

// ---------------------------------------------------------------------------
// Shared nothing (function shipping)
// ---------------------------------------------------------------------------

#[test]
fn shared_nothing_ships_remote_references_and_needs_no_coherence() {
    let mut config = shared_nothing_config(4, 200.0);
    config.warmup_ms = 500.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_eq!(report.nodes.len(), 4);
    assert!(report.completed > 100, "completed {}", report.completed);
    for node in &report.nodes {
        assert!(node.completed > 0, "node {} completed nothing", node.node);
        // Locking is node-local: nobody messages a global lock service.
        assert_eq!(node.remote_lock_requests, 0);
    }
    assert_eq!(report.global_locks.remote_requests, 0);
    assert_eq!(report.global_locks.messages, 0);
    // A page is only ever cached at its owner: no invalidation traffic.
    assert_eq!(report.invalidations(), 0);
    let shipping = report.shipping.as_ref().expect("shipping section present");
    // Hash declustering + round-robin routing: ≈ 3/4 of the references are
    // remote at 4 nodes.
    let frac = shipping.remote_access_fraction();
    assert!(
        (0.6..0.9).contains(&frac),
        "remote access fraction {frac} should be ≈ 0.75 at 4 nodes"
    );
    assert!(shipping.remote_calls > 0);
    assert_eq!(
        shipping.per_node_remote_calls.iter().sum::<u64>(),
        shipping.remote_calls,
        "per-node remote calls must sum to the aggregate"
    );
    // Every shipped reference exchanges a call and a reply; commits add
    // their two-phase exchanges on top.
    assert!(shipping.commit_exchanges > 0);
    assert!(shipping.commit_participants >= shipping.commit_exchanges);
    assert!(
        shipping.messages >= 2 * shipping.remote_calls,
        "messages {} vs remote calls {}",
        shipping.messages,
        shipping.remote_calls
    );
    assert!(shipping.total_message_delay_ms > 0.0);
    assert!(shipping.remote_cpu_ms > 0.0);
}

#[test]
fn shared_nothing_single_node_degenerates_to_data_sharing() {
    // With one node every page is owned locally: no calls are shipped and
    // the run must be identical to the centralized (data-sharing) system —
    // the report differs only by the (all-zero-remote) shipping section.
    let make = |shared_nothing: bool| {
        let mut c = if shared_nothing {
            shared_nothing_config(1, 80.0)
        } else {
            data_sharing_config(1, 80.0)
        };
        c.warmup_ms = 300.0;
        c.measure_ms = 2_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let sharing = make(false);
    let mut nothing = make(true);
    let shipping = nothing.shipping.take().expect("shipping section present");
    assert_eq!(shipping.remote_calls, 0);
    assert_eq!(shipping.messages, 0);
    assert_eq!(shipping.commit_exchanges, 0);
    assert!(shipping.local_refs > 0);
    assert_eq!(
        nothing, sharing,
        "single-node shared nothing must match the centralized system"
    );
}

#[test]
fn shared_nothing_same_seed_same_report() {
    let make = || {
        let mut c = shared_nothing_config(3, 150.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 2_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let a = make();
    let b = make();
    assert_eq!(a, b, "same seed must reproduce the shared-nothing report");
    assert!(a.shipping.is_some());
}

#[test]
fn shared_nothing_range_scheme_ships_too() {
    let mut config = shared_nothing_config(2, 120.0);
    config.partitioning = crate::config::PartitioningParams::range(8);
    config.warmup_ms = 300.0;
    config.measure_ms = 2_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.completed > 50);
    let shipping = report.shipping.as_ref().expect("shipping section");
    assert!(
        shipping.remote_calls > 0,
        "range declustering never shipped"
    );
    assert!(report.remote_access_fraction() > 0.1);
}

#[test]
fn shared_nothing_partitions_the_log_and_avoids_the_shared_log_ceiling() {
    // The data-sharing analogue test above shows 4 nodes at 400 TPS capped
    // by the single shared log disk; the shared-nothing preset partitions
    // the log (one disk per node) and keeps up with the offered load at the
    // price of function-shipping messages.
    let run = |shared_nothing: bool| {
        let mut c = if shared_nothing {
            shared_nothing_config(4, 400.0)
        } else {
            data_sharing_config(4, 400.0)
        };
        c.warmup_ms = 500.0;
        c.measure_ms = 3_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let nothing = run(true);
    let sharing = run(false);
    assert!(
        nothing.throughput_tps > 1.2 * sharing.throughput_tps,
        "shared nothing {} TPS should beat the log-capped data sharing {} TPS",
        nothing.throughput_tps,
        sharing.throughput_tps
    );
    assert!(
        nothing.devices[LOG_UNIT].disk_utilization < 0.9,
        "the partitioned log must not saturate, got {}",
        nothing.devices[LOG_UNIT].disk_utilization
    );
}

#[test]
#[should_panic(expected = "data-sharing architecture")]
fn shared_nothing_crash_simulation_is_rejected() {
    let mut c = shared_nothing_config(2, 100.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 2_000.0;
    let _ = Simulation::new(c, debit_credit_workload(100)).simulate_crash_at(1_000.0);
}

// ---------------------------------------------------------------------------
// Commit-path regression tests (direct engine manipulation)
// ---------------------------------------------------------------------------

#[test]
fn stale_group_commit_timeout_is_a_noop_and_never_flushes_a_newer_batch() {
    let mut c = quick_config(DebitCreditStorage::Disk, 50.0);
    c.cm.group_commit_size = 2;
    c.cm.group_commit_timeout_ms = 2.0;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    for page in 1..=3 {
        sim.activate(0, write_template(page), 0.0);
    }
    // Slot 0 opens batch seq 0 (arming its flush timeout), slot 1 fills it:
    // the batch is size-flushed and the sequence number advances.
    let seq0 = sim.commit_group_seq;
    assert_eq!(sim.join_commit_group(0, LOG_UNIT), Flow::Blocked);
    assert_eq!(sim.commit_group.len(), 1);
    assert_eq!(sim.join_commit_group(1, LOG_UNIT), Flow::Blocked);
    assert_eq!(sim.commit_group_seq, seq0 + 1);
    assert!(sim.commit_group.is_empty());
    assert_eq!(
        sim.group_writes_in_flight(),
        1,
        "one group log write in flight"
    );
    // Slot 2 opens the next batch (seq 1).
    assert_eq!(sim.join_commit_group(2, LOG_UNIT), Flow::Blocked);
    assert_eq!(sim.commit_group.len(), 1);
    // The stale timeout of the size-flushed batch seq 0 arrives now: it must
    // neither flush the newer batch early nor disturb the in-flight write.
    sim.handle_group_commit_flush(seq0);
    assert_eq!(sim.commit_group.len(), 1, "newer batch flushed early");
    assert_eq!(sim.group_writes_in_flight(), 1);
    // The newer batch's own timeout flushes it ...
    sim.handle_group_commit_flush(seq0 + 1);
    assert!(sim.commit_group.is_empty());
    assert_eq!(sim.group_writes_in_flight(), 2);
    // ... and a late duplicate timeout for it is a no-op as well.
    sim.handle_group_commit_flush(seq0 + 1);
    assert_eq!(sim.group_writes_in_flight(), 2);
    assert_eq!(sim.log_group_writes, 2);
}

#[test]
fn commit_invalidation_skips_the_committing_node_and_counts_once() {
    let mut c = data_sharing_config(3, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    // Page 42 is buffered on every node; node 0 holds the freshly written
    // (dirty) copy of its committing transaction, nodes 1 and 2 hold stale
    // clean copies.  Direct bufmgr pokes bypass `buffer_fetch`, so the
    // holders index must be told by hand — exactly the invariant the
    // commit-time equivalence debug_assert enforces.
    for node in 0..3 {
        sim.nodes[node]
            .bufmgr
            .reference_page(0, PageId(42), node == 0);
        sim.note_holder(node, PageId(42));
    }
    sim.activate(0, write_template(42), 0.0);
    assert_eq!(sim.op_complete(0), Flow::Finished);
    // The committing node must keep its own just-written copy ...
    assert!(
        sim.nodes[0].bufmgr.mm_contains(PageId(42)),
        "committing node invalidated its own just-written copy"
    );
    // ... the other nodes must lose theirs ...
    assert!(!sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert!(!sim.nodes[2].bufmgr.mm_contains(PageId(42)));
    // ... and each dropped copy is counted exactly once, on the node that
    // lost it (so the aggregate sum over nodes cannot double-count).
    assert_eq!(sim.nodes[0].bufmgr.stats().invalidations, 0);
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 1);
    assert_eq!(sim.nodes[2].bufmgr.stats().invalidations, 1);
    let total: u64 = sim
        .nodes
        .iter()
        .map(|n| n.bufmgr.stats().invalidations)
        .sum();
    assert_eq!(total, 2);
}

// ---------------------------------------------------------------------------
// Coherence protocols: holders index, on-request validation, direct transfer
// ---------------------------------------------------------------------------

#[test]
fn holders_index_matches_broadcast_on_randomized_multi_node_configs() {
    // Debug builds assert, at every commit fan-out, that each node outside
    // the holders mask would experience the old broadcast's
    // `invalidate_page` as a complete no-op — so simply *running* a spread
    // of multi-node shapes under the default protocol proves the index path
    // equivalent to the broadcast it replaced (any divergence panics).
    for (nodes, tps, seed) in [
        (2, 120.0, 7),
        (3, 180.0, 11),
        (5, 250.0, 23),
        (8, 320.0, 42),
    ] {
        let mut c = data_sharing_config(nodes, tps);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c.seed = seed;
        let report = Simulation::new(c, debit_credit_workload(100)).run();
        assert!(
            report.invalidations() > 0,
            "{nodes}-node run exercised no invalidations"
        );
        assert!(
            report.coherence.is_none(),
            "default protocol must not render a coherence section"
        );
    }
}

#[test]
fn duplicate_written_pages_intern_once_and_invalidate_once() {
    // A transaction writing the same page through two references must
    // intern one `written_pages` entry and invalidate each holder once.
    let mut c = data_sharing_config(2, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    sim.nodes[1].bufmgr.reference_page(0, PageId(42), false);
    sim.note_holder(1, PageId(42));
    let mut template = write_template(42);
    template.refs.push(template.refs[0]);
    sim.activate(0, template, 0.0);
    let interned = sim.txs.tx(0).template;
    assert_eq!(
        sim.templates.entry(interned).written_pages,
        vec![(0, PageId(42))],
        "duplicate written pages must deduplicate at intern time"
    );
    sim.nodes[0].bufmgr.reference_page(0, PageId(42), true);
    sim.note_holder(0, PageId(42));
    assert_eq!(sim.op_complete(0), Flow::Finished);
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 1);
}

#[test]
fn on_request_validation_defers_invalidation_to_the_reference() {
    let mut c = data_sharing_config(3, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c.coherence = CoherenceParams::on_request_validate();
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    for node in 0..3 {
        sim.nodes[node]
            .bufmgr
            .reference_page(0, PageId(42), node == 0);
        sim.note_holder(node, PageId(42));
    }
    sim.activate(0, write_template(42), 0.0);
    assert_eq!(sim.op_complete(0), Flow::Finished);
    // Commit sent nothing: the other nodes keep their (now stale) copies.
    assert!(sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert!(sim.nodes[2].bufmgr.mm_contains(PageId(42)));
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 0);
    // The next reference validates: node 1's stamp (absent = version 0) is
    // behind the bumped global version, so the copy is discarded and the
    // validation round trip is charged — the stale hit became a miss.
    let delay = sim.validate_reference(1, PageId(42));
    assert_eq!(delay, Some(2.0 * sim.config.coherence.transfer_msg_ms));
    assert!(!sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 1);
    assert_eq!(sim.coherence_stats.stale_validations, 1);
    // The committer stamped its own copy with the new version: current.
    assert_eq!(sim.validate_reference(0, PageId(42)), None);
    assert!(sim.nodes[0].bufmgr.mm_contains(PageId(42)));
    // A node without any buffered copy has nothing to validate.
    assert_eq!(sim.validate_reference(2, PageId(43)), None);
}

#[test]
fn on_request_validation_eagerly_clears_superseded_dpt_entries() {
    let mut c = data_sharing_config(3, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c.coherence = CoherenceParams::on_request_validate();
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    // Node 1 buffered page 42 dirty and has an unpropagated committed
    // update of its own: a dirty-page-table entry pinning the redo boundary.
    sim.nodes[1].bufmgr.reference_page(0, PageId(42), true);
    sim.note_holder(1, PageId(42));
    sim.nodes[1].bufmgr.note_committed_update(0, PageId(42), 7);
    assert_eq!(
        sim.nodes[1].bufmgr.dirty_page_table().rec_lsn(PageId(42)),
        Some(7)
    );
    let clears_before = sim.nodes[1].bufmgr.dpt_only_clears();
    // Node 0 commits a newer update to the page.
    sim.nodes[0].bufmgr.reference_page(0, PageId(42), true);
    sim.note_holder(0, PageId(42));
    sim.activate(0, write_template(42), 0.0);
    assert_eq!(sim.op_complete(0), Flow::Finished);
    // Node 1's superseded redo entry is gone at the commit — not deferred
    // to the next reference — so a checkpoint taken now records the true
    // redo boundary...
    assert_eq!(
        sim.nodes[1].bufmgr.dirty_page_table().rec_lsn(PageId(42)),
        None
    );
    assert_eq!(sim.nodes[1].bufmgr.dpt_only_clears(), clears_before + 1);
    // ...but the stale buffered copy stays (no invalidation message is
    // modelled); it is discarded only by the reference-time version check.
    assert!(sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 0);
    assert!(sim.validate_reference(1, PageId(42)).is_some());
    assert!(!sim.nodes[1].bufmgr.mm_contains(PageId(42)));
}

#[test]
fn direct_transfer_replaces_the_disk_reread_when_a_donor_holds_the_page() {
    let mut c = data_sharing_config(2, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c.coherence = CoherenceParams::broadcast().with_direct_transfer();
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    // Node 1 holds a current copy of page 42; node 0 misses on it.
    sim.nodes[1].bufmgr.reference_page(0, PageId(42), false);
    sim.note_holder(1, PageId(42));
    let read = vec![PageOp::UnitRead {
        unit: 0,
        page: PageId(42),
    }];
    let mut ops = Vec::new();
    sim.convert_page_ops_with_transfer(0, PageId(42), &read, &mut ops);
    assert_eq!(
        ops.len(),
        2,
        "message round trip + memory copy, no disk I/O"
    );
    assert!(matches!(ops[0], MicroOp::RemoteDelay { .. }));
    assert!(matches!(ops[1], MicroOp::CpuBurst { nvem: false, .. }));
    assert_eq!(sim.coherence_stats.direct_transfers, 1);
    // No node holds page 43: the conversion falls back to the disk read.
    let read = vec![PageOp::UnitRead {
        unit: 0,
        page: PageId(43),
    }];
    let mut ops = Vec::new();
    sim.convert_page_ops_with_transfer(0, PageId(43), &read, &mut ops);
    assert!(matches!(ops.last(), Some(MicroOp::IssueIo { .. })));
    assert_eq!(sim.coherence_stats.transfer_fallback_reads, 1);
    // Eviction write-backs travelling with the miss keep their positions.
    sim.nodes[1].bufmgr.reference_page(0, PageId(44), false);
    sim.note_holder(1, PageId(44));
    let mixed = vec![
        PageOp::UnitWrite {
            unit: 0,
            page: PageId(9),
        },
        PageOp::UnitRead {
            unit: 0,
            page: PageId(44),
        },
    ];
    let mut ops = Vec::new();
    sim.convert_page_ops_with_transfer(0, PageId(44), &mixed, &mut ops);
    assert!(matches!(ops[0], MicroOp::CpuBurst { .. })); // I/O overhead
    assert!(matches!(ops[1], MicroOp::IssueIo { .. })); // the write-back
    assert!(matches!(ops[2], MicroOp::RemoteDelay { .. }));
    assert!(matches!(ops[3], MicroOp::CpuBurst { .. }));
}

#[test]
fn on_request_validate_with_direct_transfer_reports_protocol_activity() {
    let mut c = data_sharing_config(3, 200.0);
    c.warmup_ms = 500.0;
    c.measure_ms = 3_000.0;
    c.coherence = CoherenceParams::on_request_validate().with_direct_transfer();
    let report = Simulation::new(c, debit_credit_workload(100)).run();
    let coh = report
        .coherence
        .expect("non-default combination renders the coherence section");
    // The hot BRANCH/TELLER pages are written on every node, so stale hits
    // (validated and discarded at reference time) and donor-served misses
    // both occur in steady state.
    assert!(coh.stale_validations > 0, "no stale hit was ever validated");
    assert!(coh.validation_delay_ms > 0.0);
    assert!(coh.direct_transfers > 0, "no miss was donor-served");
    assert!(coh.transfer_delay_ms > 0.0);
    assert!(
        report.invalidations() >= coh.stale_validations,
        "stale discards must count as buffer invalidations"
    );
    assert!(report.completed > 0);
}

#[test]
fn every_coherence_combination_is_deterministic() {
    // Same seed ⇒ byte-identical report for each protocol × transfer
    // combination.
    let combos = [
        CoherenceParams::broadcast(),
        CoherenceParams::broadcast().with_direct_transfer(),
        CoherenceParams::on_request_validate(),
        CoherenceParams::on_request_validate().with_direct_transfer(),
    ];
    for coherence in combos {
        let make = || {
            let mut c = data_sharing_config(3, 150.0);
            c.warmup_ms = 300.0;
            c.measure_ms = 1_500.0;
            c.coherence = coherence;
            c
        };
        let a = Simulation::new(make(), debit_credit_workload(100)).run();
        let b = Simulation::new(make(), debit_credit_workload(100)).run();
        assert_eq!(
            format!("{a:#?}"),
            format!("{b:#?}"),
            "{coherence:?} is not deterministic"
        );
        assert_eq!(a.coherence.is_some(), !coherence.is_default_protocol());
    }
}

#[test]
fn lru_k1_report_is_byte_identical_to_the_default_lru() {
    let make = |k: usize| {
        let mut c = quick_config(DebitCreditStorage::Disk, 150.0);
        c.buffer.mm_buffer_pages = 300; // small pool: steady-state evictions
        c.buffer = c.buffer.clone().with_lru_k(k);
        c
    };
    let baseline =
        Simulation::new(quick_config_with_small_pool(), debit_credit_workload(100)).run();
    let k1 = Simulation::new(make(1), debit_credit_workload(100)).run();
    assert_eq!(
        format!("{baseline:#?}"),
        format!("{k1:#?}"),
        "explicit K = 1 must be byte-identical to the default LRU chain"
    );
    // K = 2 is a different replacement policy but stays deterministic.
    let k2a = Simulation::new(make(2), debit_credit_workload(100)).run();
    let k2b = Simulation::new(make(2), debit_credit_workload(100)).run();
    assert_eq!(format!("{k2a:#?}"), format!("{k2b:#?}"));
    assert!(k2a.completed > 0);
    assert!(k2a.buffer.mm_evictions > 0, "small pool must evict");
}

fn quick_config_with_small_pool() -> SimulationConfig {
    let mut c = quick_config(DebitCreditStorage::Disk, 150.0);
    c.buffer.mm_buffer_pages = 300;
    c
}

// ---------------------------------------------------------------------------
// Device I/O request scheduler: coalescing, elevator batching, prefetch
// ---------------------------------------------------------------------------

fn scheduler_params(coalesce: bool, elevator: bool, prefetch_depth: u32) -> IoSchedulerParams {
    IoSchedulerParams {
        coalesce,
        elevator,
        prefetch_depth,
        aging_bound: 16,
    }
}

/// A read-only transaction touching `len` consecutive pages of partition 0
/// starting at `start` — the ascending miss run that arms sequential
/// prefetch.
fn sequential_read_template(start: u64, len: u64) -> TransactionTemplate {
    TransactionTemplate {
        tx_type: 0,
        refs: (0..len)
            .map(|i| ObjectRef {
                partition: 0,
                page: PageId(start + i),
                object: ObjectId(start + i),
                mode: AccessMode::Read,
            })
            .collect(),
    }
}

#[test]
fn every_io_scheduler_combination_is_deterministic() {
    // Same seed ⇒ byte-identical report for each scheduler policy
    // combination.
    let combos = [
        scheduler_params(true, false, 0),
        scheduler_params(false, true, 0),
        scheduler_params(true, true, 0),
        scheduler_params(true, true, 4),
        scheduler_params(false, false, 4),
    ];
    for params in combos {
        let make = || {
            let mut c = data_sharing_config(3, 150.0);
            c.warmup_ms = 300.0;
            c.measure_ms = 1_500.0;
            c.buffer.mm_buffer_pages = 300; // small pools: real disk reads
            c.io_scheduler = params;
            c
        };
        let a = Simulation::new(make(), debit_credit_workload(100)).run();
        let b = Simulation::new(make(), debit_credit_workload(100)).run();
        assert_eq!(
            format!("{a:#?}"),
            format!("{b:#?}"),
            "{params:?} is not deterministic"
        );
        assert!(
            a.devices.iter().all(|d| d.scheduler.is_some()),
            "an enabled policy must render the scheduler section on every unit"
        );
        assert!(a.completed > 0);
    }
}

#[test]
fn a_disabled_scheduler_leaves_the_report_without_a_scheduler_section() {
    let report = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(100),
    )
    .run();
    assert!(report.devices.iter().all(|d| d.scheduler.is_none()));
    assert!(
        !format!("{report:#?}").contains("scheduler"),
        "default config must render byte-identically to pre-scheduler reports"
    );
}

#[test]
fn coalesced_read_completion_wakes_every_joined_waiter() {
    let mut c = quick_config(DebitCreditStorage::Disk, 50.0);
    c.io_scheduler.coalesce = true;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    for _ in 0..3 {
        sim.activate(0, write_template(7), 0.0);
    }
    // Three synchronous reads of the same page: the first dispatches, the
    // other two join its in-flight request instead of paying for their own.
    for slot in 0..3 {
        assert_eq!(
            sim.op_issue_io(slot, 0, IoKind::Read, PageId(7), true, false, false),
            Flow::Blocked
        );
    }
    let stats = sim.units[0].scheduler.as_ref().expect("enabled").stats();
    assert_eq!(stats.coalesced, 2, "two of the three reads must coalesce");
    assert_eq!(sim.ios.live().count(), 1, "one physical request in flight");
    let waiters = sim
        .ios
        .live()
        .next()
        .expect("live io")
        .group_waiters
        .clone();
    assert_eq!(waiters, vec![0, 1, 2]);
    // Drive only the I/O stages to completion: every joined waiter must be
    // woken by the single completion fan-out.
    while let Some(event) = sim.queue.pop() {
        if let Ev::IoStage(io_id) = event.payload {
            sim.handle_io_stage(io_id);
        }
    }
    assert_eq!(sim.ios.live().count(), 0);
    for slot in 0..3 {
        assert_eq!(sim.txs.tx(slot).state, TxState::Ready, "slot {slot} asleep");
    }
}

#[test]
fn an_ascending_miss_run_triggers_prefetch_and_later_references_hit() {
    let mut c = quick_config(DebitCreditStorage::Disk, 50.0);
    c.io_scheduler = scheduler_params(true, false, 4);
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    // Four consecutive pages, far from the debit-credit hot set: the second
    // miss forms an ascending run of 2 and read-ahead covers the rest.
    sim.activate(0, sequential_read_template(5_000, 4), 0.0);
    sim.process_ready();
    sim.run_event_loop();
    let prefetch_issued: u64 = sim
        .units
        .iter()
        .filter_map(|u| u.scheduler.as_ref())
        .map(|s| s.stats().prefetch_issued)
        .sum();
    assert!(
        prefetch_issued >= 2,
        "an ascending run must arm read-ahead (issued {prefetch_issued})"
    );
    let hits: u64 = sim.nodes[0].bufmgr.prefetch_hits().iter().sum();
    assert!(
        hits >= 1,
        "later references of the run must hit prefetched frames (hits {hits})"
    );
}

#[test]
fn log_wb_completion_decrements_occupancy() {
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(200),
    );
    sim.log_wb_pending = 2;
    // An empty stage list completes immediately on advance.
    let (io_id, io) = sim.ios.claim(0, PageId(7), None);
    io.log_wb = true;
    sim.advance_io(io_id);
    assert_eq!(sim.log_wb_pending, 1);
}

#[test]
#[should_panic(expected = "write-buffer occupancy underflow")]
fn log_wb_underflow_is_surfaced_in_debug_builds() {
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(200),
    );
    assert_eq!(sim.log_wb_pending, 0);
    // A log write-buffer completion without a matching reservation is an
    // accounting bug and must assert instead of clamping silently.
    let (io_id, io) = sim.ios.claim(0, PageId(8), None);
    io.log_wb = true;
    sim.advance_io(io_id);
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

/// Runs a short recovery configuration and crashes it at 1.5 s (mid
/// measurement interval).
fn quick_crash(force: bool, nvem_log: bool, interval_ms: f64) -> SimulationReport {
    let mut c = recovery_config(force, nvem_log, interval_ms, 120.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    Simulation::new(c, debit_credit_workload(100))
        .simulate_crash_at(1_500.0)
        .run()
}

#[test]
fn crash_and_restart_reports_recovery_metrics() {
    let report = quick_crash(false, false, 0.0);
    assert!(report.completed > 50, "completed {}", report.completed);
    assert!((report.measured_time_ms - 1_200.0).abs() < 1e-6);
    let rec = report.recovery.as_ref().expect("recovery section present");
    assert_eq!(rec.checkpoints_taken, 0);
    assert!(rec.redo_log_records > 0);
    assert_eq!(rec.records_per_log_page, 8); // 4096 / 512
    let restart = rec.restart.as_ref().expect("restart section present");
    assert!((restart.crash_time_ms - 1_500.0).abs() < 1e-9);
    assert!(restart.restart_ms > 0.0);
    assert!(restart.redo_records > 0);
    assert!(restart.log_pages_read > 1);
    assert!(restart.dirty_pages_at_crash > 0);
    assert!(restart.data_pages_read > 0);
    assert!(restart.locks_released_at_crash > 0);
    assert!(restart.locks_reacquired > 0);
    // The per-node redo records sum to the aggregate.
    assert_eq!(
        report.nodes.iter().map(|n| n.redo_records).sum::<u64>(),
        rec.redo_log_records
    );
}

#[test]
fn checkpoints_truncate_the_log_and_cost_overhead() {
    let without = quick_crash(true, false, 0.0);
    let with = quick_crash(true, false, 400.0);
    let rec = with.recovery.as_ref().unwrap();
    assert!(
        rec.checkpoints_taken >= 2,
        "{} checkpoints",
        rec.checkpoints_taken
    );
    assert!(rec.checkpoint_overhead_ms > 0.0);
    assert!(rec.log_records_truncated > 0);
    // Under FORCE every committed update is propagated at commit, so the
    // dirty-page tables stay empty and each checkpoint advances the redo
    // boundary to the log's end: the redo tail at the crash is a fraction of
    // the un-checkpointed one.
    let redo_with = rec.restart.as_ref().unwrap().redo_records;
    let redo_without = without
        .recovery
        .as_ref()
        .unwrap()
        .restart
        .as_ref()
        .unwrap()
        .redo_records;
    assert!(
        redo_with * 2 < redo_without,
        "checkpoints should bound the redo tail: {redo_with} vs {redo_without}"
    );
}

#[test]
fn force_restart_is_a_pure_log_scan() {
    let report = quick_crash(true, false, 0.0);
    let restart = report.recovery.as_ref().unwrap().restart.as_ref().unwrap();
    // FORCE propagates at commit: nothing is lost, nothing is re-read.
    assert_eq!(restart.dirty_pages_at_crash, 0);
    assert_eq!(restart.data_pages_read, 0);
    assert_eq!(restart.locks_reacquired, 0);
    assert!(restart.log_pages_read > 0);
    let noforce = quick_crash(false, false, 0.0);
    let noforce_restart = noforce.recovery.as_ref().unwrap().restart.as_ref().unwrap();
    assert!(
        restart.restart_ms < noforce_restart.restart_ms,
        "FORCE restart {} ms vs NOFORCE restart {} ms",
        restart.restart_ms,
        noforce_restart.restart_ms
    );
}

#[test]
fn nvem_resident_log_shortens_restart() {
    let disk = quick_crash(false, false, 0.0);
    let nvem = quick_crash(false, true, 0.0);
    assert!(
        nvem.restart_ms() < disk.restart_ms(),
        "NVEM log restart {} ms vs disk log restart {} ms",
        nvem.restart_ms(),
        disk.restart_ms()
    );
}

#[test]
fn recovery_is_deterministic_for_fixed_seed_and_crash_point() {
    let a = quick_crash(false, false, 300.0);
    let b = quick_crash(false, false, 300.0);
    assert_eq!(
        a, b,
        "same seed + same crash point must reproduce the report"
    );
}

#[test]
fn disabled_recovery_reports_nothing_and_stays_deterministic() {
    let make = || {
        let mut c = quick_config(DebitCreditStorage::Disk, 80.0);
        c.recovery = RecoveryParams::disabled();
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let a = make();
    assert!(a.recovery.is_none(), "inactive recovery must not report");
    assert!(a.nodes.iter().all(|n| n.redo_records == 0));
    assert_eq!(a, make());
}

#[test]
fn multi_node_crash_replays_every_nodes_redo_records() {
    let mut c = data_sharing_config(2, 120.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c.recovery = RecoveryParams::noforce(500.0);
    let report = Simulation::new(c, debit_credit_workload(100))
        .simulate_crash_at(1_500.0)
        .run();
    let rec = report.recovery.as_ref().expect("recovery section");
    assert_eq!(report.nodes.len(), 2);
    for node in &report.nodes {
        assert!(node.redo_records > 0, "node {} logged nothing", node.node);
    }
    assert_eq!(
        report.nodes.iter().map(|n| n.redo_records).sum::<u64>(),
        rec.redo_log_records
    );
    let restart = rec.restart.as_ref().expect("restart section");
    assert!(restart.redo_records > 0);
    assert!(restart.restart_ms > 0.0);
}

#[test]
#[should_panic(expected = "crash point")]
fn crash_point_outside_the_measurement_interval_is_rejected() {
    let c = quick_config(DebitCreditStorage::Disk, 50.0);
    let _ = Simulation::new(c, debit_credit_workload(100)).simulate_crash_at(100.0);
}

#[test]
fn nvem_log_device_topology_is_pure_config() {
    // The paper's log variants are disk-based or synchronous NVEM; with the
    // pluggable device layer an *NVEM server device* in the log slot is just
    // configuration.  The log write then queues at the NVEM servers instead
    // of paying a disk access, so the run behaves like the fast log variants.
    let mut config = crate::presets::nvem_log_device_config(150.0);
    config.warmup_ms = 300.0;
    config.measure_ms = 1_500.0;
    assert_eq!(config.devices[LOG_UNIT], NvemDeviceParams::default().into());
    assert_eq!(config.log_allocation, LogAllocation::DiskUnit(LOG_UNIT));
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.completed > 50);
    // All log writes were absorbed by the NVEM device.
    assert!(report.devices[LOG_UNIT].stats.writes > 0);
    assert_eq!(
        report.devices[LOG_UNIT].stats.writes,
        report.devices[LOG_UNIT].stats.absorbed_writes
    );
    assert_eq!(report.devices[LOG_UNIT].disk_utilization, 0.0);
    // And the response time stays far below the disk-log configuration.
    let disk_log = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 150.0),
        debit_credit_workload(100),
    )
    .run();
    assert!(report.response_time.mean < disk_log.response_time.mean);
}
