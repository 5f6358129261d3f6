//! Engine-level tests: end-to-end runs of small configurations, plus direct
//! regression tests against the commit-path internals (group commit,
//! cross-node invalidation, log write-buffer accounting).

use dbmodel::{
    AccessMode, ObjectId, ObjectRef, PageId, Trace, TraceGenerator, TraceTransaction,
    TransactionTemplate,
};
use storage::{IoKind, IoSchedulerParams};

use bufmgr::{PageOp, PartitionPolicy, UpdateStrategy};

use crate::config::CoherenceParams;
use crate::presets::{
    data_sharing_config, debit_credit_config, debit_credit_workload, recovery_config,
    shared_nothing_config, DebitCreditStorage, DB_UNIT, LOG_UNIT,
};

use super::iorequest::Completion;
use super::transaction::MicroOp;
use super::{Ev, Flow, Simulation};
use crate::config::SimulationConfig;
use crate::metrics::SimulationReport;

fn quick_config(storage: DebitCreditStorage, tps: f64) -> SimulationConfig {
    let mut c = debit_credit_config(storage, tps);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    c
}

/// Pops every pending event, serving only the I/O stages: drives the
/// requests in flight to completion and nothing else.
fn drain_io<W: dbmodel::WorkloadGenerator>(sim: &mut Simulation<W>) {
    while let Some(event) = sim.queue.pop() {
        if let Ev::IoStage(io_id) = event.payload {
            sim.handle_io_stage(io_id as usize);
        }
    }
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
    let rt = a.response_time;
    assert_eq!(rt.count, a.completed);
    assert!(rt.min <= rt.p50 && rt.p50 <= rt.p95 && rt.p95 <= rt.p99);
    assert!(rt.p99 <= rt.p999 && rt.p999 <= rt.max);
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

#[test]
#[should_panic(expected = "one node")]
fn multi_node_crash_simulation_is_rejected() {
    let mut c = data_sharing_config(2, 100.0);
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
    assert_eq!(sim.ios.live().count(), 1, "one group log write in flight");
    // Slot 2 opens the next batch (seq 1).
    assert_eq!(sim.join_commit_group(2, LOG_UNIT), Flow::Blocked);
    assert_eq!(sim.commit_group.len(), 1);
    // The stale timeout of the size-flushed batch seq 0 arrives now: it must
    // neither flush the newer batch early nor disturb the in-flight write.
    sim.handle_group_commit_flush(seq0);
    assert_eq!(sim.commit_group.len(), 1, "newer batch flushed early");
    assert_eq!(sim.ios.live().count(), 1);
    // The newer batch's own timeout flushes it ...
    sim.handle_group_commit_flush(seq0 + 1);
    assert!(sim.commit_group.is_empty());
    assert_eq!(sim.ios.live().count(), 2);
    // ... and a late duplicate timeout for it is a no-op as well.
    sim.handle_group_commit_flush(seq0 + 1);
    assert_eq!(sim.ios.live().count(), 2);
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
    let shape = |nodes, tps, seed| {
        let mut c = data_sharing_config(nodes, tps);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c.seed = seed;
        c
    };
    let mut configs: Vec<SimulationConfig> = [
        (2, 120.0, 7),
        (3, 180.0, 11),
        (5, 250.0, 23),
        (8, 320.0, 42),
    ]
    .into_iter()
    .map(|(nodes, tps, seed)| shape(nodes, tps, seed))
    .collect();
    // NVEM caches under NOFORCE and FORCE, with pools and caches small
    // enough that both evict: the NVEM victims' release runs under the check.
    for strategy in [UpdateStrategy::NoForce, UpdateStrategy::Force] {
        let mut c = shape(4, 200.0, 31);
        c.buffer = c.buffer.with_nvem_cache(50).with_update_strategy(strategy);
        c.buffer.mm_buffer_pages = 50;
        configs.push(c);
    }
    for c in configs {
        let nodes = c.nodes.num_nodes;
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
fn holders_index_stays_bounded_by_the_buffer_pools() {
    // Every fetch sets a holder bit; unless evictions clear them again, the
    // index grows with the pages ever touched, i.e. with run length.
    let disk: fn(&mut SimulationConfig) = |_| {};
    // Memory-resident pages occupy no frames, so no pool holds them.
    let memory_resident_branches: fn(&mut SimulationConfig) =
        |c| c.buffer.partitions[0] = PartitionPolicy::memory_resident();
    // FORCE replicates pages in the NVEM cache; its victims, also those of
    // the forces themselves, may or may not stay buffered in main memory.
    let forced_into_nvem_cache: fn(&mut SimulationConfig) = |c| {
        c.buffer.mm_buffer_pages = 100;
        c.buffer.nvem_cache_pages = 100;
        c.buffer.update_strategy = UpdateStrategy::Force;
    };
    for (measure_ms, shape) in [
        (4_000.0, disk),
        (12_000.0, disk),
        (4_000.0, memory_resident_branches),
        (4_000.0, forced_into_nvem_cache),
    ] {
        let mut c = data_sharing_config(4, 100.0);
        c.buffer.mm_buffer_pages = 200;
        shape(&mut c);
        c.warmup_ms = 1_000.0;
        c.measure_ms = measure_ms;
        let mut sim = Simulation::new(c, debit_credit_workload(100));
        sim.seed_initial_events();
        sim.run_event_loop();
        let buffered: usize = sim
            .nodes
            .iter()
            .map(|rt| rt.bufmgr.mm_pages() + rt.bufmgr.nvem_pages())
            .sum();
        assert!(
            sim.holders.len() <= buffered,
            "{measure_ms} ms: {} index entries for {buffered} buffered pages",
            sim.holders.len()
        );
        assert_holder_bits_on_held_pages(&sim, &format!("{measure_ms} ms"));
    }
}

/// Asserts that no holders-index entry is empty and that each of its bits
/// sits on a node whose pool holds the page.
fn assert_holder_bits_on_held_pages<W: dbmodel::WorkloadGenerator>(sim: &Simulation<W>, run: &str) {
    // analyzer: allow(hash-iter): every entry is checked, order-independent
    for (&page, &mask) in &sim.holders {
        assert_ne!(mask, 0, "{run}: page {page:?} kept an empty mask");
        for (node, rt) in sim.nodes.iter().enumerate() {
            assert!(
                mask & (1u64 << node) == 0 || rt.bufmgr.holds_page(page),
                "{run}: node {node} is indexed for page {page:?} it does not hold"
            );
        }
    }
}

#[test]
fn exhausted_trace_puts_the_claimed_template_entry_back() {
    // A non-cycling trace of two transactions: the third arrival finds it
    // exhausted and stops the arrivals.
    let trace = Trace {
        files: vec![("A".into(), 100)],
        transactions: vec![
            TraceTransaction {
                tx_type: 0,
                refs: vec![(0, 5, AccessMode::Read)],
            },
            TraceTransaction {
                tx_type: 0,
                refs: vec![(0, 7, AccessMode::Write)],
            },
        ],
    };
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        TraceGenerator::new(trace, false),
    );
    for _ in 0..3 {
        sim.handle_arrival();
    }
    assert!(sim.stop_arrivals);
    assert_eq!(sim.total_active, 2);
    assert_eq!(sim.txs.claimed(), 2);
    // The record the exhausted arrival claimed went back on the free list:
    // the next transaction takes it instead of growing the slab.
    assert_eq!(sim.activate(0, write_template(1), 0.0), 2);
    assert_eq!(sim.txs.tx(2).template, write_template(1));
}

#[test]
fn lock_waiters_wake_in_admission_order_when_slots_are_reused() {
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(200),
    );
    let (page_a, page_b) = (1, 2);
    let x = sim.activate(0, write_template(99), 0.0);
    let mut both = write_template(page_a);
    both.refs.extend(write_template(page_b).refs);
    let t0 = sim.activate(0, both, 0.0);
    let t1 = sim.activate(0, write_template(page_b), 0.0);
    assert_eq!((x, t0, t1), (0, 1, 2));
    assert_eq!(sim.op_complete(x), Flow::Finished);
    // T2 is admitted last but takes X's slot, the lowest.
    let t2 = sim.activate(0, write_template(page_a), 0.0);
    assert_eq!(t2, x, "the released slot is reused");
    assert!(sim.txs.tx(t1).id < sim.txs.tx(t2).id);
    sim.ready.clear();
    // T0 holds A and B; T1 waits on B, T2 on A.
    assert_eq!(sim.op_lock(t0, 0), Flow::Continue);
    assert_eq!(sim.op_lock(t0, 1), Flow::Continue);
    assert_eq!(sim.op_lock(t1, 0), Flow::Blocked);
    assert_eq!(sim.op_lock(t2, 0), Flow::Blocked);
    // T0's commit releases A (granting T2) before B (granting T1), but the
    // woken resume in admission order.
    assert_eq!(sim.op_complete(t0), Flow::Finished);
    assert_eq!(sim.ready, [t1, t2], "admission order, not slot order");
}

// The check is a `debug_assert!`, which release builds compile out.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "not admitted")]
fn advancing_a_transaction_that_waits_for_admission_is_caught_in_debug_builds() {
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(200),
    );
    let slot = sim
        .txs
        .claim_arrival(0.0, None, |t| {
            *t = write_template(1);
            true
        })
        .expect("the fill succeeds");
    sim.ready.push_back(slot);
    sim.process_ready();
}

#[test]
fn duplicate_written_pages_intern_once_and_invalidate_once() {
    // A transaction writing the same page through two references must
    // derive one `written_pages` entry and invalidate each holder once.
    let mut c = data_sharing_config(2, 60.0);
    c.warmup_ms = 300.0;
    c.measure_ms = 1_500.0;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    sim.nodes[1].bufmgr.reference_page(0, PageId(42), false);
    sim.note_holder(1, PageId(42));
    let mut template = write_template(42);
    template.refs.push(template.refs[0]);
    let slot = sim.activate(0, template, 0.0);
    assert_eq!(
        sim.txs.tx(slot).written_pages,
        vec![(0, PageId(42))],
        "duplicate written pages must deduplicate at arrival"
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
    // Commit sent nothing: the other nodes keep their copies, but only the
    // committer's copy keeps its holder bit.
    assert!(sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert!(sim.nodes[2].bufmgr.mm_contains(PageId(42)));
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 0);
    assert_eq!(sim.holders.get(&PageId(42)), Some(&0b001));
    // The next reference validates: node 1 holds a copy without a holder
    // bit, so the copy is discarded and the validation round trip is
    // charged — the stale hit became a miss.
    let delay = sim.validate_reference(1, PageId(42));
    assert_eq!(delay, Some(2.0 * sim.config.coherence.transfer_msg_ms));
    assert!(!sim.nodes[1].bufmgr.mm_contains(PageId(42)));
    assert_eq!(sim.nodes[1].bufmgr.stats().invalidations, 1);
    assert_eq!(sim.coherence_stats.stale_validations, 1);
    // The committer's own copy is the new version: current.
    assert_eq!(sim.validate_reference(0, PageId(42)), None);
    assert!(sim.nodes[0].bufmgr.mm_contains(PageId(42)));
    // A node without any buffered copy has nothing to validate.
    assert_eq!(sim.validate_reference(2, PageId(43)), None);
    // Node 2 commits the page over its stale copy, as a transaction writing
    // another object of the page does: its copy becomes the current one and
    // node 0's goes stale.
    sim.activate(2, write_template(42), 0.0);
    assert_eq!(sim.txs.tx(0).node, 2);
    assert_eq!(sim.op_complete(0), Flow::Finished);
    assert_eq!(sim.holders.get(&PageId(42)), Some(&0b100));
    assert_eq!(sim.validate_reference(2, PageId(42)), None);
    assert!(sim.validate_reference(0, PageId(42)).is_some());
}

#[test]
fn on_request_validation_keeps_holder_bits_on_held_pages() {
    for seed in [7, 1234, 98765] {
        let mut c = data_sharing_config(4, 240.0);
        c.warmup_ms = 500.0;
        c.measure_ms = 3_000.0;
        c.seed = seed;
        c.buffer.mm_buffer_pages = 200;
        c.coherence = CoherenceParams::on_request_validate().with_direct_transfer();
        let mut sim = Simulation::new(c, debit_credit_workload(100));
        sim.seed_initial_events();
        sim.run_event_loop();
        assert!(
            sim.coherence_stats.stale_validations > 0,
            "seed {seed}: no stale copy was ever validated"
        );
        assert!(
            sim.coherence_stats.direct_transfers > 0,
            "seed {seed}: no current copy was ever shipped"
        );
        // Commits clear bits and drop entries: a bit still only ever sits
        // on a node whose pool holds the page.
        assert_holder_bits_on_held_pages(&sim, &format!("seed {seed}"));
    }
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

// ---------------------------------------------------------------------------
// Same-page read coalescing
// ---------------------------------------------------------------------------

#[test]
fn coalescing_runs_are_deterministic() {
    // Same seed ⇒ byte-identical report with coalescing on.
    let make = || {
        let mut c = data_sharing_config(3, 150.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c.buffer.mm_buffer_pages = 300; // small pools: real disk reads
        c.io_scheduler = IoSchedulerParams { coalesce: true };
        c
    };
    let a = Simulation::new(make(), debit_credit_workload(100)).run();
    let b = Simulation::new(make(), debit_credit_workload(100)).run();
    assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
    assert!(
        a.devices.iter().all(|d| d.scheduler.is_some()),
        "coalescing must fill the scheduler section on every unit"
    );
    assert!(a.completed > 0);
}

#[test]
fn a_disabled_scheduler_leaves_the_report_without_a_scheduler_section() {
    let report = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(100),
    )
    .run();
    assert!(report.devices.iter().all(|d| d.scheduler.is_none()));
}

#[test]
fn coalesced_read_completion_wakes_every_joined_waiter() {
    let mut c = quick_config(DebitCreditStorage::Disk, 50.0);
    c.io_scheduler.coalesce = true;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    for _ in 0..5 {
        sim.activate(0, write_template(7), 0.0);
    }
    // Activation queued every slot as ready; from here on only an I/O
    // completion puts a slot back.
    sim.ready.clear();
    let coalesced = |sim: &Simulation<_>| sim.units[0].coalescing.as_ref().unwrap().coalesced;
    // Three synchronous reads of the same page: the first starts a request,
    // the other two join it instead of paying for their own.
    for slot in 0..3 {
        assert_eq!(
            sim.op_issue_io(slot, 0, IoKind::Read, PageId(7), Completion::Plain),
            Flow::Blocked
        );
    }
    assert_eq!(coalesced(&sim), 2, "two of the three reads must coalesce");
    assert_eq!(sim.ios.live().count(), 1, "one physical request in flight");
    let io = sim.ios.live().next().expect("live io");
    assert_eq!(
        io.waiters,
        vec![0, 1, 2],
        "the issuer first, then the joiners"
    );
    // A synchronous write of the page is not a read: it never joins.
    assert_eq!(
        sim.op_issue_io(4, 0, IoKind::Write, PageId(7), Completion::Plain),
        Flow::Blocked
    );
    assert_eq!(
        sim.ios.live().count(),
        2,
        "the write is a request of its own"
    );
    assert_eq!(coalesced(&sim), 2);
    // Drive only the I/O stages to completion: every joined waiter must be
    // woken by the single completion fan-out.
    drain_io(&mut sim);
    assert_eq!(sim.ios.live().count(), 0);
    for slot in [0, 1, 2, 4] {
        assert!(sim.ready.contains(&slot), "slot {slot} asleep");
    }
    // The completed read left the in-flight list: the next read of the page
    // starts a new physical request instead of joining a finished one.
    assert_eq!(
        sim.op_issue_io(3, 0, IoKind::Read, PageId(7), Completion::Plain),
        Flow::Blocked
    );
    assert_eq!(sim.ios.live().count(), 1);
    assert_eq!(coalesced(&sim), 2);
    drain_io(&mut sim);
    assert!(sim.ready.contains(&3));
}

#[test]
fn log_wb_completion_decrements_occupancy() {
    let mut sim = Simulation::new(
        quick_config(DebitCreditStorage::Disk, 50.0),
        debit_credit_workload(200),
    );
    sim.log_wb_pending = 2;
    sim.start_io(
        0,
        LOG_UNIT,
        IoKind::Write,
        PageId(7),
        Completion::LogWriteBuffer,
        &[],
    );
    assert_eq!(sim.log_wb_pending, 2, "the write is still in flight");
    drain_io(&mut sim);
    assert_eq!(sim.log_wb_pending, 1);
}

// The check is a `debug_assert!`, which release builds compile out.
#[cfg(debug_assertions)]
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
    sim.start_io(
        0,
        LOG_UNIT,
        IoKind::Write,
        PageId(8),
        Completion::LogWriteBuffer,
        &[],
    );
    drain_io(&mut sim);
}

#[test]
fn a_freed_server_serves_the_next_queued_read_for_its_own_stage() {
    let mut c = quick_config(DebitCreditStorage::Disk, 50.0);
    c.devices[DB_UNIT].num_controllers = 1;
    c.devices[DB_UNIT].num_disks = 1;
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    for page in [1, 2] {
        sim.activate(0, write_template(page), 0.0);
    }
    sim.ready.clear();
    // Two reads issued together: controller 1 ms, disk 15 ms, transmission
    // 0.4 ms each.
    for (slot, page) in [(0, 1), (1, 2)] {
        assert_eq!(
            sim.op_issue_io(slot, DB_UNIT, IoKind::Read, PageId(page), Completion::Plain),
            Flow::Blocked
        );
    }
    let mut woken = Vec::new();
    while let Some(event) = sim.queue.pop() {
        if let Ev::IoStage(io_id) = event.payload {
            sim.handle_io_stage(io_id as usize);
            woken.extend(sim.ready.drain(..).map(|slot| (slot, sim.queue.now())));
        }
    }
    // The second read queues at the controller until 1 ms and at the disk
    // until 16 ms, and is served there for its own stage each time.
    assert_eq!(woken.len(), 2, "{woken:?}");
    assert_eq!(woken[0].0, 0);
    assert!((woken[0].1 - 16.4).abs() < 1e-9, "{woken:?}");
    assert_eq!(woken[1].0, 1);
    assert!((woken[1].1 - 31.4).abs() < 1e-9, "{woken:?}");
}

#[test]
fn checkpoint_writes_in_flight_at_the_warm_up_reset_charge_no_overhead() {
    let c = recovery_config(false, false, 100.0, 50.0);
    let mut sim = Simulation::new(c, debit_credit_workload(200));
    let overhead = |sim: &Simulation<_>| sim.recovery.as_ref().unwrap().checkpoint_overhead_ms;
    // The warm-up ends while a checkpoint record is being written: its
    // latency, spent partly before the reset, is not measured.
    sim.handle_checkpoint();
    sim.end_warmup();
    drain_io(&mut sim);
    assert_eq!(overhead(&sim), 0.0);
    // A record written after the reset charges its latency at the idle log
    // disk: controller 1 ms, disk 5 ms, transmission 0.4 ms.
    sim.handle_checkpoint();
    drain_io(&mut sim);
    assert!((overhead(&sim) - 6.4).abs() < 1e-9, "{}", overhead(&sim));
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
    // The appended-record count restarts at the warm-up reset, while the
    // redo tail (no checkpoint ever truncated it) reaches back to the log's
    // first record.
    assert!(rec.redo_log_records < restart.redo_records);
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
    // dirty-page table stays empty and each checkpoint advances the redo
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
        c.checkpoint_interval_ms = 0.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let a = make();
    assert!(a.recovery.is_none(), "inactive recovery must not report");
    assert_eq!(a, make());
}

#[test]
#[should_panic(expected = "crash point")]
fn crash_point_outside_the_measurement_interval_is_rejected() {
    let c = quick_config(DebitCreditStorage::Disk, 50.0);
    let _ = Simulation::new(c, debit_credit_workload(100)).simulate_crash_at(100.0);
}
