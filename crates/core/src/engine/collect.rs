//! Statistics collection: warm-up reset, per-completion recording and the
//! final report (aggregate plus one [`NodeReport`] per computing module).

use dbmodel::WorkloadGenerator;
use simkernel::stats::{Tally, TimeWeighted};
use simkernel::time::SimTime;

use crate::metrics::{
    DeviceReport, IoSchedulerReport, NodeReport, RecoveryReport, ResponseTimeStats,
    SimulationReport, TxTypeReport,
};

use super::iorequest::Completion;
use super::Simulation;

impl<W: WorkloadGenerator> Simulation<W> {
    /// Records the completion of a transaction on `node` (no-op during
    /// warm-up).
    pub(super) fn record_completion(
        &mut self,
        now: SimTime,
        node: usize,
        arrival: SimTime,
        tx_type: usize,
    ) {
        if !self.warmup_done {
            return;
        }
        let resp = now - arrival;
        self.response.record(resp);
        self.response_sketch.insert(resp);
        let slot = match self.per_type.binary_search_by_key(&tx_type, |(ty, _)| *ty) {
            Ok(i) => i,
            Err(i) => {
                self.per_type.insert(i, (tx_type, Tally::new()));
                i
            }
        };
        self.per_type[slot].1.record(resp);
        self.completed += 1;
        self.nodes[node].response.record(resp);
        self.nodes[node].completed += 1;
    }

    /// End of the warm-up interval: reset every statistic without touching
    /// the simulation state (buffers, caches, queues keep their contents).
    pub(super) fn end_warmup(&mut self) {
        let now = self.queue.now();
        self.warmup_done = true;
        self.measure_start = now;
        self.response.reset();
        self.response_sketch.reset();
        self.per_type.clear();
        self.completed = 0;
        self.aborts = 0;
        self.log_group_writes = 0;
        self.nvem_busy = 0.0;
        for u in &mut self.units {
            u.device.reset_stats();
            u.controllers.reset_stats(now);
            u.disks.reset_stats(now);
            if let Some(c) = u.coalescing.as_mut() {
                c.coalesced = 0;
            }
        }
        self.lockmgr.reset_stats();
        self.shipping = crate::metrics::ShippingReport::empty(self.nodes.len());
        self.coherence_stats = crate::metrics::CoherenceReport::empty();
        if let Some(rec) = self.recovery.as_mut() {
            rec.reset_stats();
            // In-flight checkpoint writes complete as plain ones: their
            // (partly pre-warm-up) latency must not leak into the measured
            // checkpoint overhead.
            for io in self.ios.live_mut() {
                if io.completion == Completion::Checkpoint {
                    io.completion = Completion::Plain;
                }
            }
        }
        for node in &mut self.nodes {
            node.cpus.reset_stats(now);
            node.bufmgr.reset_stats();
            node.completed = 0;
            node.aborts = 0;
            node.remote_lock_requests = 0;
            node.response.reset();
            node.active_tw = TimeWeighted::new();
            node.active_tw.record(now, node.active_count as f64);
            node.inputq_tw = TimeWeighted::new();
            node.inputq_tw.record(now, node.input_queue.len() as f64);
        }
        self.active_tw = TimeWeighted::new();
        self.active_tw.record(now, self.total_active as f64);
        self.inputq_tw = TimeWeighted::new();
        self.inputq_tw.record(now, self.total_queued as f64);
    }

    /// Assembles the report at the end of the run or at the crash instant;
    /// after a crash the caller adds the restart section.
    pub(super) fn build_report(&mut self) -> SimulationReport {
        let now = self.queue.now();
        let measured = (now - self.measure_start).max(1e-9);
        self.active_tw.record(now, self.total_active as f64);
        self.inputq_tw.record(now, self.total_queued as f64);

        let response = &self.response;
        let sketch = &self.response_sketch;
        let response_time = if response.count() > 0 {
            ResponseTimeStats {
                count: response.count(),
                mean: response.mean().unwrap_or(0.0),
                std_dev: response.std_dev().unwrap_or(0.0),
                min: response.min().unwrap_or(0.0),
                max: response.max().unwrap_or(0.0),
                p50: sketch.quantile(0.5).unwrap_or(0.0),
                p95: sketch.quantile(0.95).unwrap_or(0.0),
                p99: sketch.quantile(0.99).unwrap_or(0.0),
                p999: sketch.quantile(0.999).unwrap_or(0.0),
                rank_error_bound: sketch.rank_error_bound(),
            }
        } else {
            ResponseTimeStats::empty()
        };
        // Kept sorted by type at insertion, so the report order needs no
        // extra sort; only types that completed ever get an entry.
        let per_type: Vec<TxTypeReport> = self
            .per_type
            .iter()
            .map(|(ty, tally)| TxTypeReport {
                tx_type: *ty,
                count: tally.count(),
                mean_response: tally.mean().unwrap_or(0.0),
            })
            .collect();

        let devices = self
            .units
            .iter_mut()
            .map(|u| {
                let dstats = u.disks.stats(now);
                let cstats = u.controllers.stats(now);
                DeviceReport {
                    name: u.device.name().to_string(),
                    disk_utilization: dstats.utilization,
                    controller_utilization: cstats.utilization,
                    avg_disk_wait: dstats.avg_wait,
                    stats: u.device.stats(),
                    scheduler: u.coalescing.as_ref().map(|c| IoSchedulerReport {
                        coalesced: c.coalesced,
                    }),
                }
            })
            .collect();

        // Per-node breakdown plus the aggregates derived from it: the
        // aggregate buffer statistics sum over the node-local pools and the
        // aggregate CPU utilization averages the (identically sized) per-node
        // CPU complexes, so a single-node run reports exactly the values of
        // its one node.
        let mut buffer = bufmgr::BufferStats::new(self.config.buffer.partitions.len());
        let mut cpu_utilization = 0.0;
        let mut nodes_report = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter_mut().enumerate() {
            let cpu_stats = node.cpus.stats(now);
            cpu_utilization += cpu_stats.utilization;
            node.active_tw.record(now, node.active_count as f64);
            node.inputq_tw.record(now, node.input_queue.len() as f64);
            buffer.absorb(node.bufmgr.stats());
            nodes_report.push(NodeReport {
                node: id,
                completed: node.completed,
                aborts: node.aborts,
                throughput_tps: node.completed as f64 / (measured / 1000.0),
                mean_response_ms: node.response.mean().unwrap_or(0.0),
                cpu_utilization: cpu_stats.utilization,
                avg_active_transactions: node.active_tw.mean().unwrap_or(0.0),
                avg_input_queue: node.inputq_tw.mean().unwrap_or(0.0),
                remote_lock_requests: node.remote_lock_requests,
                buffer: node.bufmgr.stats().clone(),
            });
        }
        cpu_utilization /= self.nodes.len() as f64;

        let recovery = self.recovery.as_ref().map(|rec| RecoveryReport {
            checkpoints_taken: rec.checkpoints_taken,
            checkpoint_overhead_ms: rec.checkpoint_overhead_ms,
            redo_log_records: rec.records_appended,
            log_records_truncated: rec.records_truncated,
            records_per_log_page: rec.records_per_page,
            restart: None,
        });

        // Each optional section is `Some` exactly when its mechanism ran:
        // shipping for shared-nothing runs, coherence for a non-default
        // protocol / transfer combination.
        let shipping = self.partition_map.is_some().then(|| self.shipping.clone());
        let coherence =
            (!self.config.coherence.is_default_protocol()).then_some(self.coherence_stats);

        SimulationReport {
            arrival_rate_tps: self.config.arrival_rate_tps,
            completed: self.completed,
            aborts: self.aborts,
            log_group_writes: self.log_group_writes,
            measured_time_ms: measured,
            throughput_tps: self.completed as f64 / (measured / 1000.0),
            response_time,
            per_type,
            cpu_utilization,
            nvem_utilization: (self.nvem_busy / measured).min(1.0),
            avg_active_transactions: self.active_tw.mean().unwrap_or(0.0),
            avg_input_queue: self.inputq_tw.mean().unwrap_or(0.0),
            buffer,
            locks: self.lockmgr.stats(),
            global_locks: self.lockmgr.global_stats(),
            recovery,
            coherence,
            shipping,
            devices,
            nodes: nodes_report,
        }
    }
}
