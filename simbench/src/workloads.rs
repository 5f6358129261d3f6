//! The benchmark's workloads: each is one long, sequential simulation built
//! from the repository's own sweep-point constructors and the full-scale
//! Debit-Credit generator (`presets::debit_credit_workload(1)`).
//!
//! Why each one was chosen, its stability evidence and the rejected
//! candidates are recorded in `README.md` next to this package.

use dbmodel::DebitCreditGenerator;
use tpsim::presets::{self, SecondLevel};
use tpsim::{SimulationConfig, WorkloadParams, WorkloadSchedule};
use tpsim_bench::runner;

/// Simulated warm-up before statistics are collected (ms).
pub const WARMUP_MS: f64 = 3_000.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16-node data sharing with the log in NVEM and same-page read
    /// coalescing: global lock messages, commit coherence fan-out, 16 pools.
    Ds16NvemLog,
    /// 8-node shared nothing under Zipf hot-spot skew and bursty arrivals:
    /// hot-spot sampler, piecewise-rate arrivals, function shipping, 2PC.
    Sn8SkewBurst,
    /// One node with an NVEM second-level cache under FORCE: the paper's
    /// own subject, exercising the buffer manager's FORCE write path.
    Dc1NvemCacheForce,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ds16NvemLog,
        Workload::Sn8SkewBurst,
        Workload::Dc1NvemCacheForce,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ds16NvemLog => "ds16-nvemlog",
            Workload::Sn8SkewBurst => "sn8-skew-burst",
            Workload::Dc1NvemCacheForce => "dc1-nvemcache-force",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated measurement interval (ms).  Each length gives 0.5–0.6 s of
    /// wall time per run on an undisturbed 2-CPU x86-64 host, so a run of
    /// the benchmark fits dozens of repetitions.
    pub fn measure_ms(self) -> f64 {
        match self {
            Workload::Ds16NvemLog => 150_000.0,
            Workload::Sn8SkewBurst => 200_000.0,
            Workload::Dc1NvemCacheForce => 200_000.0,
        }
    }

    /// The simulation configuration for `seed`: sequential kernel, the
    /// benchmark's run length, everything else from the sweep constructors.
    pub fn config(self, seed: u64) -> SimulationConfig {
        let mut config = match self {
            Workload::Ds16NvemLog => {
                let coalesce_only = storage::IoSchedulerParams {
                    coalesce: true,
                    ..Default::default()
                };
                runner::scheduler_point(16, 40.0, coalesce_only, true)
            }
            Workload::Sn8SkewBurst => {
                let mut shape = WorkloadParams::skewed(0.9, 0.2);
                shape.schedule = WorkloadSchedule::Burst {
                    period_ms: 400.0,
                    burst_fraction: 0.25,
                    burst_factor: 4.0,
                };
                runner::workload_point(true, 8, 40.0, shape)
            }
            Workload::Dc1NvemCacheForce => {
                runner::caching_point(2_000, SecondLevel::NvemCache(5_000), true, 500.0)
            }
        };
        config.warmup_ms = WARMUP_MS;
        config.measure_ms = self.measure_ms();
        config.parallelism.kernel_threads = 0;
        config.seed = seed;
        config
    }

    /// The workload generator: the full-scale Debit-Credit database.
    pub fn generator(self) -> DebitCreditGenerator {
        presets::debit_credit_workload(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::output::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn configs_are_valid_sequential_and_seeded() {
        for w in Workload::ALL {
            let c = w.config(42);
            assert!(c.validate().is_ok(), "{}", w.name());
            assert_eq!(c.kernel_workers(), 0);
            assert_eq!(c.seed, 42);
            assert_eq!(c.total_time_ms(), WARMUP_MS + w.measure_ms());
        }
    }
}
