//! The experiment definitions: one function per table/figure of the paper,
//! each returning a formatted text table with the regenerated series.

use std::fmt::Write as _;

use bufmgr::UpdateStrategy;
use lockmgr::CcMode;
use tpsim::presets::{
    self, ContentionAllocation, DebitCreditStorage, LogVariant, SecondLevel, TraceStorage, DB_UNIT,
};
use tpsim::tables;
use tpsim::{CoherenceParams, WorkloadParams, WorkloadSchedule};

use crate::runner::{self, caching_point, Family, RunSettings, SweepPoint};

/// One experiment: its command-line id, its title and the function that
/// regenerates its table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Short id used on the command line (e.g. "fig4.1").
    pub id: &'static str,
    /// Title as in the paper.
    pub title: &'static str,
    /// Runs the experiment and formats its table.
    pub run: fn(&RunSettings) -> String,
}

/// The result of regenerating one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The experiment that was run.
    pub experiment: Experiment,
    /// Formatted text table, as the `experiments` binary prints it.
    pub table: String,
}

/// The catalogue [`all_experiments`] returns.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table2.1",
        title: "Table 2.1: storage cost and access times",
        run: |_| table_2_1(),
    },
    Experiment {
        id: "table2.2",
        title: "Table 2.2: usage forms of intermediate storage types",
        run: |_| table_2_2(),
    },
    Experiment {
        id: "fig4.1",
        title: "Fig. 4.1: influence of log file allocation (Debit-Credit, NOFORCE)",
        run: fig4_1,
    },
    Experiment {
        id: "fig4.2",
        title: "Fig. 4.2: impact of database allocation (Debit-Credit, NOFORCE)",
        run: fig4_2,
    },
    Experiment {
        id: "fig4.3",
        title: "Fig. 4.3: FORCE vs NOFORCE (Debit-Credit)",
        run: fig4_3,
    },
    Experiment {
        id: "fig4.4",
        title: "Fig. 4.4: caching for different main-memory buffer sizes (NOFORCE)",
        run: fig4_4,
    },
    Experiment {
        id: "table4.2",
        title: "Table 4.2: main memory and 2nd-level cache hit ratios",
        run: table_4_2,
    },
    Experiment {
        id: "fig4.5",
        title: "Fig. 4.5: caching for different 2nd-level buffer sizes (NOFORCE)",
        run: fig4_5,
    },
    Experiment {
        id: "fig4.6",
        title: "Fig. 4.6: impact of main-memory buffer size for real-life workload",
        run: fig4_6,
    },
    Experiment {
        id: "fig4.7",
        title: "Fig. 4.7: impact of 2nd-level buffer size for real-life workload",
        run: fig4_7,
    },
    Experiment {
        id: "fig4.8",
        title: "Fig. 4.8: page- vs object-locking for different allocation strategies",
        run: fig4_8,
    },
    Experiment {
        id: "fig5.x",
        title: "Fig. 5.x: multi-node data-sharing scaling (beyond the paper)",
        run: fig5_x,
    },
    Experiment {
        id: "fig6.x",
        title: "Fig. 6.x: restart time after a crash (beyond the paper)",
        run: fig6_x,
    },
    Experiment {
        id: "fig7.x",
        title: "Fig. 7.x: data sharing vs shared nothing (beyond the paper)",
        run: fig7_x,
    },
    Experiment {
        id: "fig8.x",
        title: "Fig. 8.x: coherence protocol and page-transfer policy (beyond the paper)",
        run: fig8_x,
    },
    Experiment {
        id: "fig10.x",
        title: "Fig. 10.x: tail latency vs load under skew and bursts (beyond the paper)",
        run: fig10_x,
    },
    Experiment {
        id: "fig11.x",
        title: "Fig. 11.x: same-page read coalescing (beyond the paper)",
        run: fig11_x,
    },
];

/// Every experiment of the paper, in paper order.
pub fn all_experiments() -> &'static [Experiment] {
    EXPERIMENTS
}

/// Runs one experiment by id.  Panics on an unknown id.
pub fn run_experiment(id: &str, settings: &RunSettings) -> ExperimentResult {
    let experiment = *EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"));
    let table = (experiment.run)(settings);
    ExperimentResult { experiment, table }
}

// ---------------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------------

/// Formats a sweep as a series × x grid: one row per series (in order of
/// first appearance), one column per x value.  `corner` heads the label
/// column of width `label_width`, `cell` formats one point's value, and a
/// missing point renders as `-`.
fn grid(
    points: &[SweepPoint],
    xs: &[f64],
    corner: &str,
    label_width: usize,
    cell: impl Fn(&SweepPoint) -> String,
) -> String {
    let mut out = format!("{corner:<label_width$}");
    for x in xs {
        let _ = write!(out, "{x:>10.0}");
    }
    let _ = writeln!(out);
    let mut series: Vec<&str> = Vec::new();
    for p in points {
        if !series.contains(&p.series.as_str()) {
            series.push(&p.series);
        }
    }
    for s in series {
        let _ = write!(out, "{s:<label_width$}");
        for &x in xs {
            let value = points
                .iter()
                .find(|p| p.series == s && (p.x - x).abs() < 1e-9)
                .map_or_else(|| "-".to_string(), &cell);
            let _ = write!(out, "{value:>10}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Grid cell: mean response time [ms].
fn mean_response(p: &SweepPoint) -> String {
    format!("{:.2}", p.report.response_time.mean)
}

/// Grid cell: throughput [TPS].
fn throughput(p: &SweepPoint) -> String {
    format!("{:.1}", p.report.throughput_tps)
}

/// A response-time-vs-arrival-rate grid.
fn rate_table(points: &[SweepPoint], rates: &[f64]) -> String {
    grid(
        points,
        rates,
        "series \\ arrival rate [TPS] (mean response [ms])",
        46,
        mean_response,
    )
}

/// A response-time-vs-x grid for an x sweep (buffer sizes, node counts).
fn x_table(points: &[SweepPoint], xs: &[usize], x_name: &str) -> String {
    grid(
        points,
        &xs.iter().map(|&x| x as f64).collect::<Vec<_>>(),
        &format!("series \\ {x_name} (mean response [ms])"),
        46,
        mean_response,
    )
}

/// The response-time grid of a rate sweep followed by its throughput grid.
fn rate_and_throughput_tables(points: &[SweepPoint], rates: &[f64]) -> String {
    let mut out = rate_table(points, rates);
    let _ = writeln!(out);
    let _ = writeln!(out, "throughput [TPS] per series:");
    out.push_str(&grid(
        points,
        rates,
        "series \\ arrival rate [TPS]",
        46,
        throughput,
    ));
    out
}

// ---------------------------------------------------------------------------
// Table 2.1 / 2.2 (static)
// ---------------------------------------------------------------------------

fn table_2_1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>22} {:>26}",
        "storage type", "price per MB [$]", "access time per 4KB page"
    );
    for row in tables::table_2_1() {
        let price = if row.price_per_mb.0.is_nan() {
            "?".to_string()
        } else {
            format!("{:.0} - {:.0}", row.price_per_mb.0, row.price_per_mb.1)
        };
        let access = if row.access_time_ms.1 < 1.0 {
            format!(
                "{:.0} - {:.0} microsec",
                row.access_time_ms.0 * 1000.0,
                row.access_time_ms.1 * 1000.0
            )
        } else {
            format!(
                "{:.0} - {:.0} ms",
                row.access_time_ms.0, row.access_time_ms.1
            )
        };
        let _ = writeln!(out, "{:<26} {:>22} {:>26}", row.storage, price, access);
    }
    out
}

fn table_2_2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>16} {:>14} {:>16}",
        "storage type", "resident files", "write buffer", "database buffer"
    );
    let yn = |b: bool| if b { "+" } else { "-" };
    for row in tables::table_2_2() {
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:>14} {:>16}",
            row.storage,
            yn(row.resident_files),
            yn(row.write_buffer),
            yn(row.database_buffer)
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 4.1 — log allocation
// ---------------------------------------------------------------------------

fn fig4_1(settings: &RunSettings) -> String {
    let mut points = Vec::new();
    for variant in LogVariant::ALL {
        for &rate in &settings.rates {
            points.push((
                variant.label().to_string(),
                rate,
                presets::log_allocation_config(variant, rate),
                Family::DebitCredit,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    rate_and_throughput_tables(&results, &settings.rates)
}

// ---------------------------------------------------------------------------
// Fig. 4.2 / 4.3 — database allocation and update strategy
// ---------------------------------------------------------------------------

fn fig4_2(settings: &RunSettings) -> String {
    let mut points = Vec::new();
    for storage in DebitCreditStorage::ALL {
        for &rate in &settings.rates {
            points.push((
                storage.label().to_string(),
                rate,
                presets::debit_credit_config(storage, rate),
                Family::DebitCredit,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    rate_table(&results, &settings.rates)
}

fn fig4_3(settings: &RunSettings) -> String {
    let storages = [
        DebitCreditStorage::Disk,
        DebitCreditStorage::DiskWithNvCacheWriteBuffer,
        DebitCreditStorage::NvemResident,
    ];
    let mut points = Vec::new();
    for storage in storages {
        for force in [true, false] {
            let label = format!(
                "{}: {}",
                if force { "FORCE" } else { "NOFORCE" },
                storage.label()
            );
            for &rate in &settings.rates {
                let mut config = presets::debit_credit_config(storage, rate);
                if force {
                    config.buffer.update_strategy = UpdateStrategy::Force;
                }
                points.push((label.clone(), rate, config, Family::DebitCredit));
            }
        }
    }
    let results = runner::run_sweep(settings, points);
    rate_table(&results, &settings.rates)
}

// ---------------------------------------------------------------------------
// Fig. 4.4 / 4.5 and Table 4.2 — multi-level caching for Debit-Credit
// ---------------------------------------------------------------------------

fn caching_series() -> Vec<(String, SecondLevel)> {
    vec![
        ("MM caching only".to_string(), SecondLevel::None),
        (
            "vol. disk cache (1000)".to_string(),
            SecondLevel::VolatileDiskCache(1_000),
        ),
        (
            "write buffer in nv cache".to_string(),
            SecondLevel::DiskCacheWriteBufferOnly,
        ),
        (
            "nv disk cache (1000)".to_string(),
            SecondLevel::NonVolatileDiskCache(1_000),
        ),
        ("NVEM buffer (500)".to_string(), SecondLevel::NvemCache(500)),
        (
            "NVEM buffer (1000)".to_string(),
            SecondLevel::NvemCache(1_000),
        ),
    ]
}

fn fig4_4(settings: &RunSettings) -> String {
    let mm_sizes = [200usize, 500, 1_000, 2_000, 5_000];
    let mut points = Vec::new();
    for (label, second) in caching_series() {
        for &mm in &mm_sizes {
            points.push((
                label.clone(),
                mm as f64,
                caching_point(mm, second, false, settings.caching_rate),
                Family::DebitCredit,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    x_table(&results, &mm_sizes, "main memory buffer size")
}

fn table_4_2(settings: &RunSettings) -> String {
    let mm_sizes = [200usize, 500, 1_000, 2_000];
    let series: Vec<(String, SecondLevel)> = vec![
        (
            "vol. disk cache 1000".to_string(),
            SecondLevel::VolatileDiskCache(1_000),
        ),
        (
            "nv disk cache 1000".to_string(),
            SecondLevel::NonVolatileDiskCache(1_000),
        ),
        ("NVEM cache 1000".to_string(), SecondLevel::NvemCache(1_000)),
        ("NVEM cache 500".to_string(), SecondLevel::NvemCache(500)),
    ];
    let mut out = String::new();
    for force in [false, true] {
        let strategy = if force { "b) FORCE" } else { "a) NOFORCE" };
        let mut points = Vec::new();
        // Main-memory-only runs provide the first row of the table.
        for &mm in &mm_sizes {
            points.push((
                "main memory".to_string(),
                mm as f64,
                caching_point(mm, SecondLevel::None, force, settings.caching_rate),
                Family::DebitCredit,
            ));
        }
        for (label, second) in &series {
            for &mm in &mm_sizes {
                points.push((
                    label.clone(),
                    mm as f64,
                    caching_point(mm, *second, force, settings.caching_rate),
                    Family::DebitCredit,
                ));
            }
        }
        let results = runner::run_sweep(settings, points);
        let _ = writeln!(
            out,
            "{strategy} — hit ratios [%] by main-memory buffer size"
        );
        // First row: main-memory hit ratio of the MM-only configuration.
        // Remaining rows: the *additional* hit ratio of each second-level cache.
        let hit = |p: &SweepPoint| {
            let ratio = match series.iter().find(|(label, _)| *label == p.series) {
                None => p.report.mm_hit_ratio(),
                Some((_, SecondLevel::NvemCache(_))) => p.report.nvem_hit_ratio(),
                Some(_) => second_level_disk_hit_ratio(&p.report),
            };
            format!("{:.1}", ratio * 100.0)
        };
        out.push_str(&grid(
            &results,
            &mm_sizes.map(|mm| mm as f64),
            "cache level",
            28,
            hit,
        ));
        let _ = writeln!(out);
    }
    out
}

/// The additional hit ratio contributed by a disk cache: read hits at the
/// database disk unit relative to all buffer-manager page references.
fn second_level_disk_hit_ratio(report: &tpsim::SimulationReport) -> f64 {
    let refs = report.buffer.references();
    if refs == 0 {
        return 0.0;
    }
    report.devices[DB_UNIT].stats.read_hits as f64 / refs as f64
}

fn fig4_5(settings: &RunSettings) -> String {
    let cache_sizes = [200usize, 500, 1_000, 2_000, 5_000];
    let series = [
        ("vol. disk cache", 0u8),
        ("nv disk cache", 1u8),
        ("NVEM buffer", 2u8),
    ];
    let mut points = Vec::new();
    for (label, kind) in series {
        for &size in &cache_sizes {
            let second = match kind {
                0 => SecondLevel::VolatileDiskCache(size),
                1 => SecondLevel::NonVolatileDiskCache(size),
                _ => SecondLevel::NvemCache(size),
            };
            points.push((
                label.to_string(),
                size as f64,
                caching_point(500, second, false, settings.caching_rate),
                Family::DebitCredit,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    let mut out = x_table(&results, &cache_sizes, "2nd-level cache size");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "additional 2nd-level hit ratio [%] (main-memory buffer 500 pages):"
    );
    let hit = |p: &SweepPoint| {
        let nvem = series.contains(&(p.series.as_str(), 2));
        let ratio = if nvem {
            p.report.nvem_hit_ratio()
        } else {
            second_level_disk_hit_ratio(&p.report)
        };
        format!("{:.1}", ratio * 100.0)
    };
    out.push_str(&grid(
        &results,
        &cache_sizes.map(|size| size as f64),
        "series \\ 2nd-level cache size",
        46,
        hit,
    ));
    out
}

// ---------------------------------------------------------------------------
// Fig. 4.6 / 4.7 — trace-driven caching
// ---------------------------------------------------------------------------

fn trace_series() -> Vec<(String, TraceStorage)> {
    vec![
        ("MM caching only".to_string(), TraceStorage::MmOnly),
        (
            "vol. disk cache (2000)".to_string(),
            TraceStorage::VolatileDiskCache(2_000),
        ),
        (
            "non-vol. disk cache (2000)".to_string(),
            TraceStorage::NonVolatileDiskCache(2_000),
        ),
        (
            "NVEM cache (2000)".to_string(),
            TraceStorage::NvemCache(2_000),
        ),
        ("solid-state disk".to_string(), TraceStorage::Ssd),
        ("NVEM-resident".to_string(), TraceStorage::NvemResident),
    ]
}

fn fig4_6(settings: &RunSettings) -> String {
    let mm_sizes = [100usize, 500, 1_000, 1_500, 2_000];
    let mut points = Vec::new();
    for (label, storage) in trace_series() {
        for &mm in &mm_sizes {
            points.push((
                label.clone(),
                mm as f64,
                presets::trace_config(mm, storage, settings.trace_rate),
                Family::Trace,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    x_table(&results, &mm_sizes, "main memory buffer size")
}

fn fig4_7(settings: &RunSettings) -> String {
    let cache_sizes = [0usize, 1_000, 2_000, 3_000, 4_000, 5_000];
    let series = [
        ("vol. disk cache", 0u8),
        ("non-vol. disk cache", 1u8),
        ("NVEM buffer", 2u8),
    ];
    let mut points = Vec::new();
    for (label, kind) in series {
        for &size in &cache_sizes {
            let storage = if size == 0 {
                TraceStorage::MmOnly
            } else {
                match kind {
                    0 => TraceStorage::VolatileDiskCache(size),
                    1 => TraceStorage::NonVolatileDiskCache(size),
                    _ => TraceStorage::NvemCache(size),
                }
            };
            points.push((
                label.to_string(),
                size as f64,
                presets::trace_config(1_000, storage, settings.trace_rate),
                Family::Trace,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    x_table(&results, &cache_sizes, "2nd-level buffer size")
}

// ---------------------------------------------------------------------------
// Fig. 4.8 — lock contention
// ---------------------------------------------------------------------------

fn fig4_8(settings: &RunSettings) -> String {
    let mut points = Vec::new();
    for allocation in ContentionAllocation::ALL {
        for granularity in [CcMode::Page, CcMode::Object] {
            // The paper only plots the NVEM-resident configuration with page
            // locking (object locking adds nothing there).
            if allocation == ContentionAllocation::NvemResident && granularity == CcMode::Object {
                continue;
            }
            let label = format!(
                "{} - {}",
                allocation.label(),
                if granularity == CcMode::Page {
                    "page locking"
                } else {
                    "object locking"
                }
            );
            for &rate in &settings.rates {
                points.push((
                    label.clone(),
                    rate,
                    presets::contention_config(allocation, granularity, rate),
                    Family::Contention,
                ));
            }
        }
    }
    let results = runner::run_sweep(settings, points);
    rate_and_throughput_tables(&results, &settings.rates)
}

// ---------------------------------------------------------------------------
// Fig. 5.x — multi-node data-sharing scaling (beyond the paper)
// ---------------------------------------------------------------------------

fn fig5_x(settings: &RunSettings) -> String {
    // The same per-node offered rate at every point: the aggregate load
    // grows linearly with the node count, but the shared log disk and the
    // global lock service do not.
    let per_node_rate = 60.0;
    let node_counts = [1usize, 2, 4, 8];
    let points = node_counts
        .iter()
        .map(|&n| {
            (
                format!("{n} nodes"),
                n as f64,
                runner::data_sharing_point(n, per_node_rate),
                Family::DebitCredit,
            )
        })
        .collect();
    let results = runner::run_sweep(settings, points);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "nodes",
        "offered [TPS]",
        "thru [TPS]",
        "resp [ms]",
        "cpu [%]",
        "remote locks",
        "invalidations",
        "log util [%]"
    );
    for (n, point) in node_counts.iter().zip(&results) {
        let r = &point.report;
        let log_util = r
            .devices
            .get(tpsim::presets::LOG_UNIT)
            .map(|d| d.disk_utilization)
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:<10} {:>14.0} {:>12.1} {:>12.2} {:>10.1} {:>14} {:>14} {:>12.1}",
            n,
            per_node_rate * *n as f64,
            r.throughput_tps,
            r.response_time.mean,
            r.cpu_utilization * 100.0,
            r.remote_lock_requests(),
            r.invalidations(),
            log_util * 100.0
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 6.x — restart time after a crash (beyond the paper)
// ---------------------------------------------------------------------------

/// Arrival rate of the restart-time experiment at every scale: moderate
/// enough that neither log variant saturates, so the variants reach equal
/// throughput and only restart time diverges.
const RECOVERY_RATE: f64 = 150.0;

fn fig6_x(settings: &RunSettings) -> String {
    // FORCE vs NOFORCE × disk- vs NVEM-resident log × checkpoint interval,
    // all at the same moderate arrival rate (the eight-disk log unit keeps
    // the log off the critical path, so throughput is equal across the
    // variants and the restart column carries the trade-off).  Every point
    // crashes at the same fraction of the measurement interval and replays
    // its redo tail from the configured log placement.
    let intervals = [0.0, settings.measure_ms / 2.0, settings.measure_ms / 8.0];
    let series = [
        ("NOFORCE, disk-resident log", false, false),
        ("NOFORCE, NVEM-resident log", false, true),
        ("FORCE, disk-resident log", true, false),
        ("FORCE, NVEM-resident log", true, true),
    ];
    let mut points = Vec::new();
    for (label, force, nvem_log) in series {
        for &interval in &intervals {
            points.push((
                label.to_string(),
                interval,
                presets::recovery_config(force, nvem_log, interval, RECOVERY_RATE),
                Family::RecoveryCrash,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8} {:>12}",
        "series (rate 1 ckpt/column)",
        "ckpt [ms]",
        "thru[TPS]",
        "resp[ms]",
        "restart[ms]",
        "redo recs",
        "log pages",
        "ckpts",
        "ovhd [ms]"
    );
    for p in &results {
        let r = &p.report;
        let rec = r.recovery.as_ref().expect("recovery report present");
        let restart = rec.restart.as_ref().expect("restart report present");
        let _ = writeln!(
            out,
            "{:<28} {:>12.0} {:>10.1} {:>10.2} {:>12.1} {:>10} {:>10} {:>8} {:>12.2}",
            p.series,
            p.x,
            r.throughput_tps,
            r.response_time.mean,
            restart.restart_ms,
            restart.redo_records,
            restart.log_pages_read,
            rec.checkpoints_taken,
            rec.checkpoint_overhead_ms,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(crash at {:.0} % of the measurement interval; ckpt 0 = checkpointing disabled,",
        runner::CRASH_AT_FRACTION * 100.0
    );
    let _ = writeln!(out, " so redo reaches back to the start of the log)");
    out
}

// ---------------------------------------------------------------------------
// Fig. 7.x — data sharing vs shared nothing (beyond the paper)
// ---------------------------------------------------------------------------

fn fig7_x(settings: &RunSettings) -> String {
    // The same fig5.x workload family (per-node offered rate, 1/2/4/8 nodes)
    // on both architectures.  Under hash declustering with round-robin
    // transaction routing the shared-nothing remote-access fraction is
    // ≈ (n-1)/n, so sweeping the node count sweeps the function-shipping
    // overhead; data sharing instead queues at its shared log disk and pays
    // global lock messages.  The crossover is where the partitioned log's
    // scaling beats the growing shipping overhead.
    let per_node_rate = 60.0;
    let node_counts = [1usize, 2, 4, 8];
    let mut points = Vec::new();
    for &n in &node_counts {
        points.push((
            format!("{n}/sharing"),
            n as f64,
            runner::data_sharing_point(n, per_node_rate),
            Family::DebitCredit,
        ));
        points.push((
            format!("{n}/nothing"),
            n as f64,
            runner::shared_nothing_point(n, per_node_rate),
            Family::DebitCredit,
        ));
    }
    let results = runner::run_sweep(settings, points);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<16} {:>14} {:>12} {:>12} {:>10} {:>13} {:>10} {:>12}",
        "nodes",
        "architecture",
        "offered [TPS]",
        "thru [TPS]",
        "resp [ms]",
        "cpu [%]",
        "remote [%]",
        "messages",
        "log util [%]"
    );
    for (i, &n) in node_counts.iter().enumerate() {
        for (offset, label) in [(0usize, "data sharing"), (1usize, "shared nothing")] {
            let point = &results[2 * i + offset];
            let r = &point.report;
            let (remote_frac, messages) = match &r.shipping {
                Some(s) => (s.remote_access_fraction(), s.messages),
                None => (0.0, r.global_locks.messages),
            };
            let log_util = r
                .devices
                .get(tpsim::presets::LOG_UNIT)
                .map(|d| d.disk_utilization)
                .unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:>14.0} {:>12.1} {:>12.2} {:>10.1} {:>13.1} {:>10} {:>12.1}",
                n,
                label,
                per_node_rate * n as f64,
                r.throughput_tps,
                r.response_time.mean,
                r.cpu_utilization * 100.0,
                remote_frac * 100.0,
                messages,
                log_util * 100.0
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shared-nothing / data-sharing throughput ratio (crossover where it exceeds 1):"
    );
    for (i, &n) in node_counts.iter().enumerate() {
        let sharing = results[2 * i].report.throughput_tps;
        let nothing = results[2 * i + 1].report.throughput_tps;
        let ratio = if sharing > 0.0 {
            nothing / sharing
        } else {
            0.0
        };
        let _ = writeln!(out, "  {n} nodes: {ratio:.2}x");
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 8.x — coherence protocol and page-transfer policy (beyond the paper)
// ---------------------------------------------------------------------------

fn fig8_x(settings: &RunSettings) -> String {
    // The fig5.x data-sharing workload (same per-node offered rate) under
    // every coherence protocol × page-transfer combination.  Broadcast
    // invalidation drops stale copies eagerly at commit; on-request
    // validation leaves them in place and pays a validation round trip at
    // the next reference.  Direct transfer satisfies a miss on a
    // remotely-buffered page from the holder's memory instead of the shared
    // disk.
    let per_node_rate = 60.0;
    let node_counts = [2usize, 4, 8];
    let combos = [
        ("broadcast / disk re-read", CoherenceParams::broadcast()),
        (
            "broadcast / direct transfer",
            CoherenceParams::broadcast().with_direct_transfer(),
        ),
        (
            "on-request / disk re-read",
            CoherenceParams::on_request_validate(),
        ),
        (
            "on-request / direct transfer",
            CoherenceParams::on_request_validate().with_direct_transfer(),
        ),
    ];
    let mut points = Vec::new();
    for (label, coherence) in combos {
        for &n in &node_counts {
            points.push((
                label.to_string(),
                n as f64,
                runner::coherence_point(n, per_node_rate, coherence),
                Family::DebitCredit,
            ));
        }
    }
    let results = runner::run_sweep(settings, points);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>6} {:>11} {:>10} {:>8} {:>13} {:>12} {:>10} {:>10}",
        "protocol / page transfer",
        "nodes",
        "thru [TPS]",
        "resp [ms]",
        "cpu [%]",
        "invalidations",
        "stale valid.",
        "transfers",
        "fallbacks"
    );
    for p in &results {
        let r = &p.report;
        // The default combination has no coherence section; its
        // lazy/transfer counters are all zero by construction.
        let (stale, transfers, fallbacks) = match &r.coherence {
            Some(c) => (
                c.stale_validations,
                c.direct_transfers,
                c.transfer_fallback_reads,
            ),
            None => (0, 0, 0),
        };
        let _ = writeln!(
            out,
            "{:<30} {:>6} {:>11.1} {:>10.2} {:>8.1} {:>13} {:>12} {:>10} {:>10}",
            p.series,
            p.x as usize,
            r.throughput_tps,
            r.response_time.mean,
            r.cpu_utilization * 100.0,
            r.invalidations(),
            stale,
            transfers,
            fallbacks
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(invalidations = stale copies dropped, eagerly at commit under broadcast,"
    );
    let _ = writeln!(
        out,
        " lazily at the validating reference under on-request; transfers/fallbacks ="
    );
    let _ = writeln!(
        out,
        " misses served from a donor node's memory vs re-read from the shared disk)"
    );
    out
}

// ---------------------------------------------------------------------------
// Fig. 10.x — tail latency vs load under skew and bursts (beyond the paper)
// ---------------------------------------------------------------------------

/// The workload shapes fig10.x compares: two Zipf skew intensities under a
/// constant arrival rate, plus the heavier skew under a bursty schedule.
fn workload_shapes() -> Vec<(&'static str, WorkloadParams)> {
    let mut burst = WorkloadParams::skewed(0.9, 0.2);
    burst.schedule = WorkloadSchedule::Burst {
        period_ms: 1_000.0,
        burst_fraction: 0.25,
        burst_factor: 4.0,
    };
    vec![
        ("zipf 0.5, constant", WorkloadParams::skewed(0.5, 0.2)),
        ("zipf 0.9, constant", WorkloadParams::skewed(0.9, 0.2)),
        ("zipf 0.9, burst 4x/25%", burst),
    ]
}

fn fig10_x(settings: &RunSettings) -> String {
    // The fig7.x two-node architecture comparison as an open system under
    // internet-style traffic: hot-spot-skewed page accesses (Zipf over a hot
    // set) and a time-varying arrival schedule.  The mean barely moves when
    // the skew grows — the lock and buffer hot spots show up in the p99/p999
    // columns, which the run-wide quantile sketch makes measurable at
    // constant memory.
    let num_nodes = 2usize;
    let mut points = Vec::new();
    for (arch_label, shared_nothing) in [("sharing", false), ("nothing", true)] {
        for (shape_label, workload) in workload_shapes() {
            for &rate in &settings.rates {
                points.push((
                    format!("{arch_label}: {shape_label}"),
                    rate,
                    runner::workload_point(
                        shared_nothing,
                        num_nodes,
                        rate / num_nodes as f64,
                        workload,
                    ),
                    Family::DebitCredit,
                ));
            }
        }
    }
    let results = runner::run_sweep(settings, points);
    type Column = fn(&tpsim::SimulationReport) -> f64;
    let columns: [(&str, Column); 4] = [
        ("mean", |r| r.response_time.mean),
        ("p50", |r| r.response_time.p50),
        ("p99", |r| r.response_time.p99),
        ("p999", |r| r.response_time.p999),
    ];
    let mut out = String::new();
    for (name, get) in columns {
        let _ = writeln!(out, "{name} response [ms]:");
        out.push_str(&grid(
            &results,
            &settings.rates,
            &format!("series \\ offered rate [TPS] ({name})"),
            46,
            |p| format!("{:.2}", get(&p.report)),
        ));
        let _ = writeln!(out);
    }
    let worst_bound = results
        .iter()
        .map(|p| p.report.response_time.rank_error_bound)
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "({num_nodes} nodes, offered rate split round-robin; hot set = 20 % of each"
    );
    let _ = writeln!(
        out,
        " partition, Zipf-ranked; burst = 4x the base rate for 25 % of each period;"
    );
    let _ = writeln!(
        out,
        " percentiles from one run-wide sketch, worst rank-error bound {worst_bound})"
    );
    out
}

// ---------------------------------------------------------------------------
// Fig. 11.x — same-page read coalescing (beyond the paper)
// ---------------------------------------------------------------------------

/// The read policies fig11.x compares: plain FCFS and same-page coalescing.
fn scheduler_policies() -> [(&'static str, storage::IoSchedulerParams); 2] {
    [
        ("FCFS", storage::IoSchedulerParams::default()),
        ("coalesce", storage::IoSchedulerParams { coalesce: true }),
    ]
}

fn fig11_x(settings: &RunSettings) -> String {
    // The fig5.x data-sharing workload (same per-node offered rate, growing
    // node count) with and without read coalescing.  The shared DB disk unit
    // serves every node's misses, so concurrent reads of one page become
    // common as nodes are added; the NVEM-log variant removes the log-disk
    // ceiling so the data-disk read path itself binds.
    let per_node_rate = 60.0;
    let node_counts = [1usize, 2, 4, 8];
    let mut points = Vec::new();
    for (placement, nvem_log) in [("disk log", false), ("NVEM log", true)] {
        for (policy, params) in scheduler_policies() {
            for &n in &node_counts {
                points.push((
                    format!("{placement}: {policy}"),
                    n as f64,
                    runner::scheduler_point(n, per_node_rate, params, nvem_log),
                    Family::DebitCredit,
                ));
            }
        }
    }
    let results = runner::run_sweep(settings, points);
    let mut out = x_table(&results, &node_counts, "nodes (60 TPS per node)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "coalescing at 8 nodes (summed over devices; FCFS renders none):"
    );
    let _ = writeln!(
        out,
        "{:<38} {:>10} {:>10} {:>10}",
        "series", "thru[TPS]", "resp[ms]", "coalesced"
    );
    for p in results.iter().filter(|p| (p.x - 8.0).abs() < 1e-9) {
        let r = &p.report;
        let coalesced: u64 = r
            .devices
            .iter()
            .filter_map(|d| d.scheduler)
            .map(|s| s.coalesced)
            .sum();
        let _ = writeln!(
            out,
            "{:<38} {:>10.1} {:>10.2} {:>10}",
            p.series, r.throughput_tps, r.response_time.mean, coalesced
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(coalesced = reads that joined an in-flight read of the same page)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_catalogue_covers_all_tables_and_figures() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for expected in [
            "table2.1", "table2.2", "fig4.1", "fig4.2", "fig4.3", "fig4.4", "table4.2", "fig4.5",
            "fig4.6", "fig4.7", "fig4.8", "fig5.x", "fig6.x", "fig7.x", "fig8.x", "fig10.x",
            "fig11.x",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
        assert_eq!(ids.len(), 17);
    }

    #[test]
    fn static_tables_render() {
        let t21 = run_experiment("table2.1", &RunSettings::quick());
        assert!(t21.table.contains("extended memory"));
        assert!(t21.table.contains("disk"));
        let t22 = run_experiment("table2.2", &RunSettings::quick());
        assert!(t22.table.contains("non-volatile extended memory"));
    }

    #[test]
    #[should_panic]
    fn unknown_experiment_id_panics() {
        let _ = run_experiment("fig9.9", &RunSettings::quick());
    }

    #[test]
    fn fig8_x_quick_run_produces_every_policy_combination() {
        let result = run_experiment("fig8.x", &RunSettings::quick());
        for series in [
            "broadcast / disk re-read",
            "broadcast / direct transfer",
            "on-request / disk re-read",
            "on-request / direct transfer",
        ] {
            assert!(
                result.table.contains(series),
                "missing series {series} in\n{}",
                result.table
            );
        }
    }

    #[test]
    fn fig10_x_quick_run_emits_tail_percentiles_for_both_architectures() {
        let mut settings = RunSettings::quick();
        settings.rates = vec![100.0, 300.0];
        let result = run_experiment("fig10.x", &settings);
        for series in [
            "sharing: zipf 0.5, constant",
            "sharing: zipf 0.9, constant",
            "sharing: zipf 0.9, burst 4x/25%",
            "nothing: zipf 0.5, constant",
            "nothing: zipf 0.9, constant",
            "nothing: zipf 0.9, burst 4x/25%",
        ] {
            assert!(
                result.table.contains(series),
                "missing series {series} in\n{}",
                result.table
            );
        }
        for section in [
            "p50 response",
            "p99 response",
            "p999 response",
            "rank-error bound",
        ] {
            assert!(
                result.table.contains(section),
                "missing section {section} in\n{}",
                result.table
            );
        }
    }

    #[test]
    fn fig11_x_quick_run_produces_every_policy_and_renders_counters() {
        let result = run_experiment("fig11.x", &RunSettings::quick());
        for series in [
            "disk log: FCFS",
            "disk log: coalesce",
            "NVEM log: FCFS",
            "NVEM log: coalesce",
        ] {
            assert!(
                result.table.contains(series),
                "missing series {series} in\n{}",
                result.table
            );
        }
        let counters = result
            .table
            .split_once("coalescing at 8 nodes")
            .unwrap_or_else(|| panic!("missing counter table in\n{}", result.table))
            .1;
        // The NVEM-log coalesce row counts joined reads; FCFS counts none.
        let coalesced = |series: &str| -> u64 {
            let row = counters
                .lines()
                .find(|l| l.starts_with(series))
                .unwrap_or_else(|| panic!("no counter row {series} in\n{counters}"));
            row.split_whitespace().last().unwrap().parse().unwrap()
        };
        assert_eq!(coalesced("NVEM log: FCFS"), 0);
        assert!(coalesced("NVEM log: coalesce") > 0, "{counters}");
    }

    #[test]
    fn fig4_1_quick_run_produces_all_series() {
        let mut settings = RunSettings::quick();
        settings.rates = vec![50.0, 150.0];
        let result = run_experiment("fig4.1", &settings);
        for variant in LogVariant::ALL {
            assert!(
                result.table.contains(variant.label()),
                "missing series {} in\n{}",
                variant.label(),
                result.table
            );
        }
    }
}
