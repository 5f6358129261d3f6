//! Output checks applied to every simulation report, and the report digest
//! used to compare runs (and commits) for byte-identical output.

use tpsim::SimulationReport;

/// Largest relative Little's-law residual a steady workload may show.
pub const LITTLE_TOLERANCE: f64 = 0.01;

/// Checks one report: something completed, every utilisation and hit ratio
/// lies in `[0, 1]`, and Little's law holds within [`LITTLE_TOLERANCE`]:
/// throughput × mean response equals the time-average number of
/// transactions in the system (active plus waiting for admission).
/// Returns every violation found.
pub fn check_report(r: &SimulationReport) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if r.completed == 0 {
        errors.push("no transaction completed".to_string());
    }
    let mut unit = |what: String, v: f64| {
        if !(0.0..=1.0).contains(&v) {
            errors.push(format!("{what} = {v} is outside [0, 1]"));
        }
    };
    unit("cpu_utilization".into(), r.cpu_utilization);
    unit("nvem_utilization".into(), r.nvem_utilization);
    unit("mm_hit_ratio".into(), r.mm_hit_ratio());
    unit("nvem_hit_ratio".into(), r.nvem_hit_ratio());
    unit("lock_conflict_ratio".into(), r.lock_conflict_ratio());
    for d in &r.devices {
        unit(format!("{} disk_utilization", d.name), d.disk_utilization);
        unit(
            format!("{} controller_utilization", d.name),
            d.controller_utilization,
        );
        unit(
            format!("{} read_hit_ratio", d.name),
            d.stats.read_hit_ratio(),
        );
    }
    for n in &r.nodes {
        unit(
            format!("node {} cpu_utilization", n.node),
            n.cpu_utilization,
        );
        unit(
            format!("node {} mm_hit_ratio", n.node),
            n.buffer.mm_hit_ratio(),
        );
    }
    let residual = little_residual(r);
    if residual.is_nan() || residual.abs() > LITTLE_TOLERANCE {
        errors.push(format!(
            "Little's law: throughput x response = {:.4} vs {:.4} in system (residual {:.4})",
            little_lhs(r),
            in_system(r),
            residual
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Throughput (1/s) × mean response time (s).
pub fn little_lhs(r: &SimulationReport) -> f64 {
    r.throughput_tps * r.response_time.mean / 1e3
}

/// Time-average transactions in the system: active plus input queue.
pub fn in_system(r: &SimulationReport) -> f64 {
    r.avg_active_transactions + r.avg_input_queue
}

/// Relative residual of Little's law (NaN when nothing was in the system).
pub fn little_residual(r: &SimulationReport) -> f64 {
    (little_lhs(r) - in_system(r)) / in_system(r)
}

/// 64-bit FNV-1a digest of the report's `Debug` rendering: equal digests
/// mean byte-identical reports.
pub fn digest(r: &SimulationReport) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::presets::{debit_credit_config, debit_credit_workload, DebitCreditStorage};
    use tpsim::Simulation;

    fn small_report() -> SimulationReport {
        let mut config = debit_credit_config(DebitCreditStorage::Disk, 50.0);
        config.warmup_ms = 500.0;
        config.measure_ms = 20_000.0;
        Simulation::new(config, debit_credit_workload(100)).run()
    }

    #[test]
    fn a_steady_report_passes() {
        let r = small_report();
        assert_eq!(check_report(&r), Ok(()));
        assert!(little_residual(&r).abs() < LITTLE_TOLERANCE);
    }

    #[test]
    fn a_broken_littles_law_is_rejected() {
        let mut r = small_report();
        r.avg_active_transactions *= 1.05;
        let errors = check_report(&r).expect_err("residual of 5% must fail");
        assert!(errors.iter().any(|e| e.contains("Little")), "{errors:?}");
    }

    #[test]
    fn out_of_range_ratios_are_rejected() {
        let mut r = small_report();
        r.cpu_utilization = 1.2;
        assert!(check_report(&r).is_err());
        let mut r = small_report();
        r.devices[0].disk_utilization = -0.1;
        assert!(check_report(&r).is_err());
        let mut r = small_report();
        r.buffer.per_partition[0].mm_hits += r.buffer.references();
        let errors = check_report(&r).expect_err("hit ratio above 1 must fail");
        assert!(
            errors.iter().any(|e| e.contains("mm_hit_ratio")),
            "{errors:?}"
        );
    }

    #[test]
    fn an_empty_run_is_rejected() {
        let mut r = small_report();
        r.completed = 0;
        assert!(check_report(&r).is_err());
    }

    #[test]
    fn digest_tracks_every_field() {
        let r = small_report();
        assert_eq!(digest(&r), digest(&r.clone()));
        let mut other = r.clone();
        other.aborts += 1;
        assert_ne!(digest(&r), digest(&other));
    }
}
