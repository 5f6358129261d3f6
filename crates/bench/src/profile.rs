//! Kernel wall-clock profiling: the `--profile` mode of the experiments
//! binary and the perf-smoke baseline gate.
//!
//! The profile suite runs a fixed set of representative configurations —
//! the fig5.x node-scaling sweep plus a quickstart-style single-node point
//! and a fig6.x crash-replay point — several times each, keeps the best
//! (least-noisy) run per point and can write the points in the shape of
//! `BENCH_kernel.json` at the repo root.  The committed file is the perf
//! trajectory of the repository: CI
//! re-measures the suite and fails when events/sec drops more than the
//! configured tolerance below the committed numbers, or when a point's
//! event count differs from the committed one at all (the simulation is
//! deterministic, so a different count means different behaviour).  The
//! committed file also carries a hand-curated `history` section of earlier
//! snapshots, which the gate ignores and a fresh emission does not write:
//! the profile mode writes only to a path it is given, and new points are
//! copied into the committed file by hand.
//!
//! The JSON is written *and* parsed by this module (the workspace has no
//! serde); the parser only understands the flat shape emitted here, which is
//! exactly what the baseline gate needs.

use std::fmt::Write as _;

use crate::runner::{self, Family, RunSettings};
use tpsim::SimulationConfig;

/// One measured point of the profile suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePoint {
    /// Stable point id (e.g. `fig5.x/8-nodes`), the key CI compares on.
    pub id: String,
    /// Events popped by the simulation kernel.
    pub events: u64,
    /// Best observed wall-clock time (ms).
    pub wall_ms: f64,
    /// Best observed events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock microseconds per commit-time coherence fan-out (0 when the
    /// run had no such fan-outs, e.g. single-node points).
    pub fanout_us_per_commit: f64,
}

/// The fixed configurations of the profile suite, as `(id, config, family)`.
fn suite_points() -> Vec<(String, SimulationConfig, Family)> {
    let mut points: Vec<(String, SimulationConfig, Family)> = [1usize, 2, 4, 8, 64]
        .iter()
        .map(|&n| {
            (
                format!("fig5.x/{n}-nodes"),
                runner::data_sharing_point(n, 60.0),
                Family::DebitCredit,
            )
        })
        .collect();
    points.push((
        "quickstart/disk".to_string(),
        tpsim::presets::debit_credit_config(tpsim::presets::DebitCreditStorage::Disk, 100.0),
        Family::DebitCredit,
    ));
    points.push((
        "fig6.x/noforce-disk-log".to_string(),
        tpsim::presets::recovery_config(false, false, 500.0, 150.0),
        Family::RecoveryCrash,
    ));
    points.push((
        "fig11.x/8-nodes-sched".to_string(),
        runner::scheduler_point(
            8,
            60.0,
            storage::IoSchedulerParams { coalesce: true },
            false,
        ),
        Family::DebitCredit,
    ));
    points
}

/// Runs the profile suite at full experiment scale: every point `reps` times
/// sequentially, keeping the fastest run (wall-clock noise is one-sided).
pub fn kernel_profile_suite(reps: usize) -> Vec<ProfilePoint> {
    let mut settings = RunSettings::full();
    settings.parallel = false;
    let reps = reps.max(1);
    suite_points()
        .into_iter()
        .map(|(id, mut config, family)| {
            // Derive the seed exactly as a one-point sweep would, so the
            // simulated workload (and its event count) matches what
            // `run_sweep` of the same point produces and the committed
            // baseline stays comparable.
            config.seed = runner::derive_run_seed(config.seed, 0);
            let mut best: Option<ProfilePoint> = None;
            for _ in 0..reps {
                let (_, p) = runner::run_point_profiled(&settings, config.clone(), family);
                let candidate = ProfilePoint {
                    id: id.clone(),
                    events: p.events,
                    wall_ms: p.wall_ms,
                    events_per_sec: p.events_per_sec,
                    fanout_us_per_commit: p.fanout_us_per_commit(),
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| candidate.events_per_sec > b.events_per_sec);
                if better {
                    best = Some(candidate);
                }
            }
            best.expect("at least one rep")
        })
        .collect()
}

/// Renders `BENCH_kernel.json`'s baseline points.
pub fn render_bench_json(points: &[ProfilePoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(
        "  \"description\": \"Kernel wall-clock baseline: events/sec per profile-suite point \
         (measure afresh: cargo run --release -p tpsim-bench --bin experiments -- \
         --profile fresh.json)\",\n",
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"events\": {}, \"wall_ms\": {:.3}, \
             \"events_per_sec\": {:.0}, \"fanout_us_per_commit\": {:.3}}}{comma}",
            p.id, p.events, p.wall_ms, p.events_per_sec, p.fanout_us_per_commit
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// One committed point of a `BENCH_kernel.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Point id, as in [`ProfilePoint::id`].
    pub id: String,
    /// Events the committed run popped.
    pub events: u64,
    /// Committed events per wall-clock second.
    pub events_per_sec: f64,
}

/// Parses the *top-level* `points` array of a `BENCH_kernel.json` produced by
/// [`render_bench_json`].  Extra keys and a hand-curated `history` section
/// after the points are ignored.  Returns an error for files this module did
/// not write.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselinePoint>, String> {
    let start = json
        .find("\"points\": [")
        .ok_or("no top-level \"points\" array")?;
    let tail = &json[start..];
    let end = tail.find(']').ok_or("unterminated points array")?;
    let body = &tail[..end];
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let id = extract_str(line, "id").ok_or_else(|| format!("no id in: {line}"))?;
        let events = extract_num(line, "events").ok_or_else(|| format!("no events in: {line}"))?;
        let events_per_sec = extract_num(line, "events_per_sec")
            .ok_or_else(|| format!("no events_per_sec in: {line}"))?;
        out.push(BaselinePoint {
            id,
            events,
            events_per_sec,
        });
    }
    if out.is_empty() {
        return Err("empty points array".to_string());
    }
    Ok(out)
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh suite run against the committed baseline: every baseline
/// point re-measured in `fresh` must pop exactly its committed number of
/// events and reach at least `1 - tolerance` of its committed events/sec.
/// Returns a human-readable table on success and the offending points on
/// failure.
pub fn check_against_baseline(
    fresh: &[ProfilePoint],
    baseline: &[BaselinePoint],
    tolerance: f64,
) -> Result<String, String> {
    let mut table = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        table,
        "{:<26} {:>12} {:>16} {:>16} {:>8}",
        "point", "events", "baseline [ev/s]", "fresh [ev/s]", "ratio"
    );
    for base in baseline {
        let id = &base.id;
        let Some(f) = fresh.iter().find(|p| &p.id == id) else {
            failures.push(format!("point {id} missing from the fresh run"));
            continue;
        };
        let base_eps = base.events_per_sec;
        let ratio = f.events_per_sec / base_eps.max(1e-9);
        let _ = writeln!(
            table,
            "{:<26} {:>12} {:>16.0} {:>16.0} {:>8.2}",
            id, f.events, base_eps, f.events_per_sec, ratio
        );
        if f.events != base.events {
            failures.push(format!(
                "{id}: {} events, the committed baseline has {}",
                f.events, base.events
            ));
        }
        if ratio < 1.0 - tolerance {
            failures.push(format!(
                "{id}: events/sec dropped to {ratio:.2}x of the committed baseline \
                 ({:.0} vs {base_eps:.0})",
                f.events_per_sec
            ));
        }
    }
    if failures.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "{table}\nbaseline mismatch:\n{}",
            failures.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<ProfilePoint> {
        vec![
            ProfilePoint {
                id: "fig5.x/8-nodes".to_string(),
                events: 1_000_000,
                wall_ms: 50.0,
                events_per_sec: 20_000_000.0,
                fanout_us_per_commit: 1.25,
            },
            ProfilePoint {
                id: "quickstart/disk".to_string(),
                events: 123_456,
                wall_ms: 10.5,
                events_per_sec: 11_757_714.0,
                fanout_us_per_commit: 0.0,
            },
        ]
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let json = render_bench_json(&sample_points());
        assert!(!json.contains("\"scaling\""));
        // The fan-out column rides along in every point; the baseline parser
        // must keep working with (and ignoring) it.
        assert!(json.contains("\"fanout_us_per_commit\": 1.250"));
        let parsed = parse_baseline(&json).expect("parse own output");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "fig5.x/8-nodes");
        assert_eq!(parsed[0].events, 1_000_000);
        assert!((parsed[0].events_per_sec - 20_000_000.0).abs() < 1.0);
        assert_eq!(parsed[1].id, "quickstart/disk");
        assert_eq!(parsed[1].events, 123_456);
    }

    #[test]
    fn parser_ignores_extra_keys_and_the_history_section() {
        let json = r#"{
  "schema": 1,
  "points": [
    {"id": "fig11.x/8-nodes-sched", "events": 130071, "wall_ms": 76.633, "events_per_sec": 1697313, "fanout_us_per_commit": 1.052, "sched_coalesced": 482}
  ],
  "history": [
    {"label": "an earlier snapshot", "points": [
      {"id": "fig5.x/1-nodes", "events": 23358, "wall_ms": 3.977, "events_per_sec": 5873271}
    ]}
  ]
}
"#;
        let parsed = parse_baseline(json).expect("parse a curated baseline");
        assert_eq!(
            parsed,
            vec![BaselinePoint {
                id: "fig11.x/8-nodes-sched".to_string(),
                events: 130_071,
                events_per_sec: 1_697_313.0,
            }]
        );
    }

    fn baseline(id: &str, events: u64, events_per_sec: f64) -> Vec<BaselinePoint> {
        vec![BaselinePoint {
            id: id.to_string(),
            events,
            events_per_sec,
        }]
    }

    #[test]
    fn baseline_gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = baseline("fig5.x/8-nodes", 1_000_000, 20_000_000.0);
        let mut fresh = sample_points();
        // 80% of baseline at 30% tolerance: fine.
        fresh[0].events_per_sec = 16_000_000.0;
        assert!(check_against_baseline(&fresh, &baseline, 0.3).is_ok());
        // 60% of baseline: regression.
        fresh[0].events_per_sec = 12_000_000.0;
        let err = check_against_baseline(&fresh, &baseline, 0.3).unwrap_err();
        assert!(err.contains("events/sec dropped"), "{err}");
        // A missing point is a failure too.
        let missing = self::baseline("gone", 1, 1.0);
        assert!(check_against_baseline(&fresh, &missing, 0.3).is_err());
    }

    #[test]
    fn baseline_gate_fails_on_a_different_event_count() {
        let fresh = sample_points();
        // Faster than the baseline, but one event more: different behaviour.
        let baseline = baseline("fig5.x/8-nodes", 999_999, 1_000_000.0);
        let err = check_against_baseline(&fresh, &baseline, 0.3).unwrap_err();
        assert!(
            err.contains("1000000 events, the committed baseline has 999999"),
            "{err}"
        );
        assert!(!err.contains("events/sec dropped"), "{err}");
    }

    #[test]
    fn suite_covers_the_fig5x_sweep() {
        let ids: Vec<String> = suite_points().into_iter().map(|(id, _, _)| id).collect();
        for n in [1, 2, 4, 8, 64] {
            assert!(ids.contains(&format!("fig5.x/{n}-nodes")));
        }
        assert!(ids.iter().any(|i| i.starts_with("quickstart/")));
        assert!(ids.iter().any(|i| i.starts_with("fig6.x/")));
        assert!(ids.contains(&"fig11.x/8-nodes-sched".to_string()));
    }
}
