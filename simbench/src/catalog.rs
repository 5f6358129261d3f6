//! The metrics this benchmark emits, with their units and the direction
//! that counts as better.  `BENCHMARK.json` must list exactly these (a test
//! checks it); the bounds of the end-to-end metrics live only there.

use crate::output::Metric;

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("sim_tx_per_s", "1/s", "higher"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mib", "MiB", "lower"),
    spec("allocs_per_tx", "count", "lower"),
];

/// Per-layer metrics of the traced run (`--trace 1`).  Counts and ratios
/// come from the report of the real run; `*_ns` costs from the layer
/// replay; `dbmodel.*` and `source.*` from the timed generator wrapper.
pub const PER_LAYER: &[Spec] = &[
    spec("simkernel.events_per_tx", "count", "lower"),
    spec("simkernel.events_per_s", "1/s", "higher"),
    spec("simkernel.hold_ns", "ns", "lower"),
    spec("simkernel.sketch_insert_ns", "ns", "lower"),
    spec("simkernel.share", "ratio", "lower"),
    spec("dbmodel.gen_ns_per_tx", "ns", "lower"),
    spec("dbmodel.gen_share", "ratio", "lower"),
    spec("dbmodel.hotspot_build_s", "s", "lower"),
    spec("lockmgr.requests_per_tx", "count", "lower"),
    spec("lockmgr.conflict_ratio", "ratio", "lower"),
    spec("lockmgr.deadlocks_per_ktx", "count", "lower"),
    spec("lockmgr.remote_requests_per_tx", "count", "lower"),
    spec("lockmgr.acquire_release_ns", "ns", "lower"),
    spec("lockmgr.share", "ratio", "lower"),
    spec("bufmgr.refs_per_tx", "count", "lower"),
    spec("bufmgr.mm_hit_ratio", "ratio", "higher"),
    spec("bufmgr.nvem_hit_ratio", "ratio", "higher"),
    spec("bufmgr.invalidations_per_tx", "count", "lower"),
    spec("bufmgr.forced_pages_per_tx", "count", "lower"),
    spec("bufmgr.call_ns", "ns", "lower"),
    spec("bufmgr.share", "ratio", "lower"),
    spec("storage.ios_per_tx", "count", "lower"),
    spec("storage.coalesced_per_ktx", "count", "higher"),
    spec("storage.max_disk_util", "ratio", "lower"),
    spec("storage.request_ns", "ns", "lower"),
    spec("storage.share", "ratio", "lower"),
    spec("core.allocs_per_event", "count", "lower"),
    spec("core.fanout_us_per_commit", "us", "lower"),
    spec("core.remote_calls_per_tx", "count", "lower"),
    spec("core.new_s", "s", "lower"),
    spec("core.residual_share", "ratio", "lower"),
    spec("bench.trace_overhead", "ratio", "lower"),
    spec("bench.unverified_layers", "count", "lower"),
    spec("source.chunk_us_p50", "us", "lower"),
    spec("source.chunk_us_p97", "us", "lower"),
];

/// The spec of `name` in either list.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// A measured value of the catalogued metric `name`, with its unit.
///
/// # Panics
/// Panics when `name` is not catalogued: every emitted metric must be.
pub fn metric(name: &str, value: f64) -> Metric {
    let spec = find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
    Metric::new(name, value, spec.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{valid_name, Json};

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(matches!(s.better, "higher" | "lower"));
            assert!(!s.unit.is_empty() && s.unit.len() <= 16);
        }
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json
                .get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"));
            let listed: Vec<Spec> = listed
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
                    let name = field("name");
                    let spec = find(name).unwrap_or_else(|| panic!("{name} is not emitted"));
                    assert_eq!((spec.unit, spec.better), (field("unit"), field("better")));
                    *spec
                })
                .collect();
            assert_eq!(listed, specs.to_vec(), "{key}");
        }
        let workloads = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
