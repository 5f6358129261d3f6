//! The whole-workspace invariants CI's `lint-invariants` job relies on:
//!
//! * the encoded crate DAG matches the real manifests exactly (no silent
//!   drift between `analyzer::layering::CRATE_DAG`, `docs/ARCHITECTURE.md`
//!   and the `Cargo.toml` files);
//! * the live tree passes the analyzer with zero unjustified findings, so
//!   `cargo run -p analyzer -- --check` exits 0 on HEAD;
//! * the analyzer still *sees* every justified site: a heuristic that stops
//!   recognising a declaration form (say, maps declared through a type
//!   alias) drops findings silently, which the zero-unjustified check alone
//!   cannot notice.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    analyzer::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate")
}

#[test]
fn dag_matches_workspace_manifests() {
    if let Err(drift) = analyzer::verify_dag_matches(&workspace_root()) {
        panic!("{drift}");
    }
}

#[test]
fn live_tree_has_zero_unjustified_findings() {
    let findings = analyzer::analyze_workspace(&workspace_root()).expect("scan workspace");
    let unjustified: Vec<String> = findings
        .iter()
        .filter(|f| !f.justified())
        .map(|f| f.to_string())
        .collect();
    assert!(
        unjustified.is_empty(),
        "the live tree must analyze clean (fix the hazard or justify it inline):\n{}",
        unjustified.join("\n")
    );
    // Justifications exist in the tree; each must carry a real reason (the
    // grammar already rejects empty ones, so just pin that some survive —
    // a regression that drops all justification parsing would zero this).
    assert!(
        findings.iter().any(|f| f.justified()),
        "expected at least one justified finding in the live tree"
    );
}

/// Every justified site of the live tree as (file, lint, flagged name),
/// without line numbers so unrelated edits do not churn the list.  Adding
/// or removing a justified site means editing this list.
const JUSTIFIED_SITES: &[(&str, &str, &str)] = &[
    (
        "crates/bench/src/bin/experiments.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/bench/src/microbench.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/bench/src/microbench.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/bench/src/microbench.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/bench/src/microbench.rs",
        "wall-clock",
        "Instant::now",
    ),
    ("crates/bufmgr/src/dirty.rs", "hash-iter", "entries"),
    ("crates/bufmgr/src/dirty.rs", "hash-iter", "entries"),
    (
        "crates/core/src/engine/coherence.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/core/src/engine/mod.rs",
        "wall-clock",
        "Instant::now",
    ),
    (
        "crates/core/src/engine/recover.rs",
        "hash-iter",
        "dirty_page_table",
    ),
    ("crates/lockmgr/src/deadlock.rs", "hash-iter", "blockers"),
    ("crates/lockmgr/src/deadlock.rs", "hash-iter", "next"),
    ("crates/lockmgr/src/deadlock.rs", "hash-iter", "prev"),
    ("crates/lockmgr/src/deadlock.rs", "hash-iter", "waiters"),
    ("crates/lockmgr/src/manager.rs", "hash-iter", "held"),
];

#[test]
fn live_tree_keeps_every_justified_site() {
    let findings = analyzer::analyze_workspace(&workspace_root()).expect("scan workspace");
    let mut found: Vec<(String, String, String)> = findings
        .iter()
        .filter(|f| f.justified())
        .map(|f| {
            // The flagged name is the first back-quoted token of the message.
            let name = f.message.split('`').nth(1).unwrap_or_default();
            (
                f.path.to_string_lossy().replace('\\', "/"),
                f.lint.name().to_string(),
                name.to_string(),
            )
        })
        .collect();
    found.sort();
    let mut expected: Vec<(String, String, String)> = JUSTIFIED_SITES
        .iter()
        .map(|&(p, l, n)| (p.to_string(), l.to_string(), n.to_string()))
        .collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "the justified findings of the live tree changed: a lost site means a \
         heuristic stopped recognising a declaration form"
    );
}
