//! Repo-native determinism & layering analyzer for the TPSIM workspace.
//!
//! A dependency-free, token/line-level static pass over `crates/*/src` that
//! enforces the invariants `docs/ARCHITECTURE.md` documents in prose:
//!
//! * **`float-ord`** — no `partial_cmp` on simulation paths; `f64::total_cmp`
//!   only.
//! * **`hash-iter`** — no unordered `HashMap`/`HashSet` (or `IdMap`/`IdSet`)
//!   iteration in the deterministic crates (`core`, `lockmgr`, `bufmgr`)
//!   without an inline `// analyzer: allow(hash-iter): <why>` justification.
//! * **`wall-clock`** — no `Instant::now` / `SystemTime` / `RandomState` /
//!   `env::var` under `crates/`, and no hash container with an implicit
//!   `RandomState` in the simulator crates; a run is a pure function of
//!   (config, seed).
//! * **`counter-underflow`** — no bare `-=` on unsigned stat/counter fields
//!   without a nearby guard or `debug_assert` (the `log_wb_pending` class).
//! * **`layering`** — crate dependencies and `use` paths must match the
//!   crate DAG encoded in [`layering::CRATE_DAG`].
//!
//! Scope: production sources only — `crates/*/src/**/*.rs`, minus inline
//! `#[cfg(test)] mod` blocks.  Integration tests, benches and fixtures are
//! free to use wall clocks and unordered iteration.
//!
//! Run `cargo run -p analyzer -- --check` (CI) or `--verbose` (everything,
//! including justified findings).

pub mod findings;
pub mod layering;
pub mod lints;
pub mod scan;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use findings::{Finding, Lint};
pub use layering::{check_manifest, verify_dag_matches, CRATE_DAG};
pub use lints::CrateKnowledge;

/// Analyzes a single source text as if it lived in `crates/<crate_dir>/src`.
/// This is the fixture-corpus entry point: knowledge is collected from the
/// same text, so self-contained snippets lint exactly like live files.
pub fn analyze_source(crate_dir: &str, rel_path: &Path, text: &str) -> Vec<Finding> {
    let stripped = scan::strip(text);
    let mut knowledge = CrateKnowledge::default();
    knowledge.collect(&stripped);
    let (allowed, all) = lib_sets(crate_dir);
    lints::lint_file(crate_dir, rel_path, &stripped, &knowledge, &allowed, &all)
}

/// The (allowed, all) workspace-lib-name sets for the use-path layering
/// check of one crate.
fn lib_sets(crate_dir: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let all: BTreeSet<String> = CRATE_DAG.iter().map(|s| s.lib.to_string()).collect();
    let allowed: BTreeSet<String> = layering::spec_for_dir(crate_dir)
        .map(|spec| {
            spec.deps
                .iter()
                .map(|d| layering::lib_name(d))
                .chain(std::iter::once(spec.lib.to_string()))
                .collect()
        })
        .unwrap_or_default();
    (allowed, all)
}

/// Analyzes the whole workspace rooted at `root`: every crate manifest plus
/// every production source file.  Findings are sorted by path then line so
/// output is stable across filesystems.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();

    for dir in &dirs {
        let crate_dir = dir.file_name().unwrap().to_string_lossy().into_owned();
        let manifest_path = dir.join("Cargo.toml");
        let rel_manifest = manifest_path
            .strip_prefix(root)
            .unwrap_or(&manifest_path)
            .to_path_buf();
        let toml = std::fs::read_to_string(&manifest_path)?;
        findings.extend(check_manifest(&crate_dir, &toml, &rel_manifest));

        let src_dir = dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();

        // Pass 1: crate-wide declaration knowledge.
        let mut knowledge = CrateKnowledge::default();
        let mut stripped = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file)?;
            let s = scan::strip(&text);
            knowledge.collect(&s);
            stripped.push(s);
        }

        // Pass 2: lints.
        let (allowed, all) = lib_sets(&crate_dir);
        for (file, s) in files.iter().zip(&stripped) {
            let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
            findings.extend(lints::lint_file(
                &crate_dir, &rel, s, &knowledge, &allowed, &all,
            ));
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` until a directory with
/// both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
