//! Layering: the workspace crate DAG, encoded as data.
//!
//! `docs/ARCHITECTURE.md` documents the strict DAG (`simkernel` at the
//! bottom, `bench` at the top, the umbrella suite above everything).  This
//! module is that diagram as machine-checkable data.  Two enforcement
//! points:
//!
//! * **Manifests** — every `[dependencies]` entry of every crate under
//!   `crates/` must be a path dependency to a crate the DAG allows.  An
//!   external (non-path) dependency is *always* a finding: the workspace is
//!   dependency-free by decree (in-repo RNG, bench shims, stats).
//! * **Sources** — a `use <crate>::` or `<crate>::path` token referring to a
//!   workspace crate outside the allowed set is a finding even if the
//!   manifest somehow let it slip.
//!
//! Growing a real new edge (or crate) is a conscious act: update
//! [`CRATE_DAG`] here *and* the diagram in `docs/ARCHITECTURE.md`; the
//! `dag_matches_workspace` integration test pins the encoding to the actual
//! manifests so the two can never drift silently.

use std::collections::BTreeMap;
use std::path::Path;

use crate::findings::{Finding, Lint};

/// One crate in the encoded DAG.
#[derive(Debug, Clone, Copy)]
pub struct CrateSpec {
    /// Directory name under `crates/`.
    pub dir: &'static str,
    /// Package name in `Cargo.toml`.
    pub package: &'static str,
    /// Identifier used in `use` paths (hyphens become underscores).
    pub lib: &'static str,
    /// Allowed dependencies, as package names.  This is the *exact* edge
    /// set, pinned against the real manifests by the DAG test.
    pub deps: &'static [&'static str],
}

/// The workspace crate DAG (see the diagram in `docs/ARCHITECTURE.md`).
pub const CRATE_DAG: &[CrateSpec] = &[
    CrateSpec {
        dir: "simkernel",
        package: "simkernel",
        lib: "simkernel",
        deps: &[],
    },
    CrateSpec {
        dir: "dbmodel",
        package: "dbmodel",
        lib: "dbmodel",
        deps: &["simkernel"],
    },
    CrateSpec {
        dir: "storage",
        package: "storage",
        lib: "storage",
        deps: &["simkernel", "dbmodel"],
    },
    CrateSpec {
        dir: "lockmgr",
        package: "lockmgr",
        lib: "lockmgr",
        deps: &["simkernel", "dbmodel"],
    },
    CrateSpec {
        dir: "bufmgr",
        package: "bufmgr",
        lib: "bufmgr",
        deps: &["simkernel", "dbmodel", "storage"],
    },
    CrateSpec {
        dir: "core",
        package: "tpsim",
        lib: "tpsim",
        deps: &["simkernel", "dbmodel", "storage", "lockmgr", "bufmgr"],
    },
    CrateSpec {
        dir: "bench",
        package: "tpsim-bench",
        lib: "tpsim_bench",
        deps: &[
            "tpsim",
            "simkernel",
            "dbmodel",
            "storage",
            "lockmgr",
            "bufmgr",
        ],
    },
    CrateSpec {
        dir: "analyzer",
        package: "analyzer",
        lib: "analyzer",
        deps: &[],
    },
];

/// Looks up a crate by its directory name under `crates/`.
pub fn spec_for_dir(dir: &str) -> Option<&'static CrateSpec> {
    CRATE_DAG.iter().find(|s| s.dir == dir)
}

/// Maps a package name to the identifier used in `use` paths.
pub fn lib_name(package: &str) -> String {
    package.replace('-', "_")
}

/// One parsed `[dependencies]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestDep {
    pub name: String,
    /// 1-based line in the manifest.
    pub line: usize,
    /// True when the entry carries `path = "…"` (a workspace-internal dep).
    pub is_path: bool,
}

/// Parses the `[dependencies]` section of a `Cargo.toml` (the minimal
/// single-line `name = { path = "…" }` grammar this workspace uses).
pub fn parse_manifest_deps(toml: &str) -> Vec<ManifestDep> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_alphanumeric() || "-_".contains(c))
        {
            continue;
        }
        deps.push(ManifestDep {
            name: name.to_string(),
            line: idx + 1,
            is_path: value.contains("path"),
        });
    }
    deps
}

/// Checks one crate manifest against the DAG.  `rel_path` labels findings.
pub fn check_manifest(dir: &str, toml: &str, rel_path: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(spec) = spec_for_dir(dir) else {
        findings.push(Finding {
            lint: Lint::Layering,
            path: rel_path.to_path_buf(),
            line: 0,
            message: format!(
                "crate directory `{dir}` is not in the encoded crate DAG; \
                 add it to analyzer::layering::CRATE_DAG and docs/ARCHITECTURE.md"
            ),
            justification: None,
        });
        return findings;
    };
    for dep in parse_manifest_deps(toml) {
        if !dep.is_path {
            findings.push(Finding {
                lint: Lint::Layering,
                path: rel_path.to_path_buf(),
                line: dep.line,
                message: format!(
                    "external dependency `{}`: the workspace is dependency-free \
                     (in-repo RNG/bench/stats shims replace crates.io)",
                    dep.name
                ),
                justification: None,
            });
            continue;
        }
        if !spec.deps.contains(&dep.name.as_str()) {
            findings.push(Finding {
                lint: Lint::Layering,
                path: rel_path.to_path_buf(),
                line: dep.line,
                message: format!(
                    "`{}` must not depend on `{}`: the crate DAG allows only {:?} \
                     (see docs/ARCHITECTURE.md)",
                    spec.package, dep.name, spec.deps
                ),
                justification: None,
            });
        }
    }
    findings
}

/// The actual dependency edges of the workspace, read from the manifests:
/// package name → set of path-dependency package names.
pub fn workspace_edges(root: &Path) -> std::io::Result<BTreeMap<String, Vec<String>>> {
    let mut edges = BTreeMap::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let toml = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        let package = toml
            .lines()
            .map(str::trim)
            .find_map(|l| l.strip_prefix("name = "))
            .map(|v| v.trim_matches('"').to_string())
            .unwrap_or_else(|| dir.file_name().unwrap().to_string_lossy().into_owned());
        let mut deps: Vec<String> = parse_manifest_deps(&toml)
            .into_iter()
            .filter(|d| d.is_path)
            .map(|d| d.name)
            .collect();
        deps.sort();
        edges.insert(package, deps);
    }
    Ok(edges)
}

/// Verifies that [`CRATE_DAG`] encodes *exactly* the workspace's real
/// dependency edges (names and edge sets both directions).
pub fn verify_dag_matches(root: &Path) -> Result<(), String> {
    let actual = workspace_edges(root).map_err(|e| format!("reading manifests: {e}"))?;
    let mut encoded = BTreeMap::new();
    for spec in CRATE_DAG {
        let mut deps: Vec<String> = spec.deps.iter().map(|d| d.to_string()).collect();
        deps.sort();
        encoded.insert(spec.package.to_string(), deps);
    }
    if encoded != actual {
        return Err(format!(
            "encoded crate DAG has drifted from the workspace manifests\n\
             encoded: {encoded:?}\n\
             actual:  {actual:?}\n\
             update analyzer::layering::CRATE_DAG and docs/ARCHITECTURE.md together"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn manifest_parser_reads_path_deps() {
        let toml = "[package]\nname = \"storage\"\n[dependencies]\nsimkernel = { path = \"../simkernel\" }\ndbmodel = { path = \"../dbmodel\" }\n";
        let deps = parse_manifest_deps(toml);
        assert_eq!(deps.len(), 2);
        assert!(deps.iter().all(|d| d.is_path));
        assert_eq!(deps[0].name, "simkernel");
    }

    #[test]
    fn illegal_edge_is_flagged() {
        let toml = "[dependencies]\ntpsim = { path = \"../core\" }\n";
        let f = check_manifest("storage", toml, &PathBuf::from("crates/storage/Cargo.toml"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::Layering);
        assert!(f[0].message.contains("must not depend on `tpsim`"));
    }

    #[test]
    fn external_dependency_is_flagged() {
        let toml = "[dependencies]\nrand = \"0.8\"\n";
        let f = check_manifest(
            "simkernel",
            toml,
            &PathBuf::from("crates/simkernel/Cargo.toml"),
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("external dependency"));
    }

    #[test]
    fn legal_manifest_is_clean() {
        let toml = "[dependencies]\nsimkernel = { path = \"../simkernel\" }\n";
        let f = check_manifest("dbmodel", toml, &PathBuf::from("crates/dbmodel/Cargo.toml"));
        assert!(f.is_empty());
    }

    #[test]
    fn unknown_crate_dir_is_flagged() {
        let f = check_manifest("newcrate", "", &PathBuf::from("crates/newcrate/Cargo.toml"));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not in the encoded crate DAG"));
    }
}
