//! Findings and the justification-comment grammar.
//!
//! Every hit the analyzer reports is a [`Finding`] naming one [`Lint`].  A
//! finding can be *justified* by an inline comment of the form
//!
//! ```text
//! // analyzer: allow(<lint-name>): <non-empty reason>
//! ```
//!
//! either trailing the flagged line or on a comment-only line directly above
//! it (several comment-only lines may sit between, as rustfmt wraps long
//! justifications).  Justified findings are reported in `--verbose` mode but
//! never fail the check; a finding without a justification fails `--check`.

use std::fmt;
use std::path::PathBuf;

use crate::scan::Line;

/// The named lints the analyzer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `partial_cmp` on `f64` paths: use `f64::total_cmp` so NaN can never
    /// collapse an ordering.
    FloatOrd,
    /// Iteration over hash containers (`HashMap`/`HashSet`, or the
    /// `IdMap`/`IdSet` aliases) in the deterministic crates (`core`,
    /// `lockmgr`, `bufmgr`): unordered iteration feeding reports or event
    /// schedules breaks byte-identity.
    HashIter,
    /// Host-dependent state inside `crates/`: `Instant::now`, `SystemTime`,
    /// `RandomState` (spelled out, or implied by a hash container without a
    /// hasher in the simulator crates), `env::var` — anything that makes a
    /// run a function of the machine instead of `(config, seed)`.
    WallClock,
    /// Bare `-=` on an unsigned stat/counter field without a nearby
    /// guard/assert (the `log_wb_pending` underflow class).
    CounterUnderflow,
    /// A crate dependency or `use` that violates the documented crate DAG.
    Layering,
}

impl Lint {
    /// The lint's name as used in `allow(...)` justifications and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::FloatOrd => "float-ord",
            Lint::HashIter => "hash-iter",
            Lint::WallClock => "wall-clock",
            Lint::CounterUnderflow => "counter-underflow",
            Lint::Layering => "layering",
        }
    }

    /// Parses a lint name (the inverse of [`Lint::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "float-ord" => Some(Lint::FloatOrd),
            "hash-iter" => Some(Lint::HashIter),
            "wall-clock" => Some(Lint::WallClock),
            "counter-underflow" => Some(Lint::CounterUnderflow),
            "layering" => Some(Lint::Layering),
            _ => None,
        }
    }

    /// All lints, for `--list`.
    pub fn all() -> &'static [Lint] {
        &[
            Lint::FloatOrd,
            Lint::HashIter,
            Lint::WallClock,
            Lint::CounterUnderflow,
            Lint::Layering,
        ]
    }

    /// One-line description for `--list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::FloatOrd => "partial_cmp on float paths; use f64::total_cmp",
            Lint::HashIter => {
                "HashMap/HashSet/IdMap/IdSet iteration in core/lockmgr/bufmgr; order must not \
                 feed output"
            }
            Lint::WallClock => {
                "host-dependent state (Instant::now/SystemTime/RandomState/env::var) under \
                 crates/, including hash containers with an implicit RandomState"
            }
            Lint::CounterUnderflow => {
                "bare -= on an unsigned counter without a nearby guard or debug_assert"
            }
            Lint::Layering => "crate dependency or use-path outside the documented crate DAG",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer hit.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    /// Path relative to the workspace root (or a fixture-supplied label).
    pub path: PathBuf,
    /// 1-based line number (0 for manifest-level findings).
    pub line: usize,
    pub message: String,
    /// The justification reason, when an `analyzer: allow` comment covers
    /// the finding.
    pub justification: Option<String>,
}

impl Finding {
    /// True when the finding carries an inline justification.
    pub fn justified(&self) -> bool {
        self.justification.is_some()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.lint,
            self.message
        )?;
        if let Some(reason) = &self.justification {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}

/// Parses an `analyzer: allow(<lint>): <reason>` marker out of a comment,
/// returning the lint name and the (non-empty) reason.
pub fn parse_allow(comment: &str) -> Option<(&str, &str)> {
    let idx = comment.find("analyzer: allow(")?;
    let rest = &comment[idx + "analyzer: allow(".len()..];
    let close = rest.find(')')?;
    let lint = &rest[..close];
    let after = rest[close + 1..].strip_prefix(':')?;
    let reason = after.trim();
    if reason.is_empty() {
        return None;
    }
    Some((lint, reason))
}

/// Looks for a justification covering `lint` at `lines[idx]`: trailing the
/// line itself, or on comment-only lines directly above it.
pub fn justification_for(lines: &[Line], idx: usize, lint: Lint) -> Option<String> {
    let matches = |comment: &str| {
        parse_allow(comment)
            .filter(|(name, _)| *name == lint.name())
            .map(|(_, reason)| reason.to_string())
    };
    if let Some(reason) = matches(&lines[idx].comment) {
        return Some(reason);
    }
    // Walk upwards over comment-only lines (code channel empty, comment
    // non-empty) so a wrapped justification above the statement counts.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        if !line.code.trim().is_empty() {
            break;
        }
        if line.comment.is_empty() {
            break;
        }
        if let Some(reason) = matches(&line.comment) {
            return Some(reason);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    #[test]
    fn allow_grammar_requires_reason() {
        assert_eq!(
            parse_allow("analyzer: allow(hash-iter): order-independent sum"),
            Some(("hash-iter", "order-independent sum"))
        );
        assert_eq!(parse_allow("analyzer: allow(hash-iter):"), None);
        assert_eq!(parse_allow("analyzer: allow(hash-iter) no colon"), None);
        assert_eq!(parse_allow("unrelated comment"), None);
    }

    #[test]
    fn justification_found_trailing_and_above() {
        let f = strip(
            "// analyzer: allow(wall-clock): measures host time\nlet t = x;\nlet u = y; // analyzer: allow(float-ord): oracle only\n",
        );
        assert!(justification_for(&f.lines, 1, Lint::WallClock).is_some());
        assert!(justification_for(&f.lines, 1, Lint::FloatOrd).is_none());
        assert!(justification_for(&f.lines, 2, Lint::FloatOrd).is_some());
    }

    #[test]
    fn justification_does_not_cross_code_lines() {
        let f = strip("// analyzer: allow(hash-iter): reason\nlet a = 1;\nlet b = 2;\n");
        assert!(justification_for(&f.lines, 2, Lint::HashIter).is_none());
    }

    #[test]
    fn lint_names_round_trip() {
        for &lint in Lint::all() {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_name("bogus"), None);
    }
}
