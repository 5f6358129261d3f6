//! The determinism and counter-safety lints.
//!
//! All passes run on the stripped code channel of [`crate::scan`], so
//! patterns inside strings, comments and `#[cfg(test)] mod` blocks never
//! fire.  The hash-container knowledge is *heuristic* — a token/line-level
//! approximation, not type inference:
//!
//! * names declared `name: HashMap<…>` / `name: HashSet<…>` — or through the
//!   repo's id-hasher aliases `IdMap<…>` / `IdSet<…>` ([`HASH_CONTAINERS`])
//!   — (fields, params, typed lets) or bound via `= HashMap::new()` /
//!   `= IdMap::default()` are hash containers;
//! * when a map's *value* type is itself a hash set
//!   (`HashMap<K, HashSet<V>>`, `IdMap<K, IdSet<V>>`), identifiers bound
//!   from `name.remove(…)` / `name.get(…)` / `name.get_mut(…)` /
//!   `name.entry(…)` inherit hash-ness (so a set taken out of such a map
//!   and drained is still tracked).
//!
//! The wall-clock lint also catches `RandomState` used *implicitly*: in the
//! simulator crates ([`SIMULATOR_CRATES`]) a `HashMap<K, V>` or
//! `HashSet<T>` without a hasher argument, or a constructor that only exists
//! for the default hasher (`HashMap::new()`, `HashSet::with_capacity(…)`),
//! seeds SipHash from process entropy per map.
//!
//! The fixture corpus under `fixtures/` pins exactly what the heuristics
//! recognise; anything they miss is caught dynamically by the byte-identity
//! goldens — the analyzer narrows the window, the goldens close it.

use std::collections::BTreeSet;
use std::path::Path;

use crate::findings::{justification_for, Finding, Lint};
use crate::scan::{Line, StrippedFile};

/// Crates whose sources the hash-iter lint covers: the ones whose iteration
/// order can reach reports, goldens, or the event schedule.
pub const HASH_ITER_CRATES: &[&str] = &["core", "lockmgr", "bufmgr"];

/// Crates whose hash containers must name their hasher: the simulator's own
/// state lives here, and every map in it must hash deterministically.
pub const SIMULATOR_CRATES: &[&str] = &[
    "simkernel",
    "dbmodel",
    "storage",
    "lockmgr",
    "bufmgr",
    "core",
];

/// Hash-container type names: the std types and the `simkernel::idhash`
/// aliases, each with whether it is a map.
pub const HASH_CONTAINERS: &[(&str, bool)] = &[
    ("HashMap", true),
    ("HashSet", false),
    ("IdMap", true),
    ("IdSet", false),
];

/// Constructors that exist only for the default (`RandomState`) hasher.
const DEFAULT_HASHER_CTORS: &[&str] = &["::new(", "::with_capacity("];

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

const UNSIGNED_TYPES: &[&str] = &["u8", "u16", "u32", "u64", "u128", "usize"];

/// Tokens whose presence near a counter decrement counts as a guard: an
/// assertion, an explicit zero/bounds check, or a checked subtraction.
const GUARD_TOKENS: &[&str] = &[
    "assert!",
    "> 0",
    ">=",
    "== 0",
    "!= 0",
    ".checked_sub",
    ".saturating_sub",
    "is_empty",
];

/// How many preceding non-empty code lines the counter lint searches for a
/// guard mentioning the decremented identifier.
const GUARD_LOOKBACK: usize = 8;

/// Hash/counter knowledge collected over a crate's sources.
#[derive(Debug, Default, Clone)]
pub struct CrateKnowledge {
    /// Identifiers declared as hash containers (see [`HASH_CONTAINERS`]).
    pub hash_names: BTreeSet<String>,
    /// Hash maps whose *values* are hash containers (lookups yield hash).
    pub yields_hash: BTreeSet<String>,
    /// Identifiers declared with an unsigned integer (or `Vec<unsigned>`)
    /// type — the counter-underflow candidates.
    pub counter_names: BTreeSet<String>,
}

impl CrateKnowledge {
    /// Folds one stripped file's declarations into the knowledge.
    pub fn collect(&mut self, file: &StrippedFile) {
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            self.collect_line(&line.code);
        }
    }

    fn collect_line(&mut self, code: &str) {
        for &(container, is_map) in HASH_CONTAINERS {
            let mut from = 0;
            while let Some(pos) = find_word_from(code, container, from) {
                from = pos + container.len();
                if let Some(name) = binding_name_for_type(code, pos) {
                    // `HashMap<K, HashSet<V>>`: lookups on this map yield
                    // hash sets, so bound results inherit hash-ness.
                    let rest = &code[from..];
                    let yields_set = HASH_CONTAINERS
                        .iter()
                        .any(|&(set, map)| !map && find_word_from(rest, set, 0).is_some());
                    if is_map && yields_set {
                        self.yields_hash.insert(name.clone());
                    }
                    self.hash_names.insert(name);
                }
            }
            // `let [mut] name = HashMap::new()` and friends.
            let ctor = format!("= {container}::");
            if let Some(pos) = code.find(&ctor) {
                if let Some(name) = ident_ending_before(code, pos) {
                    self.hash_names.insert(name);
                }
            }
        }
        // Unsigned declarations: `name: u64`, `name: usize`, `name: Vec<usize>`.
        let bytes: Vec<char> = code.chars().collect();
        for (i, &c) in bytes.iter().enumerate() {
            if c != ':' {
                continue;
            }
            // Skip `::` path separators.
            if bytes.get(i + 1) == Some(&':') || (i > 0 && bytes[i - 1] == ':') {
                continue;
            }
            let after = code[i + 1..].trim_start();
            let is_unsigned = UNSIGNED_TYPES
                .iter()
                .any(|t| token_is(after, t) || token_is(after, &format!("Vec<{t}>")));
            if !is_unsigned {
                continue;
            }
            if let Some(name) = ident_ending_before(code, i) {
                self.counter_names.insert(name);
            }
        }
    }
}

/// True when `text` starts with `tok` followed by a non-identifier char
/// (or nothing).
fn token_is(text: &str, tok: &str) -> bool {
    text.starts_with(tok)
        && !text[tok.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Finds `word` in `code` at or after `from`, requiring identifier
/// boundaries on both sides.
fn find_word_from(code: &str, word: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(rel) = code.get(start..).and_then(|s| s.find(word)) {
        let pos = start + rel;
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = pos + word.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + word.len();
    }
    None
}

/// For a type occurrence at `type_pos`, walks back to the nearest `:` (not
/// part of `::`) and returns the identifier ending just before it — the
/// declared field/param/binding name.
fn binding_name_for_type(code: &str, type_pos: usize) -> Option<String> {
    let head = &code[..type_pos];
    let colon = head
        .char_indices()
        .rev()
        .find(|&(i, c)| {
            c == ':'
                && head.get(..i).is_none_or(|h| !h.ends_with(':'))
                && !head[i + 1..].trim_start().starts_with(':')
        })
        .map(|(i, _)| i)?;
    ident_ending_before(code, colon)
}

/// The identifier whose last char sits directly before `pos` (skipping
/// whitespace); `None` when the preceding token is not an identifier.
fn ident_ending_before(code: &str, pos: usize) -> Option<String> {
    let head = code[..pos].trim_end();
    let start = head
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .last()
        .map(|(i, _)| i)?;
    let ident = &head[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(ident.to_string())
}

/// Runs the source lints over one stripped file.  `crate_dir` is the
/// directory name under `crates/` (selects hash-iter applicability);
/// `knowledge` is the crate-wide declaration pass; `allowed_libs` are the `use`-path crate identifiers this crate may
/// reference (for the layering use-check), with `all_libs` the full
/// workspace set.
pub fn lint_file(
    crate_dir: &str,
    rel_path: &Path,
    file: &StrippedFile,
    knowledge: &CrateKnowledge,
    allowed_libs: &BTreeSet<String>,
    all_libs: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let hash_iter_applies = HASH_ITER_CRATES.contains(&crate_dir);
    let hasher_must_be_explicit = SIMULATOR_CRATES.contains(&crate_dir);
    // Names derived file-locally from lookups on `yields_hash` maps.
    let mut derived: BTreeSet<String> = BTreeSet::new();

    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }

        // Track derived hash bindings before linting the line, so
        // `for x in set` on the same line still sees fresh bindings from
        // previous lines (bindings on the *same* line are intentionally not
        // self-matched: `let s = m.get(..)` alone iterates nothing).
        let fire = |lint: Lint, message: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                lint,
                path: rel_path.to_path_buf(),
                line: line.number,
                message,
                justification: justification_for(&file.lines, idx, lint),
            });
        };

        // --- float-ord -------------------------------------------------
        if code.contains(".partial_cmp(") && !code.contains("fn partial_cmp") {
            fire(
                Lint::FloatOrd,
                "call to partial_cmp: a NaN collapses the ordering; use f64::total_cmp".to_string(),
                &mut findings,
            );
        }

        // --- wall-clock ------------------------------------------------
        let token = ["Instant::now", "SystemTime", "RandomState", "env::var"]
            .into_iter()
            .find(|token| code.contains(token));
        if let Some(token) = token {
            fire(
                Lint::WallClock,
                format!(
                    "`{token}` makes behaviour host-dependent; simulated runs must be a \
                     pure function of (config, seed)"
                ),
                &mut findings,
            );
        } else if let Some(form) = hasher_must_be_explicit
            .then(|| implicit_random_state(code))
            .flatten()
        {
            fire(
                Lint::WallClock,
                format!(
                    "`{form}` hashes with the implicit RandomState (a random SipHash key per \
                     map); key simulator maps with simkernel::IdMap / IdSet"
                ),
                &mut findings,
            );
        }

        // --- hash-iter -------------------------------------------------
        if hash_iter_applies {
            let mut names: Vec<&String> = knowledge.hash_names.iter().collect();
            names.extend(derived.iter());
            if let Some(name) = hash_iter_hit(code, &names, &knowledge.yields_hash) {
                fire(
                    Lint::HashIter,
                    format!(
                        "iteration over hash container `{name}`: hash order follows the hash \
                         function and table history, not the model; sort first, use a Vec \
                         index, or justify order-independence"
                    ),
                    &mut findings,
                );
            }
        }

        // --- counter-underflow ----------------------------------------
        if let Some(name) = counter_decrement(code, &knowledge.counter_names) {
            if !guarded(&file.lines, idx, &name) {
                fire(
                    Lint::CounterUnderflow,
                    format!(
                        "bare `-=` on unsigned counter `{name}` with no nearby guard or \
                         debug_assert (the log_wb_pending underflow class); use the checked \
                         decrement pattern"
                    ),
                    &mut findings,
                );
            }
        }

        // --- layering (use-paths) -------------------------------------
        for lib in all_libs {
            if allowed_libs.contains(lib) {
                continue;
            }
            let pattern = format!("{lib}::");
            if find_word_from(code, lib, 0).is_some() && code.contains(&pattern) {
                fire(
                    Lint::Layering,
                    format!(
                        "reference to crate `{lib}` outside the documented DAG for \
                         `{crate_dir}` (see docs/ARCHITECTURE.md)"
                    ),
                    &mut findings,
                );
                break;
            }
        }

        // Derived-binding propagation for subsequent lines.
        propagate_bindings(code, &knowledge.yields_hash, &mut derived);
    }
    findings
}

/// Detects a std hash container that uses the default `RandomState` hasher
/// implicitly: a `HashMap<K, V>` / `HashSet<T>` type with no hasher
/// argument, or a constructor that exists only for the default hasher.
/// Returns the offending form.  Types whose generics do not close on the
/// line are left alone (the line-level heuristic cannot count them).
fn implicit_random_state(code: &str) -> Option<String> {
    for (container, args_with_hasher) in [("HashMap", 3), ("HashSet", 2)] {
        let mut from = 0;
        while let Some(pos) = find_word_from(code, container, from) {
            from = pos + container.len();
            let rest = &code[from..];
            if let Some(ctor) = DEFAULT_HASHER_CTORS.iter().find(|c| rest.starts_with(*c)) {
                return Some(format!("{container}{}", ctor.trim_end_matches('(')));
            }
            let generics = rest.strip_prefix("::").unwrap_or(rest);
            if let Some(args) = generics.strip_prefix('<').and_then(top_level_args) {
                if args < args_with_hasher {
                    return Some(format!("{container}<{}>", vec!["_"; args].join(", ")));
                }
            }
        }
    }
    None
}

/// Counts the top-level comma-separated arguments of a generic list whose
/// opening `<` was just consumed; `None` when the list does not close.
fn top_level_args(list: &str) -> Option<usize> {
    let (mut depth, mut args) = (0usize, 1usize);
    for c in list.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.checked_sub(1)?,
            '>' if depth == 0 => return Some(args),
            '>' => depth -= 1,
            ',' if depth == 0 => args += 1,
            _ => {}
        }
    }
    None
}

/// Detects an iteration construct over any of `names` on this line; returns
/// the matched name.  At most one hit per line keeps finding counts stable.
/// In a `for … in` expression a point lookup (`.get(`, `.get_mut(`,
/// `.contains_key(`) yields at most one value, so it iterates nothing in
/// hash order, unless the map's values are hash containers (`yields_hash`).
fn hash_iter_hit(code: &str, names: &[&String], yields_hash: &BTreeSet<String>) -> Option<String> {
    for name in names {
        let mut from = 0;
        while let Some(pos) = find_word_from(code, name, from) {
            from = pos + name.len();
            let mut rest = &code[pos + name.len()..];
            // Skip an accessor call `()` and/or one index `[…]`.
            if let Some(r) = rest.strip_prefix("()") {
                rest = r;
            }
            if rest.starts_with('[') {
                if let Some(close) = rest.find(']') {
                    rest = &rest[close + 1..];
                }
            }
            if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                return Some((*name).clone());
            }
        }
        // `for x in <expr mentioning name>`: the name is consumed by a loop.
        if let Some(in_pos) = code.find(" in ") {
            let head = code[..in_pos].trim_start();
            if head.starts_with("for ") || head.contains(" for ") {
                let tail = &code[in_pos + 4..];
                if iterated_in(tail, name, yields_hash.contains(*name)) {
                    return Some((*name).clone());
                }
            }
        }
    }
    None
}

/// True if `tail`, the expression of a `for … in`, mentions `name` other
/// than as the receiver of a point lookup; with `yields_hash` a lookup
/// counts too, since it yields a hash container.
fn iterated_in(tail: &str, name: &str, yields_hash: bool) -> bool {
    let mut from = 0;
    while let Some(pos) = find_word_from(tail, name, from) {
        from = pos + name.len();
        let rest = &tail[from..];
        let lookup = [".get(", ".get_mut(", ".contains_key("]
            .iter()
            .any(|m| rest.starts_with(m));
        if !lookup || yields_hash {
            return true;
        }
    }
    false
}

/// Binds identifiers from `let`/`if let`/`while let` patterns whose RHS
/// looks up a `yields_hash` map (`remove`/`get`/`get_mut`/`entry`).
fn propagate_bindings(code: &str, yields_hash: &BTreeSet<String>, derived: &mut BTreeSet<String>) {
    let trimmed = code.trim_start();
    let has_let = trimmed.starts_with("let ")
        || trimmed.starts_with("if let ")
        || trimmed.starts_with("while let ")
        || trimmed.contains(" let ");
    if !has_let {
        return;
    }
    let Some(eq) = code.find('=') else {
        return;
    };
    let rhs = &code[eq + 1..];
    let yields = yields_hash.iter().any(|name| {
        let mut from = 0;
        while let Some(pos) = find_word_from(rhs, name, from) {
            from = pos + name.len();
            let rest = &rhs[pos + name.len()..];
            for method in [".remove(", ".get(", ".get_mut(", ".entry("] {
                if rest.starts_with(method) {
                    return true;
                }
            }
        }
        false
    });
    if !yields {
        return;
    }
    let pat_start = code.find("let ").map(|p| p + 4).unwrap_or(0);
    let pattern = &code[pat_start..eq];
    let mut ident = String::new();
    let mut idents = Vec::new();
    for c in pattern.chars() {
        if c.is_alphanumeric() || c == '_' {
            ident.push(c);
        } else if !ident.is_empty() {
            idents.push(std::mem::take(&mut ident));
        }
    }
    if !ident.is_empty() {
        idents.push(ident);
    }
    for ident in idents {
        if !matches!(ident.as_str(), "mut" | "ref" | "Some" | "Ok" | "Err" | "_")
            && !ident.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            derived.insert(ident);
        }
    }
}

/// Detects `<counter> -= …` and returns the counter's field name.
fn counter_decrement(code: &str, counters: &BTreeSet<String>) -> Option<String> {
    let pos = code.find("-=")?;
    // Reject `>-=`-like false matches and comparison operators.
    let head = code[..pos].trim_end();
    // Strip a trailing index `[…]`.
    let head = match head.rfind('[') {
        Some(open) if head.ends_with(']') => head[..open].trim_end(),
        _ => head,
    };
    // The field name is the trailing identifier (after any `.` chain).
    let name = head
        .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()
        .unwrap_or("");
    if name.is_empty() {
        return None;
    }
    counters.contains(name).then(|| name.to_string())
}

/// True when one of the preceding `GUARD_LOOKBACK` non-empty code lines (or
/// the decrementing line itself) both mentions `name` and carries a guard
/// token — an assert, a zero/bounds check, or a checked subtraction.
fn guarded(lines: &[Line], idx: usize, name: &str) -> bool {
    let is_guard = |code: &str| {
        find_word_from(code, name, 0).is_some() && GUARD_TOKENS.iter().any(|g| code.contains(g))
    };
    if is_guard(&lines[idx].code) {
        return true;
    }
    let mut seen = 0;
    let mut i = idx;
    while i > 0 && seen < GUARD_LOOKBACK {
        i -= 1;
        let code = lines[i].code.trim();
        if code.is_empty() {
            continue;
        }
        seen += 1;
        if is_guard(&lines[i].code) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;
    use std::path::PathBuf;

    fn lint_str(crate_dir: &str, src: &str) -> Vec<Finding> {
        let file = strip(src);
        let mut knowledge = CrateKnowledge::default();
        knowledge.collect(&file);
        let all: BTreeSet<String> = ["simkernel", "tpsim"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let allowed = BTreeSet::new();
        lint_file(
            crate_dir,
            &PathBuf::from("test.rs"),
            &file,
            &knowledge,
            &allowed,
            &all,
        )
    }

    #[test]
    fn collects_hash_declarations() {
        let file = strip(
            "struct S {\n    holders: HashMap<PageId, u64, S>,\n    edges: HashMap<TxId, HashSet<TxId, S>, S>,\n    held: IdMap<TxId, Vec<u64>>,\n    graph: IdMap<TxId, IdSet<TxId>>,\n    count: u64,\n    pending: Vec<usize>,\n}\nlet mut seen = HashSet::new();\nlet lost = IdMap::default();\n",
        );
        let mut k = CrateKnowledge::default();
        k.collect(&file);
        for name in ["holders", "edges", "held", "graph", "seen", "lost"] {
            assert!(k.hash_names.contains(name), "{name}");
        }
        assert!(k.yields_hash.contains("edges"));
        assert!(k.yields_hash.contains("graph"));
        assert!(!k.yields_hash.contains("holders"));
        assert!(!k.yields_hash.contains("held"));
        assert!(k.counter_names.contains("count"));
        assert!(k.counter_names.contains("pending"));
    }

    #[test]
    fn flags_hash_iteration_in_restricted_crate_only() {
        for decl in ["HashMap<u64, u64, S>", "IdMap<u64, u64>"] {
            let src = format!(
                "struct S {{ m: {decl} }}\nfn f(s: &S) {{ for v in s.m.values() {{ use_(v); }} }}\n"
            );
            let f = lint_str("core", &src);
            assert_eq!(f.len(), 1, "{decl}");
            assert_eq!(f[0].lint, Lint::HashIter);
            assert!(lint_str("storage", &src).is_empty(), "{decl}");
        }
    }

    #[test]
    fn derived_binding_from_yields_hash_map() {
        for decl in ["HashMap<u64, HashSet<u64, S>, S>", "IdMap<u64, IdSet<u64>>"] {
            let src = format!(
                "struct G {{ edges: {decl} }}\nfn f(g: &mut G, w: u64) {{\n    if let Some(mut blockers) = g.edges.remove(&w) {{\n        for b in blockers.drain() {{ go(b); }}\n    }}\n}}\n"
            );
            let f = lint_str("lockmgr", &src);
            assert_eq!(f.len(), 1, "{decl}");
            assert!(f[0].message.contains("blockers"));
        }
    }

    #[test]
    fn implicit_random_state_is_flagged_in_simulator_crates_only() {
        for (src, form) in [
            (
                "struct S { m: HashMap<u64, Vec<(u64, u64)>> }\n",
                "HashMap<_, _>",
            ),
            ("fn f() -> HashSet<u64> { todo!() }\n", "HashSet<_>"),
            ("let m = HashMap::new();\n", "HashMap::new"),
            (
                "let s = HashSet::with_capacity(8);\n",
                "HashSet::with_capacity",
            ),
            ("let v = it.collect::<HashMap<_, _>>();\n", "HashMap<_, _>"),
        ] {
            let f = lint_str("bufmgr", src);
            assert_eq!(f.len(), 1, "{src}");
            assert_eq!(f[0].lint, Lint::WallClock);
            assert!(f[0].message.contains(form), "{}", f[0].message);
            assert!(lint_str("bench", src).is_empty(), "{src}");
        }
        for src in [
            "struct S { m: IdMap<u64, u64>, s: IdSet<u64> }\n",
            "struct S { m: HashMap<u64, HashSet<u64, S>, S> }\n",
            "let m: HashMap<u64, u64, S> = HashMap::with_capacity_and_hasher(8, S::default());\n",
            "let s = HashSet::default();\n",
            "use std::collections::{HashMap, HashSet};\n",
            "struct S { m: HashMap<\n",
        ] {
            assert!(lint_str("core", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn generic_arguments_are_counted_at_the_top_level() {
        assert_eq!(top_level_args("u64, u64>"), Some(2));
        assert_eq!(top_level_args("K, HashSet<V, S>, S>"), Some(3));
        assert_eq!(top_level_args("(u64, u64), [u8; 4]> rest"), Some(2));
        assert_eq!(top_level_args("u64,"), None);
    }

    #[test]
    fn justified_hash_iteration_is_suppressed_but_reported() {
        let src = "struct S { m: IdMap<u64, u64> }\nfn f(s: &S) -> u64 {\n    // analyzer: allow(hash-iter): order-independent sum\n    s.m.values().sum()\n}\n";
        let f = lint_str("core", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].justified());
    }

    #[test]
    fn flags_partial_cmp_but_not_its_definition() {
        assert_eq!(
            lint_str("simkernel", "let o = a.partial_cmp(&b);\n").len(),
            1
        );
        assert!(lint_str(
            "simkernel",
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_wall_clock_tokens() {
        let f = lint_str("bench", "let t0 = Instant::now();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::WallClock);
    }

    #[test]
    fn counter_decrement_without_guard_fires() {
        let src = "struct S { len: usize }\nimpl S { fn dec(&mut self) { self.len -= 1; } }\n";
        let f = lint_str("simkernel", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::CounterUnderflow);
    }

    #[test]
    fn guarded_counter_decrement_passes() {
        for guard in [
            "debug_assert!(self.len > 0, \"underflow\");",
            "if self.len == 0 { return; }",
            "assert!(self.len > 0);",
        ] {
            let src = format!(
                "struct S {{ len: usize }}\nimpl S {{ fn dec(&mut self) {{ {guard}\n self.len -= 1; }} }}\n"
            );
            assert!(lint_str("simkernel", &src).is_empty(), "guard: {guard}");
        }
    }

    #[test]
    fn indexed_counter_decrement_is_recognised() {
        let src = "struct S { pending: Vec<usize> }\nimpl S { fn dec(&mut self, w: usize) { self.pending[w] -= 1; } }\n";
        let f = lint_str("simkernel", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("pending"));
    }

    #[test]
    fn float_subtraction_is_not_a_counter() {
        let src = "fn f(total: f64) { let mut x = total; x -= 1.0; }\n";
        assert!(lint_str("simkernel", src).is_empty());
    }

    #[test]
    fn layering_use_check_fires_for_forbidden_crate() {
        let f = lint_str("storage", "use tpsim::config::SimulationConfig;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::Layering);
    }

    #[test]
    fn test_blocks_are_exempt() {
        let src = "struct S { m: IdMap<u64, u64> }\n#[cfg(test)]\nmod tests {\n    fn t(s: &S) { let h: HashMap<u64, u64> = HashMap::new(); for v in s.m.values() { go(v, h); } }\n}\n";
        assert!(lint_str("core", src).is_empty());
    }
}
