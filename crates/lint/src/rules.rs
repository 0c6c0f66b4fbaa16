//! The rule set. Every rule has an ID, a one-line summary, and a
//! token-pattern implementation; `docs/INVARIANTS.md` documents the
//! invariant each one protects, with worked examples and known limits.

use crate::scan::{Scanned, Token};
use std::collections::BTreeSet;

/// `(ID, summary)` of every enforceable rule, plus the two directive
/// meta-rules. The order here is the order of the documentation.
pub const RULES: &[(&str, &str)] = &[
    ("D001", "no iteration over HashMap/HashSet in deterministic-output crates"),
    ("D002", "no Instant::now/SystemTime outside harness/bench/telemetry"),
    ("D003", "no float sum/fold fed directly by a hash-collection iterator"),
    ("P001", "no unwrap()/expect() on lock guards in cxm-service/cxm-server"),
    ("P002", "every #[ignore] must carry a reason string"),
    ("C001", "growable collection fields in *Cache types must be annotated"),
    ("T001", "no #[doc(hidden)] outside the tests crate (tests own the oracles)"),
    ("A001", "malformed cxm-lint directive (bare allow, unknown ID, bad syntax)"),
    ("A002", "allow directive that suppresses nothing"),
];

/// The IDs an `allow(...)` may name (the meta-rules cannot be allowed).
pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|(id, _)| *id).filter(|id| !id.starts_with('A')).collect()
}

/// Crates whose output must be byte-identical across runs, schedules, and
/// warm/cold paths (ROADMAP "Invariants"): D001/D003 fire here.
const DETERMINISTIC_CRATES: &[&str] =
    &["relational", "matching", "classify", "core", "service", "server", "persist"];

/// Crates that measure wall-clock time as their purpose: D002 exempt.
const TIMING_CRATES: &[&str] = &["harness", "bench"];

/// Hash-ordered collection types D001 tracks.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that iterate a hash collection in nondeterministic order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Growable collection types C001 requires an annotation for when they are
/// direct fields of a `*Cache*` type.
const GROWABLE_TYPES: &[&str] =
    &["HashMap", "HashSet", "Vec", "VecDeque", "BTreeMap", "BTreeSet", "BinaryHeap"];

/// A rule hit before allow-filtering.
#[derive(Debug)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Run every rule over one scanned file. `crate_name` is the directory
/// under `crates/` (or `"tests"` for the workspace integration-test crate);
/// `rel_path` is workspace-relative and only used to recognize telemetry
/// modules.
pub fn check(crate_name: &str, rel_path: &str, scanned: &Scanned) -> Vec<RawFinding> {
    let toks = &scanned.tokens;
    let mut findings = Vec::new();
    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);

    let hash_names = collect_hash_names(toks);
    findings.extend(hash_iteration(toks, &hash_names, deterministic));
    if !TIMING_CRATES.contains(&crate_name) && !rel_path.contains("telemetry") {
        findings.extend(wall_clock(toks));
    }
    if matches!(crate_name, "service" | "server") {
        findings.extend(lock_unwrap(toks));
    }
    findings.extend(ignore_without_reason(toks));
    findings.extend(cache_fields(toks));
    if crate_name != "tests" {
        findings.extend(doc_hidden(toks));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Collection types whose iteration order IS deterministic; a name declared
/// with one of these *and* a hash type in the same file is ambiguous
/// (tracking is per-file and name-based), so it is dropped from tracking
/// rather than risk a false positive on the ordered one.
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "Vec", "VecDeque"];

/// Pass 1 of D001/D003: names declared in this file with a hash-collection
/// type — `name: HashMap<…>` (incl. path-qualified, `&`, `mut`) and
/// `let [mut] name = HashMap::new()/with_capacity/default/from(…)`.
fn collect_hash_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut ordered = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        let hash = HASH_TYPES.contains(&ident);
        if !hash && !ORDERED_TYPES.contains(&ident) {
            continue;
        }
        let names = if hash { &mut names } else { &mut ordered };
        // `HashMap::new()`-style initializer: walk forward over `::method`,
        // then backward over `=`, to the bound name.
        if i + 2 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks
                .get(i + 3)
                .and_then(Token::ident)
                .is_some_and(|m| matches!(m, "new" | "with_capacity" | "default" | "from"))
        {
            let mut j = i as isize - 1;
            // Skip a path prefix (`std::collections::`) written before the type.
            while j >= 1 && toks[j as usize].is_punct(':') && toks[j as usize - 1].is_punct(':') {
                j -= 2;
                if j >= 0 && toks[j as usize].ident().is_some() {
                    j -= 1;
                }
            }
            if j >= 1 && toks[j as usize].is_punct('=') {
                if let Some(name) = toks[j as usize - 1].ident() {
                    names.insert(name.to_string());
                }
            }
            continue;
        }
        // Type-annotation form: `name : [&] [path::]HashMap <`.
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        let mut j = i as isize - 1;
        // Skip the path prefix before the type name.
        while j >= 1 && toks[j as usize].is_punct(':') && toks[j as usize - 1].is_punct(':') {
            j -= 2;
            if j >= 0 && toks[j as usize].ident().is_some() {
                j -= 1;
            } else {
                break;
            }
        }
        // Skip reference/mut sigils.
        while j >= 0
            && (toks[j as usize].is_punct('&')
                || toks[j as usize].is_ident("mut")
                || toks[j as usize].is_punct('\''))
        {
            j -= 1;
        }
        if j >= 1
            && toks[j as usize].is_punct(':')
            && !toks[j as usize - 1].is_punct(':')
            && toks.get(j as usize + 1).is_none_or(|t| !t.is_punct(':'))
        {
            if let Some(name) = toks[j as usize - 1].ident() {
                names.insert(name.to_string());
            }
        }
    }
    names.difference(&ordered).cloned().collect()
}

/// Pass 2 of D001/D003: iteration over a tracked hash name — method chains
/// (`name.values()`, `recv.name.iter()`) and `for … in` whose expression
/// ends in a tracked name. When the same statement feeds the iterator into
/// `.fold(` or `.sum::<f64>()`, the finding upgrades to D003 (unordered
/// float accumulation), which fires in *every* crate.
fn hash_iteration(
    toks: &[Token],
    hash_names: &BTreeSet<String>,
    deterministic: bool,
) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Some(name) = t.ident() {
            if hash_names.contains(name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                if let Some(method) = toks.get(i + 2).and_then(Token::ident) {
                    if ITER_METHODS.contains(&method) {
                        if let Some(line) = float_accumulation_after(toks, i + 3) {
                            findings.push(RawFinding {
                                rule: "D003",
                                line,
                                message: format!(
                                    "float accumulation over hash-ordered `{name}.{method}()` — \
                                     FP addition is not associative, so the result depends on \
                                     iteration order; sort first or accumulate integers"
                                ),
                            });
                        } else if deterministic {
                            findings.push(RawFinding {
                                rule: "D001",
                                line: toks[i + 2].line,
                                message: format!(
                                    "iteration over hash-ordered `{name}.{method}()` in a \
                                     deterministic-output crate — use BTreeMap/BTreeSet or sort \
                                     before consuming"
                                ),
                            });
                        }
                    }
                }
            }
            if deterministic && name == "for" {
                // `for <pat> in <expr> {` — flag when <expr>'s last token is
                // a tracked hash name (method-call forms are caught above).
                if let Some(in_pos) =
                    toks[i..].iter().take(24).position(|t| t.is_ident("in")).map(|p| p + i)
                {
                    if let Some(brace) = toks[in_pos..]
                        .iter()
                        .take(24)
                        .position(|t| t.is_punct('{'))
                        .map(|p| p + in_pos)
                    {
                        if brace > in_pos + 1 {
                            if let Some(last) = toks[brace - 1].ident() {
                                if hash_names.contains(last) {
                                    findings.push(RawFinding {
                                        rule: "D001",
                                        line: toks[brace - 1].line,
                                        message: format!(
                                            "`for … in {last}` iterates a hash-ordered collection \
                                             in a deterministic-output crate — use \
                                             BTreeMap/BTreeSet or sort first"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    findings
}

/// Scan forward from an iteration call to the end of the statement for
/// `.fold(` or `.sum::<f64|f32>()`; returns the accumulator's line.
fn float_accumulation_after(toks: &[Token], start: usize) -> Option<u32> {
    let mut i = start;
    let mut guard = 0;
    while i < toks.len() && guard < 160 {
        let t = &toks[i];
        if t.is_punct(';') || t.is_punct('{') {
            return None;
        }
        if t.is_punct('.') {
            if toks.get(i + 1).is_some_and(|t| t.is_ident("fold"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                return Some(toks[i + 1].line);
            }
            if toks.get(i + 1).is_some_and(|t| t.is_ident("sum"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('<'))
                && toks.get(i + 5).and_then(Token::ident).is_some_and(|t| t == "f64" || t == "f32")
            {
                return Some(toks[i + 1].line);
            }
        }
        i += 1;
        guard += 1;
    }
    None
}

/// D002: wall-clock reads. `Instant::now(…)` and any `SystemTime` use make
/// output and cache decisions time-dependent; clocks belong to the harness,
/// the benches, and telemetry modules.
fn wall_clock(toks: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            findings.push(RawFinding {
                rule: "D002",
                line: t.line,
                message: "`Instant::now` outside harness/bench/telemetry — wall-clock reads \
                          make behaviour time-dependent"
                    .into(),
            });
        }
        if t.is_ident("SystemTime") {
            findings.push(RawFinding {
                rule: "D002",
                line: t.line,
                message: "`SystemTime` outside harness/bench/telemetry — wall-clock reads make \
                          behaviour time-dependent"
                    .into(),
            });
        }
    }
    findings
}

/// P001: `.lock()/.read()/.write()` followed by `.unwrap()/.expect(` — a
/// poisoned lock panics the request path. `cxm-service` and `cxm-server`
/// handle poisoning deliberately via the `lock_or_recover` helpers.
fn lock_unwrap(toks: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|m| matches!(m, "lock" | "read" | "write"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 5)
                .and_then(Token::ident)
                .is_some_and(|m| matches!(m, "unwrap" | "expect"))
            && toks.get(i + 6).is_some_and(|t| t.is_punct('('))
        {
            let guard = toks[i + 1].ident().unwrap_or_default();
            let consumer = toks[i + 5].ident().unwrap_or_default();
            findings.push(RawFinding {
                rule: "P001",
                line: toks[i + 5].line,
                message: format!(
                    "`.{guard}().{consumer}(…)` panics on a poisoned lock — use the service's \
                     `lock_or_recover`/`read_or_recover`/`write_or_recover` helpers"
                ),
            });
        }
    }
    findings
}

/// P002: `#[ignore]` without `= "reason"`. An unexplained ignored test rots
/// invisibly; the scheduled CI job runs them, and the reason says what a
/// failure means.
fn ignore_without_reason(toks: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("ignore"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(']'))
        {
            findings.push(RawFinding {
                rule: "P002",
                line: toks[i + 2].line,
                message: "`#[ignore]` without a reason — write `#[ignore = \"why\"]` so the \
                          scheduled ignored-tests job knows what a failure means"
                    .into(),
            });
        }
    }
    findings
}

/// T001: `#[doc(hidden)]` outside the `tests` crate. A hidden public item in
/// a library crate is a second implementation kept for tests or benches —
/// reference oracles belong in `cxm_tests::reference`, built from public
/// API, not in the library beside the path they check.
fn doc_hidden(toks: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("doc"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("hidden"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
        {
            findings.push(RawFinding {
                rule: "T001",
                line: toks[i + 4].line,
                message: "`#[doc(hidden)]` outside the tests crate — move the reference path \
                          into `cxm_tests::reference` (tests own the oracles) or make it public \
                          API"
                .into(),
            });
        }
    }
    findings
}

/// C001: direct growable-collection fields of a type whose name contains
/// `Cache` must carry an allow annotation stating the bound (or why none is
/// needed). Warm caches live for the process lifetime; an unbounded field
/// is a slow leak.
fn cache_fields(toks: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_ident("struct")
            && toks.get(i + 1).and_then(Token::ident).is_some_and(|n| n.contains("Cache")))
        {
            i += 1;
            continue;
        }
        let struct_name = toks[i + 1].ident().unwrap_or_default().to_string();
        // Find the body start; `;` or `(` first means unit/tuple struct.
        let mut j = i + 2;
        let body = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('{') => break Some(j),
                Some(t) if t.is_punct(';') || t.is_punct('(') => break None,
                Some(_) => j += 1,
            }
        };
        let Some(open) = body else {
            i += 2;
            continue;
        };
        let mut depth = 1usize;
        let mut k = open + 1;
        let mut at_field_start = true;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if depth == 1 {
                if t.is_punct(',') {
                    at_field_start = true;
                } else if t.is_punct('#') && toks.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                    // Skip an attribute.
                    let mut b = 1usize;
                    k += 2;
                    while k < toks.len() && b > 0 {
                        if toks[k].is_punct('[') {
                            b += 1;
                        } else if toks[k].is_punct(']') {
                            b -= 1;
                        }
                        k += 1;
                    }
                    continue;
                } else if at_field_start {
                    // `[pub [(…)]] name : TYPE` — check TYPE's head.
                    let mut f = k;
                    if toks[f].is_ident("pub") {
                        f += 1;
                        if toks.get(f).is_some_and(|t| t.is_punct('(')) {
                            while f < toks.len() && !toks[f].is_punct(')') {
                                f += 1;
                            }
                            f += 1;
                        }
                    }
                    if toks.get(f).and_then(Token::ident).is_some()
                        && toks.get(f + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(f + 2).is_some_and(|t| !t.is_punct(':'))
                    {
                        let field = toks[f].ident().unwrap_or_default().to_string();
                        if let Some((head, line)) = type_head(toks, f + 2) {
                            if GROWABLE_TYPES.contains(&head.as_str()) {
                                findings.push(RawFinding {
                                    rule: "C001",
                                    line,
                                    message: format!(
                                        "`{struct_name}.{field}` is a growable `{head}` in a \
                                         cache type — state its bound in an allow(C001) \
                                         annotation or bound it (e.g. via BoundedCache)"
                                    ),
                                });
                            }
                        }
                        k = f + 2;
                        at_field_start = false;
                        continue;
                    }
                    at_field_start = false;
                }
            }
            k += 1;
        }
        i = k;
    }
    findings
}

/// The head identifier of a field type starting at `toks[start]`, skipping
/// `&`, lifetimes, `mut`, and a leading path (`std::collections::X` → `X`).
fn type_head(toks: &[Token], start: usize) -> Option<(String, u32)> {
    let mut i = start;
    while i < toks.len()
        && (toks[i].is_punct('&') || toks[i].is_punct('\'') || toks[i].is_ident("mut"))
    {
        i += 1;
    }
    // A lifetime name directly after `'` was consumed as an ident; skip it
    // when the *next* token continues the type.
    let mut head: Option<(String, u32)> = None;
    while let Some(t) = toks.get(i) {
        match t.ident() {
            Some(ident) => {
                head = Some((ident.to_string(), t.line));
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                {
                    i += 3;
                    continue;
                }
                break;
            }
            None => break,
        }
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(crate_name: &str, src: &str) -> Vec<RawFinding> {
        check(crate_name, &format!("crates/{crate_name}/src/lib.rs"), &scan(src))
    }

    #[test]
    fn d001_tracks_declarations_and_fields() {
        let src = "struct S { distributions: HashMap<K, V> }\n\
                   fn f(other: S) { for (k, v) in other.distributions {} }\n";
        let hits = run("matching", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].rule, hits[0].line), ("D001", 2));
        assert!(run("harness", src).is_empty(), "non-deterministic crate exempt");
    }

    #[test]
    fn d001_method_chains_and_lookups() {
        let src = "fn f() { let m: std::collections::HashMap<u32, f64> = make();\n\
                   let _ = m.get(&1);\n\
                   let v: Vec<_> = m.keys().collect(); }\n";
        let hits = run("core", src);
        assert_eq!(hits.len(), 1, "lookup is fine, keys() is not: {hits:?}");
        assert_eq!((hits[0].rule, hits[0].line), ("D001", 3));
    }

    #[test]
    fn d003_upgrades_float_accumulation_everywhere() {
        let src = "fn f() { let m = HashMap::new();\n\
                   let s: f64 = m.values().map(|v| v * 2.0).sum::<f64>(); }\n";
        let hits = run("datagen", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "D003");
        let hits = run("core", src);
        assert_eq!(hits.len(), 1, "D003 replaces D001, not joins it: {hits:?}");
        assert_eq!(hits[0].rule, "D003");
    }

    #[test]
    fn d002_flags_clocks_outside_timing_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(run("core", src).len(), 1);
        assert!(run("bench", src).is_empty());
        assert!(check("classify", "crates/classify/src/telemetry.rs", &scan(src)).is_empty());
    }

    #[test]
    fn p001_catches_multiline_chains_in_serving_crates_only() {
        let src = "fn f() { let g = self.current\n.read()\n.unwrap(); }";
        let hits = run("service", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].rule, hits[0].line), ("P001", 3));
        let hits = run("server", src);
        assert_eq!(hits.len(), 1, "the front-end request path is covered too: {hits:?}");
        assert!(run("core", src).is_empty());
    }

    #[test]
    fn p002_requires_reason() {
        assert_eq!(run("harness", "#[ignore]\nfn t() {}").len(), 1);
        assert!(run("harness", "#[ignore = \"rng recalibration\"]\nfn t() {}").is_empty());
    }

    #[test]
    fn t001_flags_doc_hidden_outside_the_tests_crate() {
        let src = "#[doc(hidden)]\npub fn oracle() {}";
        assert_eq!(run("core", src).len(), 1);
        assert!(run("tests", src).is_empty());
        assert!(run("core", "#[doc = \"shown\"]\npub fn f() {}").is_empty());
    }

    #[test]
    fn c001_flags_direct_growable_cache_fields_only() {
        let src = "pub struct FooCache<K> {\n\
                   pub entries: HashMap<K, u32>,\n\
                   order: std::collections::VecDeque<K>,\n\
                   bounded: BoundedCache<K, u32>,\n\
                   memo: OnceLock<Arc<Vec<u32>>>,\n\
                   capacity: usize,\n}\n\
                   struct PlainMemo { v: Vec<u8> }\n";
        let hits = run("relational", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "C001"));
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
    }
}
