//! Fixture coverage: every rule ID has a positive hit, an
//! allow-with-reason suppression, and a bare-allow rejection, exercised on
//! real files under `tests/fixtures/` (cargo does not compile tests/
//! subdirectories, and `lint_workspace` only walks `crates/*/src`, so the
//! deliberately-violating fixtures never reach a build or the live gate).

use cxm_lint::{lint_source, Finding, Suppression};

/// Run one fixture as if it lived in `crate_name`.
fn run(crate_name: &str, name: &str, source: &str) -> (Vec<Finding>, Vec<Suppression>) {
    lint_source(crate_name, &format!("crates/lint/tests/fixtures/{name}"), source)
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn d001_hash_iteration() {
    let (findings, suppressions) = run("core", "d001.rs", include_str!("fixtures/d001.rs"));
    // `for … in scores`, `scores.keys()`, and the bare-allow site still fire;
    // the keyed `.get` lookup does not.
    assert_eq!(count(&findings, "D001"), 3, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1, "bare allow is rejected");
    assert_eq!(findings.len(), 4);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "D001");
    assert!(suppressions[0].reason.contains("count"));
}

#[test]
fn d001_is_scoped_to_deterministic_crates() {
    let (findings, _) = run("harness", "d001.rs", include_str!("fixtures/d001.rs"));
    // The same source in a timing crate keeps only the directive findings:
    // A001 for the bare allow, A002 for the now-unused reasoned allow.
    assert_eq!(count(&findings, "D001"), 0, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(count(&findings, "A002"), 1);
}

#[test]
fn d002_wall_clock() {
    let (findings, suppressions) = run("core", "d002.rs", include_str!("fixtures/d002.rs"));
    assert_eq!(count(&findings, "D002"), 3, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(findings.len(), 4);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "D002");
}

#[test]
fn d002_exempts_timing_crates_and_telemetry_modules() {
    let (findings, _) = run("bench", "d002.rs", include_str!("fixtures/d002.rs"));
    assert_eq!(count(&findings, "D002"), 0, "{findings:#?}");
    let (findings, _) =
        lint_source("core", "crates/core/src/telemetry.rs", include_str!("fixtures/d002.rs"));
    assert_eq!(count(&findings, "D002"), 0, "{findings:#?}");
}

#[test]
fn d003_float_accumulation() {
    // Linted as `datagen`, which D001 skips: D003 fires in every crate.
    let (findings, suppressions) = run("datagen", "d003.rs", include_str!("fixtures/d003.rs"));
    assert_eq!(count(&findings, "D003"), 3, "{findings:#?}");
    assert_eq!(count(&findings, "D001"), 0, "D003 replaces D001 on the same chain");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "D003");
}

#[test]
fn p001_lock_unwrap() {
    let (findings, suppressions) = run("service", "p001.rs", include_str!("fixtures/p001.rs"));
    // The single-line unwrap, the rustfmt-split expect chain, and the
    // bare-allow site.
    assert_eq!(count(&findings, "P001"), 3, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "P001");

    let (findings, _) = run("core", "p001.rs", include_str!("fixtures/p001.rs"));
    assert_eq!(count(&findings, "P001"), 0, "P001 is service-only: {findings:#?}");
}

#[test]
fn p002_ignore_reason() {
    let (findings, suppressions) = run("tests", "p002.rs", include_str!("fixtures/p002.rs"));
    assert_eq!(count(&findings, "P002"), 2, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "P002");
}

#[test]
fn c001_cache_fields() {
    let (findings, suppressions) = run("relational", "c001.rs", include_str!("fixtures/c001.rs"));
    // ResultCache.entries and the bare-allow site; the OnceLock-wrapped
    // field and the non-Cache struct stay clean.
    assert_eq!(count(&findings, "C001"), 2, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "C001");
    assert!(suppressions[0].reason.contains("bounded"));
}

#[test]
fn t001_doc_hidden() {
    let (findings, suppressions) = run("core", "t001.rs", include_str!("fixtures/t001.rs"));
    // The hidden oracle and the bare-allow site; documented API stays clean.
    assert_eq!(count(&findings, "T001"), 2, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].rule, "T001");

    // The tests crate owns the oracles: nothing fires but the directives.
    let (findings, _) = run("tests", "t001.rs", include_str!("fixtures/t001.rs"));
    assert_eq!(count(&findings, "T001"), 0, "{findings:#?}");
    assert_eq!(count(&findings, "A001"), 1);
    assert_eq!(count(&findings, "A002"), 1);
}

#[test]
fn directive_meta_rules() {
    let (findings, suppressions) = run("core", "allow.rs", include_str!("fixtures/allow.rs"));
    assert_eq!(count(&findings, "A001"), 1, "unknown rule ID: {findings:#?}");
    assert_eq!(count(&findings, "A002"), 1, "unused allow: {findings:#?}");
    assert_eq!(findings.len(), 2);
    assert!(suppressions.is_empty());
}

#[test]
fn findings_carry_stable_spans() {
    let (findings, _) = run("core", "d001.rs", include_str!("fixtures/d001.rs"));
    for f in &findings {
        assert!(f.line > 0, "1-based lines: {f:?}");
        assert!(f.path.starts_with("crates/lint/tests/fixtures/"), "{f:?}");
        assert!(!f.message.is_empty());
    }
    // Findings are sorted by (line, rule) for deterministic reports.
    let keys: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}
