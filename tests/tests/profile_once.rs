//! The hoisting guarantee of the sharded `StandardMatch` pipeline: one
//! `match_databases` run profiles each target column exactly once, no matter
//! how many source tables score against it.
//!
//! This file intentionally holds a single test: it measures a process-wide
//! telemetry counter, so it must not share its test binary with other tests
//! that drive the matchers concurrently.

use cxm_core::{ContextMatchConfig, ContextualMatcher};
use cxm_matching::column::telemetry;
use cxm_matching::StandardMatcher;
use cxm_relational::{tuple, Attribute, Database, Table, TableSchema};
use cxm_tests::reference::{match_databases_serial, run_serial};

fn text_table(name: &str, attrs: [&str; 2], rows: Vec<[&str; 2]>) -> Table {
    Table::with_rows(
        TableSchema::new(name, attrs.iter().map(|a| Attribute::text(*a)).collect::<Vec<_>>()),
        rows.into_iter().map(|[a, b]| tuple![a, b]).collect(),
    )
    .unwrap()
}

#[test]
fn match_databases_profiles_each_target_column_exactly_once() {
    // Three source tables × two target tables, all-text columns so the q-gram
    // matcher applies to (and profiles) every column.
    let source = Database::new("RS")
        .with_table(text_table(
            "inv_a",
            ["name", "descr"],
            vec![["leaves of grass", "hardcover"], ["kind of blue", "columbia cd"]],
        ))
        .with_table(text_table(
            "inv_b",
            ["title", "note"],
            vec![["moby dick", "paperback"], ["abbey road", "apple cd"]],
        ))
        .with_table(text_table(
            "inv_c",
            ["label", "kind"],
            vec![["the historian", "hardcover"], ["x&y", "capitol cd"]],
        ));
    let target = Database::new("RT")
        .with_table(text_table(
            "book",
            ["title", "format"],
            vec![["war and peace", "paperback"], ["middlemarch", "hardcover"]],
        ))
        .with_table(text_table(
            "music",
            ["title", "label"],
            vec![["blue train", "blue note cd"], ["hotel california", "elektra cd"]],
        ));
    let source_cols = 6; // 3 tables × 2 text columns
    let target_cols = 4; // 2 tables × 2 text columns

    let matcher = StandardMatcher::with_defaults();
    let before = telemetry::qgram_profile_builds();
    let outcome = matcher.match_databases(&source, &target);
    let builds = telemetry::qgram_profile_builds() - before;
    assert_eq!(outcome.all_pairs.len(), source_cols * target_cols);
    assert_eq!(
        builds,
        source_cols + target_cols,
        "each column must be profiled exactly once per run \
         (the serial reference loop profiles each target column once per source table)"
    );

    // The serial reference path really does re-profile the targets per source
    // table — the cost the hoisted batch removes.
    let before = telemetry::qgram_profile_builds();
    let _ = match_databases_serial(&matcher, &source, &target);
    let serial_builds = telemetry::qgram_profile_builds() - before;
    assert_eq!(serial_builds, source_cols + 3 * target_cols);

    // The full contextual pipeline threads the same hoisted batch through
    // prototype matching AND candidate re-scoring: the sharded run must
    // profile exactly (source tables − 1) × target columns fewer times than
    // the serial reference, whose only difference is re-extracting the target
    // batch each iteration. (View-restricted source columns profile
    // identically on both paths, so they cancel in the delta.)
    let cm = ContextualMatcher::new(ContextMatchConfig::default());
    let before = telemetry::qgram_profile_builds();
    let sharded_result = cm.run(&source, &target).unwrap();
    let sharded_run_builds = telemetry::qgram_profile_builds() - before;
    let before = telemetry::qgram_profile_builds();
    let serial_result = run_serial(&cm, &source, &target).unwrap();
    let serial_run_builds = telemetry::qgram_profile_builds() - before;
    assert_eq!(sharded_result.selected, serial_result.selected);
    assert_eq!(serial_run_builds - sharded_run_builds, 2 * target_cols);
}
