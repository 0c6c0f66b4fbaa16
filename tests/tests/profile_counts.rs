//! Exact counts of the process-global q-gram profile build counter for the
//! per-column memoization contracts: a column profiles once however often
//! it is asked, a seeded column never profiles, and an index build profiles
//! only its non-empty columns.
//!
//! This file intentionally holds a single test: it measures a process-wide
//! telemetry counter, so it must not share its test binary with other tests
//! that build profiles concurrently. The unit tests in `cxm-matching` pin
//! the same facts through per-column state.

use std::sync::Arc;

use cxm_matching::column::telemetry::qgram_profile_builds;
use cxm_matching::{ColumnData, GramIndex};
use cxm_relational::{tuple, AttrRef, Attribute, DataType, Table, TableSchema, Value};

#[test]
fn memoized_profiles_count_exactly_one_build_each() {
    let table = Table::with_rows(
        TableSchema::new("inv", vec![Attribute::text("name")]),
        vec![tuple!["leaves of grass"], tuple!["the white album"], tuple!["heart of darkness"]],
    )
    .unwrap();

    // Two requests for the interned profile: one counted build.
    let column = ColumnData::from_table(&table, "name").unwrap();
    let before = qgram_profile_builds();
    let first = column.qgram3_ids();
    assert!(Arc::ptr_eq(&first, &column.qgram3_ids()));
    assert_eq!(qgram_profile_builds() - before, 1, "exactly one counted build");

    // A column seeded with those artifacts never builds.
    let seeded = ColumnData::from_table(&table, "name").unwrap();
    seeded.seed_artifacts(&column.harvest_artifacts());
    let before = qgram_profile_builds();
    assert!(Arc::ptr_eq(&seeded.qgram3_ids(), &first));
    assert_eq!(qgram_profile_builds(), before, "seeded column must not rebuild");

    // An index build profiles the non-empty column only.
    let empty = ColumnData::owned(AttrRef::new("e", "v"), DataType::Text, vec![]);
    let full =
        ColumnData::owned(AttrRef::new("f", "v"), DataType::Text, vec![Value::str("hardcover")]);
    let before = qgram_profile_builds();
    let index = GramIndex::build(&[empty, full]);
    assert_eq!(index.len(), 2);
    assert_eq!(qgram_profile_builds() - before, 1, "only the non-empty column is profiled");
}
