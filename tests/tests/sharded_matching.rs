//! Equivalence and determinism of the sharded `StandardMatch` pipeline: the
//! work-stealing, hoisted-target-batch paths must produce byte-identical
//! output to the serial per-table loops of `cxm_tests::reference`, on
//! realistic multi-table scenarios — and so must a prepared target batch
//! bound to a private interner, since every pair is scored in its target's
//! id space.

use std::sync::Arc;

use cxm_core::{ContextMatchConfig, ContextualMatcher, PreparedTargets, ViewInferenceStrategy};
use cxm_datagen::{generate_multi_table_retail, generate_retail, RetailConfig};
use cxm_matching::{
    ColumnData, GramInterner, MatchList, MatcherEnsemble, MatchingConfig, StandardMatcher,
};
use cxm_relational::{tuple, AttrRef, Attribute, Database, Table, TableSchema};
use cxm_tests::reference::{match_databases_serial, run_serial};

/// The shared multi-table retail scenario at integration-test scale.
fn multi_table_retail(tables: usize, items_per_table: usize) -> (Database, Database) {
    let base =
        RetailConfig { source_items: items_per_table, target_rows: 40, ..RetailConfig::default() };
    generate_multi_table_retail(&base, tables)
}

#[test]
fn sharded_standard_match_equals_serial_on_multitable_retail() {
    let (source, target) = multi_table_retail(4, 120);
    let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.4));
    let sharded = matcher.match_databases(&source, &target);
    let serial = match_databases_serial(&matcher, &source, &target);
    assert_eq!(sharded.accepted, serial.accepted);
    assert_eq!(sharded.all_pairs, serial.all_pairs);
    // Every shard contributed, in source-table order.
    for i in 0..4 {
        assert!(
            sharded.all_pairs.iter().any(|m| m.base_table == format!("items_{i}")),
            "no pairs from shard {i}"
        );
    }
    let order: Vec<&str> = sharded.all_pairs.iter().map(|m| m.base_table.as_str()).collect();
    let mut sorted = order.clone();
    sorted.sort();
    assert_eq!(order, sorted, "merge must preserve source-table order");
}

#[test]
fn sharded_context_match_equals_serial_on_multitable_retail() {
    let (source, target) = multi_table_retail(3, 100);
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let matcher = ContextualMatcher::new(config);
    let sharded = matcher.run(&source, &target).unwrap();
    let serial = run_serial(&matcher, &source, &target).unwrap();
    assert_eq!(sharded.standard, serial.standard);
    assert_eq!(sharded.candidates, serial.candidates);
    assert_eq!(sharded.selected, serial.selected);
    assert_eq!(sharded.candidate_views.len(), serial.candidate_views.len());
    for (a, b) in sharded.candidate_views.iter().zip(&serial.candidate_views) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    assert_eq!(sharded.families.len(), serial.families.len());
}

#[test]
fn sharded_context_match_is_deterministic_across_runs() {
    let (source, target) = multi_table_retail(3, 80);
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let matcher = ContextualMatcher::new(config);
    let first = matcher.run(&source, &target).unwrap();
    for _ in 0..3 {
        let again = matcher.run(&source, &target).unwrap();
        assert_eq!(first.standard, again.standard);
        assert_eq!(first.candidates, again.candidates);
        assert_eq!(first.selected, again.selected);
    }
}

#[test]
fn single_table_source_still_works_through_the_sharded_path() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 120,
        target_rows: 40,
        ..RetailConfig::default()
    });
    let matcher = ContextualMatcher::new(ContextMatchConfig::default().with_tau(0.4));
    let sharded = matcher.run(&dataset.source, &dataset.target).unwrap();
    let serial = run_serial(&matcher, &dataset.source, &dataset.target).unwrap();
    assert_eq!(sharded.selected, serial.selected);
    assert!(!sharded.standard.is_empty());
}

/// Render each entry of a match list in full (the float `Debug` output
/// round-trips, so a last-bit difference shows) and count the entries that
/// differ.
fn differing(a: &MatchList, b: &MatchList) -> usize {
    assert_eq!(a.len(), b.len(), "match lists differ in length");
    a.iter().zip(b.iter()).filter(|(x, y)| format!("{x:?}") != format!("{y:?}")).count()
}

#[test]
fn run_prepared_against_a_private_interner_equals_run() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 200,
        ..RetailConfig::default()
    });
    let matcher = ContextualMatcher::new(ContextMatchConfig::default().with_tau(0.4));
    let expected = matcher.run(&dataset.source, &dataset.target).unwrap();

    // The target batch lives in a private id space; the source columns
    // `run_prepared` extracts start out in the global one.
    let private = Arc::new(GramInterner::new());
    let columns: Vec<ColumnData> = ColumnData::all_from_database(&dataset.target)
        .into_iter()
        .map(|c| c.with_interner(Arc::clone(&private)))
        .collect();
    let targets = PreparedTargets {
        database: &dataset.target,
        columns: &columns,
        shared_selections: None,
        index: None,
    };
    let prepared = matcher.run_prepared(&dataset.source, None, targets).unwrap();
    assert!(!expected.standard.is_empty() && !expected.candidates.is_empty());
    for (name, got, want) in [
        ("standard", &prepared.standard, &expected.standard),
        ("candidates", &prepared.candidates, &expected.candidates),
        ("selected", &prepared.selected, &expected.selected),
    ] {
        assert_eq!(differing(got, want), 0, "{name}: {} entries in all", want.len());
    }
}

/// A miniature version of the paper's Figure 1 scenario: an inventory table
/// plus a second source table, so the sharded path has more than one shard.
fn two_table_source() -> Database {
    let inv = Table::with_rows(
        TableSchema::new(
            "inv",
            vec![
                Attribute::int("id"),
                Attribute::text("name"),
                Attribute::int("type"),
                Attribute::text("code"),
                Attribute::text("descr"),
            ],
        ),
        vec![
            tuple![0, "leaves of grass", 1, "0195128", "hardcover"],
            tuple![1, "the white album", 2, "B002UAXCD1", "audio cd"],
            tuple![2, "heart of darkness", 1, "0486611", "paperback"],
            tuple![3, "wasteland", 1, "0393995", "paperback"],
            tuple![4, "hotel california", 2, "B002GVOCD9", "elektra cd"],
            tuple![5, "middlemarch", 1, "0141439", "hardcover"],
            tuple![6, "kind of blue", 2, "B000002CD3", "columbia cd"],
            tuple![7, "moby dick", 1, "0142437", "paperback"],
        ],
    )
    .unwrap();
    let media = Table::with_rows(
        TableSchema::new(
            "media",
            vec![Attribute::text("title"), Attribute::text("sku"), Attribute::text("kind")],
        ),
        vec![
            tuple!["blood on the tracks", "B000002KD7", "columbia cd"],
            tuple!["infinite jest", "0316921", "paperback"],
            tuple!["blue", "B000002KF2", "reprise cd"],
            tuple!["beloved", "1400033", "hardcover"],
        ],
    )
    .unwrap();
    Database::new("RS").with_table(inv).with_table(media)
}

fn book_and_music_target() -> Database {
    let book = Table::with_rows(
        TableSchema::new(
            "book",
            vec![
                Attribute::int("id"),
                Attribute::text("title"),
                Attribute::text("isbn"),
                Attribute::text("format"),
            ],
        ),
        vec![
            tuple![50, "the historian", "0316011770", "hardcover"],
            tuple![51, "lance armstrong's war", "0486400611", "hardcover"],
            tuple![52, "to the lighthouse", "0156907399", "paperback"],
            tuple![53, "war and peace", "1400079985", "paperback"],
        ],
    )
    .unwrap();
    let music = Table::with_rows(
        TableSchema::new(
            "music",
            vec![
                Attribute::int("id"),
                Attribute::text("title"),
                Attribute::text("asin"),
                Attribute::text("label"),
            ],
        ),
        vec![
            tuple![80, "x&y", "B0006L16CD8", "capitol cd"],
            tuple![81, "moonlight sonatas", "B0009PLMCD4", "sony cd"],
            tuple![82, "abbey road", "B0025KVLCD6", "apple cd"],
        ],
    )
    .unwrap();
    Database::new("RT").with_table(book).with_table(music)
}

#[test]
fn sharded_match_databases_equals_serial() {
    let matcher = StandardMatcher::with_defaults();
    let source = two_table_source();
    let target = book_and_music_target();
    let sharded = matcher.match_databases(&source, &target);
    let serial = match_databases_serial(&matcher, &source, &target);
    assert_eq!(sharded.accepted, serial.accepted);
    assert_eq!(sharded.all_pairs, serial.all_pairs);
    // One distribution per (source attribute, matcher), equal on both paths.
    let names = MatcherEnsemble::standard().names();
    let mut recorded = 0;
    for table in source.tables() {
        for attribute in table.schema().attributes() {
            let attr = AttrRef::new(table.name(), &attribute.name);
            for &name in &names {
                let dist = serial.distribution(&attr, name);
                assert_eq!(
                    sharded.distribution(&attr, name),
                    dist,
                    "distribution for {attr}/{name}"
                );
                recorded += usize::from(dist.is_some());
            }
        }
    }
    assert_eq!(recorded, 8 * names.len(), "every source attribute × matcher is recorded");
    // Shards from both tables contributed.
    assert!(sharded.all_pairs.iter().any(|m| m.base_table == "inv"));
    assert!(sharded.all_pairs.iter().any(|m| m.base_table == "media"));
}
