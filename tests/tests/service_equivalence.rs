//! The match service's warm path must be *byte-identical* to a cold one-shot
//! `ContextualMatcher::run`, and its warm-artifact reuse must be exactly as
//! advertised at **column granularity**: zero q-gram profile rebuilds on a
//! warm second request, exactly one column's profile rebuilt after replacing
//! one column of a multi-column target table (zero for its siblings), and a
//! repeat submission of an unchanged source against an unchanged catalog
//! served from the whole-match result cache with zero classifier work.
//!
//! This file intentionally holds a **single test**: it differences the
//! process-wide `cxm_matching::column::telemetry` counter, so it must not
//! share its test binary with other tests that drive the matchers
//! concurrently (same isolation rule as `profile_once.rs`).

use cxm_core::{ContextMatchConfig, ContextualMatcher, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_matching::column::telemetry;
use cxm_relational::{tuple, Attribute, Database, Table, TableSchema};
use cxm_service::{MatchService, ServiceConfig};

#[test]
fn service_lifecycle_reuses_and_invalidates_warm_artifacts() {
    retail_byte_identical_equivalence();
    exact_profile_accounting();
}

/// The realistic scenario: candidate views, contextual matches, multiple
/// requests. Pins result equality against the one-shot matcher and the
/// selection-cache warm-up across requests. Whole-match result memoization
/// is disabled here so repeats really exercise the warm *artifact* path —
/// the result-cache path is pinned in [`exact_profile_accounting`].
fn retail_byte_identical_equivalence() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 120,
        target_rows: 40,
        ..RetailConfig::default()
    });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);

    let before = telemetry::qgram_profile_builds();
    let cold = ContextualMatcher::new(config).run(&dataset.source, &dataset.target).unwrap();
    let cold_builds = telemetry::qgram_profile_builds() - before;

    let service = MatchService::with_config(ServiceConfig {
        context: config,
        match_result_entries: 0,
        ..ServiceConfig::default()
    });
    service.register_target(&dataset.target);
    let first = service.submit(&dataset.source).unwrap();
    let second = service.submit(&dataset.source).unwrap();
    let third = service.submit(&dataset.source).unwrap();

    // Byte-identical results on every request, warm or cold.
    for (label, response) in [("first", &first), ("second", &second), ("third", &third)] {
        assert_eq!(response.result.selected, cold.selected, "{label} selected");
        assert_eq!(response.result.standard, cold.standard, "{label} standard");
        assert_eq!(response.result.candidates, cold.candidates, "{label} candidates");
        assert_eq!(
            response.result.candidate_views.len(),
            cold.candidate_views.len(),
            "{label} views"
        );
        for (a, b) in response.result.candidate_views.iter().zip(&cold.candidate_views) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label} view def");
        }
        assert!(!response.telemetry.result_cache_hit, "result memoization is off");
    }

    // The scenario must really exercise view-restricted columns, or the
    // zero-build assertion below would be vacuous.
    assert!(!cold.candidate_views.is_empty(), "retail fixture must infer candidate views");

    // A cold submit costs what a cold run costs; a warm repeat builds
    // **zero** q-gram profiles — source and target base columns come from
    // the warm batches, and every view-restricted column is served from the
    // column-fingerprint-keyed cross-request restricted-profile cache.
    assert_eq!(first.telemetry.qgram_profile_builds, cold_builds);
    assert!(first.telemetry.restricted_profile_misses > 0, "cold submit seeds the cache");
    assert_eq!(first.telemetry.restricted_profile_hits, 0);
    assert_eq!(
        second.telemetry.qgram_profile_builds, 0,
        "a warm repeat must build no q-gram profile at all, restricted columns included",
    );
    assert!(second.telemetry.restricted_profile_hits > 0);
    assert_eq!(
        second.telemetry.restricted_profile_misses, 0,
        "every restricted column of a warm repeat is cache-served",
    );
    assert_eq!(second.telemetry, third.telemetry, "warm requests are steady-state");
    assert!(second.telemetry.source_cache_hit);

    // The shared selection cache warms across requests: the first request
    // scans every condition atom, later identical requests scan none.
    assert!(first.telemetry.selection_cache_misses > 0);
    assert_eq!(second.telemetry.selection_cache_misses, 0);
    assert!(second.telemetry.selection_cache_hits > 0);
}

/// A hand-built all-text scenario with no categorical source attributes —
/// so no candidate views, and therefore no per-request view-restricted
/// columns. Every q-gram profile build is a base-column build, which makes
/// the accounting exact:
///
/// * repeat of an unchanged source against an unchanged catalog: a
///   whole-match result-cache hit — zero classifier work units, zero
///   builds, byte-identical outcome;
/// * after replacing **one column** of a 2-column target table: exactly 1
///   build (zero for the sibling column) and exactly that column's postings
///   re-posted in the next index, then a result-cache hit again;
/// * after replacing the whole table: exactly 2 builds.
fn exact_profile_accounting() {
    fn text_table(name: &str, attrs: [&str; 2], rows: Vec<[&str; 2]>) -> Table {
        Table::with_rows(
            TableSchema::new(name, attrs.iter().map(|a| Attribute::text(*a)).collect::<Vec<_>>()),
            rows.into_iter().map(|[a, b]| tuple![a, b]).collect(),
        )
        .unwrap()
    }
    // All values distinct → no categorical attributes → no candidate views.
    let source = Database::new("RS").with_table(text_table(
        "inv",
        ["name", "descr"],
        vec![
            ["leaves of grass", "first edition hardcover"],
            ["kind of blue", "columbia records pressing"],
            ["moby dick", "illustrated paperback"],
            ["abbey road", "apple records lp"],
        ],
    ));
    let target = Database::new("RT")
        .with_table(text_table(
            "book",
            ["title", "binding"],
            vec![["war and peace", "clothbound"], ["middlemarch", "trade paperback"]],
        ))
        .with_table(text_table(
            "music",
            ["title", "press"],
            vec![["blue train", "blue note mono"], ["hotel california", "asylum stereo"]],
        ));
    let source_cols = 2; // 1 table × 2 text columns
    let target_cols = 4; // 2 tables × 2 text columns

    let config = ContextMatchConfig::default();
    let before = telemetry::qgram_profile_builds();
    let cold = ContextualMatcher::new(config).run(&source, &target).unwrap();
    let cold_builds = telemetry::qgram_profile_builds() - before;
    assert!(cold.candidate_views.is_empty(), "scenario must infer no views");
    assert_eq!(cold_builds, source_cols + target_cols, "every build is a base-column build");

    // Result memoization at its default (enabled) setting.
    let service = MatchService::new(config);
    service.register_target(&target);
    let first = service.submit(&source).unwrap();
    assert_eq!(first.result.selected, cold.selected);
    assert!(!first.telemetry.result_cache_hit);
    assert_eq!(first.telemetry.qgram_profile_builds, source_cols + target_cols);

    // Repeat of an unchanged source against an unchanged catalog: served
    // from the whole-match result cache. Zero classifier work, zero builds,
    // byte-identical to both the first response and the cold run.
    let work_before = cxm_classify::telemetry::work_units();
    let second = service.submit(&source).unwrap();
    assert!(second.telemetry.result_cache_hit, "unchanged repeat must be a result-cache hit");
    assert_eq!(
        cxm_classify::telemetry::work_units(),
        work_before,
        "a result-cache hit does zero classifier work units"
    );
    assert_eq!(second.telemetry.qgram_profile_builds, 0);
    assert_eq!(second.telemetry.classifier_work_units, 0);
    assert_eq!(second.result.selected, cold.selected, "hit is byte-identical to the cold run");
    assert_eq!(second.result.standard, cold.standard);
    assert_eq!(second.result.candidates, cold.candidates);

    // Replace ONE COLUMN of the music table (same title values, new press
    // values): the catalog rebuilds exactly that column, and the next
    // submit re-profiles exactly that column — zero builds for its sibling
    // (and zero for every other table).
    let music_one_column = text_table(
        "music",
        ["title", "press"],
        vec![["blue train", "impulse stereo"], ["hotel california", "reprise pressing"]],
    );
    let mut target2 = target.clone();
    target2.replace_table(music_one_column.clone());
    let update = service.replace_table(music_one_column).unwrap();
    assert_eq!((update.reused, update.rebuilt, update.dropped), (1, 1, 0));
    assert_eq!(
        (update.columns_reused, update.columns_rebuilt),
        (3, 1),
        "book's 2 columns + music.title carried forward; only music.press rebuilt"
    );
    assert_eq!(
        (update.postings_reused, update.postings_rebuilt),
        (3, 1),
        "a one-column edit re-posts exactly that column's postings"
    );

    let after_column = service.submit(&source).unwrap();
    assert!(!after_column.telemetry.result_cache_hit, "new catalog version re-keys");
    assert!(after_column.telemetry.index_built, "a new snapshot re-derives the index");
    assert!(
        after_column.telemetry.index_postings_reused > 0,
        "the unchanged columns' posting lists are carried into the new index"
    );
    assert_eq!(
        after_column.telemetry.qgram_profile_builds, 1,
        "exactly the replaced column is re-profiled, zero for siblings"
    );
    assert_eq!(after_column.telemetry.catalog_version, 2);
    let cold2 = ContextualMatcher::new(config).run(&source, &target2).unwrap();
    assert_eq!(after_column.result.selected, cold2.selected);
    assert_eq!(after_column.result.standard, cold2.standard);
    assert_eq!(after_column.result.candidates, cold2.candidates);
    // The new (source, v2) result is memoized in turn.
    assert!(service.submit(&source).unwrap().telemetry.result_cache_hit);

    // Replace the whole music table (both columns changed): exactly 2
    // builds, and results match a fresh cold run.
    let music_full = text_table(
        "music",
        ["title", "press"],
        vec![["a love supreme", "impulse mono"], ["harvest", "warner pressing"]],
    );
    let mut target3 = target2.clone();
    target3.replace_table(music_full.clone());
    let update = service.replace_table(music_full).unwrap();
    assert_eq!((update.columns_reused, update.columns_rebuilt), (2, 2));

    let after_table = service.submit(&source).unwrap();
    assert_eq!(
        after_table.telemetry.qgram_profile_builds, 2,
        "only the replaced table's 2 columns may be re-profiled"
    );
    let cold3 = ContextualMatcher::new(config).run(&source, &target3).unwrap();
    assert_eq!(after_table.result.selected, cold3.selected);
    assert_eq!(after_table.result.candidates, cold3.candidates);

    // Dropping the other table invalidates without rebuilding anything.
    let update = service.drop_table("book").unwrap();
    assert_eq!((update.reused, update.rebuilt, update.dropped), (1, 0, 1));
    let shrunk = service.submit(&source).unwrap();
    assert_eq!(shrunk.telemetry.qgram_profile_builds, 0, "surviving table stays warm");
    let mut target4 = target3.clone();
    target4.remove_table("book");
    let cold4 = ContextualMatcher::new(config).run(&source, &target4).unwrap();
    assert_eq!(shrunk.result.selected, cold4.selected);
    assert_eq!(shrunk.result.standard, cold4.standard);
}
