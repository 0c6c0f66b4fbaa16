//! Equivalence and determinism of the zero-copy view execution layer.
//!
//! Two properties guard the refactor of the `ScoreMatch` hot path:
//!
//! 1. **Equivalence** — for every source table of the `datagen` Retail and
//!    Grades scenarios (and a hand-built Figure 1 fixture), the
//!    selection-vector scoring path (`score_candidates`) and the
//!    materializing reference (`cxm_tests::reference::
//!    score_candidates_materializing`) produce identical candidate lists —
//!    same (view, match) order, same view names, same conditions, same
//!    scores and confidences, the same errors — and therefore identical
//!    end-to-end `ContextMatchResult`s.
//! 2. **Determinism** — `ContextualMatcher::run` parallelizes the
//!    view × match re-scoring loop; repeated runs on the same input must
//!    produce byte-identical ordered match lists.
//! 3. **The row oracle** — `RowSelection::of_condition` selects exactly the
//!    rows `cxm_tests::reference::eval` holds on, and
//!    `TableSlice::materialize` copies exactly those rows, in base order.

use cxm_core::{
    candidate_views::{flatten_views, infer_candidate_views},
    score_candidates, ContextMatchConfig, ContextualMatcher, ViewInferenceStrategy,
};
use cxm_datagen::{generate_grades, generate_retail, GradesConfig, RetailConfig};
use cxm_matching::{Match, MatchList, MatchingConfig, StandardMatcher};
use cxm_relational::{
    tuple, Attribute, Condition, Database, RowSelection, Table, TableSchema, TableSlice, ViewDef,
};
use cxm_tests::reference::{eval, score_candidates_materializing};

/// Render a match list in full so comparisons cover every field (scores and
/// confidences included, via the float Debug representation).
fn render(matches: &MatchList) -> Vec<String> {
    matches.iter().map(|m| format!("{m:?}")).collect()
}

/// Run both scoring paths over every source table of `(source, target)` and
/// assert they agree exactly.
fn assert_scoring_paths_agree(source: &Database, target: &Database, config: ContextMatchConfig) {
    let matcher = StandardMatcher::new(config.matching);
    let mut compared_views = 0usize;
    for table in source.tables() {
        let outcome = matcher.match_table(table, target);
        let prototype: MatchList = outcome.accepted.clone();
        let families = infer_candidate_views(table, &prototype, target, &config);
        let views = flatten_views(&families, &config);
        compared_views += views.len();

        let fast = score_candidates(source, target, &matcher, &outcome, table, &views, &prototype)
            .expect("zero-copy scoring succeeds");
        let reference = score_candidates_materializing(
            source, target, &matcher, &outcome, table, &views, &prototype,
        )
        .expect("materializing scoring succeeds");

        assert_eq!(render(&fast), render(&reference), "paths diverged on table {}", table.name());
    }
    assert!(compared_views > 0, "scenario produced no candidate views to compare");
}

/// Two full `ContextualMatcher::run`s must render byte-identically.
fn assert_run_deterministic(source: &Database, target: &Database, config: ContextMatchConfig) {
    let run = || {
        let result = ContextualMatcher::new(config).run(source, target).expect("run succeeds");
        let selected: Vec<Match> = result.selected.to_vec();
        let candidates: Vec<Match> = result.candidates.to_vec();
        (format!("{selected:?}"), format!("{candidates:?}"))
    };
    let first = run();
    for attempt in 0..2 {
        let again = run();
        assert_eq!(first, again, "run {attempt} diverged");
    }
}

fn retail_config() -> ContextMatchConfig {
    ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4)
}

#[test]
fn retail_scoring_paths_are_equivalent() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 80,
        target_rows: 30,
        ..RetailConfig::default()
    });
    assert_scoring_paths_agree(&dataset.source, &dataset.target, retail_config());
}

#[test]
fn grades_scoring_paths_are_equivalent() {
    let dataset = generate_grades(&GradesConfig { students: 24, ..GradesConfig::default() });
    // Grades contexts partition on the exam number; NaiveInfer proposes them
    // without needing a classifier to pass significance on the small sample.
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.2);
    assert_scoring_paths_agree(&dataset.source, &dataset.target, config);
}

#[test]
fn retail_end_to_end_runs_are_byte_identical() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 80,
        target_rows: 30,
        ..RetailConfig::default()
    });
    assert_run_deterministic(&dataset.source, &dataset.target, retail_config());
}

#[test]
fn grades_end_to_end_runs_are_byte_identical() {
    let dataset = generate_grades(&GradesConfig { students: 24, ..GradesConfig::default() });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.2);
    assert_run_deterministic(&dataset.source, &dataset.target, config);
}

#[test]
fn full_context_match_results_agree_across_paths_on_retail() {
    // End-to-end: a ContextualMatcher::run (zero-copy inside) must select the
    // same matches a manual materializing re-scoring pipeline would.
    let dataset = generate_retail(&RetailConfig {
        source_items: 80,
        target_rows: 30,
        ..RetailConfig::default()
    });
    let config = retail_config();
    let result =
        ContextualMatcher::new(config).run(&dataset.source, &dataset.target).expect("run succeeds");

    // Rebuild the candidate list through the materializing reference path.
    let matcher = StandardMatcher::new(config.matching);
    let mut reference = MatchList::new();
    for table in dataset.source.tables() {
        let outcome = matcher.match_table(table, &dataset.target);
        let prototype = outcome.accepted.clone();
        let families = infer_candidate_views(table, &prototype, &dataset.target, &config);
        let views = flatten_views(&families, &config);
        reference.extend(
            score_candidates_materializing(
                &dataset.source,
                &dataset.target,
                &matcher,
                &outcome,
                table,
                &views,
                &prototype,
            )
            .expect("materializing scoring succeeds"),
        );
    }
    assert_eq!(render(&result.candidates), render(&reference));
}

/// A small inventory whose `type` splits books (1) from CDs (2).
fn inventory_source() -> Database {
    let inv = Table::with_rows(
        TableSchema::new(
            "inv",
            vec![
                Attribute::int("id"),
                Attribute::text("name"),
                Attribute::int("type"),
                Attribute::text("descr"),
            ],
        ),
        vec![
            tuple![0, "leaves of grass", 1, "hardcover"],
            tuple![1, "the white album", 2, "audio cd"],
            tuple![2, "heart of darkness", 1, "paperback"],
            tuple![3, "wasteland", 1, "paperback"],
            tuple![4, "hotel california", 2, "elektra cd"],
            tuple![5, "kind of blue", 2, "columbia cd"],
        ],
    )
    .unwrap();
    Database::new("RS").with_table(inv)
}

fn book_and_music_target() -> Database {
    let book = Table::with_rows(
        TableSchema::new("book", vec![Attribute::text("title"), Attribute::text("format")]),
        vec![
            tuple!["the historian", "hardcover"],
            tuple!["war and peace", "paperback"],
            tuple!["middlemarch", "paperback"],
        ],
    )
    .unwrap();
    let music = Table::with_rows(
        TableSchema::new("music", vec![Attribute::text("title"), Attribute::text("label")]),
        vec![tuple!["x&y", "capitol cd"], tuple!["abbey road", "apple cd"]],
    )
    .unwrap();
    Database::new("RT").with_table(book).with_table(music)
}

#[test]
fn foreign_base_table_views_error_instead_of_panicking() {
    // A view over another table of the source database: matches on `inv`
    // reference attributes that `price` does not have. Both paths must
    // return Err, not panic (regression test for the parallel path).
    let mut source = inventory_source();
    source.replace_table(
        Table::with_rows(
            TableSchema::new("price", vec![Attribute::int("pid"), Attribute::float("amt")]),
            vec![tuple![0, 9.99], tuple![1, 4.99]],
        )
        .unwrap(),
    );
    let target = book_and_music_target();
    let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.2));
    let table = source.table("inv").unwrap();
    let outcome = matcher.match_table(table, &target);
    let views = vec![ViewDef::named_by_condition("price", Condition::eq("pid", 0))];
    let fast =
        score_candidates(&source, &target, &matcher, &outcome, table, &views, &outcome.accepted);
    let reference = score_candidates_materializing(
        &source,
        &target,
        &matcher,
        &outcome,
        table,
        &views,
        &outcome.accepted,
    );
    assert!(fast.is_err(), "zero-copy path must surface the error");
    assert!(reference.is_err(), "materializing path errors on the same input");

    // A foreign view whose selection is EMPTY is skipped before any
    // attribute validation — both paths return Ok(empty), not Err.
    let empty_views = vec![ViewDef::named_by_condition("price", Condition::eq("pid", 99))];
    let fast = score_candidates(
        &source,
        &target,
        &matcher,
        &outcome,
        table,
        &empty_views,
        &outcome.accepted,
    );
    let reference = score_candidates_materializing(
        &source,
        &target,
        &matcher,
        &outcome,
        table,
        &empty_views,
        &outcome.accepted,
    );
    assert!(matches!(&fast, Ok(c) if c.is_empty()), "{fast:?}");
    assert!(matches!(&reference, Ok(c) if c.is_empty()), "{reference:?}");
}

#[test]
fn zero_copy_path_equals_materializing_path() {
    let source = inventory_source();
    let target = book_and_music_target();
    let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.2));
    let table = source.table("inv").unwrap();
    let outcome = matcher.match_table(table, &target);
    let views = vec![
        ViewDef::named_by_condition("inv", Condition::eq("type", 1)),
        ViewDef::named_by_condition("inv", Condition::eq("type", 2)),
        ViewDef::named_by_condition("inv", Condition::is_in("type", [1, 2])),
        ViewDef::named_by_condition("inv", Condition::eq("type", 99)),
    ];
    let fast =
        score_candidates(&source, &target, &matcher, &outcome, table, &views, &outcome.accepted)
            .unwrap();
    let reference = score_candidates_materializing(
        &source,
        &target,
        &matcher,
        &outcome,
        table,
        &views,
        &outcome.accepted,
    )
    .unwrap();
    assert_eq!(fast.len(), reference.len());
    for (a, b) in fast.iter().zip(reference.iter()) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

fn inv_table() -> Table {
    let schema = TableSchema::new(
        "inv",
        vec![Attribute::int("id"), Attribute::int("type"), Attribute::text("descr")],
    );
    Table::with_rows(
        schema,
        vec![
            tuple![0, 1, "hardcover"],
            tuple![1, 2, "audio cd"],
            tuple![2, 1, "paperback"],
            tuple![3, 1, "paperback"],
            tuple![4, 2, "elektra cd"],
            tuple![5, 3, "vinyl"],
        ],
    )
    .unwrap()
}

#[test]
fn of_condition_matches_eval_semantics() {
    let t = inv_table();
    for cond in [
        Condition::True,
        Condition::eq("type", 1),
        Condition::is_in("type", [1, 3]),
        Condition::eq("type", 1).and(Condition::eq("descr", "paperback")),
        Condition::eq("type", 1).or(Condition::eq("type", 2)),
        Condition::eq("missing", 1),
        Condition::And(vec![]),
        Condition::Or(vec![]),
        Condition::And(vec![Condition::eq("missing", 1), Condition::True]),
        Condition::Or(vec![Condition::eq("missing", 1), Condition::eq("type", 3)]),
    ] {
        let sel = RowSelection::of_condition(&t, &cond);
        let expected: Vec<usize> = t
            .rows()
            .iter()
            .enumerate()
            .filter_map(|(i, row)| eval(&cond, t.schema(), row).then_some(i))
            .collect();
        assert_eq!(sel.indices(), expected.as_slice(), "condition {cond}");
    }
}

#[test]
fn materialize_equals_filter_rows() {
    let t = inv_table();
    let cond = Condition::is_in("type", [1, 2]);
    let sel = RowSelection::of_condition(&t, &cond);
    let mat = TableSlice::new(&t, &sel).materialize("V");
    // The row-filter oracle: the rows the condition holds on, in base order.
    let rows = t.rows().iter().filter(|r| eval(&cond, t.schema(), r)).cloned().collect();
    assert_eq!(mat, Table::with_rows(t.schema().with_name("V"), rows).unwrap());
}
