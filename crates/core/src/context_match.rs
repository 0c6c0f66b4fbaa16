//! The `ContextMatch` algorithm (Figure 5).
//!
//! ```text
//! ContextMatch(ℛS, ℛT):
//!   M ← ∅
//!   for RS ∈ ℛS:
//!     M  := StandardMatch(RS, ℛT, τ)
//!     C  := InferCandidateViews(RS, M, EarlyDisjuncts)
//!     for c ∈ C:
//!       Vc := RS where c
//!       for m ∈ M from RS:
//!         m′ := m with RS replaced by Vc
//!         RL := RL ∪ {(m′, ScoreMatch(m′))}
//!   M := SelectContextualMatches(M, RL, ω, EarlyDisjuncts)
//!   return M
//! ```
//!
//! [`ContextualMatcher::run`] performs exactly this computation and returns not
//! only the selected matches but also the intermediate artifacts (prototype
//! matches, candidate views, scored candidates), which the experiments and the
//! schema-mapping stage both need.
//!
//! ## Sharded execution
//!
//! The outer `for RS ∈ ℛS` loop is embarrassingly parallel: prototype
//! matching, view inference and candidate scoring for one source table never
//! read another table's intermediate state, and view inference is seeded per
//! call from the configuration, not from a shared RNG. [`ContextualMatcher::run`]
//! therefore extracts the target column batch once for the whole run and
//! shards the loop across cores (one task per source table, work-stealing
//! scheduler), merging the per-table artifacts in source-table order so the
//! output is byte-identical to the serial loop (kept by the tests crate as
//! its reference oracle, `cxm_tests::reference::run_serial`).
//! `SelectContextualMatches` then runs once over the merged artifacts, exactly
//! as in the serial algorithm.
//!
//! ## One id space per scored pair
//!
//! Every (source, target) pair — prototype or view-restricted — is scored in
//! the interner id space of its **target** column: source columns are
//! extracted against the target batch's interner, and restricted columns
//! adopt their target's. The kernels are exact integer arithmetic, so a
//! prepared batch bound to any interner yields the same bytes as
//! [`ContextualMatcher::run`].

use std::collections::BTreeMap;

use cxm_matching::{ColumnData, GramIndex, MatchList, StandardMatcher};
use cxm_relational::{Database, Result, Table, ViewDef, ViewFamily};
use rayon::prelude::*;

use crate::candidate_views::{flatten_views, infer_candidate_views};
use crate::config::ContextMatchConfig;
use crate::score::{score_candidates_prepared, SharedSelections};
use crate::select::select_contextual_matches;

/// A target side prepared ahead of a run — the catalog-aware entry point a
/// long-lived match service uses to hand `ContextMatch` warm artifacts
/// instead of letting it rebuild them per run.
///
/// * `database` — the target instance the run matches into.
/// * `columns` — the hoisted target column batch, in
///   [`ColumnData::all_from_database`] order over `database`. Its memoized
///   profiles persist wherever the batch lives, so a warm batch makes the run
///   skip all target-side re-profiling.
/// * `shared_selections` — optional cross-run selection cache plus the
///   source-table fingerprints that guard it; validation happens inside the
///   cache's critical sections (see [`SharedSelections`]). Through the same
///   handle a service also threads its cross-request
///   [`crate::score::RestrictedProfileCache`], so the view-restricted
///   columns derived during candidate scoring are profiled once per source
///   content instead of once per run.
#[derive(Clone, Copy)]
pub struct PreparedTargets<'a> {
    /// The target database instance.
    pub database: &'a Database,
    /// Hoisted target column batch over `database`.
    pub columns: &'a [ColumnData<'a>],
    /// Optional shared (cross-run) selection cache with its fingerprints.
    pub shared_selections: Option<SharedSelections<'a>>,
    /// Optional inverted gram index over `columns`
    /// ([`cxm_matching::GramIndex`]). When it describes the batch, prototype
    /// matching and candidate re-scoring prune proven-zero kernel
    /// evaluations; output stays byte-identical either way.
    pub index: Option<&'a GramIndex>,
}

/// Pre-extracted source columns, keyed by source table name with each
/// table's columns in schema order (the [`ColumnData::all_from_table`]
/// layout). A service that sees the same source database repeatedly caches
/// these so repeated submissions skip source-side re-profiling too.
pub type PreparedSourceColumns<'a> = BTreeMap<String, Vec<ColumnData<'a>>>;

/// The result of a `ContextMatch` run.
///
/// `Clone` is deliberate: a clone preserves every score and confidence bit
/// for bit, which is what lets [`crate::MatchResultCache`] serve memoized
/// results that are byte-identical to the run that produced them.
#[derive(Debug, Default, Clone)]
pub struct ContextMatchResult {
    /// The matches selected for presentation (`M` in the paper) — contextual
    /// matches where a view qualified, standard matches as fallback.
    pub selected: MatchList,
    /// The accepted standard (prototype) matches across all source tables.
    pub standard: MatchList,
    /// Every scored contextual candidate (`RL`).
    pub candidates: MatchList,
    /// Every candidate view that was evaluated.
    pub candidate_views: Vec<ViewDef>,
    /// The view families proposed by `InferCandidateViews`.
    pub families: Vec<ViewFamily>,
}

impl ContextMatchResult {
    /// The selected matches that are contextual (originate from views) — the
    /// edges the paper's evaluation considers.
    pub fn contextual_selected(&self) -> Vec<&cxm_matching::Match> {
        self.selected.iter().filter(|m| m.is_contextual()).collect()
    }

    /// Names of the views that back at least one selected contextual match.
    pub fn selected_views(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.contextual_selected().iter().map(|m| m.source.table.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The view definitions backing the selected contextual matches.
    pub fn selected_view_defs(&self) -> Vec<&ViewDef> {
        let names = self.selected_views();
        self.candidate_views.iter().filter(|v| names.contains(&v.name)).collect()
    }
}

/// The contextual schema matcher: configuration plus the underlying standard
/// matching system.
#[derive(Debug)]
pub struct ContextualMatcher {
    config: ContextMatchConfig,
    standard: StandardMatcher,
}

impl ContextualMatcher {
    /// Create a matcher from a configuration.
    pub fn new(config: ContextMatchConfig) -> Self {
        ContextualMatcher { standard: StandardMatcher::new(config.matching), config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ContextMatchConfig {
        &self.config
    }

    /// Access to the underlying standard matcher (the schema-mapping stage
    /// reuses it).
    pub fn standard_matcher(&self) -> &StandardMatcher {
        &self.standard
    }

    /// Run `ContextMatch(source, target)`, sharded across source tables: the
    /// target column batch is extracted (and profiled) once, each source
    /// table's lines 4–11 run as an independent parallel task, and the
    /// per-table artifacts are merged in source-table order before the final
    /// selection — byte-identical to the serial per-table loop.
    pub fn run(&self, source: &Database, target: &Database) -> Result<ContextMatchResult> {
        let target_cols = ColumnData::all_from_database(target);
        self.run_prepared(
            source,
            None,
            PreparedTargets {
                database: target,
                columns: &target_cols,
                shared_selections: None,
                index: None,
            },
        )
    }

    /// Run `ContextMatch(source, targets.database)` against a *prepared*
    /// target side (and, optionally, pre-extracted source columns) — the
    /// catalog-aware entry point. Identical to [`ContextualMatcher::run`] in
    /// every observable way, whichever interners the prepared columns are
    /// bound to (every pair is scored in its target's id space, and the
    /// kernels' results do not depend on it); the only difference is which
    /// artifacts are reused instead of rebuilt:
    ///
    /// * `targets.columns` replaces the per-run target batch extraction, so a
    ///   batch kept warm across runs is never re-profiled;
    /// * `source_columns` (when provided, per table name) replaces
    ///   per-run source column extraction for those tables;
    /// * `targets.shared_selections` (when provided) carries candidate-view
    ///   selection vectors across runs.
    pub fn run_prepared<'a>(
        &self,
        source: &Database,
        source_columns: Option<&PreparedSourceColumns<'a>>,
        targets: PreparedTargets<'a>,
    ) -> Result<ContextMatchResult> {
        let tables: Vec<&Table> = source.tables().collect();
        let shards: Vec<Result<TableShard>> = tables
            .par_iter()
            .with_min_len(1)
            .map(|table| {
                let prepared_cols = source_columns
                    .and_then(|by_table| by_table.get(table.name()))
                    .map(|cols| cols.as_slice());
                self.run_table(table, source, prepared_cols, targets)
            })
            .collect();
        // Merge the shards in source-table order, then run line 12
        // (`SelectContextualMatches`) over the combined artifacts.
        let mut result = ContextMatchResult::default();
        for shard in shards {
            let shard = shard?;
            result.standard.extend(shard.prototype);
            result.candidates.extend(shard.candidates);
            result.candidate_views.extend(shard.views);
            result.families.extend(shard.families);
        }
        result.selected =
            select_contextual_matches(&result.standard, &result.candidates, &self.config);
        Ok(result)
    }

    /// Lines 4–11 of Figure 5 for one source table — the unit of work a shard
    /// executes. Reads only shared immutable state, so shards are free to run
    /// on any thread in any order. Both prototype matching *and* candidate
    /// re-scoring draw target columns from the hoisted `target_cols` batch,
    /// so each target column is profiled exactly once per run.
    fn run_table<'a>(
        &self,
        table: &Table,
        source: &Database,
        source_cols: Option<&[ColumnData<'a>]>,
        targets: PreparedTargets<'a>,
    ) -> Result<TableShard> {
        // Line 4: prototype matches for this source table. Pre-extracted
        // source columns (a warm service artifact) carry the same values as
        // a fresh extraction, so both branches score identically.
        let outcome = match source_cols {
            Some(cols) => self.standard.match_columns_indexed(cols, targets.columns, targets.index),
            None => self.standard.match_table_with_targets(table, targets.columns),
        };
        let prototype = outcome.accepted.clone();

        // Line 5: candidate views.
        let families = infer_candidate_views(table, &prototype, targets.database, &self.config);
        let views = flatten_views(&families, &self.config);

        // Lines 6–11: score each prototype match against each candidate view.
        let candidates = score_candidates_prepared(
            source,
            targets.database,
            targets.columns,
            &self.standard,
            &outcome,
            table,
            &views,
            &prototype,
            targets.shared_selections,
            targets.index,
        )?;

        Ok(TableShard { prototype, candidates, views, families })
    }
}

/// The artifacts one source table contributes to a `ContextMatch` run.
struct TableShard {
    prototype: MatchList,
    candidates: MatchList,
    views: Vec<ViewDef>,
    families: Vec<ViewFamily>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SelectionStrategy, ViewInferenceStrategy};
    use cxm_relational::{Attribute, Table, TableSchema, Tuple, Value};

    /// Build a small but unambiguous inventory scenario: `type` splits books
    /// from CDs, `descr` and `code` are strongly type-dependent.
    fn source_db(n: usize) -> Database {
        let schema = TableSchema::new(
            "inv",
            vec![
                Attribute::int("id"),
                Attribute::text("name"),
                Attribute::int("type"),
                Attribute::text("code"),
                Attribute::text("descr"),
            ],
        );
        let book_titles =
            ["leaves of grass", "heart of darkness", "wasteland", "moby dick", "middlemarch"];
        let cd_titles =
            ["the white album", "hotel california", "kind of blue", "abbey road", "blue train"];
        let book_descr = ["hardcover", "paperback", "hardcover first edition", "paperback reprint"];
        let cd_descr = ["audio cd", "elektra records cd", "columbia cd", "remastered audio cd"];
        let mut rows = Vec::new();
        for i in 0..n {
            let is_book = i % 2 == 0;
            let title = if is_book { book_titles[i % 5] } else { cd_titles[i % 5] };
            let code = if is_book {
                format!("0{:06}", 100000 + i * 37)
            } else {
                format!("B{:03}XYZ{:03}", i % 999, (i * 7) % 999)
            };
            rows.push(Tuple::new(vec![
                Value::from(i),
                Value::str(format!("{title} volume {i}")),
                Value::from(if is_book { 1 } else { 2 }),
                Value::str(code),
                Value::str(if is_book { book_descr[i % 4] } else { cd_descr[i % 4] }),
            ]));
        }
        Database::new("RS").with_table(Table::with_rows(schema, rows).unwrap())
    }

    fn target_db() -> Database {
        let book = Table::with_rows(
            TableSchema::new(
                "book",
                vec![Attribute::text("title"), Attribute::text("isbn"), Attribute::text("format")],
            ),
            vec![
                Tuple::new(vec![
                    Value::str("the historian"),
                    Value::str("0316011770"),
                    Value::str("hardcover"),
                ]),
                Tuple::new(vec![
                    Value::str("war and peace"),
                    Value::str("1400079985"),
                    Value::str("paperback"),
                ]),
                Tuple::new(vec![
                    Value::str("to the lighthouse"),
                    Value::str("0156907399"),
                    Value::str("paperback"),
                ]),
            ],
        )
        .unwrap();
        let music = Table::with_rows(
            TableSchema::new(
                "music",
                vec![Attribute::text("title"), Attribute::text("asin"), Attribute::text("label")],
            ),
            vec![
                Tuple::new(vec![
                    Value::str("x&y"),
                    Value::str("B0006L16N8"),
                    Value::str("capitol cd"),
                ]),
                Tuple::new(vec![
                    Value::str("moonlight sonatas"),
                    Value::str("B0009PLM4Y"),
                    Value::str("sony records cd"),
                ]),
            ],
        )
        .unwrap();
        Database::new("RT").with_table(book).with_table(music)
    }

    #[test]
    fn end_to_end_finds_type_conditioned_matches() {
        let source = source_db(160);
        let target = target_db();
        let config = ContextMatchConfig::default()
            .with_inference(ViewInferenceStrategy::SrcClass)
            .with_selection(SelectionStrategy::QualTable)
            .with_early_disjuncts(false)
            .with_tau(0.4);
        let result = ContextualMatcher::new(config).run(&source, &target).unwrap();

        assert!(!result.standard.is_empty(), "standard matching should find prototypes");
        assert!(!result.candidate_views.is_empty(), "views on `type` should be proposed");
        assert!(!result.selected.is_empty());

        // The strongest selected contextual match into each target table (on
        // the content-bearing `descr` attribute) must be conditioned on the
        // correct type value. Weaker matches may carry noisy conditions on this
        // deliberately small fixture, so only the argmax is checked strictly.
        let best_for = |target_table: &str| {
            result
                .contextual_selected()
                .into_iter()
                .filter(|m| {
                    m.target.table == target_table
                        && m.source.attribute == "descr"
                        && m.condition.attributes().contains("type")
                })
                .max_by(|a, b| {
                    a.confidence.partial_cmp(&b.confidence).unwrap_or(std::cmp::Ordering::Equal)
                })
                .cloned()
        };
        if let Some(best_book) = best_for("book") {
            let values = best_book.condition.restricted_values("type").unwrap_or_default();
            assert!(
                values.contains(&Value::Int(1)) && !values.contains(&Value::Int(2)),
                "best book descr match should be conditioned on type=1: {best_book}"
            );
        }
        if let Some(best_music) = best_for("music") {
            let values = best_music.condition.restricted_values("type").unwrap_or_default();
            assert!(
                values.contains(&Value::Int(2)) && !values.contains(&Value::Int(1)),
                "best music descr match should be conditioned on type=2: {best_music}"
            );
        }
        assert!(
            !result.contextual_selected().is_empty(),
            "at least some selected matches should be contextual"
        );
        assert!(!result.selected_views().is_empty());
        assert_eq!(result.selected_view_defs().len(), result.selected_views().len());
    }

    #[test]
    fn all_inference_strategies_run_end_to_end() {
        let source = source_db(120);
        let target = target_db();
        for strategy in ViewInferenceStrategy::ALL {
            let config = ContextMatchConfig::default()
                .with_inference(strategy)
                .with_tau(0.4)
                .with_early_disjuncts(true);
            let result = ContextualMatcher::new(config).run(&source, &target).unwrap();
            assert!(!result.selected.is_empty(), "{} selected no matches at all", strategy.name());
        }
    }

    #[test]
    fn empty_source_database_is_handled() {
        let result = ContextualMatcher::new(ContextMatchConfig::default())
            .run(&Database::new("RS"), &target_db())
            .unwrap();
        assert!(result.selected.is_empty());
        assert!(result.standard.is_empty());
        assert!(result.candidates.is_empty());
    }

    #[test]
    fn high_tau_prunes_prototypes_and_thus_candidates() {
        let source = source_db(80);
        let target = target_db();
        let strict = ContextualMatcher::new(ContextMatchConfig::default().with_tau(0.99))
            .run(&source, &target)
            .unwrap();
        let lenient = ContextualMatcher::new(ContextMatchConfig::default().with_tau(0.1))
            .run(&source, &target)
            .unwrap();
        assert!(strict.standard.len() <= lenient.standard.len());
        assert!(strict.candidates.len() <= lenient.candidates.len());
    }
}
