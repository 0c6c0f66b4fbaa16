//! Reference oracles: deliberately naive specifications of the library's
//! optimised paths, built from public API only.
//!
//! The equivalence tests pin the library byte for byte against these, and
//! the benches measure the optimised paths against them:
//!
//! * [`run_serial`] — `ContextMatch` (Figure 5) as the plain per-table loop,
//!   re-extracting (and so re-profiling) the target column batch for every
//!   source table;
//! * [`match_databases_serial`] — `StandardMatch` over every source table,
//!   one [`StandardMatcher::match_table`] call each, no sharding and no
//!   hoisted target batch;
//! * [`score_candidates_materializing`] — `ScoreMatch` over views evaluated
//!   into owned tables, every target column extracted per view × match;
//! * [`StringQGramMatcher`] / [`StringOverlapMatcher`] — the q-gram cosine
//!   and value-overlap Jaccard over string-keyed `BTreeMap` profiles and
//!   `BTreeSet` value sets, rebuilt on every call; [`string_kernel_matcher`]
//!   scores through them in place of the interned kernels;
//! * [`json_parse`] / [`json_to_bytes`] — the wire codec one character at a
//!   time: the parser validates and appends each character on its own step
//!   and checks each object key against every earlier one, and the writer
//!   pushes each character and renders each number through `to_string()`.

use std::collections::{BTreeMap, BTreeSet};

use cxm_core::candidate_views::{flatten_views, infer_candidate_views};
use cxm_core::{
    score_candidates_prepared, select_contextual_matches, ContextMatchResult, ContextualMatcher,
};
use cxm_matching::instance::{QGramMatcher, ValueOverlapMatcher};
use cxm_matching::name::NameMatcher;
use cxm_matching::numeric::NumericMatcher;
use cxm_matching::{
    ColumnData, Match, MatchList, Matcher, MatcherEnsemble, MatchingConfig, MatchingOutcome,
    StandardMatcher,
};
use cxm_relational::{Database, Result, Table, ViewDef};

mod json;
pub use json::{json_parse, json_to_bytes};

/// `ContextMatch(source, target)` as the serial per-table loop: for each
/// source table in order, extract a fresh target column batch, run lines
/// 4–11 of Figure 5 against it, and append the artifacts; then run
/// `SelectContextualMatches` once over everything.
pub fn run_serial(
    matcher: &ContextualMatcher,
    source: &Database,
    target: &Database,
) -> Result<ContextMatchResult> {
    let config = matcher.config();
    let standard = matcher.standard_matcher();
    let mut result = ContextMatchResult::default();
    for table in source.tables() {
        let target_cols = ColumnData::all_from_database(target);
        let outcome = standard.match_table_with_targets(table, &target_cols);
        let prototype = outcome.accepted.clone();
        let families = infer_candidate_views(table, &prototype, target, config);
        let views = flatten_views(&families, config);
        let candidates = score_candidates_prepared(
            source,
            target,
            &target_cols,
            standard,
            &outcome,
            table,
            &views,
            &prototype,
            None,
            None,
        )?;
        result.standard.extend(prototype);
        result.candidates.extend(candidates);
        result.candidate_views.extend(views);
        result.families.extend(families);
    }
    result.selected = select_contextual_matches(&result.standard, &result.candidates, config);
    Ok(result)
}

/// `StandardMatch` over every source table as the serial loop: one
/// [`StandardMatcher::match_table`] per table (each re-extracting the target
/// batch), merged in source-table order.
pub fn match_databases_serial(
    matcher: &StandardMatcher,
    source: &Database,
    target: &Database,
) -> MatchingOutcome {
    let mut outcome = MatchingOutcome::default();
    for table in source.tables() {
        outcome.merge(matcher.match_table(table, target));
    }
    outcome
}

/// `ScoreMatch` by materialization: every view is evaluated into an owned
/// [`Table`] (one tuple clone per selected row) and every prototype match
/// from `source_table` is rescored against a freshly extracted target
/// column. Empty views are skipped before any attribute is looked up.
pub fn score_candidates_materializing(
    source: &Database,
    target: &Database,
    matcher: &StandardMatcher,
    outcome: &MatchingOutcome,
    source_table: &Table,
    views: &[ViewDef],
    prototype: &MatchList,
) -> Result<MatchList> {
    let mut candidates = MatchList::new();
    let from_this_table: Vec<&Match> =
        prototype.iter().filter(|m| m.base_table == source_table.name()).collect();
    if from_this_table.is_empty() {
        return Ok(candidates);
    }
    for view in views {
        let view_instance = view.evaluate(source)?;
        if view_instance.is_empty() {
            continue;
        }
        for m in &from_this_table {
            let restricted = ColumnData::from_table(&view_instance, &m.source.attribute)?;
            let target_table = target.require_table(&m.target.table)?;
            let target_col = ColumnData::from_table(target_table, &m.target.attribute)?;
            let (score, confidence) = matcher.rescore(outcome, &restricted, &m.source, &target_col);
            candidates.push(m.with_context(
                view.name.clone(),
                view.condition.clone(),
                score,
                confidence,
            ));
        }
    }
    Ok(candidates)
}

/// The L2-normalized 3-gram frequency profile of a column, keyed by gram
/// string.
fn string_profile(column: &ColumnData) -> BTreeMap<String, f64> {
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for text in column.texts() {
        for gram in cxm_classify::qgrams(&text, 3) {
            *counts.entry(gram).or_insert(0.0) += 1.0;
        }
    }
    let norm = counts.values().map(|c| c * c).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in counts.values_mut() {
            *v /= norm;
        }
    }
    counts
}

/// The trimmed, ASCII-lowercased distinct values of a column.
fn string_value_set(column: &ColumnData) -> BTreeSet<String> {
    column.iter().map(|v| v.as_text().trim().to_ascii_lowercase()).collect()
}

/// The q-gram cosine over string-keyed profiles: each profile normalized
/// first, the dot product summed in gram order over the smaller one. It
/// rounds differently from [`QGramMatcher`]'s exact-integer kernel, which
/// agrees with it to within 1e-12. Never consults index hints.
#[derive(Debug, Clone, Default)]
pub struct StringQGramMatcher;

impl Matcher for StringQGramMatcher {
    fn name(&self) -> &'static str {
        QGramMatcher.name()
    }

    fn score(&self, source: &ColumnData, target: &ColumnData) -> f64 {
        let (a, b) = (string_profile(source), string_profile(target));
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let (small, large) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        small
            .iter()
            .filter_map(|(g, &w)| large.get(g).map(|&w2| w * w2))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn applicable(&self, source: &ColumnData, target: &ColumnData) -> bool {
        QGramMatcher.applicable(source, target)
    }
}

/// The value-overlap Jaccard over string-keyed `BTreeSet`s. Divides the same
/// two counts as [`ValueOverlapMatcher`], so the two agree bit for bit.
/// Never consults index hints.
#[derive(Debug, Clone, Default)]
pub struct StringOverlapMatcher;

impl Matcher for StringOverlapMatcher {
    fn name(&self) -> &'static str {
        ValueOverlapMatcher.name()
    }

    fn score(&self, source: &ColumnData, target: &ColumnData) -> f64 {
        let (a, b) = (string_value_set(source), string_value_set(target));
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        inter / union
    }

    fn applicable(&self, source: &ColumnData, target: &ColumnData) -> bool {
        ValueOverlapMatcher.applicable(source, target)
    }
}

/// [`MatcherEnsemble::standard`] with the two instance matchers replaced by
/// the string-keyed kernels — same matchers, names and weights otherwise.
fn string_kernel_ensemble() -> MatcherEnsemble {
    let mut ensemble = MatcherEnsemble::empty();
    ensemble.push(Box::new(NameMatcher::new()), 0.75);
    ensemble.push(Box::new(StringQGramMatcher), 1.0);
    ensemble.push(Box::new(StringOverlapMatcher), 0.9);
    ensemble.push(Box::new(NumericMatcher::new()), 1.0);
    ensemble
}

/// A standard matcher scoring through the string-keyed kernels (see
/// [`StringQGramMatcher`] and [`StringOverlapMatcher`]).
pub fn string_kernel_matcher(config: MatchingConfig) -> StandardMatcher {
    StandardMatcher::with_ensemble(string_kernel_ensemble(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_kernel_ensemble_mirrors_the_standard_one() {
        let (strings, standard) = (string_kernel_ensemble(), MatcherEnsemble::standard());
        assert_eq!(strings.names(), standard.names());
        for i in 0..standard.len() {
            assert_eq!(strings.weight(i).to_bits(), standard.weight(i).to_bits());
        }
    }
}
