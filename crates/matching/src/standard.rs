//! `StandardMatch` — the black-box, instance-based schema matcher.
//!
//! The contextual machinery of `cxm-core` treats standard matching "largely as
//! a black box". The interface it needs is:
//!
//! * [`StandardMatcher::match_table`] — `StandardMatch(RS, ℛT, τ)`: prototype
//!   matches between one source table and every table of the target schema,
//!   thresholded at τ;
//! * [`StandardMatcher::match_databases`] — the same over every source table;
//! * [`StandardMatcher::rescore`] — `ScoreMatch(m′)`: re-evaluate the quality of
//!   a match when the source sample is restricted to a candidate view, reusing
//!   the per-(source attribute, matcher) score distributions captured during
//!   standard matching so that the new confidence is comparable to the old one.
//!
//! ## Sharded execution
//!
//! The per-source-table `StandardMatch` runs are independent of one another
//! (the per-attribute score distributions are keyed by the qualified source
//! attribute), so [`StandardMatcher::match_databases`] shards them across
//! cores: the target column batch is extracted and profiled **once** for the
//! whole run ([`ColumnData::all_from_database`]), every shard scores against
//! the same shared batch, and the per-table [`MatchingOutcome`]s are merged in
//! source-table order so the output is byte-identical to the serial
//! per-table loop (the tests crate keeps that loop as its reference oracle,
//! `cxm_tests::reference::match_databases_serial`).
//!
//! ## One id space per scored pair
//!
//! Every pair is scored in the **target's** interner id space:
//! [`StandardMatcher::match_table_with_targets`] extracts the source columns
//! against the target batch's interner, and any column still bound elsewhere
//! is re-interned per call by the instance matchers. The kernels are exact
//! integer arithmetic, so the interner never changes a score.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxm_relational::{AttrRef, Database, Table};
use rayon::prelude::*;

use crate::column::ColumnData;
use crate::combine::MatcherEnsemble;
use crate::confidence::ScoreDistribution;
use crate::index::{telemetry as index_telemetry, GramIndex};
use crate::match_types::{Match, MatchList};
use crate::matcher::PairHint;

/// Configuration of the standard matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingConfig {
    /// Confidence threshold τ for accepting a prototype match (§3.1; the
    /// experiments default to 0.5).
    pub tau: f64,
    /// Minimum number of sample values a source column must have for instance
    /// evidence to be considered at all (guards against empty views).
    pub min_sample: usize,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        MatchingConfig { tau: 0.5, min_sample: 1 }
    }
}

impl MatchingConfig {
    /// Create a config with the given τ and default remaining parameters.
    pub fn with_tau(tau: f64) -> Self {
        MatchingConfig { tau, ..Default::default() }
    }
}

/// The outcome of a standard matching run: accepted matches, the full score
/// matrix, and the per-(source attribute, matcher) score distributions needed
/// to re-score view-restricted samples later.
#[derive(Debug, Default)]
pub struct MatchingOutcome {
    /// Matches whose confidence reached τ — the prototype list `M`.
    pub accepted: MatchList,
    /// Every scored (source, target) pair regardless of threshold.
    pub all_pairs: MatchList,
    /// Per (source attribute, matcher name) raw-score distribution. Ordered
    /// so that merging shards and any future serialization of the calibration
    /// data are independent of hasher state (D001).
    distributions: BTreeMap<(AttrRef, &'static str), ScoreDistribution>,
}

impl MatchingOutcome {
    /// The distribution of a matcher's scores for one source attribute, if the
    /// attribute was part of this matching run.
    pub fn distribution(
        &self,
        source: &AttrRef,
        matcher: &'static str,
    ) -> Option<&ScoreDistribution> {
        self.distributions.get(&(source.clone(), matcher))
    }

    /// The accepted matches that originate from the given source table.
    pub fn accepted_from(&self, source_table: &str) -> Vec<&Match> {
        self.accepted.iter().filter(|m| m.base_table == source_table).collect()
    }

    /// The confidence of a specific (source, target) pair, if it was scored.
    pub fn confidence_of(&self, source: &AttrRef, target: &AttrRef) -> Option<f64> {
        self.all_pairs
            .iter()
            .find(|m| &m.source == source && &m.target == target)
            .map(|m| m.confidence)
    }

    /// Merge another outcome into this one (used to combine per-table shards).
    ///
    /// Score-distribution keys are `(qualified source attribute, matcher)`, so
    /// outcomes from distinct source tables are disjoint by construction.
    /// Merging two runs over the *same* table would silently overwrite the
    /// calibration data `rescore` depends on — that is a caller bug, caught
    /// here in debug builds.
    pub fn merge(&mut self, other: MatchingOutcome) {
        self.accepted.extend(other.accepted);
        self.all_pairs.extend(other.all_pairs);
        for (key, dist) in other.distributions {
            debug_assert!(
                !self.distributions.contains_key(&key),
                "MatchingOutcome::merge: duplicate score-distribution key \
                 ({}, {:?}) — merged shards must cover disjoint source tables",
                key.0,
                key.1,
            );
            self.distributions.insert(key, dist);
        }
    }
}

/// The standard schema matcher: an ensemble of matchers plus a configuration.
#[derive(Debug)]
pub struct StandardMatcher {
    ensemble: MatcherEnsemble,
    config: MatchingConfig,
}

impl StandardMatcher {
    /// Create a matcher with the standard ensemble and the given config.
    pub fn new(config: MatchingConfig) -> Self {
        StandardMatcher { ensemble: MatcherEnsemble::standard(), config }
    }

    /// Create a matcher with default configuration (τ = 0.5).
    pub fn with_defaults() -> Self {
        StandardMatcher::new(MatchingConfig::default())
    }

    /// Create a matcher with a custom ensemble.
    pub fn with_ensemble(ensemble: MatcherEnsemble, config: MatchingConfig) -> Self {
        StandardMatcher { ensemble, config }
    }

    /// The active configuration.
    pub fn config(&self) -> MatchingConfig {
        self.config
    }

    /// `StandardMatch(RS, ℛT, τ)` for a single source table: score every source
    /// attribute against every target attribute of every target table,
    /// normalize per source attribute, and accept pairs at confidence ≥ τ.
    pub fn match_table(&self, source: &Table, target: &Database) -> MatchingOutcome {
        let target_cols = ColumnData::all_from_database(target);
        self.match_table_with_targets(source, &target_cols)
    }

    /// [`StandardMatcher::match_table`] against a pre-extracted target column
    /// batch. Callers matching several source tables against the same target
    /// schema build the batch once with [`ColumnData::all_from_database`] so
    /// the target columns' memoized matcher profiles are computed exactly once
    /// for the whole run instead of once per source table. The source columns
    /// are extracted against the batch's interner, so every pair is scored in
    /// one id space.
    pub fn match_table_with_targets(
        &self,
        source: &Table,
        target_cols: &[ColumnData],
    ) -> MatchingOutcome {
        let mut source_cols = ColumnData::all_from_table(source);
        if let Some(interner) = target_cols.first().map(ColumnData::interner) {
            source_cols =
                source_cols.into_iter().map(|c| c.with_interner(Arc::clone(interner))).collect();
        }
        self.match_columns(&source_cols, target_cols)
    }

    /// `StandardMatch` over every table of the source database, sharded across
    /// cores: one task per source table, all scoring against one shared target
    /// column batch, merged in source-table order (byte-identical to the
    /// serial per-table loop).
    pub fn match_databases(&self, source: &Database, target: &Database) -> MatchingOutcome {
        let target_cols = ColumnData::all_from_database(target);
        let tables: Vec<&Table> = source.tables().collect();
        let shards: Vec<MatchingOutcome> = tables
            .par_iter()
            .with_min_len(1)
            .map(|table| self.match_table_with_targets(table, &target_cols))
            .collect();
        let mut outcome = MatchingOutcome::default();
        for shard in shards {
            outcome.merge(shard);
        }
        outcome
    }

    /// Core scoring routine over explicit column sets.
    pub fn match_columns(
        &self,
        source_cols: &[ColumnData],
        target_cols: &[ColumnData],
    ) -> MatchingOutcome {
        self.match_columns_with(source_cols, target_cols, None)
    }

    /// [`StandardMatcher::match_columns`] consulting an inverted gram index
    /// over the target batch: one TAAT scan per source column replaces the
    /// O(T) merge-joins — every pair's cosine is served straight from the
    /// scan's exact dot product, pairs proven zero skip their instance
    /// kernels entirely (see [`crate::index`] for the admissibility
    /// argument). Output is **byte-identical** to the unindexed path. An
    /// index that does not describe `target_cols`
    /// ([`GramIndex::matches_batch`]) is ignored.
    pub fn match_columns_indexed(
        &self,
        source_cols: &[ColumnData],
        target_cols: &[ColumnData],
        index: Option<&GramIndex>,
    ) -> MatchingOutcome {
        let index = index.filter(|idx| idx.matches_batch(target_cols));
        self.match_columns_with(source_cols, target_cols, index)
    }

    /// A TAAT scan forces the source column's interned artifacts, so only
    /// scan when the exact path would build them anyway: the source shares
    /// the index's interner and at least one pair is q-gram applicable
    /// (mirrors [`crate::instance::QGramMatcher::applicable`]).
    fn scannable(s: &ColumnData, target_cols: &[ColumnData], index: &GramIndex) -> bool {
        s.interner().token() == index.interner_token()
            && !s.is_empty()
            && target_cols
                .iter()
                .any(|t| !t.is_empty() && (!s.looks_numeric() || !t.looks_numeric()))
    }

    fn match_columns_with(
        &self,
        source_cols: &[ColumnData],
        target_cols: &[ColumnData],
        index: Option<&GramIndex>,
    ) -> MatchingOutcome {
        let mut outcome = MatchingOutcome::default();
        if target_cols.is_empty() {
            return outcome;
        }
        for s in source_cols {
            let scan = index.and_then(|idx| {
                Self::scannable(s, target_cols, idx).then(|| {
                    let scan = idx.scan(&s.qgram3_ids(), &s.value_ids());
                    index_telemetry::record_scan(scan.len(), scan.surviving());
                    scan
                })
            });
            // Raw score matrix for this source attribute: target-major flat
            // layout (pair `(t_idx, m_idx)` at `t_idx * m_len + m_idx`) so the
            // pair grid costs one allocation per source column, not one per
            // pair.
            let m_len = self.ensemble.len();
            let mut raw: Vec<Option<f64>> = Vec::with_capacity(m_len * target_cols.len());
            for (t_idx, t) in target_cols.iter().enumerate() {
                let hint = scan.as_ref().map(|scan| scan.hint(t_idx));
                self.ensemble.raw_scores_into(s, t, hint, &mut raw);
            }

            // Fit the per-matcher distribution over all target attributes.
            let mut dists: Vec<ScoreDistribution> = Vec::with_capacity(m_len);
            let mut scores: Vec<f64> = Vec::with_capacity(target_cols.len());
            for m_idx in 0..m_len {
                scores.clear();
                scores.extend(raw.iter().skip(m_idx).step_by(m_len).filter_map(|r| *r));
                dists.push(ScoreDistribution::from_scores(&scores));
            }
            for (m_idx, dist) in dists.iter().enumerate() {
                outcome.distributions.insert((s.attr.clone(), self.ensemble.names()[m_idx]), *dist);
            }

            // Convert to confidences and combine. Φ is the costliest
            // arithmetic of the conversion, and raw scores repeat massively
            // across the pair grid (every disjoint or index-pruned pair
            // scores exactly 0.0; name scores take one value per distinct
            // attribute name), so each matcher gets a small score → Φ memo.
            // A hit returns the identical `f64`, so output is unchanged bit
            // for bit; the cap keeps the linear probe cheaper than Φ even
            // when a matcher's scores never repeat.
            const CONF_CACHE_CAP: usize = 32;
            let mut conf_cache: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m_len];
            let mut confs: Vec<Option<f64>> = Vec::with_capacity(m_len);
            for (t_idx, t) in target_cols.iter().enumerate() {
                let row = &raw[t_idx * m_len..(t_idx + 1) * m_len];
                confs.clear();
                confs.extend(row.iter().enumerate().map(|(m_idx, r)| {
                    r.map(|score| {
                        let bits = score.to_bits();
                        let cache = &mut conf_cache[m_idx];
                        match cache.iter().find(|(b, _)| *b == bits) {
                            Some(&(_, conf)) => conf,
                            None => {
                                let conf = dists[m_idx].confidence(score);
                                if cache.len() < CONF_CACHE_CAP {
                                    cache.push((bits, conf));
                                }
                                conf
                            }
                        }
                    })
                }));
                let confidence = self.ensemble.combine(&confs);
                let score = self.ensemble.average_raw(row);
                let m = Match::standard(s.attr.clone(), t.attr.clone(), score, confidence);
                if confidence >= self.config.tau && s.len() >= self.config.min_sample {
                    outcome.accepted.push(m.clone());
                }
                outcome.all_pairs.push(m);
            }
        }
        outcome
    }

    /// `ScoreMatch(m′)`: the confidence of a match between a *restricted*
    /// source sample (a candidate view's column) and a target column, measured
    /// against the score distribution of the original, unrestricted source
    /// attribute `base_attr` captured in `outcome`.
    ///
    /// Returns `(raw_score, confidence)`. If the restricted column is empty the
    /// result is `(0, 0)` — an empty view supports nothing.
    pub fn rescore(
        &self,
        outcome: &MatchingOutcome,
        restricted: &ColumnData,
        base_attr: &AttrRef,
        target: &ColumnData,
    ) -> (f64, f64) {
        self.rescore_hinted(outcome, restricted, base_attr, target, None)
    }

    /// [`StandardMatcher::rescore`] with an optional index-provided hint
    /// (exact scan quantities) for the (restricted, target) pair; `None` (or
    /// a hint proving nothing) scores exactly. Bit-identical to `rescore` by
    /// the argument in [`crate::index`].
    pub fn rescore_hinted(
        &self,
        outcome: &MatchingOutcome,
        restricted: &ColumnData,
        base_attr: &AttrRef,
        target: &ColumnData,
        hint: Option<PairHint>,
    ) -> (f64, f64) {
        if restricted.is_empty() {
            return (0.0, 0.0);
        }
        let raw = match hint {
            Some(hint) => self.ensemble.raw_scores_hinted(restricted, target, hint),
            None => self.ensemble.raw_scores(restricted, target),
        };
        let confs: Vec<Option<f64>> = raw
            .iter()
            .enumerate()
            .map(|(m_idx, r)| {
                r.map(|score| {
                    match outcome.distribution(base_attr, self.ensemble.names()[m_idx]) {
                        Some(dist) => dist.confidence(score),
                        // No stored distribution (e.g. the matcher was never
                        // applicable during standard matching): fall back to the
                        // raw score.
                        None => score,
                    }
                })
            })
            .collect();
        (self.ensemble.average_raw(&raw), self.ensemble.combine(&confs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute, Condition, TableSchema, ViewDef};

    /// A miniature version of the paper's Figure 1 scenario.
    fn source_db() -> Database {
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
        Database::new("RS").with_table(inv)
    }

    fn target_db() -> Database {
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
    fn standard_match_finds_name_to_title() {
        let matcher = StandardMatcher::with_defaults();
        let outcome = matcher.match_databases(&source_db(), &target_db());
        assert!(!outcome.accepted.is_empty());
        // name → book.title or music.title should be among the accepted matches.
        let has_title_match = outcome
            .accepted
            .iter()
            .any(|m| m.source.attribute == "name" && m.target.attribute == "title");
        assert!(has_title_match, "accepted = {:?}", outcome.accepted);
        // Every accepted match clears the threshold.
        assert!(outcome.accepted.iter().all(|m| m.confidence >= 0.5));
        // all_pairs covers the full cross product of source × target attributes.
        assert_eq!(outcome.all_pairs.len(), 5 * 8);
    }

    #[test]
    fn lower_tau_accepts_more_matches() {
        let strict = StandardMatcher::new(MatchingConfig::with_tau(0.9));
        let lenient = StandardMatcher::new(MatchingConfig::with_tau(0.1));
        let s = strict.match_databases(&source_db(), &target_db());
        let l = lenient.match_databases(&source_db(), &target_db());
        assert!(l.accepted.len() >= s.accepted.len());
    }

    #[test]
    fn distributions_are_recorded_per_source_attribute() {
        let matcher = StandardMatcher::with_defaults();
        let outcome = matcher.match_databases(&source_db(), &target_db());
        let attr = AttrRef::new("inv", "name");
        let d = outcome.distribution(&attr, "qgram").unwrap();
        assert!(d.n > 0);
        assert!(outcome.distribution(&attr, "nonexistent").is_none());
    }

    #[test]
    fn accepted_from_filters_by_base_table() {
        let matcher = StandardMatcher::with_defaults();
        let outcome = matcher.match_databases(&source_db(), &target_db());
        assert_eq!(outcome.accepted_from("inv").len(), outcome.accepted.len());
        assert!(outcome.accepted_from("other").is_empty());
    }

    #[test]
    fn confidence_of_reports_scored_pairs() {
        let matcher = StandardMatcher::with_defaults();
        let outcome = matcher.match_databases(&source_db(), &target_db());
        let c = outcome.confidence_of(&AttrRef::new("inv", "name"), &AttrRef::new("book", "title"));
        assert!(c.is_some());
        assert!(outcome
            .confidence_of(&AttrRef::new("inv", "nope"), &AttrRef::new("book", "title"))
            .is_none());
    }

    #[test]
    fn rescoring_a_well_chosen_view_raises_confidence() {
        // Restricting inv.descr to the book subset should match book.format
        // better than the full mixed column does.
        let matcher = StandardMatcher::with_defaults();
        let source = source_db();
        let target = target_db();
        let outcome = matcher.match_databases(&source, &target);

        let base_attr = AttrRef::new("inv", "descr");
        let full_col = ColumnData::from_table(source.table("inv").unwrap(), "descr").unwrap();
        let target_col = ColumnData::from_table(target.table("book").unwrap(), "format").unwrap();
        let (_, full_conf) = matcher.rescore(&outcome, &full_col, &base_attr, &target_col);

        let view = ViewDef::select_only("inv[type=1]", "inv", Condition::eq("type", 1));
        let restricted_table = view.evaluate(&source).unwrap();
        let restricted = ColumnData::from_table(&restricted_table, "descr").unwrap();
        let (_, view_conf) = matcher.rescore(&outcome, &restricted, &base_attr, &target_col);
        assert!(
            view_conf >= full_conf,
            "restricting to books should not hurt the format match: {view_conf} vs {full_conf}"
        );

        // Conversely, restricting to CDs should not beat the book-restricted view.
        let cd_view = ViewDef::select_only("inv[type=2]", "inv", Condition::eq("type", 2));
        let cd_table = cd_view.evaluate(&source).unwrap();
        let cd_col = ColumnData::from_table(&cd_table, "descr").unwrap();
        let (_, cd_conf) = matcher.rescore(&outcome, &cd_col, &base_attr, &target_col);
        assert!(view_conf > cd_conf, "book view {view_conf} should beat cd view {cd_conf}");
    }

    #[test]
    fn rescore_empty_view_is_zero() {
        let matcher = StandardMatcher::with_defaults();
        let source = source_db();
        let target = target_db();
        let outcome = matcher.match_databases(&source, &target);
        let empty =
            ColumnData::owned(AttrRef::new("v", "descr"), cxm_relational::DataType::Text, vec![]);
        let target_col = ColumnData::from_table(target.table("book").unwrap(), "format").unwrap();
        let (s, c) = matcher.rescore(&outcome, &empty, &AttrRef::new("inv", "descr"), &target_col);
        assert_eq!((s, c), (0.0, 0.0));
    }

    /// A second source table so the sharded path has more than one shard.
    fn multi_source_db() -> Database {
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
        source_db().with_table(media)
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate score-distribution key")]
    fn merging_overlapping_outcomes_panics_in_debug() {
        let matcher = StandardMatcher::with_defaults();
        let source = source_db();
        let target = target_db();
        let mut first = matcher.match_databases(&source, &target);
        let second = matcher.match_databases(&source, &target);
        first.merge(second);
    }

    #[test]
    fn indexed_match_columns_is_byte_identical_to_unindexed() {
        let matcher = StandardMatcher::with_defaults();
        let source = multi_source_db();
        let target = target_db();
        let source_cols: Vec<ColumnData> = source
            .tables()
            .flat_map(|t| {
                t.schema()
                    .attributes()
                    .iter()
                    .map(|a| ColumnData::shared_from_table(t, &a.name).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        let target_cols: Vec<ColumnData> = target
            .tables()
            .flat_map(|t| {
                t.schema()
                    .attributes()
                    .iter()
                    .map(|a| {
                        let fp = t.column_fingerprint(&a.name).unwrap();
                        ColumnData::shared_from_table(t, &a.name).unwrap().with_fingerprint(fp)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let index = crate::index::GramIndex::build(&target_cols);
        let plain = matcher.match_columns(&source_cols, &target_cols);
        let pruned_before = crate::intern::telemetry::pruned_kernel_scores();
        let indexed = matcher.match_columns_indexed(&source_cols, &target_cols, Some(&index));
        assert!(
            crate::intern::telemetry::pruned_kernel_scores() > pruned_before,
            "the mixed isbn/title catalog must let the index prune something"
        );
        assert_eq!(format!("{:?}", plain.accepted), format!("{:?}", indexed.accepted));
        assert_eq!(format!("{:?}", plain.all_pairs), format!("{:?}", indexed.all_pairs));
        for (key, dist) in &plain.distributions {
            assert_eq!(indexed.distributions.get(key), Some(dist), "distribution for {key:?}");
        }
        assert_eq!(plain.distributions.len(), indexed.distributions.len());
        // A stale index (built over a different batch) is ignored, not trusted.
        let ignored = matcher.match_columns_indexed(&source_cols, &target_cols[..3], Some(&index));
        let exact = matcher.match_columns(&source_cols, &target_cols[..3]);
        assert_eq!(format!("{:?}", ignored.all_pairs), format!("{:?}", exact.all_pairs));
    }

    #[test]
    fn empty_target_schema_produces_no_matches() {
        let matcher = StandardMatcher::with_defaults();
        let outcome = matcher.match_databases(&source_db(), &Database::new("RT"));
        assert!(outcome.accepted.is_empty());
        assert!(outcome.all_pairs.is_empty());
    }
}
