//! Instance-based matchers over textual value profiles.
//!
//! Two matchers live here:
//!
//! * [`QGramMatcher`] — builds a 3-gram frequency profile of each column's
//!   values and scores the cosine similarity of the two profiles. This is the
//!   workhorse matcher: it recognizes that book titles look like book titles
//!   and catalogue codes look like catalogue codes, regardless of exact value
//!   overlap.
//! * [`ValueOverlapMatcher`] — Jaccard similarity of the *distinct value sets*,
//!   which captures columns that literally share values (e.g. `format` on both
//!   sides holding "hardcover"/"paperback").
//!
//! Both matchers score through the **interned flat kernels** of
//! [`crate::intern`]: sorted `u32` id vectors, merge-join inner loops, no
//! string comparison on the hot path. A pair is always scored in the
//! **target's** id space: the target artifact is interned first, and the
//! source side is resolved against it without inserting
//! ([`ColumnData::qgram3_ids_in`]) — exact for that target, since it covers
//! the target's ids. A source column bound to another
//! [`GramInterner`](crate::intern::GramInterner) is resolved in the target's
//! for that one score (not memoized). The kernels' arithmetic is exact
//! integers, so the score does not depend on which interner assigned the
//! ids, or on which source strings it lacks — interner independence is the
//! contract, pinned bit for bit by the kernel property tests against the
//! string-keyed reference kernels of the tests crate
//! (`cxm_tests::reference`).

use crate::column::ColumnData;
use crate::intern::telemetry as kernel_telemetry;
use crate::matcher::{Matcher, PairHint};

/// Cosine-similarity matcher over 3-gram frequency profiles.
#[derive(Debug, Clone, Default)]
pub struct QGramMatcher;

impl QGramMatcher {
    /// Create a matcher using 3-grams (the paper's tokenization).
    pub fn new() -> Self {
        QGramMatcher
    }
}

impl Matcher for QGramMatcher {
    fn name(&self) -> &'static str {
        "qgram"
    }

    fn score(&self, source: &ColumnData, target: &ColumnData) -> f64 {
        let target_profile = target.qgram3_ids();
        let source_profile = source.qgram3_ids_in(target.interner(), target_profile.id_bound());
        source_profile.cosine(&target_profile)
    }

    fn score_with_hint(&self, source: &ColumnData, target: &ColumnData, hint: PairHint) -> f64 {
        // Serve the score from the scan's exact TAAT dot. The dot is
        // bit-equal to the merge-join's (exact integer products and sums, so
        // neither the grouping order nor the id space matters); dividing by
        // the same norms reproduces the kernel's result bit for bit, and a
        // zero dot skips even the division, matching the kernel's early-out
        // literal `0.0`.
        let Some(dot) = hint.qgram_dot else {
            return self.score(source, target);
        };
        kernel_telemetry::record_pruned_score();
        if dot == 0.0 {
            return 0.0;
        }
        let target_profile = target.qgram3_ids();
        let source_profile = source.qgram3_ids_in(target.interner(), target_profile.id_bound());
        (dot / (source_profile.norm() * target_profile.norm())).clamp(0.0, 1.0)
    }

    fn applicable(&self, source: &ColumnData, target: &ColumnData) -> bool {
        // Purely numeric columns are better served by the numeric matcher;
        // comparing digit 3-grams of unrelated numbers produces noise.
        (!source.looks_numeric() || !target.looks_numeric())
            && !source.is_empty()
            && !target.is_empty()
    }
}

/// Jaccard similarity of distinct (case-normalized) value sets.
#[derive(Debug, Clone, Default)]
pub struct ValueOverlapMatcher;

impl ValueOverlapMatcher {
    /// Create a value-overlap matcher.
    pub fn new() -> Self {
        ValueOverlapMatcher
    }
}

impl Matcher for ValueOverlapMatcher {
    fn name(&self) -> &'static str {
        "overlap"
    }

    fn score(&self, source: &ColumnData, target: &ColumnData) -> f64 {
        let target_values = target.value_ids();
        source.value_ids_in(target.interner(), target_values.id_bound()).jaccard(&target_values)
    }

    fn score_with_hint(&self, source: &ColumnData, target: &ColumnData, hint: PairHint) -> f64 {
        // Disjoint sets make the exact kernel return 0/union == +0.0;
        // substitute the same bit pattern without walking the id vectors.
        if hint.overlap_zero {
            kernel_telemetry::record_pruned_score();
            return 0.0;
        }
        self.score(source, target)
    }

    fn applicable(&self, source: &ColumnData, target: &ColumnData) -> bool {
        !source.is_empty() && !target.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{AttrRef, DataType, Value};

    fn col(name: &str, values: Vec<&str>) -> ColumnData<'static> {
        ColumnData::owned(
            AttrRef::new("t", name),
            DataType::Text,
            values.into_iter().map(Value::str).collect(),
        )
    }

    fn num_col(name: &str, values: Vec<f64>) -> ColumnData<'static> {
        ColumnData::owned(
            AttrRef::new("t", name),
            DataType::Float,
            values.into_iter().map(Value::Float).collect(),
        )
    }

    #[test]
    fn qgram_identical_columns_score_one() {
        let m = QGramMatcher::new();
        let a = col("x", vec!["hardcover", "paperback"]);
        let b = col("y", vec!["hardcover", "paperback"]);
        assert!((m.score(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qgram_similar_beats_dissimilar() {
        let m = QGramMatcher::new();
        let titles_a = col("name", vec!["leaves of grass", "heart of darkness", "wasteland"]);
        let titles_b = col("title", vec!["the historian", "lance armstrong's war", "middlemarch"]);
        let codes = col("isbn", vec!["0316011770", "0486400611", "0393995001"]);
        let t_vs_t = m.score(&titles_a, &titles_b);
        let t_vs_c = m.score(&titles_a, &codes);
        assert!(t_vs_t > t_vs_c, "titles-vs-titles {t_vs_t} should beat titles-vs-codes {t_vs_c}");
    }

    #[test]
    fn qgram_empty_columns_score_zero() {
        let m = QGramMatcher::new();
        let a = col("x", vec![]);
        let b = col("y", vec!["something"]);
        assert_eq!(m.score(&a, &b), 0.0);
        assert!(!m.applicable(&a, &b));
    }

    #[test]
    fn qgram_not_applicable_to_numeric_pairs() {
        let m = QGramMatcher::new();
        let a = num_col("price", vec![9.99, 12.5]);
        let b = num_col("sale", vec![7.99, 10.0]);
        assert!(!m.applicable(&a, &b));
        // Mixed numeric/text pair is still applicable.
        let t = col("format", vec!["hardcover"]);
        assert!(m.applicable(&a, &t));
    }

    #[test]
    fn qgram_profile_is_normalized() {
        // The interned profile keeps raw counts plus their L2 norm, so a
        // column's cosine with itself is 1.
        let a = col("x", vec!["abc", "abd"]);
        let p = a.qgram3_ids();
        let norm = p.entries().iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
        assert_eq!(p.norm().to_bits(), norm.to_bits());
        assert!((QGramMatcher::new().score(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_counts_shared_distinct_values() {
        let m = ValueOverlapMatcher::new();
        let a = col("format", vec!["hardcover", "paperback", "paperback"]);
        let b = col("format", vec!["Hardcover", "audio cd"]);
        // distinct a = {hardcover, paperback}, b = {hardcover, audio cd}
        // intersection 1, union 3.
        assert!((m.score(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_disjoint_is_zero_identical_is_one() {
        let m = ValueOverlapMatcher::new();
        let a = col("x", vec!["a", "b"]);
        let b = col("y", vec!["c", "d"]);
        assert_eq!(m.score(&a, &b), 0.0);
        assert_eq!(m.score(&a, &a), 1.0);
        let empty = col("z", vec![]);
        assert_eq!(m.score(&a, &empty), 0.0);
        assert!(!m.applicable(&a, &empty));
    }

    #[test]
    fn mismatched_interners_score_in_the_target_id_space() {
        use crate::intern::GramInterner;
        use std::sync::Arc;
        let private = Arc::new(GramInterner::new());
        let a = col("x", vec!["hardcover", "paperback", "audio cd"]);
        let shared = col("y", vec!["hardcover", "paperback"]);
        let foreign = col("y", vec!["hardcover", "paperback"]).with_interner(Arc::clone(&private));
        let matchers: [&dyn Matcher; 2] = [&QGramMatcher, &ValueOverlapMatcher];
        for m in matchers {
            // Either side foreign: bit-equal to the shared-interner score.
            assert_eq!(m.score(&a, &foreign).to_bits(), m.score(&a, &shared).to_bits());
            assert_eq!(m.score(&foreign, &a).to_bits(), m.score(&shared, &a).to_bits());
        }
        // The source side is resolved in the target's interner for the call,
        // inserting nothing there, and never memoized into a column bound
        // to another id space.
        let fresh = col("z", vec!["hardcover first edition"]);
        let private_len = private.len();
        assert!(QGramMatcher.score(&fresh, &foreign) > 0.0);
        assert_eq!(ValueOverlapMatcher.score(&fresh, &foreign), 0.0);
        assert!(fresh.harvest_artifacts().is_empty(), "cross-interner builds are not memoized");
        assert!(private.lookup("hardcover first edition").is_none());
        assert!(private.lookup("edi").is_none(), "a gram only the source holds");
        assert_eq!(private.len(), private_len, "a source resolves without inserting");
    }

    #[test]
    fn hinted_scores_are_bit_identical_to_exact_zeros() {
        use crate::intern::telemetry;
        let qgram = QGramMatcher::new();
        let overlap = ValueOverlapMatcher::new();
        let a = col("x", vec!["hardcover", "paperback"]);
        let b = col("y", vec!["0316011770", "0486400611"]);
        // The pair shares no gram and no value: exact kernels return 0.0.
        assert_eq!(qgram.score(&a, &b).to_bits(), 0.0f64.to_bits());
        assert_eq!(overlap.score(&a, &b).to_bits(), 0.0f64.to_bits());
        let hint = PairHint { qgram_dot: Some(0.0), overlap_zero: true };
        let pruned_before = telemetry::pruned_kernel_scores();
        assert_eq!(qgram.score_with_hint(&a, &b, hint).to_bits(), 0.0f64.to_bits());
        assert_eq!(overlap.score_with_hint(&a, &b, hint).to_bits(), 0.0f64.to_bits());
        assert_eq!(telemetry::pruned_kernel_scores() - pruned_before, 2);
        // A hint that proves nothing falls through to the exact kernels.
        let c = col("z", vec!["hardcover first edition"]);
        assert_eq!(
            qgram.score_with_hint(&a, &c, PairHint::default()).to_bits(),
            qgram.score(&a, &c).to_bits()
        );
    }
}
