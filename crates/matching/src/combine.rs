//! The matcher ensemble and confidence combination.
//!
//! §2.3: "our base schema matching system employs a variety of matching
//! algorithms, referred to as matchers, to compute similarity scores between a
//! pair of attributes. These scores are weighted … For a particular pair of
//! attributes a and b, the confidences of all matchers are combined to compute
//! the confidence of the match."

use crate::column::ColumnData;
use crate::instance::{QGramMatcher, ValueOverlapMatcher};
use crate::matcher::{Matcher, PairHint};
use crate::name::NameMatcher;
use crate::numeric::NumericMatcher;

/// A weighted collection of matchers.
pub struct MatcherEnsemble {
    matchers: Vec<(Box<dyn Matcher>, f64)>,
}

impl MatcherEnsemble {
    /// The default ensemble: name, q-gram instance, value overlap and numeric
    /// matchers. The instance matchers carry the most weight because the
    /// paper's pipeline is explicitly instance-based.
    pub fn standard() -> Self {
        MatcherEnsemble {
            matchers: vec![
                (Box::new(NameMatcher::new()) as Box<dyn Matcher>, 0.75),
                (Box::new(QGramMatcher::new()), 1.0),
                (Box::new(ValueOverlapMatcher::new()), 0.9),
                (Box::new(NumericMatcher::new()), 1.0),
            ],
        }
    }

    /// An instance-only ensemble (no attribute-name evidence). Useful for
    /// experiments that want to isolate the data-driven behaviour.
    pub fn instance_only() -> Self {
        MatcherEnsemble {
            matchers: vec![
                (Box::new(QGramMatcher::new()) as Box<dyn Matcher>, 1.0),
                (Box::new(ValueOverlapMatcher::new()), 0.9),
                (Box::new(NumericMatcher::new()), 1.0),
            ],
        }
    }

    /// Build an empty ensemble to be populated with [`MatcherEnsemble::push`].
    pub fn empty() -> Self {
        MatcherEnsemble { matchers: Vec::new() }
    }

    /// Add a matcher with the given weight.
    pub fn push(&mut self, matcher: Box<dyn Matcher>, weight: f64) {
        self.matchers.push((matcher, weight.max(0.0)));
    }

    /// Number of matchers in the ensemble.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// True when the ensemble has no matchers.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }

    /// Names of the matchers, in ensemble order.
    pub fn names(&self) -> Vec<&'static str> {
        self.matchers.iter().map(|(m, _)| m.name()).collect()
    }

    /// Weight of the i-th matcher.
    pub fn weight(&self, idx: usize) -> f64 {
        self.matchers[idx].1
    }

    /// Raw scores of every matcher for a pair; inapplicable matchers report
    /// `None`.
    pub fn raw_scores(&self, source: &ColumnData, target: &ColumnData) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(self.matchers.len());
        self.raw_scores_into(source, target, None, &mut out);
        out
    }

    /// [`MatcherEnsemble::raw_scores`] with index-provided exact scan
    /// quantities for the pair (see [`PairHint`]). Applicability is decided
    /// exactly as in the unhinted path; kernel evaluations are only replaced
    /// by their bit-identical hint-served values, so the returned vector is
    /// bit-identical to `raw_scores` on the same pair.
    pub fn raw_scores_hinted(
        &self,
        source: &ColumnData,
        target: &ColumnData,
        hint: PairHint,
    ) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(self.matchers.len());
        self.raw_scores_into(source, target, Some(hint), &mut out);
        out
    }

    /// Append one pair's raw scores (ensemble order, `None` for inapplicable
    /// matchers) to `out` — the single implementation behind
    /// [`MatcherEnsemble::raw_scores`] / [`MatcherEnsemble::raw_scores_hinted`]
    /// and the allocation-free flat score matrix of the pair-grid hot loop.
    pub fn raw_scores_into(
        &self,
        source: &ColumnData,
        target: &ColumnData,
        hint: Option<PairHint>,
        out: &mut Vec<Option<f64>>,
    ) {
        for (m, _) in &self.matchers {
            out.push(if m.applicable(source, target) {
                let score = match hint {
                    Some(hint) => m.score_with_hint(source, target, hint),
                    None => m.score(source, target),
                };
                Some(score.clamp(0.0, 1.0))
            } else {
                None
            });
        }
    }

    /// Weighted combination of per-matcher confidences. `confidences[i]` is the
    /// i-th matcher's confidence, `None` where the matcher was inapplicable;
    /// the result is the weighted mean over applicable matchers (0 when none
    /// apply).
    pub fn combine(&self, confidences: &[Option<f64>]) -> f64 {
        debug_assert_eq!(confidences.len(), self.matchers.len());
        let mut total = 0.0;
        let mut weight_sum = 0.0;
        for (i, conf) in confidences.iter().enumerate() {
            if let Some(c) = conf {
                let w = self.matchers[i].1;
                total += w * c;
                weight_sum += w;
            }
        }
        if weight_sum == 0.0 {
            0.0
        } else {
            total / weight_sum
        }
    }

    /// Unweighted mean of the applicable raw scores (the paper's "average
    /// matcher score s_i" for a match).
    pub fn average_raw(&self, raw: &[Option<f64>]) -> f64 {
        let (mut sum, mut count) = (0.0f64, 0usize);
        for v in raw.iter().flatten() {
            sum += v;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

impl std::fmt::Debug for MatcherEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatcherEnsemble").field("matchers", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{AttrRef, DataType, Value};

    fn text_col(name: &str, values: Vec<&str>) -> ColumnData<'static> {
        ColumnData::owned(
            AttrRef::new("t", name),
            DataType::Text,
            values.into_iter().map(Value::str).collect(),
        )
    }

    #[test]
    fn standard_ensemble_has_four_matchers() {
        let e = MatcherEnsemble::standard();
        assert_eq!(e.len(), 4);
        assert_eq!(e.names(), vec!["name", "qgram", "overlap", "numeric"]);
        assert!(!e.is_empty());
        assert!(e.weight(1) > 0.0);
    }

    #[test]
    fn raw_scores_mark_inapplicable_matchers() {
        let e = MatcherEnsemble::standard();
        let a = text_col("title", vec!["heart of darkness"]);
        let b = text_col("name", vec!["the historian"]);
        let raw = e.raw_scores(&a, &b);
        assert_eq!(raw.len(), 4);
        // Numeric matcher inapplicable for text columns.
        assert!(raw[3].is_none());
        assert!(raw[1].is_some());
    }

    #[test]
    fn combine_is_weighted_mean_over_applicable() {
        let e = MatcherEnsemble::standard();
        let conf = vec![Some(1.0), Some(0.0), None, None];
        // Weighted mean of 1.0 (w=0.75) and 0.0 (w=1.0) = 0.75/1.75.
        assert!((e.combine(&conf) - 0.75 / 1.75).abs() < 1e-12);
        // All inapplicable → 0.
        assert_eq!(e.combine(&[None; 4]), 0.0);
    }

    #[test]
    fn average_raw_ignores_none() {
        let e = MatcherEnsemble::standard();
        assert!((e.average_raw(&[Some(0.2), None, Some(0.6), None]) - 0.4).abs() < 1e-12);
        assert_eq!(e.average_raw(&[None, None, None, None]), 0.0);
    }

    #[test]
    fn custom_ensemble_construction() {
        let mut e = MatcherEnsemble::empty();
        assert!(e.is_empty());
        e.push(Box::new(NameMatcher::new()), 1.0);
        e.push(Box::new(QGramMatcher::new()), -3.0); // negative weights clamp to 0
        assert_eq!(e.len(), 2);
        assert_eq!(e.weight(1), 0.0);
        let instance = MatcherEnsemble::instance_only();
        assert!(!instance.names().contains(&"name"));
    }
}
