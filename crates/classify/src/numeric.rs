//! Per-class Gaussian classifier for numeric attributes.
//!
//! §3.2.3: "If h is a numeric attribute, a statistical classifier is used
//! instead." Each class keeps the running mean and variance of the numeric
//! values taught for it; classification picks the class with the highest
//! Gaussian log-likelihood (plus a log prior). A small variance floor keeps
//! constant-valued classes from producing infinities.

use std::collections::BTreeMap;

use cxm_stats::Moments;

use crate::classifier::Classifier;

/// A Gaussian (one-dimensional) per-class classifier.
#[derive(Debug, Clone, Default)]
pub struct GaussianClassifier {
    classes: BTreeMap<String, Moments>,
    total: usize,
}

/// Variance floor to avoid division by zero for constant-valued classes.
const MIN_VARIANCE: f64 = 1e-6;

/// The number a document spells, if it reads as a **finite** `f64`: text
/// spelling `nan`, `inf` or `infinity` (any case, either sign) is not a
/// number here, as it is not to the matchers (`ColumnData::numbers`).
pub(crate) fn finite_number(document: &str) -> Option<f64> {
    document.trim().parse::<f64>().ok().filter(|x| x.is_finite())
}

impl GaussianClassifier {
    /// Create an untrained classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Teach one numeric example.
    pub fn teach_value(&mut self, value: f64, label: &str) {
        crate::telemetry::record_work(1);
        self.classes.entry(label.to_string()).or_default().push(value);
        self.total += 1;
    }

    /// Classify a numeric value.
    pub fn classify_value(&self, value: f64) -> Option<String> {
        self.scores_value(value).into_iter().next().map(|(l, _)| l)
    }

    /// Log-likelihood scores (including log prior) for each class, sorted
    /// descending. Empty when untrained.
    pub fn scores_value(&self, value: f64) -> Vec<(String, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        crate::telemetry::record_work(self.classes.len());
        let mut out: Vec<(String, f64)> = self
            .classes
            .iter()
            .map(|(label, m)| {
                let mean = m.mean();
                let var = m.population_variance().max(MIN_VARIANCE);
                let prior = (m.count() as f64 / self.total as f64).ln();
                let ll = -0.5
                    * ((value - mean).powi(2) / var + var.ln() + (2.0 * std::f64::consts::PI).ln());
                (label.clone(), prior + ll)
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    /// Mean of the values taught for one label (for inspection/tests).
    pub fn class_mean(&self, label: &str) -> Option<f64> {
        self.classes.get(label).map(|m| m.mean())
    }
}

impl Classifier for GaussianClassifier {
    fn teach(&mut self, document: &str, label: &str) {
        if let Some(x) = finite_number(document) {
            self.teach_value(x, label);
        }
    }

    fn classify(&self, document: &str) -> Option<String> {
        finite_number(document).and_then(|x| self.classify_value(x))
    }

    fn trained_examples(&self) -> usize {
        self.total
    }

    fn labels(&self) -> Vec<String> {
        self.classes.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> GaussianClassifier {
        let mut g = GaussianClassifier::new();
        // Book prices around 15, CD prices around 100 (exaggerated separation).
        for x in [14.0, 15.0, 16.0, 15.5, 14.5] {
            g.teach_value(x, "book");
        }
        for x in [95.0, 100.0, 105.0, 98.0, 102.0] {
            g.teach_value(x, "cd");
        }
        g
    }

    #[test]
    fn separable_classes_classify_correctly() {
        let g = trained();
        assert_eq!(g.classify_value(15.2).as_deref(), Some("book"));
        assert_eq!(g.classify_value(99.0).as_deref(), Some("cd"));
        assert_eq!(g.classify_value(0.0).as_deref(), Some("book"));
        assert_eq!(g.classify_value(1000.0).as_deref(), Some("cd"));
    }

    #[test]
    fn untrained_returns_none() {
        let g = GaussianClassifier::new();
        assert_eq!(g.classify_value(1.0), None);
        assert!(g.scores_value(1.0).is_empty());
        assert_eq!(g.trained_examples(), 0);
    }

    #[test]
    fn string_interface_parses_numbers() {
        let mut g = GaussianClassifier::new();
        g.teach("10", "low");
        g.teach("11", "low");
        g.teach("90", "high");
        g.teach("95", "high");
        assert_eq!(g.classify("10.5").as_deref(), Some("low"));
        assert_eq!(g.classify("92").as_deref(), Some("high"));
        // Non-numeric strings are ignored when teaching and unanswerable when classifying.
        g.teach("not a number", "junk");
        assert_eq!(g.trained_examples(), 4);
        assert_eq!(g.classify("not a number"), None);
    }

    #[test]
    fn text_spelling_a_non_finite_number_is_not_a_number() {
        let mut g = GaussianClassifier::new();
        g.teach("1", "a");
        for spelled in ["inf", "-Infinity", "NaN", " +INF "] {
            g.teach(spelled, "a");
        }
        assert_eq!(g.trained_examples(), 1, "only `1` is taught");
        assert_eq!(g.class_mean("a"), Some(1.0));
        g.teach("3", "b");
        for spelled in ["nan", "inf", "-inf", "infinity"] {
            assert_eq!(g.classify(spelled), None, "{spelled} is not classified");
        }
        assert_eq!(g.classify("1.2").as_deref(), Some("a"));
    }

    #[test]
    fn constant_valued_class_does_not_blow_up() {
        let mut g = GaussianClassifier::new();
        for _ in 0..5 {
            g.teach_value(7.0, "seven");
        }
        for x in [100.0, 101.0, 99.0] {
            g.teach_value(x, "hundred");
        }
        assert_eq!(g.classify_value(7.0).as_deref(), Some("seven"));
        assert_eq!(g.classify_value(100.0).as_deref(), Some("hundred"));
    }

    #[test]
    fn prior_breaks_ties_for_distant_values() {
        let mut g = GaussianClassifier::new();
        // Identical spread and symmetric means around the query, but class "a"
        // has twice the examples, so its prior wins the tie.
        for x in [1.0, 2.0, 3.0, 1.0, 2.0, 3.0] {
            g.teach_value(x, "a");
        }
        for x in [7.0, 8.0, 9.0] {
            g.teach_value(x, "b");
        }
        assert_eq!(g.classify_value(5.0).as_deref(), Some("a"));
    }

    #[test]
    fn class_means_are_tracked() {
        let g = trained();
        assert!((g.class_mean("book").unwrap() - 15.0).abs() < 0.5);
        assert!((g.class_mean("cd").unwrap() - 100.0).abs() < 1.0);
        assert!(g.class_mean("dvd").is_none());
    }

    #[test]
    fn labels_are_sorted() {
        let g = trained();
        assert_eq!(g.labels(), vec!["book".to_string(), "cd".to_string()]);
    }
}
