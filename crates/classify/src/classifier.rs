//! The common classifier interface and a type-dispatching wrapper.
//!
//! Everything the paper calls a classifier — the per-attribute `C_h` of
//! `ClusteredViewGen`, the per-domain target classifiers `C_D^T` of
//! `TgtClassInfer`, and the naive null model `C_Naive` — fits one interface:
//! teach it (document, label) pairs, then ask it to classify unseen documents.
//!
//! Documents here are attribute *values* rendered as text; labels are strings
//! (categorical attribute values, or qualified target column names).

use crate::naive_bayes::NaiveBayesClassifier;
use crate::numeric::{finite_number, GaussianClassifier};

/// A trainable single-label classifier over textual documents.
pub trait Classifier {
    /// Teach one (document, label) example.
    fn teach(&mut self, document: &str, label: &str);

    /// Classify a document, returning the most probable label, or `None` if the
    /// classifier has seen no training data.
    fn classify(&self, document: &str) -> Option<String>;

    /// Number of training examples seen.
    fn trained_examples(&self) -> usize;

    /// The set of labels seen during training, sorted.
    fn labels(&self) -> Vec<String>;
}

/// A classifier over attribute values that dispatches between a numeric
/// (Gaussian) model and a textual (Naive Bayes over 3-grams) model.
///
/// §3.2.3: *"If h is a text attribute, a standard Naive Bayesian classifier is
/// used, with the values tokenized into 3-grams. If h is a numeric attribute, a
/// statistical classifier is used instead."* The caller states up front whether
/// the attribute is numeric; values that fail to parse as numbers in numeric
/// mode fall back to the text model so dirty data degrades gracefully instead
/// of being dropped.
#[derive(Debug, Clone)]
pub struct ValueClassifier {
    numeric_mode: bool,
    text: NaiveBayesClassifier,
    numeric: GaussianClassifier,
}

impl ValueClassifier {
    /// Create a classifier for a textual attribute.
    pub fn text() -> Self {
        ValueClassifier {
            numeric_mode: false,
            text: NaiveBayesClassifier::new(),
            numeric: GaussianClassifier::new(),
        }
    }

    /// Create a classifier for a numeric attribute.
    pub fn numeric() -> Self {
        ValueClassifier { numeric_mode: true, ..ValueClassifier::text() }
    }

    /// Create a classifier appropriate for the attribute kind.
    pub fn for_kind(numeric: bool) -> Self {
        if numeric {
            ValueClassifier::numeric()
        } else {
            ValueClassifier::text()
        }
    }

    /// Whether this classifier is in numeric mode.
    pub fn is_numeric(&self) -> bool {
        self.numeric_mode
    }
}

impl Classifier for ValueClassifier {
    fn teach(&mut self, document: &str, label: &str) {
        if self.numeric_mode {
            if let Some(x) = finite_number(document) {
                self.numeric.teach_value(x, label);
                return;
            }
        }
        self.text.teach(document, label);
    }

    fn classify(&self, document: &str) -> Option<String> {
        if self.numeric_mode {
            if let Some(x) = finite_number(document) {
                if let Some(label) = self.numeric.classify_value(x) {
                    return Some(label);
                }
            }
        }
        self.text.classify(document)
    }

    fn trained_examples(&self) -> usize {
        self.text.trained_examples() + self.numeric.trained_examples()
    }

    fn labels(&self) -> Vec<String> {
        let mut labels = self.text.labels();
        labels.extend(self.numeric.labels());
        labels.sort();
        labels.dedup();
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_mode_routes_to_naive_bayes() {
        let mut c = ValueClassifier::text();
        c.teach("leaves of grass", "book");
        c.teach("heart of darkness", "book");
        c.teach("the white album", "cd");
        c.teach("hotel california", "cd");
        assert!(!c.is_numeric());
        assert_eq!(c.trained_examples(), 4);
        assert_eq!(c.labels(), vec!["book".to_string(), "cd".to_string()]);
        assert_eq!(c.classify("leaves of grass").as_deref(), Some("book"));
    }

    #[test]
    fn numeric_mode_routes_to_gaussian() {
        let mut c = ValueClassifier::numeric();
        for x in [10.0, 11.0, 12.0f64] {
            c.teach(&x.to_string(), "low");
        }
        for x in [100.0, 110.0, 120.0f64] {
            c.teach(&x.to_string(), "high");
        }
        assert!(c.is_numeric());
        assert_eq!(c.classify("11.5").as_deref(), Some("low"));
        assert_eq!(c.classify("105").as_deref(), Some("high"));
    }

    #[test]
    fn numeric_mode_sends_text_spelling_a_non_finite_number_to_the_text_model() {
        let mut c = ValueClassifier::numeric();
        c.teach("1", "low");
        c.teach("2", "low");
        c.teach("inf", "spelled");
        c.teach("NaN", "spelled");
        // The spellings trained the text model, not the Gaussian, so
        // they are answered there, and numbers still go to the Gaussian.
        assert_eq!(c.trained_examples(), 4);
        assert_eq!(c.classify("INF").as_deref(), Some("spelled"));
        assert_eq!(c.classify("nan").as_deref(), Some("spelled"));
        assert_eq!(c.classify("1.5").as_deref(), Some("low"));
    }

    #[test]
    fn numeric_mode_falls_back_to_text_for_unparseable_values() {
        let mut c = ValueClassifier::numeric();
        c.teach("not-a-number-aaa", "alpha");
        c.teach("not-a-number-bbb", "beta");
        c.teach("5.0", "num");
        // A textual query is answered by the text model.
        assert_eq!(c.classify("not-a-number-aaa").as_deref(), Some("alpha"));
        // Labels include both models' labels.
        assert_eq!(c.labels().len(), 3);
    }

    #[test]
    fn untrained_classifier_answers_none() {
        let c = ValueClassifier::text();
        assert_eq!(c.classify("anything"), None);
        assert_eq!(c.trained_examples(), 0);
        assert!(c.labels().is_empty());
    }

    #[test]
    fn for_kind_dispatch() {
        assert!(ValueClassifier::for_kind(true).is_numeric());
        assert!(!ValueClassifier::for_kind(false).is_numeric());
    }
}
