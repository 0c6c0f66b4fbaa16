//! Multinomial Naive Bayes over 3-gram features.
//!
//! This is the "standard Naive Bayesian classifier … with the values tokenized
//! into 3-grams" of §3.2.3, also used by `TgtClassInfer`'s per-domain target
//! classifiers for string attributes. Tokens are the `[char; 3]` windows
//! [`for_each_qgram`] visits, so no `String` is built per gram. Laplace
//! (add-one) smoothing keeps unseen tokens from zeroing out a class, and all
//! probability work happens in log space.

use std::collections::{BTreeMap, BTreeSet};

use crate::classifier::Classifier;
use crate::tokenize::for_each_qgram;

/// One 3-gram token.
type Gram = [char; 3];

/// The grams of `document`, in order.
fn grams(document: &str) -> Vec<Gram> {
    let mut grams = Vec::new();
    for_each_qgram(document, |g| grams.push(g));
    grams
}

/// Per-class token counts.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    /// Number of documents taught with this label (for the prior).
    doc_count: usize,
    /// Token → occurrence count.
    token_counts: BTreeMap<Gram, usize>,
    /// Total tokens taught for this label.
    total_tokens: usize,
}

/// A multinomial Naive Bayes classifier over 3-grams with add-one smoothing.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayesClassifier {
    classes: BTreeMap<String, ClassStats>,
    /// Every token taught under any label.
    vocabulary: BTreeSet<Gram>,
    total_docs: usize,
}

impl NaiveBayesClassifier {
    /// Create an untrained classifier.
    pub fn new() -> Self {
        NaiveBayesClassifier::default()
    }

    /// Log-probability scores for every known label, sorted by descending
    /// score. Returns an empty vector when untrained.
    pub fn scores(&self, document: &str) -> Vec<(String, f64)> {
        if self.total_docs == 0 {
            return Vec::new();
        }
        let tokens = grams(document);
        crate::telemetry::record_work(self.classes.len() * tokens.len().max(1));
        let vocab_size = self.vocabulary.len().max(1) as f64;
        let mut out: Vec<(String, f64)> = self
            .classes
            .iter()
            .map(|(label, stats)| {
                // Prior.
                let mut log_p = ((stats.doc_count as f64 + 1.0)
                    / (self.total_docs as f64 + self.classes.len() as f64))
                    .ln();
                // Likelihood of each token under this class.
                let denom = stats.total_tokens as f64 + vocab_size;
                for t in &tokens {
                    let count = stats.token_counts.get(t).copied().unwrap_or(0) as f64;
                    log_p += ((count + 1.0) / denom).ln();
                }
                (label.clone(), log_p)
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        out
    }
}

impl Classifier for NaiveBayesClassifier {
    fn teach(&mut self, document: &str, label: &str) {
        let stats = self.classes.entry(label.to_string()).or_default();
        let mut tokens = 0;
        for_each_qgram(document, |t| {
            *stats.token_counts.entry(t).or_insert(0) += 1;
            self.vocabulary.insert(t);
            tokens += 1;
        });
        crate::telemetry::record_work(tokens.max(1));
        stats.doc_count += 1;
        stats.total_tokens += tokens;
        self.total_docs += 1;
    }

    fn classify(&self, document: &str) -> Option<String> {
        self.scores(document).into_iter().next().map(|(label, _)| label)
    }

    fn trained_examples(&self) -> usize {
        self.total_docs
    }

    fn labels(&self) -> Vec<String> {
        self.classes.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Train a small book-vs-CD classifier resembling the paper's inventory data.
    fn trained() -> NaiveBayesClassifier {
        let mut nb = NaiveBayesClassifier::new();
        for (doc, label) in [
            ("hardcover", "book"),
            ("paperback", "book"),
            ("hardcover first edition", "book"),
            ("paperback reprint", "book"),
            ("audio cd", "music"),
            ("elektra cd", "music"),
            ("compact disc single", "music"),
            ("audio cd import", "music"),
        ] {
            nb.teach(doc, label);
        }
        nb
    }

    #[test]
    fn classifies_seen_patterns() {
        let nb = trained();
        assert_eq!(nb.classify("hardcover").as_deref(), Some("book"));
        assert_eq!(nb.classify("audio cd").as_deref(), Some("music"));
    }

    #[test]
    fn generalizes_to_unseen_but_similar_values() {
        let nb = trained();
        assert_eq!(nb.classify("paperback edition").as_deref(), Some("book"));
        assert_eq!(nb.classify("remastered cd").as_deref(), Some("music"));
    }

    #[test]
    fn untrained_classifier_returns_none() {
        let nb = NaiveBayesClassifier::new();
        assert_eq!(nb.classify("x"), None);
        assert!(nb.scores("x").is_empty());
    }

    #[test]
    fn unseen_tokens_still_yield_a_known_label() {
        let mut nb = NaiveBayesClassifier::new();
        nb.teach("alpha", "a");
        nb.teach("alpha", "a");
        nb.teach("alpha", "a");
        nb.teach("beta", "b");
        // A document with no known tokens is still classified (smoothing keeps
        // every class's likelihood finite) and the answer is a trained label.
        let label = nb.classify("zzzz totally unseen").unwrap();
        assert!(nb.labels().contains(&label));
        // With balanced per-class token mass (14 grams each), the prior
        // decides unseen input.
        let mut nb = NaiveBayesClassifier::new();
        nb.teach("alpha", "a");
        nb.teach("gamma", "a");
        nb.teach("betabetabeta", "b");
        assert_eq!(nb.classify("zzzz").as_deref(), Some("a"));
    }

    #[test]
    fn scores_are_sorted_descending() {
        let nb = trained();
        let scores = nb.scores("hardcover");
        assert_eq!(scores.len(), 2);
        assert!(scores[0].1 >= scores[1].1);
        assert_eq!(scores[0].0, "book");
    }

    #[test]
    fn labels_and_counts() {
        let nb = trained();
        assert_eq!(nb.labels(), vec!["book".to_string(), "music".to_string()]);
        assert_eq!(nb.trained_examples(), 8);
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        let mut nb = NaiveBayesClassifier::new();
        nb.teach("same", "a");
        nb.teach("same", "b");
        // Both classes identical → the lexicographically first label wins.
        assert_eq!(nb.classify("same").as_deref(), Some("a"));
    }
}
