//! The classifier substrate's tokenizer and Naive Bayes as they stood
//! before the library tokenized into `[char; 3]` windows: every gram is
//! rendered as a `String` and counted in string-keyed maps. Kept as the
//! differential oracle for `cxm_classify::for_each_qgram` and
//! `cxm_classify::NaiveBayesClassifier`.

use std::collections::BTreeMap;

/// Normalize text before tokenization: lower-case every alphanumeric
/// character and join the alphanumeric runs with single spaces.
fn normalize(text: &str) -> String {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|run| !run.is_empty())
        .map(|run| run.chars().flat_map(char::to_lowercase).collect::<String>())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Character q-grams of the normalized text, padded with `q - 1` boundary
/// markers (`#`) on each side so that prefixes and suffixes are represented.
/// Text shorter than `q` yields the padded-window grams it has, never nothing
/// (unless the text normalizes to empty).
pub fn qgrams(text: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    let norm = normalize(text);
    if norm.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q - 1);
    let padded: Vec<char> = format!("{pad}{norm}{pad}").chars().collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Add-α smoothing constant of [`StringNaiveBayes`].
const ALPHA: f64 = 1.0;

/// Per-class token counts.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    doc_count: usize,
    token_counts: BTreeMap<String, usize>,
    total_tokens: usize,
}

/// Multinomial Naive Bayes over `qgrams(document, 3)`, every token a
/// `String`, with add-α smoothing at α = 1. `scores` must equal the
/// library's `NaiveBayesClassifier::scores` label for label and bit for bit.
#[derive(Debug, Clone, Default)]
pub struct StringNaiveBayes {
    classes: BTreeMap<String, ClassStats>,
    vocabulary: BTreeMap<String, usize>,
    total_docs: usize,
}

impl StringNaiveBayes {
    /// Teach one (document, label) example.
    pub fn teach(&mut self, document: &str, label: &str) {
        let tokens = qgrams(document, 3);
        let stats = self.classes.entry(label.to_string()).or_default();
        stats.doc_count += 1;
        stats.total_tokens += tokens.len();
        for t in tokens {
            *stats.token_counts.entry(t.clone()).or_insert(0) += 1;
            *self.vocabulary.entry(t).or_insert(0) += 1;
        }
        self.total_docs += 1;
    }

    /// Log-probability scores for every known label, sorted by descending
    /// score (ties by label). Empty when untrained.
    pub fn scores(&self, document: &str) -> Vec<(String, f64)> {
        if self.total_docs == 0 {
            return Vec::new();
        }
        let tokens = qgrams(document, 3);
        let vocab_size = self.vocabulary.len().max(1) as f64;
        let mut out: Vec<(String, f64)> = self
            .classes
            .iter()
            .map(|(label, stats)| {
                let mut log_p = ((stats.doc_count as f64 + ALPHA)
                    / (self.total_docs as f64 + ALPHA * self.classes.len() as f64))
                    .ln();
                let denom = stats.total_tokens as f64 + ALPHA * vocab_size;
                for t in &tokens {
                    let count = stats.token_counts.get(t).copied().unwrap_or(0) as f64;
                    log_p += ((count + ALPHA) / denom).ln();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unigrams_are_characters() {
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn q_zero_is_clamped() {
        assert_eq!(qgrams("ab", 0), vec!["a", "b"]);
    }
}
