//! The two classifier constructions that plug into `ClusteredViewGen`.
//!
//! `ClusteredViewGen` (Figure 6) is parameterized by how the per-attribute
//! classifier `C_h` is built:
//!
//! * **`SrcClassInfer`** (§3.2.3) trains `C_h` directly on the *source* values:
//!   `C_h` is taught `t.h → t.l` for every training tuple — Naive Bayes over
//!   3-grams for text attributes, a statistical (Gaussian) classifier for
//!   numeric ones. The fitted predictor owns that classifier.
//! * **`TgtClassInfer`** (§3.2.4, Figure 7) first builds one classifier
//!   `C_D^T` per basic type domain `D`, trained on every compatible *target*
//!   column (value → "Table.attr" tag). During `doTraining` it collects
//!   `TBag(h, l)` — the bag of `(tag, l-value)` pairs — and computes
//!   `bestCAT(tag) = argmax_v acc(tag,v)·prec(tag,v)`; during `doTesting` the
//!   prediction for a value is `bestCAT(C_D^T.classify(value))`. The target
//!   classifiers depend on the target alone, so every fitted predictor
//!   borrows them from the one [`TgtLabeler`].
//!
//! Both are exposed through the [`LabelPredictor`] trait so the clustering
//! algorithm itself stays agnostic.

use std::collections::BTreeMap;

use cxm_classify::{Classifier, MajorityClassifier, ValueClassifier};
use cxm_relational::Database;

/// A fitted prediction function from attribute values (as text) to categorical
/// labels, plus bookkeeping about the training label distribution that the
/// significance test needs. It may borrow from the labeler that fitted it.
pub struct FittedPredictor<'a> {
    predict: Box<dyn Fn(&str) -> String + 'a>,
    /// Count of the most common training label, `|v*|`.
    pub majority_count: usize,
    /// Number of training examples, `n_train`.
    pub n_train: usize,
}

impl FittedPredictor<'_> {
    /// Predict the label of one value.
    pub fn predict(&self, value: &str) -> String {
        (self.predict)(value)
    }
}

impl std::fmt::Debug for FittedPredictor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedPredictor")
            .field("majority_count", &self.majority_count)
            .field("n_train", &self.n_train)
            .finish()
    }
}

/// Something that can fit a label predictor `C_h` from training pairs.
///
/// `numeric` states whether the classified attribute `h` is numeric, selecting
/// the statistical classifier instead of the 3-gram Naive Bayes one.
pub trait LabelPredictor {
    /// Fit a predictor on `(h value, l label)` training pairs.
    fn fit(&self, train: &[(String, String)], numeric: bool) -> FittedPredictor<'_>;

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Track the training-label distribution shared by both labelers.
fn label_stats(train: &[(String, String)]) -> (MajorityClassifier, usize, usize) {
    let mut majority = MajorityClassifier::new();
    for (_, label) in train {
        majority.teach_label(label);
    }
    let count = majority.majority_count();
    let total = majority.total();
    (majority, count, total)
}

/// `SrcClassInfer`'s classifier construction: train directly on source values.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrcLabeler;

impl SrcLabeler {
    /// Create the source-value labeler.
    pub fn new() -> Self {
        SrcLabeler
    }
}

impl LabelPredictor for SrcLabeler {
    fn fit(&self, train: &[(String, String)], numeric: bool) -> FittedPredictor<'_> {
        let (majority, majority_count, n_train) = label_stats(train);
        let mut classifier = ValueClassifier::for_kind(numeric);
        for (doc, label) in train {
            classifier.teach(doc, label);
        }
        let fallback = majority.majority_label().unwrap_or("<none>").to_string();
        FittedPredictor {
            predict: Box::new(move |value: &str| {
                classifier.classify(value).unwrap_or_else(|| fallback.clone())
            }),
            majority_count,
            n_train,
        }
    }

    fn name(&self) -> &'static str {
        "SrcClassInfer"
    }
}

/// `TgtClassInfer`'s classifier construction: tag source values with the
/// target column they most resemble, then associate tags with labels.
pub struct TgtLabeler {
    /// Per-domain target classifiers `C_D^T` (here: one for textual domains,
    /// one for numeric domains), each present only when the target has a
    /// value of that domain.
    text: Option<ValueClassifier>,
    numeric: Option<ValueClassifier>,
}

impl std::fmt::Debug for TgtLabeler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TgtLabeler")
            .field("text_trained", &self.text.is_some())
            .field("numeric_trained", &self.numeric.is_some())
            .finish()
    }
}

impl TgtLabeler {
    /// `createTargetClassifier(D, ℛT)` for every basic domain `D` (Figure 7):
    /// teach each target value to the classifier of its domain under the tag
    /// `"Table.attr"`.
    pub fn from_target(target: &Database) -> Self {
        let mut labeler = TgtLabeler { text: None, numeric: None };
        for table in target.tables() {
            for attr in table.schema().attributes() {
                let tag = format!("{}.{}", table.name(), attr.name);
                let numeric = attr.data_type.is_numeric();
                let domain = if numeric { &mut labeler.numeric } else { &mut labeler.text };
                let values = table
                    .column_non_null(&attr.name)
                    .expect("attribute comes from the table's own schema");
                for v in values {
                    let text = v.as_text();
                    if !text.is_empty() {
                        domain
                            .get_or_insert_with(|| ValueClassifier::for_kind(numeric))
                            .teach(&text, &tag);
                    }
                }
            }
        }
        labeler
    }

    /// Tag a source value with the qualified name of the most similar target
    /// column: the classifier of the value's own domain answers when it was
    /// trained, the other domain's otherwise. Returns `"<untagged>"` when no
    /// target classifier has any training data.
    pub fn tag(&self, value: &str, numeric: bool) -> String {
        let (own, other) =
            if numeric { (&self.numeric, &self.text) } else { (&self.text, &self.numeric) };
        own.as_ref()
            .or(other.as_ref())
            .and_then(|classifier| classifier.classify(value))
            .unwrap_or_else(|| "<untagged>".to_string())
    }

    /// The number of distinct target-column tags known to the labeler.
    pub fn known_tags(&self) -> usize {
        let mut tags: Vec<String> =
            self.text.iter().chain(&self.numeric).flat_map(|c| c.labels()).collect();
        tags.sort();
        tags.dedup();
        tags.len()
    }
}

impl LabelPredictor for TgtLabeler {
    fn fit(&self, train: &[(String, String)], numeric: bool) -> FittedPredictor<'_> {
        let (majority, majority_count, n_train) = label_stats(train);
        let fallback = majority.majority_label().unwrap_or("<none>").to_string();

        // Build TBag: (tag, label) occurrence counts, plus marginals.
        let mut pair_counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut tag_counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut label_counts: BTreeMap<String, usize> = BTreeMap::new();
        for (value, label) in train {
            let g = self.tag(value, numeric);
            *pair_counts.entry((g.clone(), label.clone())).or_insert(0) += 1;
            *tag_counts.entry(g).or_insert(0) += 1;
            *label_counts.entry(label.clone()).or_insert(0) += 1;
        }

        // bestCAT(g) = argmax_v acc(g,v)·prec(g,v), acc = P(g|v), prec = P(v|g);
        // ties break toward the more common v, then lexicographically.
        let mut best_cat: BTreeMap<String, String> = BTreeMap::new();
        for g in tag_counts.keys() {
            let mut best: Option<(f64, usize, &String)> = None;
            for (v, &v_count) in &label_counts {
                let pair = pair_counts.get(&(g.clone(), v.clone())).copied().unwrap_or(0) as f64;
                if pair == 0.0 {
                    continue;
                }
                let acc = pair / v_count as f64;
                let prec = pair / tag_counts[g] as f64;
                let score = acc * prec;
                let better = match &best {
                    None => true,
                    Some((s, c, bv)) => {
                        score > *s + 1e-12
                            || ((score - *s).abs() <= 1e-12
                                && (v_count > *c || (v_count == *c && v < *bv)))
                    }
                };
                if better {
                    best = Some((score, v_count, v));
                }
            }
            if let Some((_, _, v)) = best {
                best_cat.insert(g.clone(), v.clone());
            }
        }

        // Unknown tags fall back to the majority label ("an arbitrary
        // categorical value is selected"); we use the majority for
        // determinism. Without any target classifier every value does.
        let untrained = self.text.is_none() && self.numeric.is_none();
        FittedPredictor {
            predict: Box::new(move |value: &str| {
                if untrained {
                    return fallback.clone();
                }
                best_cat.get(&self.tag(value, numeric)).cloned().unwrap_or_else(|| fallback.clone())
            }),
            majority_count,
            n_train,
        }
    }

    fn name(&self) -> &'static str {
        "TgtClassInfer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute, Table, TableSchema, Tuple, Value};

    fn train_pairs() -> Vec<(String, String)> {
        vec![
            ("leaves of grass hardcover".into(), "1".into()),
            ("heart of darkness paperback".into(), "1".into()),
            ("wasteland paperback classic".into(), "1".into()),
            ("moby dick hardcover edition".into(), "1".into()),
            ("the white album audio cd".into(), "2".into()),
            ("hotel california elektra cd".into(), "2".into()),
            ("kind of blue columbia cd".into(), "2".into()),
            ("abbey road remastered cd".into(), "2".into()),
        ]
    }

    fn target_db() -> Database {
        let book = Table::with_rows(
            TableSchema::new("book", vec![Attribute::text("title"), Attribute::text("format")]),
            vec![
                tuple!["the historian", "hardcover"],
                tuple!["war and peace", "paperback"],
                tuple!["to the lighthouse", "paperback edition"],
            ],
        )
        .unwrap();
        let music = Table::with_rows(
            TableSchema::new("music", vec![Attribute::text("title"), Attribute::text("label")]),
            vec![
                tuple!["x&y", "capitol audio cd"],
                tuple!["abbey road", "apple records cd"],
                tuple!["kind of blue", "columbia cd"],
            ],
        )
        .unwrap();
        Database::new("RT").with_table(book).with_table(music)
    }

    #[test]
    fn src_labeler_learns_book_vs_cd() {
        let labeler = SrcLabeler::new();
        let fitted = labeler.fit(&train_pairs(), false);
        assert_eq!(fitted.n_train, 8);
        assert_eq!(fitted.majority_count, 4);
        assert_eq!(fitted.predict("middlemarch hardcover"), "1");
        assert_eq!(fitted.predict("dark side of the moon cd"), "2");
    }

    #[test]
    fn src_labeler_numeric_mode() {
        let train: Vec<(String, String)> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    ((10.0 + i as f64 * 0.1).to_string(), "low".to_string())
                } else {
                    ((200.0 + i as f64).to_string(), "high".to_string())
                }
            })
            .collect();
        let labeler = SrcLabeler::new();
        let fitted = labeler.fit(&train, true);
        assert_eq!(fitted.predict("11"), "low");
        assert_eq!(fitted.predict("215"), "high");
    }

    #[test]
    fn src_labeler_empty_training_falls_back() {
        let labeler = SrcLabeler::new();
        let fitted = labeler.fit(&[], false);
        assert_eq!(fitted.n_train, 0);
        assert_eq!(fitted.majority_count, 0);
        assert_eq!(fitted.predict("anything"), "<none>");
    }

    #[test]
    fn tgt_labeler_tags_values_with_target_columns() {
        let labeler = TgtLabeler::from_target(&target_db());
        assert!(labeler.known_tags() >= 3);
        let tag = labeler.tag("paperback special", false);
        assert_eq!(tag, "book.format");
        let tag = labeler.tag("sony records cd", false);
        assert_eq!(tag, "music.label");
    }

    #[test]
    fn tgt_labeler_fit_predicts_via_best_cat() {
        let labeler = TgtLabeler::from_target(&target_db());
        // Training pairs: descriptions with labels 1 (book) / 2 (music).
        let train = vec![
            ("hardcover".to_string(), "1".to_string()),
            ("paperback".to_string(), "1".to_string()),
            ("paperback classics".to_string(), "1".to_string()),
            ("audio cd".to_string(), "2".to_string()),
            ("elektra cd".to_string(), "2".to_string()),
            ("columbia records cd".to_string(), "2".to_string()),
        ];
        let fitted = labeler.fit(&train, false);
        assert_eq!(fitted.predict("hardcover reissue"), "1");
        assert_eq!(fitted.predict("capitol cd"), "2");
    }

    #[test]
    fn tgt_labeler_unknown_tag_falls_back_to_majority() {
        let labeler = TgtLabeler::from_target(&target_db());
        let train = vec![
            ("hardcover".to_string(), "1".to_string()),
            ("paperback".to_string(), "1".to_string()),
            ("audio cd".to_string(), "2".to_string()),
        ];
        let fitted = labeler.fit(&train, false);
        // Gibberish still resolves to some trained label (majority fallback).
        let p = fitted.predict("zzzzqqq");
        assert!(p == "1" || p == "2");
    }

    #[test]
    fn tgt_labeler_from_empty_target_is_safe() {
        let labeler = TgtLabeler::from_target(&Database::new("RT"));
        assert_eq!(labeler.known_tags(), 0);
        assert_eq!(labeler.tag("x", false), "<untagged>");
        let fitted = labeler.fit(&[("a".into(), "1".into())], false);
        assert_eq!(fitted.predict("a"), "1");
    }

    #[test]
    fn labeler_names_and_domains() {
        assert_eq!(SrcLabeler::new().name(), "SrcClassInfer");
        assert_eq!(TgtLabeler::from_target(&Database::new("RT")).name(), "TgtClassInfer");
        // A numeric value is tagged by the numeric domain's classifier, a
        // text value by the text domain's.
        let prices = Table::with_rows(
            TableSchema::new("price", vec![Attribute::float("amount")]),
            [12.5, 13.0, 14.25].map(|x| Tuple::new(vec![Value::Float(x)])).to_vec(),
        )
        .unwrap();
        let labeler = TgtLabeler::from_target(&target_db().with_table(prices));
        assert_eq!(labeler.tag("13", true), "price.amount");
        let text_tag = labeler.tag("13", false);
        assert!(text_tag.starts_with("book.") || text_tag.starts_with("music."), "{text_tag}");
        // A domain the target lacks falls back to the other domain's.
        let text_only = TgtLabeler::from_target(&target_db());
        assert_eq!(text_only.tag("13", true), text_tag);
    }
}
