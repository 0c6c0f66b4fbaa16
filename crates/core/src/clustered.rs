//! `ClusteredViewGen` — well-clustered view families (Figure 6, §3.2.2–3.3).
//!
//! For every (non-categorical attribute `h`, categorical attribute `l`) pair of
//! a source table, the values of `h` are treated as documents, the values of
//! `l` as classification labels, and the tuples as the expert assignment. A
//! classifier `C_h` is trained on a training partition, evaluated on a testing
//! partition, and its correct-classification count is compared against the
//! binomial null model of the majority classifier `C_Naive`. Only when
//! `Φ((c − μ)/σ) > T` is the family of views `{V_i : l = v_i}` considered
//! *well-clustered* and emitted as a candidate.
//!
//! With `EarlyDisjuncts` enabled, classification errors drive a merging loop:
//! the most frequent confused value pair (normalized by value frequency) is
//! merged into a disjunctive group, training/testing repeats, and every merged
//! family that passes the significance test is also emitted (§3.3).

use std::collections::BTreeMap;

use cxm_relational::{
    categorical_attributes, non_categorical_attributes, split_selection, Table, TableSlice, Value,
    ViewFamily,
};
use cxm_stats::{significance_of_classifier, ConfusionMatrix};

use crate::config::ContextMatchConfig;
use crate::labeler::LabelPredictor;

/// Quality bookkeeping attached to each emitted family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyQuality {
    /// Micro-averaged F1 of the classifier on the testing data.
    pub f1: f64,
    /// Correct classifications `c` on the testing data.
    pub correct: usize,
    /// Testing-set size.
    pub n_test: usize,
    /// Significance confidence `Φ((c − μ)/σ)` against the naive null model.
    pub confidence: f64,
}

/// A well-clustered view family plus the evidence that admitted it.
#[derive(Debug, Clone)]
pub struct ScoredFamily {
    /// The admitted family (base table, partitioning attribute, member views).
    pub family: ViewFamily,
    /// The non-categorical attribute `h` whose classifiability admitted it.
    pub classified_attribute: String,
    /// Quality of the admitting classifier.
    pub quality: FamilyQuality,
}

/// Map each distinct value of `l` to its (possibly merged) group label and the
/// set of original values in the group.
#[derive(Debug, Clone)]
struct LabelGroups {
    /// value (as text) → group id
    assignment: BTreeMap<String, usize>,
    /// group id → original values
    groups: BTreeMap<usize, Vec<Value>>,
}

impl LabelGroups {
    fn initial(values: &[Value]) -> LabelGroups {
        let mut assignment = BTreeMap::new();
        let mut groups = BTreeMap::new();
        for (i, v) in values.iter().enumerate() {
            assignment.insert(v.as_text(), i);
            groups.insert(i, vec![v.clone()]);
        }
        LabelGroups { assignment, groups }
    }

    /// Group label (stable, human-readable) of a raw value.
    fn label_of(&self, value_text: &str) -> Option<String> {
        self.assignment.get(value_text).map(|gid| self.group_label(*gid))
    }

    /// The members' texts joined with `|`, each `\` and `|` inside a text
    /// escaped by a `\`, so no merged group shares a label with a value.
    fn group_label(&self, gid: usize) -> String {
        let mut label = String::new();
        for (i, member) in self.groups[&gid].iter().enumerate() {
            if i > 0 {
                label.push('|');
            }
            for c in member.as_text().chars() {
                if matches!(c, '\\' | '|') {
                    label.push('\\');
                }
                label.push(c);
            }
        }
        label
    }

    /// Merge the groups containing the two group labels; returns false when the
    /// labels are unknown or already in the same group.
    fn merge(&mut self, label_a: &str, label_b: &str) -> bool {
        let gid_of = |label: &str, this: &LabelGroups| -> Option<usize> {
            this.groups.keys().copied().find(|gid| this.group_label(*gid) == label)
        };
        let (Some(ga), Some(gb)) = (gid_of(label_a, self), gid_of(label_b, self)) else {
            return false;
        };
        if ga == gb {
            return false;
        }
        let (keep, drop) = if ga < gb { (ga, gb) } else { (gb, ga) };
        let moved = self.groups.remove(&drop).unwrap_or_default();
        self.groups.get_mut(&keep).expect("keep group exists").extend(moved);
        for gid in self.assignment.values_mut() {
            if *gid == drop {
                *gid = keep;
            }
        }
        true
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn value_groups(&self) -> Vec<Vec<Value>> {
        self.groups.values().cloned().collect()
    }
}

/// Collect the `(h value, group label)` pairs of a partition, skipping tuples
/// whose `h` or `l` is NULL. The partition is a zero-copy [`TableSlice`], so
/// training-data extraction clones no tuples.
fn labelled_pairs(
    partition: &TableSlice<'_>,
    h: &str,
    l: &str,
    groups: &LabelGroups,
) -> Vec<(String, String)> {
    let h_idx = partition.schema().index_of(h).expect("h comes from the schema");
    let l_idx = partition.schema().index_of(l).expect("l comes from the schema");
    partition
        .rows()
        .filter_map(|row| {
            let hv = row.at(h_idx);
            let lv = row.at(l_idx);
            if hv.is_null() || lv.is_null() {
                return None;
            }
            groups.label_of(&lv.as_text()).map(|label| (hv.as_text(), label))
        })
        .collect()
}

/// Run `ClusteredViewGen` for one source table with the given labeler
/// (`SrcClassInfer` or `TgtClassInfer`), returning every admitted family.
pub fn clustered_view_gen(
    table: &Table,
    labeler: &dyn LabelPredictor,
    config: &ContextMatchConfig,
) -> Vec<ScoredFamily> {
    let mut out: Vec<ScoredFamily> = Vec::new();
    let cats = categorical_attributes(table, &config.categorical);
    let noncats = non_categorical_attributes(table, &config.categorical);
    if cats.is_empty() || noncats.is_empty() || table.len() < 4 {
        return out;
    }
    // The train/test partition is carried as selection vectors over the base
    // table; both sides are read through zero-copy slices below.
    let (train_sel, test_sel) = split_selection(table, config.split_ratio, config.seed);
    let train_slice = TableSlice::new(table, &train_sel);
    let test_slice = TableSlice::new(table, &test_sel);

    for l in &cats {
        let values = table.distinct_values(l).unwrap_or_default();
        if values.len() < 2 {
            continue;
        }
        for h in &noncats {
            let numeric = table.schema().type_of(h).map(|t| t.is_numeric()).unwrap_or(false);
            let mut groups = LabelGroups::initial(&values);

            // Early-disjunct loop: evaluate, emit if significant, merge the
            // worst-confused pair, repeat. Without EarlyDisjuncts only the
            // first (unmerged) iteration runs.
            loop {
                let train = labelled_pairs(&train_slice, h, l, &groups);
                let test = labelled_pairs(&test_slice, h, l, &groups);
                if train.is_empty() || test.is_empty() {
                    break;
                }
                let fitted = labeler.fit(&train, numeric);
                let mut matrix = ConfusionMatrix::new();
                for (value, expected) in &test {
                    matrix.record(expected.clone(), fitted.predict(value));
                }
                let micro = matrix.micro_average();
                let sig = significance_of_classifier(
                    micro.correct,
                    micro.total,
                    fitted.majority_count,
                    fitted.n_train,
                );
                if sig.is_significant(config.significance_threshold) {
                    let family = ViewFamily::from_value_groups(
                        table.name(),
                        l.clone(),
                        groups.value_groups(),
                    );
                    let duplicate = out.iter().any(|existing| existing.family == family);
                    if !duplicate {
                        out.push(ScoredFamily {
                            family,
                            classified_attribute: h.to_string(),
                            quality: FamilyQuality {
                                f1: micro.f1(),
                                correct: micro.correct,
                                n_test: micro.total,
                                confidence: sig.confidence,
                            },
                        });
                    }
                }

                if !config.early_disjuncts || groups.group_count() <= 2 {
                    break;
                }
                // Pick the most frequent error pair normalized by how often the
                // two labels occur in the test data.
                let errors = matrix.pooled_errors();
                if errors.is_empty() {
                    break;
                }
                let best = errors
                    .iter()
                    .map(|((a, b), count)| {
                        let freq =
                            (matrix.expected_count(a) + matrix.expected_count(b)).max(1) as f64;
                        ((a.clone(), b.clone()), *count as f64 / freq)
                    })
                    .max_by(|x, y| {
                        x.1.partial_cmp(&y.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| y.0.cmp(&x.0))
                    });
                let Some(((a, b), _)) = best else { break };
                if !groups.merge(&a, &b) {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextMatchConfig;
    use crate::labeler::SrcLabeler;
    use cxm_relational::{Attribute, TableSchema, Tuple};

    /// A source table where `descr` strongly predicts `type` (books say
    /// hardcover/paperback, CDs say audio cd / records cd) and `noise` is a
    /// random categorical attribute unrelated to anything.
    fn inventory(n: usize, gamma: usize) -> Table {
        let schema = TableSchema::new(
            "inv",
            vec![
                Attribute::int("id"),
                Attribute::text("name"),
                Attribute::int("type"),
                Attribute::text("descr"),
                Attribute::text("noise"),
            ],
        );
        let book_descr = ["hardcover", "paperback", "hardcover first edition", "paperback reprint"];
        let cd_descr = ["audio cd", "elektra records cd", "columbia cd", "remastered audio cd"];
        let book_titles =
            ["leaves of grass", "heart of darkness", "wasteland", "moby dick", "middlemarch"];
        let cd_titles =
            ["the white album", "hotel california", "kind of blue", "abbey road", "blue train"];
        let mut rows = Vec::new();
        for i in 0..n {
            let is_book = i % 2 == 0;
            // type values: books get 1..=gamma/2, cds get gamma/2+1..=gamma (so
            // gamma distinct values overall, half per class).
            let half = (gamma / 2).max(1);
            let type_val = if is_book { 1 + (i / 2) % half } else { half + 1 + (i / 2) % half };
            let descr = if is_book { book_descr[i % 4] } else { cd_descr[i % 4] };
            let title = if is_book { book_titles[i % 5] } else { cd_titles[i % 5] };
            rows.push(Tuple::new(vec![
                Value::from(i),
                Value::str(format!("{title} vol {i}")),
                Value::from(type_val),
                Value::str(descr),
                Value::str(format!("n{}", i % 3)),
            ]));
        }
        Table::with_rows(schema, rows).unwrap()
    }

    fn config() -> ContextMatchConfig {
        ContextMatchConfig::default().with_early_disjuncts(false)
    }

    #[test]
    fn well_correlated_attribute_is_admitted() {
        let table = inventory(120, 2);
        let fams = clustered_view_gen(&table, &SrcLabeler::new(), &config());
        assert!(!fams.is_empty());
        // The admitted families partition on `type` (descr predicts it); the
        // random `noise` attribute may appear only if it accidentally clears
        // 95% significance, which it should not with 120 rows.
        assert!(fams.iter().any(|f| f.family.attribute == "type"));
        assert!(fams.iter().all(|f| f.family.attribute != "noise"));
        for f in &fams {
            assert!(f.quality.confidence > 0.95);
            assert!(f.quality.n_test > 0);
            assert!(f.family.is_mutually_exclusive());
        }
    }

    #[test]
    fn uncorrelated_table_admits_nothing() {
        // A table where the non-categorical attribute is pure noise.
        let schema = TableSchema::new(
            "t",
            vec![Attribute::int("id"), Attribute::text("junk"), Attribute::int("cat")],
        );
        let mut rows = Vec::new();
        for i in 0..200usize {
            // `junk` is constant across every value of `cat` within a block of
            // four rows, so it carries no information about `cat` at all.
            rows.push(Tuple::new(vec![
                Value::from(i),
                Value::str(format!("item-{}", i / 4)),
                Value::from(i % 4),
            ]));
        }
        let table = Table::with_rows(schema, rows).unwrap();
        let fams = clustered_view_gen(&table, &SrcLabeler::new(), &config());
        assert!(
            fams.iter().all(|f| f.family.attribute != "cat") || fams.is_empty(),
            "uncorrelated categorical attribute should not be admitted: {fams:?}"
        );
    }

    #[test]
    fn early_disjuncts_merges_confusable_values_with_higher_gamma() {
        // With γ = 4 the two book type-values are indistinguishable from each
        // other (both say hardcover/paperback), so early disjuncts should merge
        // them and emit a family containing a 2-value group.
        let table = inventory(200, 4);
        let cfg = ContextMatchConfig::default().with_early_disjuncts(true);
        let fams = clustered_view_gen(&table, &SrcLabeler::new(), &cfg);
        assert!(!fams.is_empty());
        let has_merged_group = fams.iter().any(|f| {
            f.family.attribute == "type" && f.family.value_groups().iter().any(|g| g.len() >= 2)
        });
        assert!(has_merged_group, "expected a merged (disjunctive) group: {fams:?}");
    }

    #[test]
    fn late_disjuncts_emits_only_unmerged_families() {
        let table = inventory(200, 4);
        let cfg = ContextMatchConfig::default().with_early_disjuncts(false);
        let fams = clustered_view_gen(&table, &SrcLabeler::new(), &cfg);
        for f in &fams {
            assert!(
                f.family.value_groups().iter().all(|g| g.len() == 1),
                "late disjuncts should not merge values: {f:?}"
            );
        }
    }

    #[test]
    fn tiny_tables_are_skipped() {
        let table = inventory(3, 2);
        let fams = clustered_view_gen(&table, &SrcLabeler::new(), &config());
        assert!(fams.is_empty());
    }

    #[test]
    fn label_groups_merge_mechanics() {
        let values = vec![Value::from(1), Value::from(2), Value::from(3)];
        let mut g = LabelGroups::initial(&values);
        assert_eq!(g.group_count(), 3);
        assert_eq!(g.label_of("1"), Some("1".to_string()));
        assert!(g.merge("1", "2"));
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.label_of("2"), Some("1|2".to_string()));
        // Merging the same pair again is a no-op.
        assert!(!g.merge("1|2", "1|2"));
        // Unknown labels are rejected.
        assert!(!g.merge("1|2", "99"));
        // Remaining groups still cover all values.
        let total: usize = g.value_groups().iter().map(|v| v.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn merged_group_labels_never_equal_a_value_label() {
        let values = vec![Value::str("a"), Value::str("b"), Value::str("a|b"), Value::str("c\\")];
        let mut g = LabelGroups::initial(&values);
        assert_eq!(g.label_of("a|b"), Some("a\\|b".to_string()));
        assert_eq!(g.label_of("c\\"), Some("c\\\\".to_string()));
        assert!(g.merge("a", "b"));
        let merged = g.label_of("a").unwrap();
        assert_eq!(merged, "a|b");
        assert_eq!(g.label_of("b").as_ref(), Some(&merged));
        assert_ne!(g.label_of("a|b").as_ref(), Some(&merged));
        // The literal value's group is still addressable by its own label.
        let literal = g.label_of("a|b").unwrap();
        assert!(g.merge(&literal, &merged));
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.label_of("a|b").unwrap(), "a|b|a\\|b");
    }
}
