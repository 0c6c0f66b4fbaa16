//! `InferCandidateViews` — dispatch over the view-inference strategies.
//!
//! Figure 5, line 5: `C := InferCandidateViews(RS, M, EarlyDisjuncts)`. The
//! candidate space is empty when the prototype match list `M` is empty ("no
//! conditions will be returned if M is empty"), otherwise it is produced by the
//! configured strategy: `NaiveInfer`, `SrcClassInfer` or `TgtClassInfer`.

use cxm_matching::MatchList;
use cxm_relational::{Database, Table, ViewDef, ViewFamily};

use crate::clustered::clustered_view_gen;
use crate::config::{ContextMatchConfig, ViewInferenceStrategy};
use crate::labeler::{SrcLabeler, TgtLabeler};
use crate::naive_infer::naive_infer;

/// Infer the candidate view families for one source table.
///
/// * `table` — the source table `RS` (with its sample data);
/// * `prototype_matches` — the accepted matches `M` returned by
///   `StandardMatch` for this table;
/// * `target` — the target database, needed by `TgtClassInfer` to build its
///   per-domain column classifiers.
pub fn infer_candidate_views(
    table: &Table,
    prototype_matches: &MatchList,
    target: &Database,
    config: &ContextMatchConfig,
) -> Vec<ViewFamily> {
    if prototype_matches.iter().all(|m| m.base_table != table.name()) {
        // No prototype matches from this table — nothing to condition.
        return Vec::new();
    }
    match config.inference {
        ViewInferenceStrategy::Naive => naive_infer(table, config),
        ViewInferenceStrategy::SrcClass => clustered_view_gen(table, &SrcLabeler::new(), config)
            .into_iter()
            .map(|sf| sf.family)
            .collect(),
        ViewInferenceStrategy::TgtClass => {
            let labeler = TgtLabeler::from_target(target);
            clustered_view_gen(table, &labeler, config).into_iter().map(|sf| sf.family).collect()
        }
    }
}

/// Flatten families into a deduplicated list of candidate views, preserving
/// first-seen order and respecting the configured cap.
pub fn flatten_views(families: &[ViewFamily], config: &ContextMatchConfig) -> Vec<ViewDef> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for family in families {
        for view in &family.views {
            if out.len() >= config.max_candidate_views {
                return out;
            }
            if seen.insert(view.name.clone()) {
                out.push(view.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_matching::Match;
    use cxm_relational::{AttrRef, Attribute, TableSchema, Tuple, Value};

    fn inventory(n: usize) -> Table {
        let schema = TableSchema::new(
            "inv",
            vec![Attribute::int("id"), Attribute::text("descr"), Attribute::int("type")],
        );
        let rows = (0..n)
            .map(|i| {
                let is_book = i % 2 == 0;
                // Descriptions carry a varying suffix so the column stays
                // non-categorical (it is the `h` the classifiers learn from).
                let descr = if is_book {
                    format!("paperback edition printing {i}")
                } else {
                    format!("audio records cd disc {i}")
                };
                Tuple::new(vec![
                    Value::from(i),
                    Value::str(descr),
                    Value::from(if is_book { 1 } else { 2 }),
                ])
            })
            .collect();
        Table::with_rows(schema, rows).unwrap()
    }

    fn target_db() -> Database {
        let book = Table::with_rows(
            TableSchema::new("book", vec![Attribute::text("format")]),
            vec![
                Tuple::new(vec![Value::str("paperback")]),
                Tuple::new(vec![Value::str("hardcover")]),
            ],
        )
        .unwrap();
        let music = Table::with_rows(
            TableSchema::new("music", vec![Attribute::text("label")]),
            vec![Tuple::new(vec![Value::str("columbia records cd")])],
        )
        .unwrap();
        Database::new("RT").with_table(book).with_table(music)
    }

    fn prototype() -> MatchList {
        vec![Match::standard(
            AttrRef::new("inv", "descr"),
            AttrRef::new("book", "format"),
            0.6,
            0.8,
        )]
    }

    #[test]
    fn empty_prototype_list_yields_no_candidates() {
        let table = inventory(100);
        let cfg = ContextMatchConfig::default();
        assert!(infer_candidate_views(&table, &Vec::new(), &target_db(), &cfg).is_empty());
        // Matches from a different base table also do not count.
        let other = vec![Match::standard(
            AttrRef::new("other", "x"),
            AttrRef::new("book", "format"),
            0.6,
            0.8,
        )];
        assert!(infer_candidate_views(&table, &other, &target_db(), &cfg).is_empty());
    }

    #[test]
    fn each_strategy_produces_families_on_correlated_data() {
        let table = inventory(120);
        let target = target_db();
        let matches = prototype();
        for strategy in ViewInferenceStrategy::ALL {
            let cfg =
                ContextMatchConfig::default().with_inference(strategy).with_early_disjuncts(false);
            let fams = infer_candidate_views(&table, &matches, &target, &cfg);
            assert!(
                !fams.is_empty(),
                "{} produced no families on clearly correlated data",
                strategy.name()
            );
            assert!(fams.iter().all(|f| f.base_table == "inv"));
        }
    }

    #[test]
    fn naive_considers_all_categoricals_classifiers_filter() {
        // Add a second categorical attribute that is pure noise; Naive will
        // partition on it, the classifier-driven strategies should not.
        let base = inventory(200);
        let table = base
            .extend_with(Attribute::text("stock"), |i, _| {
                Value::str(["Low", "Normal", "High"][i % 3])
            })
            .unwrap();
        let target = target_db();
        let matches = prototype();
        let naive_cfg = ContextMatchConfig::default()
            .with_inference(ViewInferenceStrategy::Naive)
            .with_early_disjuncts(false);
        let src_cfg = naive_cfg.with_inference(ViewInferenceStrategy::SrcClass);
        let naive_fams = infer_candidate_views(&table, &matches, &target, &naive_cfg);
        let src_fams = infer_candidate_views(&table, &matches, &target, &src_cfg);
        let naive_attrs: std::collections::BTreeSet<_> =
            naive_fams.iter().map(|f| f.attribute.clone()).collect();
        let src_attrs: std::collections::BTreeSet<_> =
            src_fams.iter().map(|f| f.attribute.clone()).collect();
        assert!(naive_attrs.contains("stock"));
        assert!(naive_attrs.contains("type"));
        assert!(src_attrs.contains("type"));
        assert!(
            !src_attrs.contains("stock"),
            "classifier filter should reject the noise attribute"
        );
    }

    #[test]
    fn flatten_views_deduplicates_and_caps() {
        let table = inventory(60);
        let fam = ViewFamily::partition_by_values(&table, "type").unwrap();
        let cfg = ContextMatchConfig::default();
        let views = flatten_views(&[fam.clone(), fam.clone()], &cfg);
        assert_eq!(views.len(), 2);
        let mut capped_cfg = cfg;
        capped_cfg.max_candidate_views = 1;
        assert_eq!(flatten_views(&[fam], &capped_cfg).len(), 1);
    }

    /// A value holding `', '` must not give `{a, b, c}` and `{"a', 'b", c}`
    /// one rendered condition: every distinct condition NaiveInfer proposes
    /// keeps its own view name and so its own flattened view.
    #[test]
    fn distinct_conditions_keep_distinct_view_names() {
        let kinds = ["a", "b", "c", "a', 'b"];
        let rows = (0..40).map(|i| Tuple::new(vec![Value::from(i), Value::str(kinds[i % 4])]));
        let table = Table::with_rows(
            TableSchema::new("inv", vec![Attribute::int("id"), Attribute::text("kind")]),
            rows.collect(),
        )
        .unwrap();
        let cfg = ContextMatchConfig::default().with_early_disjuncts(true);
        let families = naive_infer(&table, &cfg);
        let views: Vec<&ViewDef> = families.iter().flat_map(|f| &f.views).collect();
        let conditions: std::collections::BTreeSet<String> =
            views.iter().map(|v| format!("{:?}", v.condition)).collect();
        let names: std::collections::BTreeSet<&str> =
            views.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(conditions.len(), 14, "4 single values and 10 subsets of 2 or 3");
        assert_eq!(names.len(), conditions.len());
        assert_eq!(flatten_views(&families, &cfg).len(), conditions.len());
    }
}
