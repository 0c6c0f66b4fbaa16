//! `NaiveInfer` — the unfiltered candidate-view generator (§3.2.1).
//!
//! For every categorical attribute `l` of the table, a view is created for
//! every value `v_i` of `l` in the sample data. When simple-disjunctive views
//! are considered (early disjuncts), views are created for groupings of the
//! `v_i` values; the full space of partitions is exponential, so the
//! enumeration here covers every *subset* of values up to a configurable cap —
//! enough to reproduce the exponential runtime behaviour the paper reports
//! (Figure 15) without an unbounded blow-up.

use cxm_relational::{categorical_attributes, Table, Value, ViewFamily};

use crate::config::ContextMatchConfig;

/// Generate the naive candidate view families for one source table.
///
/// With `early_disjuncts` disabled, each categorical attribute contributes one
/// family with a single-value view per distinct value. With it enabled, the
/// families additionally cover merged value groups: every subset of values of
/// size ≥ 2 (paired with the complement) up to `config.max_candidate_views`
/// views in total.
pub fn naive_infer(table: &Table, config: &ContextMatchConfig) -> Vec<ViewFamily> {
    let mut families = Vec::new();
    let mut total_views = 0usize;
    for l in categorical_attributes(table, &config.categorical) {
        let values = table.distinct_values(&l).unwrap_or_default();
        if values.len() < 2 {
            continue;
        }
        // The simple-context family: one view per value.
        let simple = ViewFamily::from_value_groups(
            table.name(),
            l.clone(),
            values.iter().map(|v| vec![v.clone()]).collect(),
        );
        total_views += simple.len();
        families.push(simple);
        if total_views >= config.max_candidate_views {
            break;
        }

        if config.early_disjuncts {
            for subset in
                value_subsets(&values, config.max_candidate_views.saturating_sub(total_views))
            {
                let complement: Vec<Value> =
                    values.iter().filter(|v| !subset.contains(v)).cloned().collect();
                let mut groups = vec![subset];
                if !complement.is_empty() {
                    groups.push(complement);
                }
                let family = ViewFamily::from_value_groups(table.name(), l.clone(), groups);
                total_views += family.len();
                families.push(family);
                if total_views >= config.max_candidate_views {
                    break;
                }
            }
        }
        if total_views >= config.max_candidate_views {
            break;
        }
    }
    families
}

/// Enumerate the subsets of `values` with 2 ≤ |subset| < |values|, in a
/// deterministic order, up to `cap` subsets. (Size-1 subsets are already
/// covered by the simple-context family.)
fn value_subsets(values: &[Value], cap: usize) -> Vec<Vec<Value>> {
    let n = values.len();
    let mut out = Vec::new();
    if n < 3 || cap == 0 {
        return out;
    }
    // Enumerate bitmasks over the first `min(n, 63)` values, so a mask never
    // shifts past its 64 bits; the subsets' complements still reach the rest.
    let bits = n.min(63);
    for mask in 1..=(1u64 << bits) - 1 {
        let count = mask.count_ones() as usize;
        if count < 2 || count >= n {
            continue;
        }
        let subset: Vec<Value> =
            (0..bits).filter(|i| mask & (1 << i) != 0).map(|i| values[i].clone()).collect();
        out.push(subset);
        if out.len() >= cap {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{Attribute, TableSchema, Tuple};

    fn table_with_types(gamma: usize, rows: usize) -> Table {
        let schema = TableSchema::new(
            "inv",
            vec![Attribute::int("id"), Attribute::text("name"), Attribute::int("type")],
        );
        let mut data = Vec::new();
        for i in 0..rows {
            data.push(Tuple::new(vec![
                Value::from(i),
                Value::str(format!("title {i}")),
                Value::from(i % gamma),
            ]));
        }
        Table::with_rows(schema, data).unwrap()
    }

    #[test]
    fn simple_context_one_view_per_value() {
        let table = table_with_types(4, 200);
        let cfg = ContextMatchConfig::default().with_early_disjuncts(false);
        let fams = naive_infer(&table, &cfg);
        // Only `type` is categorical; one family with 4 single-value views.
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[0].attribute, "type");
        assert_eq!(fams[0].len(), 4);
        assert!(fams[0].value_groups().iter().all(|g| g.len() == 1));
    }

    #[test]
    fn early_disjuncts_adds_subset_views() {
        let table = table_with_types(4, 200);
        let cfg = ContextMatchConfig::default().with_early_disjuncts(true);
        let fams = naive_infer(&table, &cfg);
        assert!(fams.len() > 1);
        // Some family must contain a merged (multi-value) group.
        assert!(fams.iter().any(|f| f.value_groups().iter().any(|g| g.len() >= 2)));
        // All families remain mutually exclusive partitions or binary splits.
        assert!(fams.iter().all(|f| f.is_mutually_exclusive()));
    }

    #[test]
    fn view_count_grows_with_gamma_under_early_disjuncts() {
        let count = |gamma: usize| {
            let table = table_with_types(gamma, 400);
            let cfg = ContextMatchConfig::default().with_early_disjuncts(true);
            naive_infer(&table, &cfg).iter().map(|f| f.len()).sum::<usize>()
        };
        let c4 = count(4);
        let c6 = count(6);
        let c8 = count(8);
        assert!(c6 > c4);
        assert!(c8 > c6);
        // Exponential-ish growth: going from 4 to 8 values should much more
        // than double the subset count.
        assert!(c8 > 2 * c4);
    }

    #[test]
    fn cap_limits_the_enumeration() {
        let table = table_with_types(10, 500);
        let mut cfg = ContextMatchConfig::default().with_early_disjuncts(true);
        cfg.max_candidate_views = 20;
        let fams = naive_infer(&table, &cfg);
        let total: usize = fams.iter().map(|f| f.len()).sum();
        assert!(
            total <= 20 + 10,
            "cap should approximately bound the total view count, got {total}"
        );
    }

    #[test]
    fn non_categorical_table_yields_nothing() {
        // All-distinct `type` values → not categorical → no views.
        let schema = TableSchema::new("t", vec![Attribute::int("id"), Attribute::int("type")]);
        let rows =
            (0..300usize).map(|i| Tuple::new(vec![Value::from(i), Value::from(i)])).collect();
        let table = Table::with_rows(schema, rows).unwrap();
        assert!(naive_infer(&table, &ContextMatchConfig::default()).is_empty());
    }

    #[test]
    fn subsets_skip_singletons_and_full_set() {
        let values: Vec<Value> = (0..4).map(Value::from).collect();
        let subsets = value_subsets(&values, 1000);
        assert!(subsets.iter().all(|s| s.len() >= 2 && s.len() < 4));
        // C(4,2) + C(4,3) = 6 + 4 = 10 subsets.
        assert_eq!(subsets.len(), 10);
        // Two values → no extra subsets beyond the simple family.
        assert!(value_subsets(&values[..2], 1000).is_empty());
    }

    /// 64 or more categorical values: masks stay within 64 bits (no shift
    /// overflow, no wrapped subsets) and the cap still bounds the families.
    #[test]
    fn seventy_values_enumerate_valid_subsets() {
        let table = table_with_types(70, 210);
        let mut cfg = ContextMatchConfig::default().with_early_disjuncts(true);
        cfg.categorical.max_distinct = 100;
        cfg.max_candidate_views = 200;
        let fams = naive_infer(&table, &cfg);
        // The 70-view simple family, then 65 subset/complement pairs reach
        // the 200-view cap.
        assert_eq!(fams.len(), 66);
        assert_eq!(fams.iter().map(|f| f.len()).sum::<usize>(), 200);
        for family in &fams[1..] {
            let groups = family.value_groups();
            assert_eq!(groups.len(), 2);
            assert!((2..70).contains(&groups[0].len()), "subset of {}", groups[0].len());
            assert_eq!(groups[0].len() + groups[1].len(), 70);
        }
    }
}
