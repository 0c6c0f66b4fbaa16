//! View families: partitioning a table by the values of one categorical attribute.
//!
//! §3.2.2 defines a view family `F = (R, l, {Vi})` as a set of select-only views
//! based on mutually exclusive boolean conditions over a single attribute `l`.
//! A family effectively partitions the tuples of `R` into views keyed by the
//! value of `l`. The disjunct-merging machinery of `EarlyDisjuncts` operates on
//! families whose members carry `IN` conditions covering several merged values.

use std::collections::BTreeSet;
use std::fmt;

use crate::condition::Condition;
use crate::error::Result;
use crate::table::Table;
use crate::value::Value;
use crate::view::ViewDef;

/// A family of mutually exclusive select-only views over one attribute of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewFamily {
    /// The base table `R`.
    pub base_table: String,
    /// The partitioning (categorical) attribute `l`.
    pub attribute: String,
    /// Member views `{Vi}`, one per value (or merged value group) of `l`.
    pub views: Vec<ViewDef>,
}

impl ViewFamily {
    /// Build the family that partitions `base_table` on each distinct value of
    /// `attribute` found in the sample instance — one view per value, with
    /// simple conditions `l = v_i`.
    pub fn partition_by_values(base: &Table, attribute: &str) -> Result<ViewFamily> {
        let values = base.distinct_values(attribute)?;
        Ok(ViewFamily::from_value_groups(
            base.name(),
            attribute,
            values.into_iter().map(|v| vec![v]).collect(),
        ))
    }

    /// Build a family from explicit groups of values; a group of size one gets a
    /// simple `Eq` condition, larger groups get `IN` conditions (merged
    /// disjuncts produced by `EarlyDisjuncts`).
    pub fn from_value_groups(
        base_table: impl Into<String>,
        attribute: impl Into<String>,
        groups: Vec<Vec<Value>>,
    ) -> ViewFamily {
        let base_table = base_table.into();
        let attribute = attribute.into();
        let views = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                let cond = Condition::is_in(attribute.clone(), g);
                ViewDef::named_by_condition(base_table.clone(), cond)
            })
            .collect();
        ViewFamily { base_table, attribute, views }
    }

    /// Number of member views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the family has no member views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The groups of values of `l` selected by each member view, in member order.
    pub fn value_groups(&self) -> Vec<BTreeSet<Value>> {
        self.views
            .iter()
            .map(|v| v.condition.restricted_values(&self.attribute).unwrap_or_default())
            .collect()
    }

    /// All values of `l` covered by some member view.
    pub fn covered_values(&self) -> BTreeSet<Value> {
        self.value_groups().into_iter().flatten().collect()
    }

    /// True when member conditions are pairwise disjoint (no value of `l`
    /// selected by two member views) — the defining property of a view family.
    pub fn is_mutually_exclusive(&self) -> bool {
        let mut seen = BTreeSet::new();
        for group in self.value_groups() {
            for v in group {
                if !seen.insert(v) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for ViewFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "family on {}.{} ({} views)", self.base_table, self.attribute, self.len())?;
        for v in &self.views {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::schema::TableSchema;
    use crate::tuple;

    fn inv_table() -> Table {
        Table::with_rows(
            TableSchema::new(
                "inv",
                vec![Attribute::int("id"), Attribute::text("name"), Attribute::int("type")],
            ),
            vec![
                tuple![0, "leaves of grass", 1],
                tuple![1, "the white album", 2],
                tuple![2, "heart of darkness", 1],
                tuple![3, "wasteland", 1],
                tuple![4, "hotel california", 2],
            ],
        )
        .unwrap()
    }

    #[test]
    fn partition_by_values_creates_one_view_per_value() {
        let t = inv_table();
        let fam = ViewFamily::partition_by_values(&t, "type").unwrap();
        assert_eq!(fam.len(), 2);
        assert!(fam.is_mutually_exclusive());
        assert_eq!(fam.covered_values().len(), 2);
    }

    #[test]
    fn evaluate_partitions_all_rows() {
        let t = inv_table();
        let fam = ViewFamily::partition_by_values(&t, "type").unwrap();
        let parts: Vec<_> = fam.views.iter().map(|v| v.select(&t).unwrap()).collect();
        assert_eq!(parts[0].len() + parts[1].len(), t.len());
        assert_eq!(parts[0].union(&parts[1]), crate::selection::RowSelection::full(t.len()));
    }

    #[test]
    fn from_value_groups_uses_in_conditions_for_merged_groups() {
        let fam = ViewFamily::from_value_groups(
            "inv",
            "type",
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]],
        );
        assert_eq!(fam.len(), 2);
        assert!(fam.views[0].condition.is_simple_disjunctive());
        assert!(fam.views[1].condition.is_simple());
        assert!(fam.is_mutually_exclusive());
    }

    #[test]
    fn mutual_exclusivity_detects_overlap() {
        let fam = ViewFamily::from_value_groups(
            "inv",
            "type",
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2)]],
        );
        assert!(!fam.is_mutually_exclusive());
    }

    #[test]
    fn empty_groups_are_dropped() {
        let fam = ViewFamily::from_value_groups("inv", "type", vec![vec![], vec![Value::Int(1)]]);
        assert_eq!(fam.len(), 1);
    }

    #[test]
    fn display_mentions_base_and_attribute() {
        let t = inv_table();
        let fam = ViewFamily::partition_by_values(&t, "type").unwrap();
        let s = fam.to_string();
        assert!(s.contains("inv.type"));
        assert!(s.contains("2 views"));
    }
}
