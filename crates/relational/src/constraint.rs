//! Keys, foreign keys and the paper's contextual foreign keys (§4.2).
//!
//! * A **key** `R[X] → R` holds when the `X` attributes of a tuple uniquely
//!   identify it.
//! * A **foreign key** `R2[Y] ⊆ R1[X]` holds when every `Y`-projection of `R2`
//!   appears as the `X`-projection of some `R1` tuple, and `X` is a key of `R1`.
//! * A **contextual foreign key** `V1[Y, a = v] ⊆ R[X, b]` extends this to
//!   views: the `Y` attributes of view `V1`, *augmented with the constant `v`
//!   as the value of `a`*, reference `R` tuples on the key `[X, b]`. The
//!   augmenting attribute `a` is the view's selection attribute and is not in
//!   `att(V1)`.
//!
//! Checking these constraints against sample instances is what the constraint
//! mining of `cxm-mapping` builds on.

use std::collections::HashSet;
use std::fmt;

use crate::error::{Error, Result};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;

/// A key constraint `R[X] → R`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    /// Table (or view) the key is declared on.
    pub table: String,
    /// The key attributes `X`.
    pub attributes: Vec<String>,
}

impl Key {
    /// Create a key constraint.
    pub fn new<S: Into<String>>(table: impl Into<String>, attributes: Vec<S>) -> Self {
        Key { table: table.into(), attributes: attributes.into_iter().map(Into::into).collect() }
    }

    /// Check whether the key holds on the given instance (which must be an
    /// instance of `self.table`'s schema; the name is not rechecked so that the
    /// same key can be validated against view outputs).
    pub fn holds_on(&self, instance: &Table) -> Result<bool> {
        let positions: Vec<usize> = self
            .attributes
            .iter()
            .map(|a| instance.schema().require_index(a))
            .collect::<Result<_>>()?;
        let mut seen: HashSet<Tuple> = HashSet::with_capacity(instance.len());
        for row in instance.rows() {
            let proj = row.project(&positions);
            if !seen.insert(proj) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] -> {}", self.table, self.attributes.join(", "), self.table)
    }
}

/// A foreign key constraint `child[child_attrs] ⊆ parent[parent_attrs]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing table (or view).
    pub child_table: String,
    /// Referencing attributes `Y`.
    pub child_attrs: Vec<String>,
    /// Referenced table (or view).
    pub parent_table: String,
    /// Referenced key attributes `X`.
    pub parent_attrs: Vec<String>,
}

impl ForeignKey {
    /// Create a foreign key; the attribute lists must have equal length.
    pub fn new<S: Into<String>>(
        child_table: impl Into<String>,
        child_attrs: Vec<S>,
        parent_table: impl Into<String>,
        parent_attrs: Vec<S>,
    ) -> Result<Self> {
        let child_attrs: Vec<String> = child_attrs.into_iter().map(Into::into).collect();
        let parent_attrs: Vec<String> = parent_attrs.into_iter().map(Into::into).collect();
        if child_attrs.len() != parent_attrs.len() || child_attrs.is_empty() {
            return Err(Error::InvalidConstraint(
                "foreign key attribute lists must be non-empty and of equal length".into(),
            ));
        }
        Ok(ForeignKey {
            child_table: child_table.into(),
            child_attrs,
            parent_table: parent_table.into(),
            parent_attrs,
        })
    }

    /// Check the inclusion dependency on a pair of instances. NULL-containing
    /// child projections are skipped (SQL semantics for foreign keys).
    pub fn holds_on(&self, child: &Table, parent: &Table) -> Result<bool> {
        let child_pos: Vec<usize> = self
            .child_attrs
            .iter()
            .map(|a| child.schema().require_index(a))
            .collect::<Result<_>>()?;
        let parent_pos: Vec<usize> = self
            .parent_attrs
            .iter()
            .map(|a| parent.schema().require_index(a))
            .collect::<Result<_>>()?;
        let parent_keys: HashSet<Tuple> =
            parent.rows().iter().map(|r| r.project(&parent_pos)).collect();
        for row in child.rows() {
            let proj = row.project(&child_pos);
            if proj.iter().any(|v| v.is_null()) {
                continue;
            }
            if !parent_keys.contains(&proj) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] ⊆ {}[{}]",
            self.child_table,
            self.child_attrs.join(", "),
            self.parent_table,
            self.parent_attrs.join(", ")
        )
    }
}

/// A contextual foreign key `view[attrs, cond_attr = cond_value] ⊆ parent[parent_attrs, parent_cond_attr]`.
///
/// The referencing side is a view `V1` defined by the selection `cond_attr = cond_value`
/// on its base table; `cond_attr` is *not* an attribute of the view. The
/// referenced side's key is `[parent_attrs…, parent_cond_attr]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContextualForeignKey {
    /// The referencing view `V1`.
    pub view: String,
    /// The referencing attributes `Y` (attributes of the view).
    pub view_attrs: Vec<String>,
    /// The selection attribute `a` of the view's defining query.
    pub cond_attr: String,
    /// The selection constant `v`.
    pub cond_value: Value,
    /// The referenced table or view `R`.
    pub parent_table: String,
    /// The referenced key attributes `X` matched positionally against `view_attrs`.
    pub parent_attrs: Vec<String>,
    /// The referenced key attribute `b` matched against the constant `v`.
    pub parent_cond_attr: String,
}

impl ContextualForeignKey {
    /// Create a contextual foreign key; `view_attrs` and `parent_attrs` must
    /// have equal, non-zero length.
    #[allow(clippy::too_many_arguments)]
    pub fn new<S: Into<String>>(
        view: impl Into<String>,
        view_attrs: Vec<S>,
        cond_attr: impl Into<String>,
        cond_value: Value,
        parent_table: impl Into<String>,
        parent_attrs: Vec<S>,
        parent_cond_attr: impl Into<String>,
    ) -> Result<Self> {
        let view_attrs: Vec<String> = view_attrs.into_iter().map(Into::into).collect();
        let parent_attrs: Vec<String> = parent_attrs.into_iter().map(Into::into).collect();
        if view_attrs.len() != parent_attrs.len() || view_attrs.is_empty() {
            return Err(Error::InvalidConstraint(
                "contextual foreign key attribute lists must be non-empty and of equal length"
                    .into(),
            ));
        }
        Ok(ContextualForeignKey {
            view: view.into(),
            view_attrs,
            cond_attr: cond_attr.into(),
            cond_value,
            parent_table: parent_table.into(),
            parent_attrs,
            parent_cond_attr: parent_cond_attr.into(),
        })
    }

    /// Check the constraint: for every tuple `t1` of the view instance there is
    /// a parent tuple `t` with `t1[Y] = t[X]` and `t[b] = v`.
    pub fn holds_on(&self, view_instance: &Table, parent: &Table) -> Result<bool> {
        let view_pos: Vec<usize> = self
            .view_attrs
            .iter()
            .map(|a| view_instance.schema().require_index(a))
            .collect::<Result<_>>()?;
        let parent_pos: Vec<usize> = self
            .parent_attrs
            .iter()
            .map(|a| parent.schema().require_index(a))
            .collect::<Result<_>>()?;
        let parent_cond_pos = parent.schema().require_index(&self.parent_cond_attr)?;

        let parent_keys: HashSet<Tuple> = parent
            .rows()
            .iter()
            .filter(|r| r.at(parent_cond_pos) == &self.cond_value)
            .map(|r| r.project(&parent_pos))
            .collect();
        for row in view_instance.rows() {
            let proj = row.project(&view_pos);
            if proj.iter().any(|v| v.is_null()) {
                continue;
            }
            if !parent_keys.contains(&proj) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for ContextualForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}, {} = {}] ⊆ {}[{}, {}]",
            self.view,
            self.view_attrs.join(", "),
            self.cond_attr,
            self.cond_value,
            self.parent_table,
            self.parent_attrs.join(", "),
            self.parent_cond_attr
        )
    }
}

/// A set of constraints Σ over a schema: keys, foreign keys and contextual
/// foreign keys, as used by the mapping generator's propagation analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    /// Key constraints.
    pub keys: Vec<Key>,
    /// Foreign key constraints.
    pub foreign_keys: Vec<ForeignKey>,
    /// Contextual foreign key constraints.
    pub contextual_fks: Vec<ContextualForeignKey>,
}

impl ConstraintSet {
    /// Create an empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a key constraint (deduplicated).
    pub fn add_key(&mut self, key: Key) {
        if !self.keys.contains(&key) {
            self.keys.push(key);
        }
    }

    /// Add a foreign key constraint (deduplicated).
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        if !self.foreign_keys.contains(&fk) {
            self.foreign_keys.push(fk);
        }
    }

    /// Add a contextual foreign key constraint (deduplicated).
    pub fn add_contextual_fk(&mut self, cfk: ContextualForeignKey) {
        if !self.contextual_fks.contains(&cfk) {
            self.contextual_fks.push(cfk);
        }
    }

    /// All keys declared on the named table or view.
    pub fn keys_of(&self, table: &str) -> Vec<&Key> {
        self.keys.iter().filter(|k| k.table == table).collect()
    }

    /// All foreign keys whose referencing side is the named table or view.
    pub fn foreign_keys_from(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys.iter().filter(|fk| fk.child_table == table).collect()
    }

    /// All contextual foreign keys whose referencing view is the named view.
    pub fn contextual_fks_from(&self, view: &str) -> Vec<&ContextualForeignKey> {
        self.contextual_fks.iter().filter(|c| c.view == view).collect()
    }

    /// True when `attrs` is (a superset containing) a declared key of `table`.
    pub fn is_key(&self, table: &str, attrs: &[String]) -> bool {
        self.keys_of(table)
            .iter()
            .any(|k| k.attributes.iter().all(|ka| attrs.iter().any(|a| a.eq_ignore_ascii_case(ka))))
    }

    /// Total number of constraints of all kinds.
    pub fn len(&self) -> usize {
        self.keys.len() + self.foreign_keys.len() + self.contextual_fks.len()
    }

    /// True when no constraints are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge another constraint set into this one (deduplicated).
    pub fn extend(&mut self, other: ConstraintSet) {
        for k in other.keys {
            self.add_key(k);
        }
        for fk in other.foreign_keys {
            self.add_foreign_key(fk);
        }
        for c in other.contextual_fks {
            self.add_contextual_fk(c);
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in &self.keys {
            writeln!(f, "key: {k}")?;
        }
        for fk in &self.foreign_keys {
            writeln!(f, "fk: {fk}")?;
        }
        for c in &self.contextual_fks {
            writeln!(f, "cfk: {c}")?;
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

    /// The running example of §4.2: project(name, assignt, grade, instructor).
    fn project_table() -> Table {
        Table::with_rows(
            TableSchema::new(
                "project",
                vec![
                    Attribute::text("name"),
                    Attribute::int("assignt"),
                    Attribute::text("grade"),
                    Attribute::text("instructor"),
                ],
            ),
            vec![
                tuple!["ann", 0, "A", "smith"],
                tuple!["ann", 1, "B", "smith"],
                tuple!["bob", 0, "C", "jones"],
                tuple!["bob", 1, "A", "jones"],
            ],
        )
        .unwrap()
    }

    fn student_table() -> Table {
        Table::with_rows(
            TableSchema::new("student", vec![Attribute::text("name"), Attribute::text("email")]),
            vec![tuple!["ann", "ann@u.edu"], tuple!["bob", "bob@u.edu"]],
        )
        .unwrap()
    }

    #[test]
    fn key_detection_on_instances() {
        let t = project_table();
        assert!(Key::new("project", vec!["name", "assignt"]).holds_on(&t).unwrap());
        assert!(!Key::new("project", vec!["name"]).holds_on(&t).unwrap());
        assert!(!Key::new("project", vec!["assignt"]).holds_on(&t).unwrap());
        assert!(Key::new("project", vec!["missing"]).holds_on(&t).is_err());
    }

    #[test]
    fn foreign_key_inclusion_check() {
        let proj = project_table();
        let stud = student_table();
        let fk = ForeignKey::new("project", vec!["name"], "student", vec!["name"]).unwrap();
        assert!(fk.holds_on(&proj, &stud).unwrap());

        // Remove bob from students → violated.
        let stud_small = Table::with_rows(
            TableSchema::new("student", vec![Attribute::text("name"), Attribute::text("email")]),
            vec![tuple!["ann", "ann@u.edu"]],
        )
        .unwrap();
        assert!(!fk.holds_on(&proj, &stud_small).unwrap());
    }

    #[test]
    fn foreign_key_requires_equal_arity() {
        assert!(ForeignKey::new("a", vec!["x", "y"], "b", vec!["x"]).is_err());
        assert!(ForeignKey::new("a", Vec::<String>::new(), "b", Vec::<String>::new()).is_err());
    }

    #[test]
    fn foreign_key_skips_null_children() {
        let child = Table::with_rows(
            TableSchema::new("c", vec![Attribute::text("r")]),
            vec![Tuple::new(vec![Value::Null]), tuple!["ann"]],
        )
        .unwrap();
        let fk = ForeignKey::new("c", vec!["r"], "student", vec!["name"]).unwrap();
        assert!(fk.holds_on(&child, &student_table()).unwrap());
    }

    #[test]
    fn contextual_foreign_key_example_4_1() {
        // V0 = select name, grade from project where assignt = 0
        let proj = project_table();
        let v0 = Table::with_rows(
            TableSchema::new("V0", vec![Attribute::text("name"), Attribute::text("grade")]),
            vec![tuple!["ann", "A"], tuple!["bob", "C"]],
        )
        .unwrap();
        // V0[name, assignt = 0] ⊆ project[name, assignt]
        let cfk = ContextualForeignKey::new(
            "V0",
            vec!["name"],
            "assignt",
            Value::Int(0),
            "project",
            vec!["name"],
            "assignt",
        )
        .unwrap();
        assert!(cfk.holds_on(&v0, &proj).unwrap());

        // The same constraint with the wrong constant fails.
        let wrong = ContextualForeignKey::new(
            "V0",
            vec!["name"],
            "assignt",
            Value::Int(5),
            "project",
            vec!["name"],
            "assignt",
        )
        .unwrap();
        assert!(!wrong.holds_on(&v0, &proj).unwrap());
    }

    #[test]
    fn contextual_foreign_key_arity_validation() {
        assert!(ContextualForeignKey::new(
            "v",
            vec!["a", "b"],
            "c",
            Value::Int(0),
            "p",
            vec!["x"],
            "y",
        )
        .is_err());
    }

    #[test]
    fn constraint_set_queries() {
        let mut cs = ConstraintSet::new();
        cs.add_key(Key::new("project", vec!["name", "assignt"]));
        cs.add_key(Key::new("project", vec!["name", "assignt"])); // dedup
        cs.add_key(Key::new("student", vec!["name"]));
        cs.add_foreign_key(
            ForeignKey::new("project", vec!["name"], "student", vec!["name"]).unwrap(),
        );
        assert_eq!(cs.keys.len(), 2);
        assert_eq!(cs.keys_of("project").len(), 1);
        assert_eq!(cs.foreign_keys_from("project").len(), 1);
        assert!(cs.is_key("student", &["name".to_string()]));
        assert!(cs.is_key("project", &["name".to_string(), "assignt".to_string()]));
        assert!(!cs.is_key("project", &["name".to_string()]));
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_empty());
    }

    #[test]
    fn constraint_set_extend_deduplicates() {
        let mut a = ConstraintSet::new();
        a.add_key(Key::new("t", vec!["x"]));
        let mut b = ConstraintSet::new();
        b.add_key(Key::new("t", vec!["x"]));
        b.add_key(Key::new("t", vec!["y"]));
        a.extend(b);
        assert_eq!(a.keys.len(), 2);
    }

    #[test]
    fn display_renders_all_kinds() {
        let mut cs = ConstraintSet::new();
        cs.add_key(Key::new("t", vec!["x"]));
        cs.add_foreign_key(ForeignKey::new("a", vec!["x"], "b", vec!["y"]).unwrap());
        cs.add_contextual_fk(
            ContextualForeignKey::new("v", vec!["n"], "a", Value::Int(1), "p", vec!["n"], "a")
                .unwrap(),
        );
        let s = cs.to_string();
        assert!(s.contains("key: t[x] -> t"));
        assert!(s.contains("fk: a[x]"));
        assert!(s.contains("cfk: v[n, a = 1]"));
    }
}
