//! Select-only and select-project (SP) views.
//!
//! Candidate contexts in the paper are treated as select-only views
//! `Vc = "select * from R where c"`; the schema-mapping extensions of §4 also
//! reason about SP views `select Y from R where c`. [`ViewDef`] covers both.
//! Views are *definitions only* — they are evaluated lazily against a
//! [`Database`] and never stored back into it, mirroring the paper's remark
//! that views are not created in the DBMS during the search.

use std::fmt;
use std::sync::Arc;

use crate::condition::Condition;
use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::selection::{RowSelection, SelectionCache, TableSlice};
use crate::table::Table;

/// Definition of a single-table selection (optionally projection) view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// Name of the view (e.g. `inv[type = 1]` or `V1`).
    pub name: String,
    /// Name of the base table the view selects from.
    pub base_table: String,
    /// Selection condition `c`.
    pub condition: Condition,
    /// Projection list; `None` means `select *` (a select-only view).
    pub projection: Option<Vec<String>>,
}

impl ViewDef {
    /// Create a select-only view `select * from base where condition`.
    pub fn select_only(
        name: impl Into<String>,
        base_table: impl Into<String>,
        condition: Condition,
    ) -> Self {
        ViewDef { name: name.into(), base_table: base_table.into(), condition, projection: None }
    }

    /// Create a select-project view `select projection from base where condition`.
    pub fn select_project(
        name: impl Into<String>,
        base_table: impl Into<String>,
        condition: Condition,
        projection: Vec<String>,
    ) -> Self {
        ViewDef {
            name: name.into(),
            base_table: base_table.into(),
            condition,
            projection: Some(projection),
        }
    }

    /// Generate a canonical view name of the form `base[condition]`.
    pub fn canonical_name(base_table: &str, condition: &Condition) -> String {
        format!("{}[{}]", base_table, condition.to_sql())
    }

    /// Create a select-only view with the canonical name for its condition.
    pub fn named_by_condition(base_table: impl Into<String>, condition: Condition) -> Self {
        let base_table = base_table.into();
        let name = Self::canonical_name(&base_table, &condition);
        ViewDef::select_only(name, base_table, condition)
    }

    /// True when the view projects all attributes of its base (select-only).
    pub fn is_select_only(&self) -> bool {
        self.projection.is_none()
    }

    /// The view's output schema given its base table's schema.
    pub fn schema(&self, base: &TableSchema) -> Result<TableSchema> {
        let projected = match &self.projection {
            None => base.clone(),
            Some(names) => {
                let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                base.project(&refs)?
            }
        };
        Ok(projected.with_name(self.name.clone()))
    }

    /// Validate the definition against a base schema: the condition may only
    /// mention base attributes and the projection list must exist in the base.
    pub fn validate(&self, base: &TableSchema) -> Result<()> {
        for attr in self.condition.attributes() {
            if !base.has_attribute(&attr) {
                return Err(Error::InvalidView(format!(
                    "view {} condition mentions unknown attribute {attr} of {}",
                    self.name, self.base_table
                )));
            }
        }
        if let Some(proj) = &self.projection {
            for p in proj {
                if !base.has_attribute(p) {
                    return Err(Error::InvalidView(format!(
                        "view {} projects unknown attribute {p} of {}",
                        self.name, self.base_table
                    )));
                }
            }
        }
        Ok(())
    }

    /// Evaluate the view's *selection* against a base table instance without
    /// materializing anything: the returned [`RowSelection`] identifies the
    /// selected rows, and a [`TableSlice`] over it is the zero-copy view
    /// instance. This is the fast path every scoring loop should use.
    pub fn select(&self, base: &Table) -> Result<RowSelection> {
        self.validate(base.schema())?;
        Ok(RowSelection::of_condition(base, &self.condition))
    }

    /// Like [`ViewDef::select`], but served through a shared [`SelectionCache`]
    /// so condition atoms recurring across the views of a family (or across
    /// conjunctive stages) are scanned at most once per base table.
    pub fn select_cached(
        &self,
        base: &Table,
        cache: &mut SelectionCache,
    ) -> Result<Arc<RowSelection>> {
        self.validate(base.schema())?;
        Ok(cache.select(base, &self.condition))
    }

    /// Materialize a previously computed selection of this view into an owned
    /// instance named after the view, applying the projection if any.
    pub fn materialize_selection(&self, base: &Table, selection: &RowSelection) -> Result<Table> {
        let selected = TableSlice::new(base, selection).materialize(self.name.clone());
        match &self.projection {
            None => Ok(selected),
            Some(names) => {
                let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                Ok(selected.project(&refs)?.renamed(self.name.clone()))
            }
        }
    }

    /// Evaluate the view against a whole database instance, resolving the base
    /// table by name and materializing the view's selection into a new owned
    /// instance named after the view.
    ///
    /// Kept for the one library caller that needs an owned [`Table`] (the
    /// schema-mapping executor); scoring paths stay on selections and slices.
    pub fn evaluate(&self, db: &Database) -> Result<Table> {
        let base = db.require_table(&self.base_table)?;
        let selection = self.select(base)?;
        self.materialize_selection(base, &selection)
    }

    /// The fraction of base-table rows this view selects (its selectivity),
    /// used to normalize scores for view size. Computed from the selection
    /// vector — a single scan, no materialization.
    pub fn selectivity(&self, base: &Table) -> f64 {
        match self.select(base) {
            Ok(selection) => selection.selectivity(base.len()),
            Err(_) => 0.0,
        }
    }

    /// Render the view as the SQL the paper uses in its figures.
    pub fn to_sql(&self) -> String {
        let cols = match &self.projection {
            None => "*".to_string(),
            Some(names) => names.join(", "),
        };
        format!("select {cols} from {} where {}", self.base_table, self.condition.to_sql())
    }
}

impl fmt::Display for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::tuple;
    use crate::value::Value;

    fn inv_db() -> Database {
        let schema = TableSchema::new(
            "inv",
            vec![
                Attribute::int("id"),
                Attribute::text("name"),
                Attribute::int("type"),
                Attribute::text("code"),
            ],
        );
        let table = Table::with_rows(
            schema,
            vec![
                tuple![0, "leaves of grass", 1, "0195128"],
                tuple![1, "the white album", 2, "B002UAX"],
                tuple![2, "heart of darkness", 1, "0486611"],
                tuple![3, "wasteland", 1, "0393995"],
                tuple![4, "hotel california", 2, "B002GVO"],
            ],
        )
        .unwrap();
        Database::new("RS").with_table(table)
    }

    #[test]
    fn select_only_view_filters_rows() {
        let db = inv_db();
        let v = ViewDef::select_only("V1", "inv", Condition::eq("type", 1));
        let out = v.evaluate(&db).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.name(), "V1");
        assert_eq!(out.schema().arity(), 4);
        for row in out.rows() {
            assert_eq!(row.at(2), &Value::Int(1));
        }
    }

    #[test]
    fn select_project_view_projects_columns() {
        let db = inv_db();
        let v = ViewDef::select_project(
            "V2",
            "inv",
            Condition::eq("type", 2),
            vec!["id".into(), "name".into()],
        );
        let out = v.evaluate(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().attribute_names(), vec!["id", "name"]);
        assert!(!v.is_select_only());
    }

    #[test]
    fn canonical_name_embeds_condition() {
        let v = ViewDef::named_by_condition("inv", Condition::eq("type", 1));
        assert_eq!(v.name, "inv[type = 1]");
    }

    #[test]
    fn schema_derivation_renames() {
        let db = inv_db();
        let base = db.table("inv").unwrap().schema();
        let v = ViewDef::select_only("V1", "inv", Condition::eq("type", 1));
        let s = v.schema(base).unwrap();
        assert_eq!(s.name(), "V1");
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn validation_catches_unknown_attributes() {
        let db = inv_db();
        let base = db.table("inv").unwrap().schema();
        let bad_cond = ViewDef::select_only("V", "inv", Condition::eq("color", "red"));
        assert!(bad_cond.validate(base).is_err());
        let bad_proj = ViewDef::select_project(
            "V",
            "inv",
            Condition::True,
            vec!["id".into(), "missing".into()],
        );
        assert!(bad_proj.validate(base).is_err());
        assert!(bad_proj.evaluate(&db).is_err());
    }

    #[test]
    fn evaluate_unknown_base_table_errors() {
        let db = inv_db();
        let v = ViewDef::select_only("V", "nope", Condition::True);
        assert!(matches!(v.evaluate(&db), Err(Error::UnknownTable(_))));
    }

    #[test]
    fn select_agrees_with_evaluate() {
        let db = inv_db();
        let base = db.table("inv").unwrap();
        let v = ViewDef::select_only("V1", "inv", Condition::eq("type", 1));
        let sel = v.select(base).unwrap();
        assert_eq!(sel.indices(), &[0, 2, 3]);
        // Materializing the selection equals the legacy evaluate path.
        assert_eq!(v.materialize_selection(base, &sel).unwrap(), v.evaluate(&db).unwrap());
        // Projection views materialize through the same path.
        let p = ViewDef::select_project(
            "V2",
            "inv",
            Condition::eq("type", 2),
            vec!["id".into(), "name".into()],
        );
        let psel = p.select(base).unwrap();
        assert_eq!(p.materialize_selection(base, &psel).unwrap(), p.evaluate(&db).unwrap());
        // Invalid conditions are rejected before any scan.
        let bad = ViewDef::select_only("V", "inv", Condition::eq("color", "red"));
        assert!(bad.select(base).is_err());
    }

    #[test]
    fn select_cached_shares_atom_scans_across_family_members() {
        let db = inv_db();
        let base = db.table("inv").unwrap();
        let mut cache = crate::selection::SelectionCache::new();
        let family: Vec<ViewDef> = [1, 2]
            .iter()
            .map(|&v| ViewDef::named_by_condition("inv", Condition::eq("type", v)))
            .collect();
        for v in &family {
            let direct = v.select(base).unwrap();
            let cached = v.select_cached(base, &mut cache).unwrap();
            assert_eq!(direct, *cached);
        }
        assert_eq!(cache.misses(), 2);
        // Re-selecting the same views is now scan-free.
        for v in &family {
            v.select_cached(base, &mut cache).unwrap();
        }
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn selectivity_fraction() {
        let db = inv_db();
        let base = db.table("inv").unwrap();
        let v = ViewDef::select_only("V", "inv", Condition::eq("type", 2));
        assert!((v.selectivity(base) - 0.4).abs() < 1e-12);
        let all = ViewDef::select_only("V", "inv", Condition::True);
        assert_eq!(all.selectivity(base), 1.0);
    }

    #[test]
    fn sql_rendering_matches_paper_style() {
        let v = ViewDef::select_project(
            "Rs.V1",
            "inv",
            Condition::eq("type", 1),
            vec!["id".into(), "name".into(), "code".into(), "descr".into()],
        );
        assert_eq!(v.to_sql(), "select id, name, code, descr from inv where type = 1");
        assert!(v.to_string().starts_with("Rs.V1 = select"));
    }
}
