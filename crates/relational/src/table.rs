//! In-memory table instances (bags of tuples).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::attribute::Attribute;
use crate::error::{Error, Result};
use crate::fingerprint::TableFingerprints;
use crate::schema::TableSchema;
use crate::tuple::Tuple;
use crate::value::Value;

/// An instance of a table: its schema plus a bag (ordered multiset) of tuples.
///
/// This is the "sample input" the paper's algorithms see. The bag of values of
/// one attribute, `v(R.a)` in the paper ("select a from R"), is exposed by
/// [`Table::column`].
///
/// Content fingerprints ([`Table::fingerprint`],
/// [`Table::column_fingerprints`]) are computed lazily on first use and
/// cached on the instance; mutation ([`Table::insert`]) invalidates the
/// cache. Equality and ordering ignore the cache — two instances with equal
/// schema and rows are equal whether or not either has been fingerprinted.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Tuple>,
    /// Lazily computed content fingerprints under the default seed (the
    /// table-level fingerprint plus every column's), invalidated on
    /// mutation. Clones carry the computed family (it is content-derived,
    /// and clones share content).
    fingerprints: OnceLock<TableFingerprints>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for Table {}

impl Table {
    /// Create an empty instance of the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table { schema, rows: Vec::new(), fingerprints: OnceLock::new() }
    }

    /// Create an instance and bulk-load rows, validating arity.
    pub fn with_rows(schema: TableSchema, rows: Vec<Tuple>) -> Result<Self> {
        let mut t = Table::new(schema);
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// Crate-internal: assemble a table from a schema and rows already known
    /// to agree on arity (used by the zero-copy slice materializer).
    pub(crate) fn from_parts(schema: TableSchema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.arity() == schema.arity()));
        Table { schema, rows, fingerprints: OnceLock::new() }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name (delegates to the schema).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples in the instance.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the instance holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuples, in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Insert one tuple, validating its arity against the schema.
    pub fn insert(&mut self, row: Tuple) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: row.arity(),
            });
        }
        self.rows.push(row);
        // Content changed: any cached fingerprints are stale.
        self.fingerprints = OnceLock::new();
        Ok(())
    }

    /// Insert many tuples.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// The value of attribute `name` in row `row_idx`.
    pub fn value_at(&self, row_idx: usize, name: &str) -> Result<&Value> {
        let col = self.schema.require_index(name)?;
        Ok(self.rows[row_idx].at(col))
    }

    /// The bag of values of one attribute — `v(R.a)` in the paper.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        Ok(self.column_iter(name)?.cloned().collect())
    }

    /// Borrowing iterator over the bag of values of one attribute, in row
    /// order. The zero-copy counterpart of [`Table::column`]: no `Value` is
    /// cloned, which is what column extraction and fingerprinting want.
    pub fn column_iter(&self, name: &str) -> Result<impl Iterator<Item = &Value> + Clone + '_> {
        let col = self.schema.require_index(name)?;
        Ok(self.rows.iter().map(move |r| r.at(col)))
    }

    /// Like [`Table::column`] but skipping NULLs, which instance matchers and
    /// classifiers generally ignore.
    pub fn column_non_null(&self, name: &str) -> Result<Vec<Value>> {
        Ok(self.column_iter(name)?.filter(|v| !v.is_null()).cloned().collect())
    }

    /// Distinct values of an attribute with their multiplicities, in value order.
    pub fn value_counts(&self, name: &str) -> Result<BTreeMap<Value, usize>> {
        let col = self.schema.require_index(name)?;
        let mut counts = BTreeMap::new();
        for row in &self.rows {
            *counts.entry(row.at(col).clone()).or_insert(0) += 1;
        }
        Ok(counts)
    }

    /// Distinct non-NULL values of an attribute, in value order.
    pub fn distinct_values(&self, name: &str) -> Result<Vec<Value>> {
        Ok(self.value_counts(name)?.into_keys().filter(|v| !v.is_null()).collect())
    }

    /// Project the instance onto the named attributes (in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let positions: Vec<usize> =
            names.iter().map(|n| self.schema.require_index(n)).collect::<Result<_>>()?;
        let rows = self.rows.iter().map(|r| r.project(&positions)).collect();
        Ok(Table::from_parts(schema, rows))
    }

    /// The cached fingerprint family under the default seed, computed on
    /// first use.
    fn fingerprints(&self) -> &TableFingerprints {
        self.fingerprints.get_or_init(|| {
            crate::fingerprint::table_fingerprints(self, crate::fingerprint::TABLE_FINGERPRINT_SEED)
        })
    }

    /// A deterministic content fingerprint of this instance, **derived from
    /// the per-column fingerprints**: exactly
    /// [`crate::fingerprint::combine_column_fingerprints`] over
    /// [`Table::column_fingerprints`] (table name, arity, row count, then
    /// every column fingerprint in schema order).
    ///
    /// Equal instances always fingerprint equally; any schema or data change
    /// changes the fingerprint with overwhelming probability. Long-lived
    /// services key warm artifacts (memoized column profiles, cached
    /// selection vectors) by this value — and by the per-column values — to
    /// invalidate exactly the content that changed. The family is computed
    /// once per instance and cached (mutation invalidates). See
    /// [`crate::fingerprint`] for guarantees and non-goals (the hash is not
    /// cryptographic).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprints().table
    }

    /// [`Table::fingerprint`] under a caller-chosen domain seed, for callers
    /// that maintain several independent fingerprint keyspaces. Only the
    /// default seed's family is cached; other seeds recompute.
    pub fn fingerprint_seeded(&self, seed: u64) -> u64 {
        if seed == crate::fingerprint::TABLE_FINGERPRINT_SEED {
            return self.fingerprint();
        }
        crate::fingerprint::table_fingerprints(self, seed).table
    }

    /// Every column's content fingerprint, in schema (attribute) order —
    /// the per-column building blocks [`Table::fingerprint`] combines.
    /// Computed together with the table fingerprint and cached, so reading
    /// them after a [`Table::fingerprint`] call is free.
    pub fn column_fingerprints(&self) -> &[u64] {
        &self.fingerprints().columns
    }

    /// A deterministic content fingerprint of **one column** of this
    /// instance: the attribute's name, declared type, and its value bag in
    /// row order (see [`crate::fingerprint`]). Lets warm caches key
    /// per-column artifacts so edits to *other* columns do not invalidate
    /// them. Errors when the attribute does not exist.
    pub fn column_fingerprint(&self, name: &str) -> Result<u64> {
        let index = self.schema.require_index(name)?;
        Ok(self.fingerprints().columns[index])
    }

    /// Return a copy of this instance under a different table name.
    pub fn renamed(&self, name: impl Into<String>) -> Table {
        Table::from_parts(self.schema.with_name(name), self.rows.clone())
    }

    /// Return a copy restricted to the first `n` rows (used by the sample-size
    /// experiments, Figure 18).
    pub fn head(&self, n: usize) -> Table {
        Table::from_parts(self.schema.clone(), self.rows.iter().take(n).cloned().collect())
    }

    /// Add a new attribute filled by `fill(row_index, tuple)`, returning the new
    /// instance. Used by the data generators when injecting correlated or
    /// padding attributes (Figures 12–13, 16–17).
    pub fn extend_with<F>(&self, attribute: Attribute, mut fill: F) -> Result<Table>
    where
        F: FnMut(usize, &Tuple) -> Value,
    {
        let mut schema = self.schema.clone();
        schema.add_attribute(attribute)?;
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut nr = r.clone();
                nr.push(fill(i, r));
                nr
            })
            .collect();
        Ok(Table::from_parts(schema, rows))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.rows.len())?;
        for row in self.rows.iter().take(10) {
            writeln!(f, "  {row}")?;
        }
        if self.rows.len() > 10 {
            writeln!(f, "  … {} more", self.rows.len() - 10)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn price_table() -> Table {
        let schema = TableSchema::new(
            "price",
            vec![Attribute::int("id"), Attribute::text("prcode"), Attribute::float("price")],
        );
        Table::with_rows(
            schema,
            vec![
                tuple![0, "reg", 14.95],
                tuple![1, "reg", 27.99],
                tuple![1, "sale", 24.99],
                tuple![2, "reg", 8.95],
                tuple![2, "sale", 8.45],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_validates_arity() {
        let schema = TableSchema::new("t", vec![Attribute::int("a"), Attribute::int("b")]);
        let mut t = Table::new(schema);
        assert!(t.insert(tuple![1, 2]).is_ok());
        assert!(matches!(t.insert(tuple![1]), Err(Error::ArityMismatch { .. })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn column_extracts_value_bag() {
        let t = price_table();
        let prices = t.column("price").unwrap();
        assert_eq!(prices.len(), 5);
        assert_eq!(prices[0], Value::Float(14.95));
        assert!(t.column("missing").is_err());
    }

    #[test]
    fn column_non_null_skips_nulls() {
        let schema = TableSchema::new("t", vec![Attribute::text("x")]);
        let t = Table::with_rows(schema, vec![tuple!["a"], Tuple::new(vec![Value::Null])]).unwrap();
        assert_eq!(t.column_non_null("x").unwrap(), vec![Value::str("a")]);
        assert_eq!(t.column("x").unwrap().len(), 2);
    }

    #[test]
    fn value_counts_and_distinct() {
        let t = price_table();
        let counts = t.value_counts("prcode").unwrap();
        assert_eq!(counts.get(&Value::str("reg")), Some(&3));
        assert_eq!(counts.get(&Value::str("sale")), Some(&2));
        assert_eq!(t.distinct_values("prcode").unwrap().len(), 2);
    }

    #[test]
    fn project_reorders_columns() {
        let t = price_table();
        let p = t.project(&["price", "id"]).unwrap();
        assert_eq!(p.schema().attribute_names(), vec!["price", "id"]);
        assert_eq!(p.rows()[0].at(1), &Value::Int(0));
    }

    #[test]
    fn head_limits_rows() {
        let t = price_table();
        assert_eq!(t.head(2).len(), 2);
        assert_eq!(t.head(100).len(), 5);
    }

    #[test]
    fn renamed_changes_only_the_name() {
        let t = price_table().renamed("V_sale");
        assert_eq!(t.name(), "V_sale");
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn extend_with_adds_attribute() {
        let t = price_table();
        let ext = t
            .extend_with(Attribute::text("flag"), |i, _| {
                if i % 2 == 0 {
                    Value::str("even")
                } else {
                    Value::str("odd")
                }
            })
            .unwrap();
        assert_eq!(ext.schema().arity(), 4);
        assert_eq!(ext.value_at(0, "flag").unwrap(), &Value::str("even"));
        assert_eq!(ext.value_at(1, "flag").unwrap(), &Value::str("odd"));
        // Duplicate attribute rejected.
        assert!(t.extend_with(Attribute::text("price"), |_, _| Value::Null).is_err());
    }

    #[test]
    fn value_at_reads_named_cell() {
        let t = price_table();
        assert_eq!(t.value_at(2, "prcode").unwrap(), &Value::str("sale"));
    }
}
