//! The zero-copy view execution layer: selection vectors, borrowed table
//! slices, and a shared selection cache.
//!
//! The `ContextMatch` loop (Figure 5 of the paper) scores every prototype
//! match against every candidate view. Materializing each view as a fresh
//! [`Table`] costs O(views × rows) tuple clones on the hottest path of the
//! system. This module replaces that with *selection vectors*:
//!
//! * [`RowSelection`] — a set of row indices into a base table, the result of
//!   evaluating a selection condition once;
//! * [`TableSlice`] / [`ColumnSlice`] — borrowed views over a base [`Table`]
//!   restricted by a `RowSelection`; no tuple or value is ever cloned;
//! * [`SelectionCache`] — a cache keyed by `(base table, condition atom)`
//!   that evaluates conjunctive/disjunctive [`Condition`]s by intersecting /
//!   uniting cached atom selections instead of rescanning rows.
//!
//! ## Invariants
//!
//! 1. A `RowSelection` enumerates its indices **sorted ascending and
//!    duplicate-free**; every index is `< base.len()` for the table it was
//!    built from. All constructors and set operations preserve this, which is
//!    what makes intersection/union linear merges and keeps sliced iteration
//!    in base-table row order.
//! 2. A `TableSlice` yields rows in base-table order, so materializing a
//!    slice produces byte-identical results to the legacy
//!    `Table::filter_rows` path.
//! 3. `SelectionCache` entries are keyed by *table name* + atom and
//!    **content-validated on every lookup**: each bucket records the
//!    [`Table::fingerprint`] of the instance its atoms were scanned from
//!    (memoized on the instance, so the check is one comparison), and an
//!    instance with different content clears the bucket before selecting. A
//!    bucket can therefore never serve another instance's row indices.
//!    [`SelectionCache::validate_fingerprint`] remains as an explicit
//!    claim/invalidate hook for callers that reconcile buckets without
//!    selecting.
//! 4. Selection semantics mirror [`Condition::eval`] exactly: unknown
//!    attributes select nothing, `True` selects everything, `And`/`Or`
//!    intersect/unite member selections.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use crate::condition::Condition;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::types::DataType;
use crate::value::Value;

/// A sorted, duplicate-free set of row indices selecting a subset of a base
/// table's rows (a *selection vector*).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSelection {
    /// Sorted ascending, duplicate-free indices.
    indices: Vec<usize>,
}

impl RowSelection {
    /// The empty selection.
    pub fn empty() -> Self {
        RowSelection::default()
    }

    /// The selection covering every row of a table with `n` rows.
    pub fn full(n: usize) -> Self {
        RowSelection { indices: (0..n).collect() }
    }

    /// Build from indices that are already sorted ascending and unique.
    /// Enforced in debug builds; release builds trust the caller.
    pub fn from_sorted(indices: Vec<usize>) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must be sorted/unique");
        RowSelection { indices }
    }

    /// Build from arbitrary indices: sorts and deduplicates.
    pub fn from_unsorted(mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        RowSelection { indices }
    }

    /// Evaluate `condition` over `table` in a single scan, resolving attribute
    /// positions once (not once per row).
    pub fn of_condition(table: &Table, condition: &Condition) -> Self {
        match compile(condition, table.schema()) {
            Compiled::True => RowSelection::full(table.len()),
            Compiled::False => RowSelection::empty(),
            compiled => {
                let indices = table
                    .rows()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, row)| compiled.matches(row).then_some(i))
                    .collect();
                RowSelection { indices }
            }
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The selected row indices, sorted ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Iterate over the selected row indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().copied()
    }

    /// Membership test (binary search over the sorted indices).
    pub fn contains(&self, row: usize) -> bool {
        self.indices.binary_search(&row).is_ok()
    }

    /// Set intersection: a linear merge of the two sorted index vectors.
    pub fn intersect(&self, other: &RowSelection) -> RowSelection {
        let (a, b) = (&self.indices, &other.indices);
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        RowSelection { indices: out }
    }

    /// Set union: a linear merge of the two sorted index vectors.
    pub fn union(&self, other: &RowSelection) -> RowSelection {
        let (a, b) = (&self.indices, &other.indices);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        RowSelection { indices: out }
    }

    /// The complement with respect to a base of `n` rows.
    pub fn complement(&self, n: usize) -> RowSelection {
        let mut out = Vec::with_capacity(n - self.len().min(n));
        let mut next = 0;
        for &idx in &self.indices {
            out.extend(next..idx.min(n));
            next = idx + 1;
        }
        out.extend(next..n);
        RowSelection { indices: out }
    }

    /// Fraction of the base's rows selected (`len / base_rows`; 0 for an
    /// empty base).
    pub fn selectivity(&self, base_rows: usize) -> f64 {
        if base_rows == 0 {
            0.0
        } else {
            self.len() as f64 / base_rows as f64
        }
    }
}

/// A selection condition with attribute names resolved to column positions,
/// so a scan does one hash lookup per *atom*, not one per atom per row.
enum Compiled {
    True,
    /// Unsatisfiable (e.g. the condition mentions an unknown attribute, or an
    /// empty disjunction).
    False,
    Eq(usize, Value),
    In(usize, BTreeSet<Value>),
    And(Vec<Compiled>),
    Or(Vec<Compiled>),
}

fn compile(condition: &Condition, schema: &TableSchema) -> Compiled {
    match condition {
        Condition::True => Compiled::True,
        Condition::Eq(attr, value) => match schema.index_of(attr) {
            Some(i) => Compiled::Eq(i, value.clone()),
            None => Compiled::False,
        },
        Condition::In(attr, values) => match schema.index_of(attr) {
            Some(i) => Compiled::In(i, values.clone()),
            None => Compiled::False,
        },
        Condition::And(cs) => {
            let mut parts = Vec::with_capacity(cs.len());
            for c in cs {
                match compile(c, schema) {
                    Compiled::True => {}
                    Compiled::False => return Compiled::False,
                    p => parts.push(p),
                }
            }
            if parts.is_empty() {
                Compiled::True
            } else {
                Compiled::And(parts)
            }
        }
        Condition::Or(cs) => {
            let mut parts = Vec::with_capacity(cs.len());
            for c in cs {
                match compile(c, schema) {
                    Compiled::True => return Compiled::True,
                    Compiled::False => {}
                    p => parts.push(p),
                }
            }
            if parts.is_empty() {
                Compiled::False
            } else {
                Compiled::Or(parts)
            }
        }
    }
}

impl Compiled {
    fn matches(&self, row: &Tuple) -> bool {
        match self {
            Compiled::True => true,
            Compiled::False => false,
            Compiled::Eq(i, v) => row.at(*i) == v,
            Compiled::In(i, vs) => vs.contains(row.at(*i)),
            Compiled::And(ps) => ps.iter().all(|p| p.matches(row)),
            Compiled::Or(ps) => ps.iter().any(|p| p.matches(row)),
        }
    }
}

/// A borrowed, zero-copy view of a [`Table`] restricted to the rows of a
/// [`RowSelection`]. Rows come out in base-table order (invariant 2).
#[derive(Debug, Clone, Copy)]
pub struct TableSlice<'a> {
    base: &'a Table,
    selection: &'a RowSelection,
}

impl<'a> TableSlice<'a> {
    /// Borrow `base` restricted by `selection`. The selection must have been
    /// built over `base` (or a table of at least the same length).
    pub fn new(base: &'a Table, selection: &'a RowSelection) -> Self {
        debug_assert!(selection.indices().last().is_none_or(|&i| i < base.len()));
        TableSlice { base, selection }
    }

    /// The underlying base table.
    pub fn base(&self) -> &'a Table {
        self.base
    }

    /// The restricting selection.
    pub fn selection(&self) -> &'a RowSelection {
        self.selection
    }

    /// The base table's schema (a slice never changes the schema).
    pub fn schema(&self) -> &'a TableSchema {
        self.base.schema()
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// True when the slice selects no rows.
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Iterate over the selected tuples in base order, without cloning.
    pub fn rows(&self) -> impl Iterator<Item = &'a Tuple> + '_ {
        self.selection.iter().map(|i| &self.base.rows()[i])
    }

    /// The value of attribute `name` in the `k`-th *selected* row.
    pub fn value_at(&self, k: usize, name: &str) -> crate::error::Result<&'a Value> {
        let col = self.base.schema().require_index(name)?;
        let row = self.selection.indices()[k];
        Ok(self.base.rows()[row].at(col))
    }

    /// Borrow one column of the slice.
    pub fn column(&self, name: &str) -> crate::error::Result<ColumnSlice<'a>> {
        let col = self.base.schema().require_index(name)?;
        Ok(ColumnSlice { base: self.base, selection: self.selection, col })
    }

    /// Clone the selected rows into an owned [`Table`] named `name`. This is
    /// the *only* place the zero-copy path pays for tuple clones; callers that
    /// need an owned instance (e.g. the mapping executor) call this once.
    pub fn materialize(&self, name: impl Into<String>) -> Table {
        let schema = self.base.schema().with_name(name);
        let rows = self.rows().cloned().collect();
        Table::from_parts(schema, rows)
    }
}

/// A borrowed, zero-copy view of one column of a [`TableSlice`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnSlice<'a> {
    base: &'a Table,
    selection: &'a RowSelection,
    col: usize,
}

impl<'a> ColumnSlice<'a> {
    /// The attribute's name.
    pub fn name(&self) -> &'a str {
        &self.base.schema().attributes()[self.col].name
    }

    /// The attribute's declared data type.
    pub fn data_type(&self) -> DataType {
        self.base.schema().attributes()[self.col].data_type
    }

    /// The base table this column belongs to.
    pub fn base(&self) -> &'a Table {
        self.base
    }

    /// Number of selected rows (NULLs included).
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// True when the column selects no rows.
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Iterate over the selected values in base order, without cloning.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.selection.iter().map(|i| self.base.rows()[i].at(self.col))
    }

    /// Like [`ColumnSlice::values`] but skipping NULLs, which instance
    /// matchers and classifiers generally ignore.
    pub fn non_null_values(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.values().filter(|v| !v.is_null())
    }
}

/// A cache of atom selections shared across condition evaluations over the
/// same base tables.
///
/// Conditions decompose into *atoms* (`Eq`, `In`, `True`). Families of
/// candidate views partition one table on one attribute, conjunctive stages
/// conjoin previously seen atoms, and disjunctive merges unite them — so the
/// same atoms recur many times per `ContextMatch` run. The cache scans the
/// base table once per distinct `(table, atom)` pair and serves every other
/// evaluation by merging cached selection vectors.
///
/// Cloning a cache is cheap: the clone shares the selection vectors behind
/// `Arc`s, and its later selects and validations never touch the original.
#[derive(Debug, Default, Clone)]
pub struct SelectionCache {
    /// Per-table buckets; ordered so telemetry walks (`cached_atoms`,
    /// `cached_tables`) are deterministic.
    // cxm-lint: allow(C001, reason = "bounded by `capacity` via evict_over_capacity; unbounded only when the holder opts out")
    tables: BTreeMap<String, TableAtoms>,
    /// Bucket creation order, for capacity eviction.
    // cxm-lint: allow(C001, reason = "one entry per `tables` bucket, evicted in lock-step with it")
    order: std::collections::VecDeque<String>,
    /// Maximum number of table buckets retained (`None` = unbounded). A
    /// long-lived holder serving many distinct table sets bounds the cache
    /// so memory does not grow with the number of schemas ever seen.
    capacity: Option<usize>,
    hits: usize,
    misses: usize,
}

/// Per-table cache bucket. The content fingerprint is the guard: every
/// [`SelectionCache::atom`] lookup compares the instance's memoized
/// [`Table::fingerprint`] against it and clears the bucket on mismatch, so
/// cached selections are only ever served for the exact content they were
/// scanned from.
#[derive(Debug, Default, Clone)]
struct TableAtoms {
    /// [`Table::fingerprint`] of the instance the atoms were scanned from
    /// (or that a caller pre-claimed via
    /// [`SelectionCache::validate_fingerprint`]).
    fingerprint: Option<u64>,
    by_atom: HashMap<Condition, Arc<RowSelection>>,
}

impl SelectionCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SelectionCache::default()
    }

    /// An empty cache retaining at most `capacity` table buckets (oldest
    /// bucket evicted first; the bucket being inserted is never the victim).
    pub fn with_table_capacity(capacity: usize) -> Self {
        SelectionCache { capacity: Some(capacity.max(1)), ..SelectionCache::default() }
    }

    /// Number of atom scans avoided so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of atom scans performed so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Total cached atom selections across all table buckets.
    pub fn cached_atoms(&self) -> usize {
        self.tables.values().map(|b| b.by_atom.len()).sum()
    }

    /// Names of the tables with a cache bucket, sorted.
    pub fn cached_tables(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Reconcile the bucket of `table` with the content fingerprint of the
    /// instance about to be selected against ([`Table::fingerprint`]).
    /// Returns `true` when the bucket was already valid for that content;
    /// otherwise drops the stale selections, records the new fingerprint and
    /// returns `false`.
    ///
    /// Every [`SelectionCache::select`] validates inherently (see the module
    /// invariants), so this explicit hook is for callers that want to claim
    /// or invalidate a bucket *without* selecting — e.g. a match service
    /// reconciling its source tables inside one critical section up front,
    /// so later per-atom validations are guaranteed hits.
    pub fn validate_fingerprint(&mut self, table: &str, fingerprint: u64) -> bool {
        let bucket = self.bucket(table);
        if bucket.fingerprint == Some(fingerprint) {
            return true;
        }
        bucket.by_atom.clear();
        bucket.fingerprint = Some(fingerprint);
        false
    }

    /// The bucket of `table`, created (and capacity-evicting the oldest
    /// other bucket) when absent.
    fn bucket(&mut self, table: &str) -> &mut TableAtoms {
        if !self.tables.contains_key(table) {
            self.tables.insert(table.to_string(), TableAtoms::default());
            self.order.push_back(table.to_string());
            self.evict_over_capacity(table);
        }
        self.tables.get_mut(table).expect("bucket just ensured")
    }

    /// Evict oldest buckets until within capacity, never evicting `keep`.
    fn evict_over_capacity(&mut self, keep: &str) {
        let Some(capacity) = self.capacity else { return };
        while self.tables.len() > capacity {
            let Some(pos) = self.order.iter().position(|name| name != keep) else {
                return;
            };
            let evicted = self.order.remove(pos).expect("position is in range");
            self.tables.remove(&evicted);
        }
    }

    /// The selection of a single atom (`Eq` / `In` / `True`) over `table`,
    /// cached per `(table, atom)`. Lookup hits are allocation-free (the
    /// instance's content fingerprint is memoized on the [`Table`], so the
    /// validation read below costs one comparison after the first select).
    ///
    /// Every lookup is **content-validated**: the bucket records the
    /// [`Table::fingerprint`] of the instance its atoms were scanned from,
    /// and an instance with any other content clears the bucket before
    /// selecting, so a same-named table of different content (same-sized or
    /// not) can never be served another instance's row indices.
    fn atom(&mut self, table: &Table, atom: &Condition) -> Arc<RowSelection> {
        let fingerprint = table.fingerprint();
        let cached = {
            let bucket = self.bucket(table.name());
            if bucket.fingerprint != Some(fingerprint) {
                bucket.by_atom.clear();
                bucket.fingerprint = Some(fingerprint);
            }
            bucket.by_atom.get(atom).cloned()
        };
        if let Some(cached) = cached {
            self.hits += 1;
            return cached;
        }
        self.misses += 1;
        let selection = Arc::new(RowSelection::of_condition(table, atom));
        self.tables
            .get_mut(table.name())
            .expect("bucket ensured above")
            .by_atom
            .insert(atom.clone(), Arc::clone(&selection));
        selection
    }

    /// Evaluate `condition` over `table`, reusing cached atom selections.
    /// Composite conditions are computed by merging member selections; atoms
    /// fall through to (cached) single scans. The result is shared — repeated
    /// atom evaluations return clones of one `Arc`, never of the index vector.
    pub fn select(&mut self, table: &Table, condition: &Condition) -> Arc<RowSelection> {
        match condition {
            Condition::True | Condition::Eq(_, _) | Condition::In(_, _) => {
                self.atom(table, condition)
            }
            Condition::And(cs) => {
                let mut current: Option<Arc<RowSelection>> = None;
                for c in cs {
                    let next = match &current {
                        // Short-circuit: an empty intersection stays empty.
                        Some(acc) if acc.is_empty() => break,
                        _ => self.select(table, c),
                    };
                    current = Some(match current {
                        None => next,
                        Some(acc) => Arc::new(acc.intersect(&next)),
                    });
                }
                current.unwrap_or_else(|| self.atom(table, &Condition::True))
            }
            Condition::Or(cs) => {
                let mut current: Option<Arc<RowSelection>> = None;
                for c in cs {
                    let next = self.select(table, c);
                    current = Some(match current {
                        None => next,
                        Some(acc) => Arc::new(acc.union(&next)),
                    });
                }
                current.unwrap_or_else(|| Arc::new(RowSelection::empty()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::tuple;

    fn inv_table() -> Table {
        let schema = TableSchema::new(
            "inv",
            vec![Attribute::int("id"), Attribute::int("type"), Attribute::text("descr")],
        );
        Table::with_rows(
            schema,
            vec![
                tuple![0, 1, "hardcover"],
                tuple![1, 2, "audio cd"],
                tuple![2, 1, "paperback"],
                tuple![3, 1, "paperback"],
                tuple![4, 2, "elektra cd"],
                tuple![5, 3, "vinyl"],
            ],
        )
        .unwrap()
    }

    /// A wide table whose `type` column splits rows ~evenly, so conditions on
    /// it produce dense selections (half of the rows or more).
    fn wide_table(n: usize) -> Table {
        let schema = TableSchema::new("wide", vec![Attribute::int("id"), Attribute::int("type")]);
        let rows = (0..n).map(|i| tuple![i as i64, (i % 2) as i64]).collect();
        Table::with_rows(schema, rows).unwrap()
    }

    #[test]
    fn of_condition_matches_eval_semantics() {
        let t = inv_table();
        for cond in [
            Condition::True,
            Condition::eq("type", 1),
            Condition::is_in("type", [1, 3]),
            Condition::eq("type", 1).and(Condition::eq("descr", "paperback")),
            Condition::eq("type", 1).or(Condition::eq("type", 2)),
            Condition::eq("missing", 1),
            Condition::Or(vec![]),
        ] {
            let sel = RowSelection::of_condition(&t, &cond);
            let expected: Vec<usize> = t
                .rows()
                .iter()
                .enumerate()
                .filter_map(|(i, row)| cond.eval(t.schema(), row).then_some(i))
                .collect();
            assert_eq!(sel.indices(), expected.as_slice(), "condition {cond}");
        }
    }

    #[test]
    fn set_operations_merge_sorted_vectors() {
        let a = RowSelection::from_sorted(vec![0, 2, 3, 5]);
        let b = RowSelection::from_sorted(vec![1, 2, 5]);
        assert_eq!(a.intersect(&b).indices(), &[2, 5]);
        assert_eq!(a.union(&b).indices(), &[0, 1, 2, 3, 5]);
        assert_eq!(a.complement(6).indices(), &[1, 4]);
        assert!(a.contains(3));
        assert!(!a.contains(4));
        assert_eq!(RowSelection::from_unsorted(vec![3, 1, 3, 0]).indices(), &[0, 1, 3]);
    }

    #[test]
    fn selectivity_is_fractional() {
        let sel = RowSelection::from_sorted(vec![0, 1]);
        assert!((sel.selectivity(4) - 0.5).abs() < 1e-12);
        assert_eq!(RowSelection::empty().selectivity(0), 0.0);
    }

    /// Selections of the same rows are equal whichever constructor built them.
    #[test]
    fn equality_is_representation_independent() {
        let t = wide_table(100);
        let dense = RowSelection::of_condition(&t, &Condition::eq("type", 0));
        let sparse = RowSelection::from_sorted(dense.iter().collect());
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        assert_ne!(dense, RowSelection::full(100));
    }

    #[test]
    fn dense_iteration_membership_and_indexing() {
        let t = wide_table(130);
        let sel = RowSelection::of_condition(&t, &Condition::eq("type", 1));
        let expected: Vec<usize> = (0..130).filter(|i| i % 2 == 1).collect();
        assert_eq!(sel.iter().collect::<Vec<_>>(), expected);
        assert_eq!(sel.indices(), expected.as_slice());
        assert_eq!(sel.indices().last(), Some(&129));
        assert_eq!(sel.indices().first(), Some(&1));
        assert_eq!(sel.indices().get(64), Some(&129));
        assert_eq!(sel.indices().get(65), None);
        assert!(sel.contains(1));
        assert!(!sel.contains(0));
        assert!(!sel.contains(1000));
    }

    #[test]
    fn set_operations_on_complementary_halves() {
        let t = wide_table(150);
        let evens = RowSelection::of_condition(&t, &Condition::eq("type", 0));
        let odds = RowSelection::of_condition(&t, &Condition::eq("type", 1));
        // Disjoint dense selections: empty intersection, full union.
        let inter = evens.intersect(&odds);
        assert!(inter.is_empty());
        let uni = evens.union(&odds);
        assert_eq!(uni, RowSelection::full(150));
        // Complement flips between them.
        assert_eq!(evens.complement(150), odds);
        assert_eq!(odds.complement(150), evens);

        // A few scattered rows against a dense selection.
        let sparse = RowSelection::from_sorted(vec![0, 1, 2, 149]);
        assert_eq!(sparse.intersect(&evens).indices(), &[0, 2]);
        assert_eq!(evens.intersect(&sparse).indices(), &[0, 2]);
        let merged = sparse.union(&odds);
        assert_eq!(merged.len(), odds.len() + 2);
        assert!(merged.contains(0) && merged.contains(2) && merged.contains(149));
    }

    #[test]
    fn union_grows_past_the_base_table() {
        let t = wide_table(100);
        let dense = RowSelection::of_condition(&t, &Condition::eq("type", 0));
        let sparse = RowSelection::from_sorted(vec![250]);
        let grown = dense.union(&sparse);
        assert_eq!(grown.len(), dense.len() + 1);
        assert!(grown.contains(250));
        assert_eq!(grown.indices().last(), Some(&250));
    }

    #[test]
    fn dense_complement_of_a_shorter_universe() {
        let t = wide_table(128);
        let evens = RowSelection::of_condition(&t, &Condition::eq("type", 0));
        // Complement with respect to a smaller base: only odds below 60.
        let c = evens.complement(60);
        let expected: Vec<usize> = (0..60).filter(|i| i % 2 == 1).collect();
        assert_eq!(c.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn table_slice_iterates_in_base_order_without_cloning() {
        let t = inv_table();
        let sel = RowSelection::of_condition(&t, &Condition::eq("type", 1));
        let slice = TableSlice::new(&t, &sel);
        assert_eq!(slice.len(), 3);
        assert!(!slice.is_empty());
        let ids: Vec<i64> = slice.rows().map(|r| r.at(0).as_i64().unwrap()).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        // Row references point into the base table (no clones).
        let first = slice.rows().next().unwrap();
        assert!(std::ptr::eq(first, &t.rows()[0]));
        assert_eq!(slice.value_at(1, "descr").unwrap(), &Value::str("paperback"));
    }

    #[test]
    fn slices_of_half_selections_index_and_materialize() {
        let t = wide_table(96);
        let sel = RowSelection::of_condition(&t, &Condition::eq("type", 0));
        let slice = TableSlice::new(&t, &sel);
        assert_eq!(slice.len(), 48);
        assert_eq!(slice.value_at(3, "id").unwrap(), &Value::Int(6));
        let mat = slice.materialize("V");
        let legacy = t.filter_rows(|r| r.at(1) == &Value::Int(0)).renamed("V");
        assert_eq!(mat, legacy);
    }

    #[test]
    fn column_slice_borrows_values() {
        let t = inv_table();
        let sel = RowSelection::of_condition(&t, &Condition::eq("type", 2));
        let slice = TableSlice::new(&t, &sel);
        let col = slice.column("descr").unwrap();
        assert_eq!(col.name(), "descr");
        assert_eq!(col.data_type(), DataType::Text);
        assert_eq!(col.len(), 2);
        let texts: Vec<String> = col.values().map(|v| v.as_text()).collect();
        assert_eq!(texts, vec!["audio cd", "elektra cd"]);
        // The yielded references alias the base table's storage.
        let v = col.values().next().unwrap();
        assert!(std::ptr::eq(v, t.rows()[1].at(2)));
        assert!(slice.column("nope").is_err());
    }

    #[test]
    fn materialize_equals_filter_rows() {
        let t = inv_table();
        let cond = Condition::is_in("type", [1, 2]);
        let sel = RowSelection::of_condition(&t, &cond);
        let mat = TableSlice::new(&t, &sel).materialize("V");
        let legacy = t.filter_rows(|r| cond.eval(t.schema(), r)).renamed("V");
        assert_eq!(mat, legacy);
    }

    #[test]
    fn selection_cache_reuses_atom_scans() {
        let t = inv_table();
        let mut cache = SelectionCache::new();
        let a = cache.select(&t, &Condition::eq("type", 1));
        // Repeated atom hits share one Arc — no index-vector copies.
        let a_again = cache.select(&t, &Condition::eq("type", 1));
        assert!(Arc::ptr_eq(&a, &a_again));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // The same atom inside a conjunction is served from cache.
        let b =
            cache.select(&t, &Condition::eq("type", 1).and(Condition::eq("descr", "paperback")));
        assert_eq!(cache.misses(), 2, "only the new descr atom is scanned");
        assert_eq!(cache.hits(), 2);
        assert_eq!(a.indices(), &[0, 2, 3]);
        assert_eq!(b.indices(), &[2, 3]);
        // Disjunctions merge cached atoms too.
        let c = cache.select(&t, &Condition::eq("type", 1).or(Condition::eq("type", 2)));
        assert_eq!(c.len(), 5);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_matches_direct_evaluation_on_composites() {
        let t = inv_table();
        let mut cache = SelectionCache::new();
        for cond in [
            Condition::True,
            Condition::eq("type", 2).and(Condition::eq("descr", "audio cd")),
            Condition::is_in("type", [1, 2]).or(Condition::eq("type", 3)),
            Condition::And(vec![]),
            Condition::Or(vec![]),
            Condition::eq("missing", 7),
        ] {
            assert_eq!(
                *cache.select(&t, &cond),
                RowSelection::of_condition(&t, &cond),
                "condition {cond}"
            );
        }
    }

    #[test]
    fn fingerprint_validation_guards_equal_sized_instances() {
        let t1 = inv_table();
        // Same name, same row count, different content — the case the plain
        // row-count guard cannot see.
        let mut t2 = inv_table();
        let rows: Vec<Tuple> = t2.rows().iter().map(|r| r.project(&[0, 1, 2])).rev().collect();
        t2 = Table::with_rows(t2.schema().clone(), rows).unwrap();
        assert_eq!(t1.len(), t2.len());
        assert_ne!(t1.fingerprint(), t2.fingerprint());

        let mut cache = SelectionCache::new();
        assert!(!cache.validate_fingerprint("inv", t1.fingerprint()), "first sight misses");
        let a = cache.select(&t1, &Condition::eq("type", 1));
        assert_eq!(a.indices(), &[0, 2, 3]);
        // Revalidating the same content keeps the bucket.
        assert!(cache.validate_fingerprint("inv", t1.fingerprint()));
        assert_eq!(cache.cached_atoms(), 1);
        // A different instance drops it; the stale selection is not served.
        assert!(!cache.validate_fingerprint("inv", t2.fingerprint()));
        assert_eq!(cache.cached_atoms(), 0);
        let b = cache.select(&t2, &Condition::eq("type", 1));
        assert_eq!(b.len(), 3);
        assert_ne!(a.indices(), b.indices(), "reversed rows select different indices");
    }

    #[test]
    fn table_capacity_evicts_oldest_buckets() {
        let mut cache = SelectionCache::with_table_capacity(2);
        let tables: Vec<Table> = (0..3)
            .map(|i| {
                Table::with_rows(
                    TableSchema::new(format!("t{i}"), vec![Attribute::int("x")]),
                    vec![tuple![i as i64]],
                )
                .unwrap()
            })
            .collect();
        cache.select(&tables[0], &Condition::eq("x", 0));
        cache.select(&tables[1], &Condition::eq("x", 1));
        assert_eq!(cache.cached_tables(), vec!["t0".to_string(), "t1".to_string()]);
        // A third bucket evicts the oldest (t0), keeping the newcomer.
        cache.select(&tables[2], &Condition::eq("x", 2));
        assert_eq!(cache.cached_tables(), vec!["t1".to_string(), "t2".to_string()]);
        // Re-selecting the survivor is still a hit.
        let before = cache.hits();
        cache.select(&tables[1], &Condition::eq("x", 1));
        assert_eq!(cache.hits(), before + 1);
        // validate_fingerprint-created buckets obey the bound too.
        cache.validate_fingerprint("t9", 42);
        assert_eq!(cache.cached_tables().len(), 2);
        assert!(cache.cached_tables().contains(&"t9".to_string()));
        // A zero bound still keeps the bucket being selected against.
        let mut single = SelectionCache::with_table_capacity(0);
        for (i, table) in tables.iter().enumerate() {
            single.select(table, &Condition::eq("x", i as i64));
        }
        assert_eq!(single.cached_tables(), vec!["t2".to_string()]);
    }

    #[test]
    fn cloned_caches_share_selection_arcs() {
        let t = inv_table();
        let mut cache = SelectionCache::new();
        let a = cache.select(&t, &Condition::eq("type", 1));
        let mut copy = cache.clone();
        let b = copy.select(&t, &Condition::eq("type", 1));
        assert!(Arc::ptr_eq(&a, &b), "clone must share cached selections, not copy them");
        // Claiming the clone's bucket for other content clears only the
        // clone: the original still serves its cached Arc as a hit.
        assert!(!copy.validate_fingerprint("inv", t.fingerprint() ^ 1));
        assert_eq!(copy.cached_atoms(), 0);
        let hits = cache.hits();
        let c = cache.select(&t, &Condition::eq("type", 1));
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), hits + 1);
    }
}
