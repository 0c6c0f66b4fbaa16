//! Column data handed to matchers.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use cxm_relational::{AttrRef, DataType, Database, RowSelection, Table, Value};

use crate::intern::{GramInterner, InternedProfile, InternedValueSet, RowRuns};

/// Process-wide instrumentation counting the expensive, memoized profile
/// builds. The sharded `StandardMatch` pipeline promises that a column shared
/// across shards is profiled exactly once per run; the integration tests hold
/// it to that with these counters.
pub mod telemetry {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static QGRAM_PROFILE_BUILDS: AtomicUsize = AtomicUsize::new(0);

    /// Total q-gram profiles built by this process so far.
    pub fn qgram_profile_builds() -> usize {
        QGRAM_PROFILE_BUILDS.load(Ordering::Relaxed)
    }

    pub(crate) fn record_qgram_profile_build() {
        QGRAM_PROFILE_BUILDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// One attribute's worth of sample data: its qualified name, declared type and
/// the bag of non-NULL values drawn from the sample instance.
///
/// This is the only thing a [`crate::Matcher`] ever sees, which keeps the
/// matchers reusable for base tables *and* inferred views: a view-restricted
/// column is just another `ColumnData` with fewer values.
///
/// Storage is **borrowed** (references into the base [`Table`]'s tuples — the
/// zero-copy path used when scoring candidate views), **owned** (for
/// hand-built columns, e.g. in tests), or **shared** (`Arc`-backed owned
/// values — the `'static` flavour a long-lived service keeps in its target
/// catalog, where cloning a column must not copy its values). Matchers are
/// agnostic: they consume values through [`ColumnData::iter`],
/// [`ColumnData::texts`] and [`ColumnData::numbers`].
///
/// Derived artifacts the matchers need repeatedly — the interned 3-gram
/// profile, the interned distinct-value set, the numeric summary — are
/// memoized lazily and thread-safely inside the column. `ScoreMatch` rescoring
/// hits the *same* target column once per candidate view, and `StandardMatch`
/// hits the same source column once per target attribute; memoization turns
/// those repeated O(values) profile builds into one build per column.
///
/// A column plays one of two roles in a scored pair. As the **target** it is
/// interned ([`ColumnData::qgram3_ids`], [`ColumnData::value_ids`]): every
/// string gets an id. As the **source** it is resolved
/// ([`ColumnData::qgram3_ids_in`], [`ColumnData::value_ids_in`]): strings the
/// vocabulary lacks are counted, never inserted, and the artifact is used
/// only against targets it covers (see [`crate::intern`]).
///
/// A **view-restricted** column ([`ColumnData::restricted`]) does not
/// tokenize its values on the source side at all: its profile and value set
/// assemble from the per-row runs ([`ColumnRuns`]) of its base column, which
/// every view over that base column shares, by summing the selected rows'
/// counts. The assembled artifacts equal the resolving builds entry for
/// entry, and are built — and counted — exactly when a tokenizing build
/// would be.
#[derive(Debug, Clone)]
pub struct ColumnData<'a> {
    /// Qualified attribute reference (`table.attribute`).
    pub attr: AttrRef,
    /// Declared data type of the attribute.
    pub data_type: DataType,
    /// Non-NULL sample values (owned or borrowed from a base table).
    values: ColumnValues<'a>,
    /// The interner the column's memoized flat artifacts are built against.
    /// Defaults to [`GramInterner::global`]. A pair is scored in the
    /// target's id space, so a source column bound elsewhere is resolved in
    /// the target's interner per call ([`ColumnData::qgram3_ids_in`]).
    interner: Arc<GramInterner>,
    /// Content fingerprint of the base column this instance was extracted
    /// from ([`cxm_relational::Table::column_fingerprint`]), when the caller
    /// provided one. This is the column-granular warm key: a catalog carries
    /// a column's memoized artifacts forward exactly when the fingerprint of
    /// the same-named column in the next instance is equal. `None` for
    /// ad-hoc columns (hand-built, view-restricted), which are never keyed.
    fingerprint: Option<u64>,
    /// For a view-restricted column: its base column's runs and the
    /// selected rows its interned artifacts assemble from.
    restriction: Option<(&'a ColumnRuns<'a>, &'a RowSelection)>,
    /// Lazily memoized derived artifacts (cheap to clone: `Arc`s inside).
    caches: ColumnCaches,
}

/// Thread-safe, lazily filled caches of matcher-facing derived data.
#[derive(Debug, Clone, Default)]
struct ColumnCaches {
    /// Interned sparse-vector 3-gram profile (the hot-path kernel input).
    qgram3_ids: OnceLock<Arc<InternedProfile>>,
    /// Interned distinct-value id set (the hot-path kernel input).
    value_ids: OnceLock<Arc<InternedValueSet>>,
    /// `(mean, population std dev, min, max)` over the numeric values
    /// (`NumericMatcher`); `None` when the column has no numeric values.
    numeric_summary: OnceLock<Option<(f64, f64, f64, f64)>>,
    /// How many values parse as numbers (drives `looks_numeric`, which the
    /// matchers consult once per pair — memoized so the parse pass runs
    /// once per column, not once per pair).
    numeric_count: OnceLock<usize>,
    /// Lowercased attribute name plus its identifier token set (the
    /// `NameMatcher` inputs, built once per column instead of once per pair).
    name_key: OnceLock<Arc<NameKey>>,
}

/// The `NameMatcher`-facing derived data of a column's attribute name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameKey {
    /// ASCII-lowercased attribute name.
    pub lowered: String,
    /// `lowered` pre-split into chars: the Levenshtein DP operates on char
    /// sequences, and splitting per scored pair would dominate the matcher.
    pub chars: Vec<char>,
    /// Lowercased identifier tokens (camelCase / snake_case word splits).
    pub tokens: BTreeSet<String>,
}

/// The memoized derived artifacts of one column, detached from its values —
/// what a cross-request restricted-profile cache stores and re-seeds. Every
/// field is `None` until (unless) the corresponding artifact was actually
/// built; seeding a column with a partial set simply leaves the missing
/// artifacts lazy.
#[derive(Debug, Clone, Default)]
pub struct ColumnArtifacts {
    /// Interned 3-gram profile.
    pub qgram3_ids: Option<Arc<InternedProfile>>,
    /// Interned distinct-value set.
    pub value_ids: Option<Arc<InternedValueSet>>,
    /// Numeric summary (outer `None` = never built; inner `None` = built,
    /// column has no numeric values).
    pub numeric_summary: Option<Option<(f64, f64, f64, f64)>>,
    /// Number of values that parse as numbers (drives `looks_numeric`).
    pub numeric_count: Option<usize>,
    /// The attribute name's `NameMatcher` inputs (lowered form + identifier
    /// token set). Only interchangeable between columns of the same
    /// attribute name — which holds for every fingerprint-keyed reuse, since
    /// the column fingerprint covers the attribute name.
    pub name_key: Option<Arc<NameKey>>,
}

impl ColumnArtifacts {
    /// True when no artifact has been captured.
    pub fn is_empty(&self) -> bool {
        self.qgram3_ids.is_none()
            && self.value_ids.is_none()
            && self.numeric_summary.is_none()
            && self.numeric_count.is_none()
            && self.name_key.is_none()
    }

    /// True when every captured interned artifact is exact against targets
    /// whose ids all lie below `bound` ([`InternedProfile::covers`]).
    pub fn covers(&self, bound: usize) -> bool {
        self.qgram3_ids.as_ref().is_none_or(|p| p.covers(bound))
            && self.value_ids.as_ref().is_none_or(|v| v.covers(bound))
    }

    /// These artifacts brought up to `interner`'s current vocabulary for
    /// targets below `bound`: a profile that no longer covers it is resolved
    /// again from its unknown grams' codes (no re-tokenizing), and a value
    /// set that no longer covers it is dropped, to be rebuilt from the
    /// column's values on first use.
    pub fn resolved_again(mut self, interner: &GramInterner, bound: usize) -> ColumnArtifacts {
        if let Some(profile) = self.qgram3_ids.as_mut().filter(|p| !p.covers(bound)) {
            *profile = Arc::new(profile.resolved_again(interner));
        }
        if self.value_ids.as_ref().is_some_and(|v| !v.covers(bound)) {
            self.value_ids = None;
        }
        self
    }
}

#[derive(Debug, Clone)]
enum ColumnValues<'a> {
    Owned(Vec<Value>),
    /// Owned values behind an `Arc`: clones share storage, so a catalog
    /// snapshot can hand the same column to many concurrent requests.
    Shared(Arc<Vec<Value>>),
    Borrowed(Vec<&'a Value>),
}

/// The per-row resolved runs of one base-table column in one interner —
/// per row, its `(gram, count)` run and value, resolved against the
/// vocabulary without inserting — built on first demand and shared by every
/// view-restricted column over that base column ([`ColumnData::restricted`]).
///
/// A run pass renders each row exactly as a tokenizing build renders its
/// values — `as_text` for the 3-grams, trimmed and ASCII-lowercased for the
/// value set — so assembled artifacts equal tokenized ones. `ScoreMatch`
/// keeps one per (base table, attribute, interner) for the length of one
/// call: each source value is then tokenized once per call, not once per
/// candidate view.
pub struct ColumnRuns<'a> {
    base: &'a Table,
    column: usize,
    interner: Arc<GramInterner>,
    runs: OnceLock<RowRuns>,
}

impl<'a> ColumnRuns<'a> {
    /// The (not yet built) runs of `base`'s column `attribute` in `interner`.
    pub fn new(
        base: &'a Table,
        attribute: &str,
        interner: Arc<GramInterner>,
    ) -> cxm_relational::Result<ColumnRuns<'a>> {
        let column = base.schema().require_index(attribute)?;
        Ok(ColumnRuns { base, column, interner, runs: OnceLock::new() })
    }

    /// The runs, built on first use: one pass over the base column.
    fn runs(&self) -> &RowRuns {
        self.runs.get_or_init(|| {
            self.interner.row_runs(self.base.rows().iter().map(|row| {
                let value = row.at(self.column);
                (!value.is_null()).then(|| (value.as_text_cow(), normalized_value_text(value)))
            }))
        })
    }
}

impl std::fmt::Debug for ColumnRuns<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnRuns")
            .field("table", &self.base.name())
            .field("attribute", &self.base.schema().attributes()[self.column].name)
            .field("interner", &self.interner.token())
            .field("built", &self.runs.get().is_some())
            .finish()
    }
}

impl<'a> ColumnData<'a> {
    /// Build a column from owned values (no NULL filtering is applied; the
    /// caller provides exactly the bag the matchers should see).
    pub fn owned(attr: AttrRef, data_type: DataType, values: Vec<Value>) -> ColumnData<'static> {
        ColumnData {
            attr,
            data_type,
            values: ColumnValues::Owned(values),
            interner: GramInterner::global(),
            fingerprint: None,
            restriction: None,
            caches: ColumnCaches::default(),
        }
    }

    /// Rebind the column to another [`GramInterner`]. Must be called before
    /// any interned artifact is built (the memoized artifacts are not
    /// re-interned); intended for catalog-scoped interners and for tests
    /// that want a private id space.
    pub fn with_interner(mut self, interner: Arc<GramInterner>) -> Self {
        debug_assert!(
            self.caches.qgram3_ids.get().is_none() && self.caches.value_ids.get().is_none(),
            "with_interner must precede interned artifact builds"
        );
        self.interner = interner;
        self
    }

    /// The interner the column's flat artifacts are built against.
    pub fn interner(&self) -> &Arc<GramInterner> {
        &self.interner
    }

    /// Tag the column with the content fingerprint of the base column it was
    /// extracted from ([`cxm_relational::Table::column_fingerprint`]). The
    /// caller asserts the fingerprint covers exactly this column's value bag;
    /// warm caches then treat two equal fingerprints as "identical content,
    /// artifacts interchangeable".
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// The content fingerprint this column was tagged with, if any — the
    /// column-granular warm key (`None` for ad-hoc columns).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Extract a column from a table instance into `'static`, `Arc`-shared
    /// storage (NULLs skipped, values cloned **once**). Clones of the result
    /// share both the values and the memoized profile `Arc`s, which is what
    /// lets a long-lived catalog snapshot outlive the [`Database`] it was
    /// registered from while staying cheap to hand out per request.
    ///
    /// Matcher-observable behaviour is identical to
    /// [`ColumnData::from_table`] on the same instance: same attribute
    /// reference, same declared type, same value bag in the same order.
    pub fn shared_from_table(
        table: &Table,
        attribute: &str,
    ) -> cxm_relational::Result<ColumnData<'static>> {
        let data_type = table.schema().type_of(attribute).unwrap_or(DataType::Unknown);
        let values: Vec<Value> =
            table.column_iter(attribute)?.filter(|v| !v.is_null()).cloned().collect();
        Ok(ColumnData {
            attr: AttrRef::new(table.name(), attribute),
            data_type,
            values: ColumnValues::Shared(Arc::new(values)),
            interner: GramInterner::global(),
            fingerprint: None,
            restriction: None,
            caches: ColumnCaches::default(),
        })
    }

    /// All columns of every table of a database in (table, schema) order —
    /// the same batch as [`ColumnData::all_from_database`], but in `'static`,
    /// `Arc`-shared storage for long-lived holders (see
    /// [`ColumnData::shared_from_table`]).
    pub fn shared_from_database(db: &Database) -> Vec<ColumnData<'static>> {
        db.tables()
            .flat_map(|table| {
                table.schema().attributes().iter().map(|a| {
                    ColumnData::shared_from_table(table, &a.name)
                        .expect("attribute comes from the table's own schema")
                })
            })
            .collect()
    }

    /// Extract a column from a table instance, borrowing the values in place
    /// (NULLs skipped). No value is cloned.
    pub fn from_table(table: &'a Table, attribute: &str) -> cxm_relational::Result<ColumnData<'a>> {
        let data_type = table.schema().type_of(attribute).unwrap_or(DataType::Unknown);
        let values: Vec<&Value> = table.column_iter(attribute)?.filter(|v| !v.is_null()).collect();
        Ok(ColumnData {
            attr: AttrRef::new(table.name(), attribute),
            data_type,
            values: ColumnValues::Borrowed(values),
            interner: GramInterner::global(),
            fingerprint: None,
            restriction: None,
            caches: ColumnCaches::default(),
        })
    }

    /// The column of `runs`' base column restricted to the rows of
    /// `selection` (a candidate view's `RS where c`), borrowing the selected
    /// non-NULL values in place and bound to the runs' interner.
    /// `table_name` is the name the column should report (conventionally the
    /// view's name, so that rescoring matches a materialized view instance
    /// byte for byte). On the source side its profile and value set
    /// assemble from the selected rows' runs instead of re-tokenizing the
    /// values. `selection` must index the runs' base table.
    pub fn restricted(
        runs: &'a ColumnRuns<'a>,
        selection: &'a RowSelection,
        table_name: impl Into<String>,
    ) -> ColumnData<'a> {
        debug_assert!(selection.indices().last().is_none_or(|&row| row < runs.base.len()));
        let attribute = &runs.base.schema().attributes()[runs.column];
        let rows = runs.base.rows();
        ColumnData {
            attr: AttrRef::new(table_name, &attribute.name),
            data_type: attribute.data_type,
            values: ColumnValues::Borrowed(
                selection
                    .iter()
                    .map(|row| rows[row].at(runs.column))
                    .filter(|v| !v.is_null())
                    .collect(),
            ),
            interner: Arc::clone(&runs.interner),
            fingerprint: None,
            restriction: Some((runs, selection)),
            caches: ColumnCaches::default(),
        }
    }

    /// All columns of a table instance, in schema order.
    pub fn all_from_table(table: &'a Table) -> Vec<ColumnData<'a>> {
        table
            .schema()
            .attributes()
            .iter()
            .map(|a| {
                ColumnData::from_table(table, &a.name)
                    .expect("attribute comes from the table's own schema")
            })
            .collect()
    }

    /// All columns of every table of a database, in (table, schema) order —
    /// the target-side batch `StandardMatch` scores against. Building the
    /// batch once per run (instead of once per source table) is what lets the
    /// memoized profiles below amortize across sharded matching.
    pub fn all_from_database(db: &Database) -> Vec<ColumnData<'_>> {
        db.tables().flat_map(ColumnData::all_from_table).collect()
    }

    /// Number of sample values.
    pub fn len(&self) -> usize {
        match &self.values {
            ColumnValues::Owned(v) => v.len(),
            ColumnValues::Shared(v) => v.len(),
            ColumnValues::Borrowed(v) => v.len(),
        }
    }

    /// True when no sample values are available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the sample values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        // Arms with distinct iterator types; box-free via either-style enum
        // (owned and shared storage both walk a `&[Value]`).
        ColumnIter {
            owned: match &self.values {
                ColumnValues::Owned(v) => Some(v.iter()),
                ColumnValues::Shared(v) => Some(v.iter()),
                ColumnValues::Borrowed(_) => None,
            },
            borrowed: match &self.values {
                ColumnValues::Owned(_) | ColumnValues::Shared(_) => None,
                ColumnValues::Borrowed(v) => Some(v.iter()),
            },
        }
    }

    /// The values rendered as text (what the textual matchers consume).
    pub fn texts(&self) -> Vec<String> {
        self.iter().map(|v| v.as_text()).collect()
    }

    /// The numeric interpretations of the values. A value counts as a
    /// number only if it reads as a **finite** `f64`: text spelling `nan`,
    /// `inf` or `infinity` is skipped like any other non-numeric value.
    pub fn numbers(&self) -> Vec<f64> {
        self.iter().filter_map(|v| v.as_f64()).filter(|x| x.is_finite()).collect()
    }

    /// The column's 3-gram count profile with every gram interned — the
    /// **target** side of a pair and what a [`crate::GramIndex`] posts —
    /// built on first use against [`ColumnData::interner`], issuing ids to
    /// grams the vocabulary lacks, and memoized for the column's lifetime.
    /// A column whose memo was resolved on the source side gets the memo
    /// with its unknown grams interned, without re-tokenizing.
    pub fn qgram3_ids(&self) -> Arc<InternedProfile> {
        let memo = self.caches.qgram3_ids.get_or_init(|| {
            telemetry::record_qgram_profile_build();
            Arc::new(self.interner.qgram_profile(self.iter().map(|v| v.as_text_cow())))
        });
        if memo.is_complete() {
            Arc::clone(memo)
        } else {
            Arc::new(memo.as_ref().clone().interned(&self.interner))
        }
    }

    /// The column's distinct-value id set (values trimmed and
    /// ASCII-lowercased) with every value interned — the target side, on
    /// the terms of [`ColumnData::qgram3_ids`]. A resolved memo is rebuilt
    /// for the call: a value set keeps no unknown texts.
    pub fn value_ids(&self) -> Arc<InternedValueSet> {
        let build = || self.interner.value_set(self.iter().map(normalized_value_text));
        let memo = self.caches.value_ids.get_or_init(|| Arc::new(build()));
        if memo.is_complete() {
            Arc::clone(memo)
        } else {
            Arc::new(build())
        }
    }

    /// Build the target-side artifacts — [`ColumnData::qgram3_ids`] when
    /// `profile`, and [`ColumnData::value_ids`] — that are not memoized
    /// complete yet. A complete memo is only read, so a batch warm from
    /// earlier requests costs no reference-count traffic.
    pub(crate) fn intern_as_target(&self, profile: bool) {
        if profile && !self.caches.qgram3_ids.get().is_some_and(|p| p.is_complete()) {
            self.qgram3_ids();
        }
        if !self.caches.value_ids.get().is_some_and(|v| v.is_complete()) {
            self.value_ids();
        }
    }

    /// The column's 3-gram profile on the **source** side of a pair scored
    /// in `interner`'s id space, exact against every target artifact whose
    /// ids all lie below `bound` ([`InternedProfile::id_bound`], or
    /// [`crate::GramIndex::id_bound`] for a whole indexed batch). Grams are
    /// resolved without inserting: one the vocabulary lacks counts toward
    /// the norm only.
    ///
    /// When the column is bound to `interner`, the profile is memoized (a
    /// restricted column assembles it from its base column's runs) and
    /// served while it covers `bound`; a memo that no longer covers it is
    /// resolved again for this call from its unknown grams' codes. A column
    /// bound elsewhere is resolved in `interner` for this one call (counted,
    /// not memoized — the column keeps its own id space). The kernels'
    /// results do not depend on the id space, so a pair is always scored in
    /// the target's.
    pub fn qgram3_ids_in(
        &self,
        interner: &Arc<GramInterner>,
        bound: usize,
    ) -> Arc<InternedProfile> {
        let resolve = || {
            telemetry::record_qgram_profile_build();
            interner.resolve_qgram_profile(self.iter().map(|v| v.as_text_cow()))
        };
        if !Arc::ptr_eq(&self.interner, interner) {
            return Arc::new(resolve());
        }
        let memo = self.caches.qgram3_ids.get_or_init(|| {
            Arc::new(match self.runs() {
                Some((runs, rows)) => {
                    telemetry::record_qgram_profile_build();
                    runs.qgram_profile(rows)
                }
                None => resolve(),
            })
        });
        if memo.covers(bound) {
            Arc::clone(memo)
        } else {
            Arc::new(memo.resolved_again(interner))
        }
    }

    /// The column's distinct-value set on the source side, on the terms of
    /// [`ColumnData::qgram3_ids_in`]. A memo that no longer covers `bound`
    /// is rebuilt from the column's values for this call.
    pub fn value_ids_in(
        &self,
        interner: &Arc<GramInterner>,
        bound: usize,
    ) -> Arc<InternedValueSet> {
        let resolve = || interner.resolve_value_set(self.iter().map(normalized_value_text));
        if !Arc::ptr_eq(&self.interner, interner) {
            return Arc::new(resolve());
        }
        let memo = self.caches.value_ids.get_or_init(|| {
            Arc::new(match self.runs() {
                Some((runs, rows)) => runs.value_set(rows),
                None => resolve(),
            })
        });
        if memo.covers(bound) {
            Arc::clone(memo)
        } else {
            Arc::new(resolve())
        }
    }

    /// A restricted column's base runs (built on first demand) and selected
    /// rows, while the column is still bound to the runs' interner.
    fn runs(&self) -> Option<(&RowRuns, &[usize])> {
        let (runs, selection) = self.restriction?;
        Arc::ptr_eq(&runs.interner, &self.interner).then(|| (runs.runs(), selection.indices()))
    }

    /// The attribute name's lowered form and identifier token set (the
    /// `NameMatcher` inputs), built once per column and memoized.
    pub fn name_key(&self) -> Arc<NameKey> {
        Arc::clone(self.caches.name_key.get_or_init(|| {
            let lowered = self.attr.attribute.to_ascii_lowercase();
            let chars = lowered.chars().collect();
            let tokens = crate::name::identifier_tokens(&lowered).into_iter().collect();
            Arc::new(NameKey { lowered, chars, tokens })
        }))
    }

    /// Capture whichever memoized artifacts this column has built so far.
    /// The artifacts are owned (`'static`), so they may outlive a borrowed
    /// column — which is what lets a service cache view-restricted profiles
    /// across requests.
    pub fn harvest_artifacts(&self) -> ColumnArtifacts {
        ColumnArtifacts {
            qgram3_ids: self.caches.qgram3_ids.get().cloned(),
            value_ids: self.caches.value_ids.get().cloned(),
            numeric_summary: self.caches.numeric_summary.get().copied(),
            numeric_count: self.caches.numeric_count.get().copied(),
            name_key: self.caches.name_key.get().cloned(),
        }
    }

    /// Pre-fill this column's memoized artifacts from a previously harvested
    /// set, complete or resolved (each role re-checks what it needs).
    /// Artifacts already built (or absent from `artifacts`) are left
    /// untouched; the caller is responsible for only seeding artifacts
    /// derived from an **identical value bag** (and, for the interned ones,
    /// the same interner), otherwise scores would silently diverge.
    pub fn seed_artifacts(&self, artifacts: &ColumnArtifacts) {
        if let Some(p) = &artifacts.qgram3_ids {
            let _ = self.caches.qgram3_ids.set(Arc::clone(p));
        }
        if let Some(v) = &artifacts.value_ids {
            let _ = self.caches.value_ids.set(Arc::clone(v));
        }
        if let Some(n) = artifacts.numeric_summary {
            let _ = self.caches.numeric_summary.set(n);
        }
        if let Some(n) = artifacts.numeric_count {
            let _ = self.caches.numeric_count.set(n);
        }
        if let Some(k) = &artifacts.name_key {
            let _ = self.caches.name_key.set(Arc::clone(k));
        }
    }

    /// `(mean, population std dev, min, max)` of the numeric values, memoized;
    /// `None` when no value parses as a number.
    pub fn numeric_summary(&self) -> Option<(f64, f64, f64, f64)> {
        *self.caches.numeric_summary.get_or_init(|| {
            let numbers = self.numbers();
            if numbers.is_empty() {
                return None;
            }
            let m = cxm_stats::Moments::from_samples(numbers.iter().copied());
            let min = numbers.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = numbers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            Some((m.mean(), m.population_std_dev(), min, max))
        })
    }

    /// True when the column is numeric either by declared type or because a
    /// clear majority (> 80 %) of its values parse as numbers. The parse
    /// count is memoized: the matchers ask this once per scored pair, the
    /// values are parsed once per column.
    pub fn looks_numeric(&self) -> bool {
        if self.data_type.is_numeric() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        let numeric = *self.caches.numeric_count.get_or_init(|| self.numbers().len());
        numeric as f64 >= 0.8 * self.len() as f64
    }
}

/// Trim and ASCII-lowercase one value's text — the `ValueOverlapMatcher`
/// normalization — borrowing whenever the value already is normalized text
/// (the common case in scraped sample data). Semantically identical to
/// `v.as_text().trim().to_ascii_lowercase()`.
fn normalized_value_text(v: &Value) -> std::borrow::Cow<'_, str> {
    use std::borrow::Cow;
    match v.as_text_cow() {
        Cow::Borrowed(s) => {
            let trimmed = s.trim();
            if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(trimmed.to_ascii_lowercase())
            } else {
                Cow::Borrowed(trimmed)
            }
        }
        Cow::Owned(s) => Cow::Owned(s.trim().to_ascii_lowercase()),
    }
}

/// Iterator over a column's values regardless of storage flavour.
struct ColumnIter<'s, 'a> {
    owned: Option<std::slice::Iter<'s, Value>>,
    borrowed: Option<std::slice::Iter<'s, &'a Value>>,
}

impl<'s, 'a: 's> Iterator for ColumnIter<'s, 'a> {
    type Item = &'s Value;

    fn next(&mut self) -> Option<&'s Value> {
        if let Some(it) = &mut self.owned {
            return it.next();
        }
        self.borrowed.as_mut().and_then(|it| it.next().map(|v| &**v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if let Some(it) = &self.owned {
            it.size_hint()
        } else if let Some(it) = &self.borrowed {
            it.size_hint()
        } else {
            (0, Some(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute, Condition, RowSelection, Table, TableSchema};

    fn table() -> Table {
        Table::with_rows(
            TableSchema::new(
                "inv",
                vec![Attribute::int("id"), Attribute::text("name"), Attribute::text("code")],
            ),
            vec![
                tuple![0, "leaves of grass", "0195128"],
                tuple![1, "the white album", "B002UAX"],
                tuple![2, "heart of darkness", "0486611"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_table_extracts_values_and_type() {
        let t = table();
        let col = ColumnData::from_table(&t, "name").unwrap();
        assert_eq!(col.attr, AttrRef::new("inv", "name"));
        assert_eq!(col.data_type, DataType::Text);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert!(ColumnData::from_table(&t, "missing").is_err());
    }

    #[test]
    fn from_table_borrows_not_clones() {
        let t = table();
        let col = ColumnData::from_table(&t, "name").unwrap();
        let first = col.iter().next().unwrap();
        assert!(std::ptr::eq(first, t.rows()[0].at(1)), "values must alias the base table");
    }

    #[test]
    fn restricted_columns_restrict_and_rename() {
        let t = table();
        let sel = RowSelection::of_condition(&t, &Condition::is_in("id", [0i64, 2]));
        let runs = ColumnRuns::new(&t, "code", GramInterner::global()).unwrap();
        let col = ColumnData::restricted(&runs, &sel, "inv[id in (0, 2)]");
        assert_eq!(col.attr, AttrRef::new("inv[id in (0, 2)]", "code"));
        assert_eq!(col.data_type, DataType::Text);
        assert_eq!(col.len(), 2);
        assert_eq!(col.texts(), vec!["0195128", "0486611"]);
        let first = col.iter().next().unwrap();
        assert!(
            std::ptr::eq(first, t.rows()[0].at(2)),
            "restricted values must alias the base table"
        );
        assert!(ColumnRuns::new(&t, "missing", GramInterner::global()).is_err());
    }

    #[test]
    fn restricted_columns_skip_nulls_like_from_table() {
        let schema = TableSchema::new("t", vec![Attribute::text("x")]);
        let t = Table::with_rows(
            schema,
            vec![tuple!["a"], cxm_relational::Tuple::new(vec![cxm_relational::Value::Null])],
        )
        .unwrap();
        let sel = RowSelection::full(t.len());
        let runs = ColumnRuns::new(&t, "x", GramInterner::global()).unwrap();
        let col = ColumnData::restricted(&runs, &sel, "t");
        assert_eq!(col.len(), 1);
        let direct = ColumnData::from_table(&t, "x").unwrap();
        assert_eq!(col.texts(), direct.texts());
        assert_eq!(*col.qgram3_ids(), *direct.qgram3_ids());
        assert_eq!(*col.value_ids(), *direct.value_ids());
    }

    #[test]
    fn restricted_artifacts_assemble_from_runs_built_once() {
        let t = Table::with_rows(
            TableSchema::new("inv", vec![Attribute::int("type"), Attribute::text("descr")]),
            vec![
                tuple![1, "Hardcover"],
                tuple![2, " audio CD "],
                cxm_relational::Tuple::new(vec![Value::Int(1), Value::Null]),
                tuple![1, "paperback"],
                tuple![2, "audio cd"],
            ],
        )
        .unwrap();
        // The vocabulary holds some of the column's grams and values.
        let interner = Arc::new(GramInterner::new());
        interner.qgram_profile(["hardcover", "audio"].into_iter());
        interner.value_set(["audio cd"].into_iter());
        let len = interner.len();
        let runs = ColumnRuns::new(&t, "descr", Arc::clone(&interner)).unwrap();
        assert!(format!("{runs:?}").contains("built: false"), "runs wait for first demand");
        let views: Vec<RowSelection> = (1..=2)
            .map(|ty| RowSelection::of_condition(&t, &Condition::eq("type", ty)))
            .chain([RowSelection::empty()])
            .collect();
        for sel in &views {
            let col = ColumnData::restricted(&runs, sel, "v");
            assert!(Arc::ptr_eq(col.interner(), &interner), "bound to the runs' interner");
            let profile = col.qgram3_ids_in(&interner, len);
            let values = col.value_ids_in(&interner, len);
            assert!(Arc::ptr_eq(&profile, &col.qgram3_ids_in(&interner, len)), "memoized");
            // Equal to resolving the same selected values in the same
            // interner, which neither build grows.
            let resolved = interner.resolve_qgram_profile(col.iter().map(|v| v.as_text_cow()));
            assert_eq!(*profile, resolved);
            assert_eq!(*values, interner.resolve_value_set(col.iter().map(normalized_value_text)));
            assert_eq!(interner.len(), len, "the run pass issues no id");
        }
        assert!(format!("{runs:?}").contains("built: true"));
        // The target side interns a resolved memo's unknown grams instead.
        let col = ColumnData::restricted(&runs, &views[0], "v");
        let resolved = col.qgram3_ids_in(&interner, len);
        assert!(!resolved.is_complete(), "'paperback' was unknown");
        let interned = col.qgram3_ids();
        assert!(interned.is_complete() && interner.len() > len);
        assert_eq!(interned, Arc::new(interner.qgram_profile(col.iter().map(|v| v.as_text_cow()))));
        assert_eq!(interned.norm().to_bits(), resolved.norm().to_bits());
        // Resolved again past the growth, the memo equals a fresh resolve.
        let again = col.qgram3_ids_in(&interner, interner.len());
        assert_eq!(*again, interner.resolve_qgram_profile(col.iter().map(|v| v.as_text_cow())));
        // Rebound to another interner, a restricted column resolves there.
        let other = Arc::new(GramInterner::new());
        let rebound =
            ColumnData::restricted(&runs, &views[0], "v").with_interner(Arc::clone(&other));
        assert_eq!(
            *rebound.qgram3_ids_in(&other, 0),
            other.resolve_qgram_profile(rebound.iter().map(|v| v.as_text_cow()))
        );
        assert!(other.is_empty());
    }

    #[test]
    fn text_spelling_a_non_finite_number_is_not_numeric() {
        let column = |cells: &[&str]| {
            ColumnData::owned(
                AttrRef::new("t", "code"),
                DataType::Text,
                cells.iter().map(|&c| Value::str(c)).collect(),
            )
        };
        let digits = ["1", "2", "3", "4", "5", "6", "7", "8"];
        let spelled = column(&[&["inf"][..], &digits, &["infinity"]].concat());
        let plain = column(&[&["n/a"][..], &digits, &["n/a"]].concat());
        assert_eq!(spelled.numbers(), (1..=8).map(f64::from).collect::<Vec<_>>());
        assert!(spelled.looks_numeric(), "8 of 10 values are numbers");
        assert_eq!(spelled.numeric_summary(), plain.numeric_summary());
        let (mean, std, min, max) = spelled.numeric_summary().unwrap();
        assert!([mean, std, min, max].iter().all(|x| x.is_finite()));
        let non_finite = column(&["nan", "NaN", "-inf", "+Infinity", "INF"]);
        assert!(non_finite.numbers().is_empty());
        assert!(!non_finite.looks_numeric());
        assert_eq!(non_finite.numeric_summary(), None);
    }

    #[test]
    fn all_from_table_is_in_schema_order() {
        let t = table();
        let cols = ColumnData::all_from_table(&t);
        let names: Vec<&str> = cols.iter().map(|c| c.attr.attribute.as_str()).collect();
        assert_eq!(names, vec!["id", "name", "code"]);
    }

    #[test]
    fn texts_and_numbers() {
        let t = table();
        let id = ColumnData::from_table(&t, "id").unwrap();
        assert_eq!(id.numbers(), vec![0.0, 1.0, 2.0]);
        assert!(id.looks_numeric());
        let name = ColumnData::from_table(&t, "name").unwrap();
        assert_eq!(name.texts()[0], "leaves of grass");
        assert!(!name.looks_numeric());
    }

    #[test]
    fn mostly_numeric_text_column_looks_numeric() {
        let t = Table::with_rows(
            TableSchema::new("t", vec![Attribute::text("mixed")]),
            vec![tuple!["10"], tuple!["20"], tuple!["30"], tuple!["40"], tuple!["oops"]],
        )
        .unwrap();
        let col = ColumnData::from_table(&t, "mixed").unwrap();
        assert!(col.looks_numeric());
    }

    #[test]
    fn empty_column_is_not_numeric() {
        let t = Table::new(TableSchema::new("t", vec![Attribute::text("x")]));
        let col = ColumnData::from_table(&t, "x").unwrap();
        assert!(col.is_empty());
        assert!(!col.looks_numeric());
    }

    #[test]
    fn shared_columns_match_borrowed_extraction() {
        let t = table();
        let shared = ColumnData::shared_from_table(&t, "name").unwrap();
        let borrowed = ColumnData::from_table(&t, "name").unwrap();
        assert_eq!(shared.attr, borrowed.attr);
        assert_eq!(shared.data_type, borrowed.data_type);
        assert_eq!(shared.texts(), borrowed.texts());
        assert_eq!(*shared.qgram3_ids(), *borrowed.qgram3_ids());
        assert!(ColumnData::shared_from_table(&t, "missing").is_err());
        // The batch mirrors all_from_database order.
        let db = cxm_relational::Database::new("RT").with_table(t.clone());
        let shared_batch = ColumnData::shared_from_database(&db);
        let borrowed_batch = ColumnData::all_from_database(&db);
        assert_eq!(shared_batch.len(), borrowed_batch.len());
        for (s, b) in shared_batch.iter().zip(&borrowed_batch) {
            assert_eq!(s.attr, b.attr);
            assert_eq!(s.texts(), b.texts());
        }
    }

    #[test]
    fn shared_column_clones_share_values_and_profiles() {
        let t = table();
        let col = ColumnData::shared_from_table(&t, "name").unwrap();
        let profile = col.qgram3_ids();
        let copy = col.clone();
        // Values alias the same allocation across clones.
        let a = col.iter().next().unwrap() as *const Value;
        let b = copy.iter().next().unwrap() as *const Value;
        assert_eq!(a, b, "clones must share the Arc'd value storage");
        // The memoized profile survives the clone (no rebuild).
        assert!(Arc::ptr_eq(&profile, &copy.qgram3_ids()));
    }

    #[test]
    fn shared_from_table_skips_nulls() {
        let schema = TableSchema::new("t", vec![Attribute::text("x")]);
        let t = Table::with_rows(
            schema,
            vec![tuple!["a"], cxm_relational::Tuple::new(vec![cxm_relational::Value::Null])],
        )
        .unwrap();
        let col = ColumnData::shared_from_table(&t, "x").unwrap();
        assert_eq!(col.len(), 1);
        assert_eq!(col.texts(), ColumnData::from_table(&t, "x").unwrap().texts());
    }

    #[test]
    fn interned_profile_is_memoized_and_counted() {
        let t = table();
        let col = ColumnData::from_table(&t, "name").unwrap();
        assert!(col.harvest_artifacts().qgram3_ids.is_none(), "nothing is built before first use");
        let first = col.qgram3_ids();
        let second = col.qgram3_ids();
        assert!(Arc::ptr_eq(&first, &second), "interned profile must be memoized");
        // The column holds that one build. The exact count of the
        // process-global counter is pinned by `tests/tests/profile_counts.rs`
        // in a binary of its own: sibling tests here profile concurrently.
        let memo = col.harvest_artifacts().qgram3_ids.expect("memoized after first use");
        assert!(Arc::ptr_eq(&first, &memo));
        assert!(!first.is_empty());
        // The value id set is memoized too, one id per distinct value.
        assert!(Arc::ptr_eq(&col.value_ids(), &col.value_ids()));
        assert_eq!(col.value_ids().len(), 3);
    }

    #[test]
    fn artifacts_harvest_and_seed_across_columns() {
        let t = table();
        let built = ColumnData::from_table(&t, "name").unwrap();
        assert!(built.harvest_artifacts().is_empty(), "nothing harvested before builds");
        let profile = built.qgram3_ids();
        let values = built.value_ids();
        let numeric = built.numeric_summary();
        let artifacts = built.harvest_artifacts();
        assert!(!artifacts.is_empty());
        assert!(artifacts.name_key.is_none(), "the name key was never built");

        // Seeding a fresh column over the same value bag: no rebuilds, the
        // exact same Arcs are served.
        let seeded = ColumnData::from_table(&t, "name").unwrap();
        seeded.seed_artifacts(&artifacts);
        assert!(Arc::ptr_eq(&seeded.qgram3_ids(), &profile), "seeded column must not rebuild");
        assert!(Arc::ptr_eq(&seeded.value_ids(), &values));
        assert_eq!(seeded.numeric_summary(), numeric);
    }

    #[test]
    fn owned_columns_behave_like_borrowed_ones() {
        let col = ColumnData::owned(
            AttrRef::new("t", "x"),
            DataType::Text,
            vec![cxm_relational::Value::str("a"), cxm_relational::Value::str("b")],
        );
        assert_eq!(col.len(), 2);
        assert_eq!(col.texts(), vec!["a", "b"]);
    }
}
