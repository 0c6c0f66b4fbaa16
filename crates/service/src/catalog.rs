//! The fingerprinted target catalog: immutable snapshots, swapped atomically.
//!
//! A snapshot owns everything a request needs from the target side — the
//! database instance, the hoisted column batch (with `Arc`-shared values and
//! memoized matcher profiles), the per-table content fingerprints — plus a
//! handle on the catalog's two source-side caches. Updates never mutate a
//! snapshot: they build a new one (reusing every table whose fingerprint is
//! unchanged) and swap it in behind an `Arc`, so concurrent in-flight
//! requests keep the consistent view they started with.
//!
//! The selection cache and the restricted-profile cache hold artifacts of
//! the *source* instances requests submit, keyed and validated by source
//! content fingerprints, so no target update can make an entry stale. The
//! catalog therefore creates one of each with its first snapshot, and every
//! later snapshot shares that same pair.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::lock::{MutexExt, RwLockExt};

use cxm_core::{MatchResultCache, RestrictedProfileCache};
use cxm_matching::{ColumnData, GramIndex, GramInterner};
use cxm_relational::{Database, Error, Result, SelectionCache, Table};

/// An immutable view of the registered target tables plus the warm artifacts
/// derived from them, and a handle on the catalog's source-side caches.
/// Obtained from [`TargetCatalog::snapshot`]; requests hold the `Arc` for
/// their whole run.
#[derive(Debug)]
pub struct CatalogSnapshot {
    version: u64,
    database: Database,
    fingerprints: BTreeMap<String, u64>,
    /// Hoisted target column batch in [`ColumnData::all_from_database`]
    /// order ((table name, schema position)), `Arc`-shared storage. The
    /// memoized profiles live in these instances: they warm up lazily on
    /// first use and persist for the snapshot's lifetime — and into the next
    /// snapshot for every table whose fingerprint did not change.
    columns: Vec<ColumnData<'static>>,
    /// Each table's sub-range of `columns`.
    table_ranges: BTreeMap<String, Range<usize>>,
    /// The catalog's selection cache over source tables, shared by every
    /// snapshot of the catalog. Requests fingerprint-validate their source
    /// tables against it before selecting.
    selections: Arc<Mutex<SelectionCache>>,
    /// The catalog's cache of view-restricted source column artifacts,
    /// shared by every snapshot of the catalog. Keyed by source-**column**
    /// content fingerprints and condition signatures
    /// ([`cxm_core::RestrictedKey`]), so target updates never require
    /// invalidation and stale source entries age out via the bound.
    restricted_profiles: Arc<Mutex<RestrictedProfileCache>>,
    /// Whole-match result memoization for this snapshot. Keys embed the
    /// snapshot version ([`cxm_core::MatchResultKey`]), so no entry of a
    /// predecessor could ever hit here: each snapshot starts empty, keeping
    /// only the predecessor's capacity and lifetime totals.
    match_results: Mutex<MatchResultCache>,
    /// The interner every column of this snapshot (and every restricted or
    /// source column scored against it) builds its flat id artifacts
    /// against; constant for the catalog's lifetime.
    interner: Arc<GramInterner>,
    /// The inverted gram index over `columns` — the candidate-pruning warm
    /// artifact. Built **lazily** by the first request that scores against
    /// the snapshot (never at update time, so catalog updates stay cheap and
    /// the build cost is attributed to the request that forced it), derived
    /// incrementally from `prev_gram_index` when a prior generation exists.
    gram_index: OnceLock<Arc<GramIndex>>,
    /// The latest predecessor index actually built — this snapshot's
    /// incremental base. Carried even across snapshots that never built
    /// their own, so a run of request-less catalog updates still yields an
    /// incremental (fingerprint-keyed) build, not a cold one.
    prev_gram_index: Option<Arc<GramIndex>>,
}

/// What a catalog update did, table by table **and column by column** — the
/// observable half of fingerprint-keyed invalidation. The column-level
/// counts are the incremental-delta refinement: a table counted in
/// [`CatalogUpdate::rebuilt`] may still carry most of its columns forward,
/// because columns are keyed by their own content fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogUpdate {
    /// The version of the snapshot the update produced.
    pub version: u64,
    /// Number of tables in the new snapshot.
    pub tables: usize,
    /// Tables whose fingerprint was unchanged: their column batches (and
    /// memoized profiles) were reused from the previous snapshot wholesale.
    pub reused: usize,
    /// Tables that are new or whose fingerprint changed. Their *unchanged*
    /// columns are still carried forward individually — see
    /// [`CatalogUpdate::columns_rebuilt`] for what was actually rebuilt.
    pub rebuilt: usize,
    /// Tables present in the previous snapshot but not in this one.
    pub dropped: usize,
    /// Tables whose **row storage** (`Arc<Table>`) is shared with the
    /// previous snapshot — the update copied zero tuples for them.
    pub shared: usize,
    /// Tables whose row storage had to be copied (new or changed content).
    pub copied: usize,
    /// Columns (across all tables) carried forward from the previous
    /// snapshot — values, memoized profiles and all — because their
    /// per-column content fingerprint was unchanged. Includes the columns of
    /// wholesale-reused tables.
    pub columns_reused: usize,
    /// Columns that are new or whose content changed: freshly extracted,
    /// profiles rebuilt lazily on next use. Replacing one column of a
    /// 50-column table makes this exactly 1.
    pub columns_rebuilt: usize,
    /// Columns whose **inverted gram index** posting contributions the next
    /// (lazy, incremental) index build will carry forward `Arc`-shared:
    /// indexed columns whose per-column fingerprint matches the latest
    /// *built* index generation. Zero when no request has built an index yet
    /// (nothing to carry) or when the batch shape changed (positional slots
    /// force a full rebuild).
    pub postings_reused: usize,
    /// Columns whose posting contributions the next index build must redo —
    /// the complement of [`CatalogUpdate::postings_reused`] whenever a prior
    /// index generation exists; `0` when none does (a cold build rebuilds
    /// nothing, it builds).
    pub postings_rebuilt: usize,
}

impl CatalogSnapshot {
    /// Snapshot version 0: no tables, and fresh source-side caches that
    /// every later snapshot of the catalog shares.
    fn empty(
        interner: Arc<GramInterner>,
        selection_capacity: usize,
        restricted_capacity: usize,
        result_capacity: usize,
    ) -> Self {
        CatalogSnapshot {
            version: 0,
            database: Database::new("target-catalog"),
            fingerprints: BTreeMap::new(),
            columns: Vec::new(),
            table_ranges: BTreeMap::new(),
            selections: Arc::new(Mutex::new(SelectionCache::with_table_capacity(
                selection_capacity,
            ))),
            restricted_profiles: Arc::new(Mutex::new(RestrictedProfileCache::with_capacity(
                restricted_capacity,
            ))),
            match_results: Mutex::new(MatchResultCache::with_capacity(result_capacity)),
            interner,
            gram_index: OnceLock::new(),
            prev_gram_index: None,
        }
    }

    /// Build a snapshot of `database`, reusing the warm artifacts of `prev`
    /// at **column granularity**: an unchanged table is carried forward
    /// wholesale (including its row storage: its `Arc<Table>` is swapped in
    /// from the previous snapshot, so the update copies tuples only for new
    /// or changed tables — `CatalogUpdate::shared` vs
    /// `CatalogUpdate::copied`), and a *changed* table still carries forward
    /// every column whose own content fingerprint is unchanged. Replacing
    /// one column of a wide table extracts — and later re-profiles — exactly
    /// that column ([`CatalogUpdate::columns_rebuilt`]). The new snapshot
    /// holds `prev`'s own source-side caches.
    fn build(
        version: u64,
        mut database: Database,
        prev: &CatalogSnapshot,
    ) -> (Self, CatalogUpdate) {
        let fingerprints = database.table_fingerprints();
        // Share unchanged row storage with the previous snapshot. Derived
        // databases (replace/drop of one table) already share via the
        // Arc-backed `Database` clone; a wholesale `register_database` gets
        // its unchanged tables deduplicated here by fingerprint.
        let names: Vec<String> = database.table_names().iter().map(|n| n.to_string()).collect();
        for name in names {
            let prev_arc = match prev.database.shared_table(&name) {
                Some(arc) => arc,
                None => continue,
            };
            let unchanged = prev.fingerprints.get(&name) == fingerprints.get(&name);
            let current = database.shared_table(&name).expect("name comes from the database");
            if Arc::ptr_eq(current, prev_arc) {
                continue;
            }
            if unchanged {
                database.replace_shared_table(Arc::clone(prev_arc));
            }
        }
        let shared = database
            .table_names()
            .into_iter()
            .filter(|name| {
                prev.database
                    .shared_table(name)
                    .zip(database.shared_table(name))
                    .is_some_and(|(a, b)| Arc::ptr_eq(a, b))
            })
            .count();
        let copied = database.len() - shared;
        let dropped =
            prev.fingerprints.keys().filter(|name| !fingerprints.contains_key(*name)).count();

        let mut columns = Vec::new();
        let mut table_ranges = BTreeMap::new();
        let mut reused = 0usize;
        let mut rebuilt = 0usize;
        let mut columns_reused = 0usize;
        let mut columns_rebuilt = 0usize;
        for table in database.tables() {
            let start = columns.len();
            let fingerprint = fingerprints[table.name()];
            match prev.columns_if_unchanged(table.name(), fingerprint) {
                Some(warm) => {
                    // A clone of a warm column shares both its Arc'd values
                    // and its memoized profiles — zero rebuilds downstream.
                    columns.extend(warm.iter().cloned());
                    reused += 1;
                    columns_reused += warm.len();
                }
                None => {
                    // Changed (or new) table: carry forward each column
                    // whose own content fingerprint is unchanged — a clone
                    // shares the previous column's Arc'd values *and* its
                    // memoized profiles — and extract only the rest.
                    let warm_cols = prev.table_columns(table.name());
                    let column_fingerprints = table.column_fingerprints().to_vec();
                    for (attr, &column_fp) in
                        table.schema().attributes().iter().zip(&column_fingerprints)
                    {
                        let carried = warm_cols.and_then(|cols| {
                            cols.iter().find(|c| {
                                c.fingerprint() == Some(column_fp) && c.attr.attribute == attr.name
                            })
                        });
                        match carried {
                            Some(warm) => {
                                columns.push(warm.clone());
                                columns_reused += 1;
                            }
                            None => {
                                columns.push(
                                    ColumnData::shared_from_table(table, &attr.name)
                                        .expect("attribute comes from the table's own schema")
                                        .with_interner(Arc::clone(&prev.interner))
                                        .with_fingerprint(column_fp),
                                );
                                columns_rebuilt += 1;
                            }
                        }
                    }
                    rebuilt += 1;
                }
            }
            table_ranges.insert(table.name().to_string(), start..columns.len());
        }

        // The gram index builds lazily (first request), so at update time we
        // can only *predict* its reuse: against the latest built generation,
        // count the columns whose fingerprints carry forward.
        let prev_gram_index =
            prev.gram_index.get().cloned().or_else(|| prev.prev_gram_index.clone());
        let (postings_reused, postings_rebuilt) = match &prev_gram_index {
            Some(index) if index.same_shape(&columns) => {
                let carried = index.columns_carried(&columns);
                (carried, columns.len() - carried)
            }
            Some(_) => (0, columns.len()),
            None => (0, 0),
        };

        let update = CatalogUpdate {
            version,
            tables: table_ranges.len(),
            reused,
            rebuilt,
            dropped,
            shared,
            copied,
            columns_reused,
            columns_rebuilt,
            postings_reused,
            postings_rebuilt,
        };
        let snapshot = CatalogSnapshot {
            version,
            database,
            fingerprints,
            columns,
            table_ranges,
            selections: Arc::clone(&prev.selections),
            restricted_profiles: Arc::clone(&prev.restricted_profiles),
            // Start the whole-match result cache empty: its keys embed the
            // snapshot version, so every predecessor entry is unreachable
            // from here on. Carrying them would only keep dead results
            // resident until the bound aged them out; the capacity and
            // lifetime totals carry.
            match_results: Mutex::new(prev.match_results.lock_or_recover().emptied()),
            interner: Arc::clone(&prev.interner),
            gram_index: OnceLock::new(),
            prev_gram_index,
        };
        (snapshot, update)
    }

    /// The result-cache handle (see the field docs; shared by the requests
    /// against this snapshot).
    pub fn match_results(&self) -> &Mutex<MatchResultCache> {
        &self.match_results
    }

    fn columns_if_unchanged(
        &self,
        table: &str,
        fingerprint: u64,
    ) -> Option<&[ColumnData<'static>]> {
        if self.fingerprints.get(table) != Some(&fingerprint) {
            return None;
        }
        self.table_ranges.get(table).map(|r| &self.columns[r.clone()])
    }

    /// The snapshot's version (monotonically increasing per catalog update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The registered target database instance.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The hoisted target column batch, in [`ColumnData::all_from_database`]
    /// order over [`CatalogSnapshot::database`].
    pub fn columns(&self) -> &[ColumnData<'static>] {
        &self.columns
    }

    /// One table's slice of the hoisted batch.
    pub fn table_columns(&self, table: &str) -> Option<&[ColumnData<'static>]> {
        self.table_ranges.get(table).map(|r| &self.columns[r.clone()])
    }

    /// Per-table content fingerprints.
    pub fn fingerprints(&self) -> &BTreeMap<String, u64> {
        &self.fingerprints
    }

    /// The content fingerprint of one registered table.
    pub fn fingerprint_of(&self, table: &str) -> Option<u64> {
        self.fingerprints.get(table).copied()
    }

    /// The catalog's selection cache over source tables (fingerprint-
    /// validated by requests), the same object for every snapshot of the
    /// catalog.
    pub fn selections(&self) -> &Mutex<SelectionCache> {
        &self.selections
    }

    /// The catalog's cross-request view-restricted profile cache (see
    /// [`RestrictedProfileCache`]), the same object for every snapshot of
    /// the catalog.
    pub fn restricted_profiles(&self) -> &Mutex<RestrictedProfileCache> {
        &self.restricted_profiles
    }

    /// The interner this snapshot's columns build their flat id artifacts
    /// against. Source and restricted columns scored against the snapshot
    /// must share it for the interned kernels to apply (the service and the
    /// scoring path arrange that automatically).
    pub fn interner(&self) -> &Arc<GramInterner> {
        &self.interner
    }

    /// The inverted gram index over [`CatalogSnapshot::columns`], built on
    /// first use and memoized for the snapshot's lifetime. When a previous
    /// generation was built, the index derives incrementally from it —
    /// unchanged columns' posting lists carry forward `Arc`-shared
    /// ([`GramIndex::update_from`]). The build forces the interned artifacts
    /// of every non-empty indexed column (memoized on the columns, so a warm
    /// batch posts without re-profiling anything); the cost is attributed to
    /// the request that forced it, and every later request against this
    /// snapshot gets the `Arc` back for free.
    pub fn gram_index(&self) -> Arc<GramIndex> {
        Arc::clone(self.gram_index.get_or_init(|| {
            Arc::new(match &self.prev_gram_index {
                Some(prev) => GramIndex::update_from(prev, &self.columns),
                None => GramIndex::build(&self.columns),
            })
        }))
    }

    /// The gram index if some request already forced its build; `None` while
    /// the snapshot has never been scored against.
    pub fn gram_index_if_built(&self) -> Option<Arc<GramIndex>> {
        self.gram_index.get().cloned()
    }

    /// True when no target tables are registered.
    pub fn is_empty(&self) -> bool {
        self.table_ranges.is_empty()
    }
}

/// The snapshot-swapped catalog of target tables a [`crate::MatchService`]
/// matches into.
///
/// Reads ([`TargetCatalog::snapshot`]) are a brief `RwLock` read + `Arc`
/// clone. Writers serialize on an update lock, build the next snapshot
/// *outside* the read path, and swap it in atomically — readers are never
/// blocked behind a rebuild, and requests started before a swap finish
/// against the snapshot they began with.
#[derive(Debug)]
pub struct TargetCatalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    update_lock: Mutex<()>,
    interner: Arc<GramInterner>,
}

/// Default bound on selection-cache table buckets (see [`SelectionCache`]).
pub(crate) const DEFAULT_SELECTION_CACHE_TABLES: usize = 64;

/// Default bound on cached view-restricted columns (see
/// [`RestrictedProfileCache`]).
pub const DEFAULT_RESTRICTED_PROFILE_CAPACITY: usize = 4096;

/// Default bound on memoized whole-match results (see [`MatchResultCache`]).
/// Results are comparatively heavy (full match lists plus view definitions),
/// so the default is small; every entry saved is an entire match run.
pub const DEFAULT_MATCH_RESULT_CAPACITY: usize = 64;

impl TargetCatalog {
    /// An empty catalog (snapshot version 0, no tables) with default-bounded
    /// selection, restricted-profile and match-result caches, and the
    /// process-global interner.
    pub fn new() -> Self {
        TargetCatalog::with_warm_config(
            DEFAULT_SELECTION_CACHE_TABLES,
            DEFAULT_RESTRICTED_PROFILE_CAPACITY,
            DEFAULT_MATCH_RESULT_CAPACITY,
            GramInterner::global(),
        )
    }

    /// An empty catalog with explicit warm-artifact policy: the selection
    /// cache's table-bucket bound (oldest evicted first; `0` keeps one
    /// bucket), the restricted-profile cache bound (`0` disables
    /// restricted-column caching), the match-result cache bound (`0`
    /// disables whole-result memoization), and the catalog-scoped
    /// [`GramInterner`] every snapshot's columns intern against. Pass a
    /// private interner for an isolated id space (tests, multi-tenant
    /// processes); the default ([`GramInterner::global`]) lets ad-hoc
    /// columns outside the catalog share ids with it. The selection and
    /// restricted-profile caches are created here, once, and shared by every
    /// snapshot the catalog ever produces.
    pub fn with_warm_config(
        selection_capacity: usize,
        restricted_capacity: usize,
        result_capacity: usize,
        interner: Arc<GramInterner>,
    ) -> Self {
        let snapshot = CatalogSnapshot::empty(
            Arc::clone(&interner),
            selection_capacity,
            restricted_capacity,
            result_capacity,
        );
        TargetCatalog {
            current: RwLock::new(Arc::new(snapshot)),
            update_lock: Mutex::new(()),
            interner,
        }
    }

    /// The catalog-scoped interner (shared by every snapshot).
    pub fn interner(&self) -> &Arc<GramInterner> {
        &self.interner
    }

    /// The current snapshot. The returned `Arc` stays valid (and immutable)
    /// across later catalog updates.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.current.read_or_recover())
    }

    /// The current snapshot version.
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Register a full target database, replacing the current table set. The
    /// instance is copied into the catalog once; tables whose fingerprint
    /// matches a currently registered table keep their warm artifacts.
    pub fn register_database(&self, database: &Database) -> CatalogUpdate {
        self.update(|_| Ok(database.clone())).expect("register_database cannot fail")
    }

    /// Register one table, inserting it or replacing a same-named table.
    pub fn register_table(&self, table: Table) -> CatalogUpdate {
        self.update(|prev| {
            let mut db = prev.database.clone();
            db.replace_table(table);
            Ok(db)
        })
        .expect("register_table cannot fail")
    }

    /// Replace a registered table's instance. Errors when no table of that
    /// name is registered (use [`TargetCatalog::register_table`] to insert).
    pub fn replace_table(&self, table: Table) -> Result<CatalogUpdate> {
        self.update(|prev| {
            if prev.database.table(table.name()).is_none() {
                return Err(Error::UnknownTable(table.name().to_string()));
            }
            let mut db = prev.database.clone();
            db.replace_table(table);
            Ok(db)
        })
    }

    /// Drop a registered table. Returns `None` when no such table exists (no
    /// new snapshot is produced).
    pub fn drop_table(&self, name: &str) -> Option<CatalogUpdate> {
        self.update(|prev| {
            let mut db = prev.database.clone();
            // remove_shared_table: the dropped instance is discarded, so
            // never pay remove_table's clone-out of still-shared rows.
            if db.remove_shared_table(name).is_none() {
                return Err(Error::UnknownTable(name.to_string()));
            }
            Ok(db)
        })
        .ok()
    }

    /// Serialize writers, derive the next database from the current
    /// snapshot, build the new snapshot (reusing unchanged tables), and swap.
    ///
    /// `Database` stores its tables behind `Arc`s, so deriving the next
    /// instance shares the row storage of every unchanged table — a
    /// single-table replace copies one table's tuples, not the whole target
    /// ([`CatalogUpdate::shared`] / [`CatalogUpdate::copied`] report the
    /// split) — and the expensive target artifacts (column batches,
    /// memoized profiles) are reused per fingerprint on top.
    fn update<F>(&self, next_database: F) -> Result<CatalogUpdate>
    where
        F: FnOnce(&CatalogSnapshot) -> Result<Database>,
    {
        let _writers = self.update_lock.lock_or_recover();
        let prev = self.snapshot();
        let database = next_database(&prev)?;
        let (snapshot, update) = CatalogSnapshot::build(prev.version() + 1, database, &prev);
        *self.current.write_or_recover() = Arc::new(snapshot);
        Ok(update)
    }
}

impl Default for TargetCatalog {
    fn default() -> Self {
        TargetCatalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute, TableSchema};

    fn table(name: &str, rows: &[(&str, &str)]) -> Table {
        Table::with_rows(
            TableSchema::new(name, vec![Attribute::text("title"), Attribute::text("format")]),
            rows.iter().map(|(a, b)| tuple![*a, *b]).collect(),
        )
        .unwrap()
    }

    fn target() -> Database {
        Database::new("RT")
            .with_table(table(
                "book",
                &[("war and peace", "paperback"), ("middlemarch", "hardcover")],
            ))
            .with_table(table("music", &[("kind of blue", "columbia cd")]))
    }

    #[test]
    fn register_builds_columns_in_batch_order() {
        let catalog = TargetCatalog::new();
        assert!(catalog.snapshot().is_empty());
        let update = catalog.register_database(&target());
        assert_eq!(
            update,
            CatalogUpdate {
                version: 1,
                tables: 2,
                reused: 0,
                rebuilt: 2,
                dropped: 0,
                shared: 0,
                copied: 2,
                columns_reused: 0,
                columns_rebuilt: 4,
                postings_reused: 0,
                postings_rebuilt: 0,
            }
        );
        let snap = catalog.snapshot();
        let names: Vec<String> = snap.columns().iter().map(|c| c.attr.to_string()).collect();
        assert_eq!(names, vec!["book.title", "book.format", "music.title", "music.format"]);
        assert_eq!(snap.table_columns("music").unwrap().len(), 2);
        assert!(snap.table_columns("video").is_none());
        assert_eq!(
            snap.fingerprint_of("book"),
            Some(target().table("book").unwrap().fingerprint())
        );
    }

    #[test]
    fn unchanged_tables_are_reused_with_warm_profiles() {
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let first = catalog.snapshot();
        // Warm one column's profile in the live snapshot.
        let warm_profile = first.columns()[0].qgram3_ids();

        // Re-registering identical content reuses every table — including
        // the row storage, deduplicated by fingerprint against the previous
        // snapshot even though the caller passed an independent instance.
        let update = catalog.register_database(&target());
        assert_eq!(
            update,
            CatalogUpdate {
                version: 2,
                tables: 2,
                reused: 2,
                rebuilt: 0,
                dropped: 0,
                shared: 2,
                copied: 0,
                columns_reused: 4,
                columns_rebuilt: 0,
                postings_reused: 0,
                postings_rebuilt: 0,
            }
        );
        let second = catalog.snapshot();
        assert!(
            Arc::ptr_eq(&warm_profile, &second.columns()[0].qgram3_ids()),
            "reused table must carry its memoized profile across snapshots"
        );

        // Replacing one table rebuilds only that table.
        let update =
            catalog.replace_table(table("music", &[("blue train", "blue note cd")])).unwrap();
        assert_eq!(
            update,
            CatalogUpdate {
                version: 3,
                tables: 2,
                reused: 1,
                rebuilt: 1,
                dropped: 0,
                shared: 1,
                copied: 1,
                columns_reused: 2,
                columns_rebuilt: 2,
                postings_reused: 0,
                postings_rebuilt: 0,
            }
        );
        let third = catalog.snapshot();
        assert!(Arc::ptr_eq(&warm_profile, &third.columns()[0].qgram3_ids()));
        assert_ne!(third.fingerprint_of("music"), first.fingerprint_of("music"));
        assert_eq!(third.fingerprint_of("book"), first.fingerprint_of("book"));
    }

    #[test]
    fn unchanged_row_storage_is_shared_across_snapshots() {
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let first = catalog.snapshot();
        // A single-table replace shares the untouched table's Arc.
        catalog.replace_table(table("music", &[("blue train", "blue note cd")])).unwrap();
        let second = catalog.snapshot();
        assert!(Arc::ptr_eq(
            first.database().shared_table("book").unwrap(),
            second.database().shared_table("book").unwrap(),
        ));
        assert!(!Arc::ptr_eq(
            first.database().shared_table("music").unwrap(),
            second.database().shared_table("music").unwrap(),
        ));
        // Even a wholesale re-register of equal content dedups to the warm
        // Arcs by fingerprint.
        let update = catalog.register_database(&second.database().clone());
        assert_eq!((update.shared, update.copied), (2, 0));
        let third = catalog.snapshot();
        assert!(Arc::ptr_eq(
            second.database().shared_table("music").unwrap(),
            third.database().shared_table("music").unwrap(),
        ));
        // Every snapshot shares the catalog's interner and its one
        // restricted-profile cache.
        assert!(Arc::ptr_eq(first.interner(), third.interner()));
        assert_eq!(third.restricted_profiles().lock_or_recover().capacity(), 4096);
    }

    #[test]
    fn single_column_replace_rebuilds_exactly_that_column() {
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let first = catalog.snapshot();
        // Warm both of book's column profiles.
        let title_profile = first.table_columns("book").unwrap()[0].qgram3_ids();
        let format_profile = first.table_columns("book").unwrap()[1].qgram3_ids();

        // Replace book changing ONLY the format column's values.
        let replacement =
            table("book", &[("war and peace", "hardcover"), ("middlemarch", "trade paperback")]);
        let update = catalog.replace_table(replacement).unwrap();
        assert_eq!((update.reused, update.rebuilt), (1, 1), "book is table-level rebuilt");
        assert_eq!(
            (update.columns_reused, update.columns_rebuilt),
            (3, 1),
            "music's 2 columns + book.title carried; only book.format rebuilt"
        );

        let second = catalog.snapshot();
        // The untouched column keeps its memoized profile Arc; the changed
        // column does not.
        assert!(Arc::ptr_eq(
            &title_profile,
            &second.table_columns("book").unwrap()[0].qgram3_ids()
        ));
        assert!(!Arc::ptr_eq(
            &format_profile,
            &second.table_columns("book").unwrap()[1].qgram3_ids()
        ));
        // Column fingerprints moved with the content.
        let new_book = second.database().table("book").unwrap();
        assert_eq!(
            second.table_columns("book").unwrap()[0].fingerprint(),
            Some(new_book.column_fingerprint("title").unwrap())
        );
    }

    #[test]
    fn gram_index_builds_lazily_and_carries_postings() {
        let catalog = TargetCatalog::new();
        let update = catalog.register_database(&target());
        assert_eq!(
            (update.postings_reused, update.postings_rebuilt),
            (0, 0),
            "no index generation exists before the first request"
        );
        let first = catalog.snapshot();
        assert!(first.gram_index_if_built().is_none(), "the index is lazy");
        let index = first.gram_index();
        assert_eq!(index.len(), 4);
        assert!(Arc::ptr_eq(&index, &first.gram_index()), "memoized per snapshot");
        assert_eq!(index.postings_reused(), 0, "cold build carries nothing");

        // With a built generation behind it, the update predicts
        // column-granular posting reuse: book's 2 columns carry, music's 2
        // (the replaced table) must re-post.
        let update =
            catalog.replace_table(table("music", &[("blue train", "blue note cd")])).unwrap();
        assert_eq!((update.postings_reused, update.postings_rebuilt), (2, 2));

        // The next snapshot's build is incremental: posting lists private to
        // the untouched columns keep their very allocation.
        let second = catalog.snapshot();
        let next = second.gram_index();
        assert!(next.postings_reused() > 0, "book's untouched posting lists carried");
        let gram = first.interner().lookup("war").expect("posted by book.title");
        assert!(Arc::ptr_eq(index.gram_posting(gram).unwrap(), next.gram_posting(gram).unwrap(),));

        // Dropping a table changes the batch shape: the prediction can only
        // promise a full re-post.
        let update = catalog.drop_table("music").unwrap();
        assert_eq!((update.postings_reused, update.postings_rebuilt), (0, 2));
    }

    #[test]
    fn snapshots_are_immutable_under_updates() {
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let before = catalog.snapshot();
        catalog.drop_table("music").unwrap();
        // The held snapshot still sees both tables; the new one does not.
        assert_eq!(before.database().len(), 2);
        let after = catalog.snapshot();
        assert_eq!(after.database().len(), 1);
        assert!(after.fingerprint_of("music").is_none());
        assert_eq!(after.version(), before.version() + 1);
    }

    #[test]
    fn replace_and_drop_of_unknown_tables_fail_cleanly() {
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let v = catalog.version();
        assert!(catalog.replace_table(table("video", &[])).is_err());
        assert!(catalog.drop_table("video").is_none());
        assert_eq!(catalog.version(), v, "failed updates must not produce snapshots");
        // register_table inserts where replace_table refuses.
        let update = catalog.register_table(table("video", &[("alien", "dvd")]));
        assert_eq!(update.tables, 3);
        assert_eq!(update.rebuilt, 1);
    }

    #[test]
    fn snapshots_share_one_pair_of_source_caches() {
        use cxm_relational::Condition;
        let catalog = TargetCatalog::new();
        catalog.register_database(&target());
        let v1 = catalog.snapshot();
        // A request's source table may share a target table's name. Its
        // bucket holds source rows, which no target update can make stale.
        let source = table("book", &[("emma", "paperback"), ("persuasion", "hardcover")]);
        let paperback = Condition::eq("format", "paperback");
        let seeded = v1.selections().lock_or_recover().select(&source, &paperback);

        catalog.replace_table(table("book", &[("new book", "paperback")])).unwrap();
        let update = catalog.drop_table("music").unwrap();
        assert_eq!((update.version, update.dropped), (3, 1));
        let latest = catalog.snapshot();
        assert!(std::ptr::eq(latest.selections(), v1.selections()));
        assert!(std::ptr::eq(latest.restricted_profiles(), v1.restricted_profiles()));

        let mut cache = latest.selections().lock_or_recover();
        let hits = cache.hits();
        let served = cache.select(&source, &paperback);
        assert_eq!(cache.hits(), hits + 1, "the source atom is served warm");
        assert!(Arc::ptr_eq(&seeded, &served));
    }
}
