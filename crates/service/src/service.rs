//! Request execution over the warm catalog.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::lock::MutexExt;

use cxm_core::{
    BoundedCache, ContextMatchConfig, ContextMatchResult, ContextualMatcher, MatchResultKey,
    PreparedSourceColumns, PreparedTargets, SharedSelections,
};
use cxm_matching::column::telemetry as profile_telemetry;
use cxm_matching::index::telemetry as index_telemetry;
use cxm_matching::{ColumnData, GramInterner, KernelCounters};
use cxm_relational::{Database, Fnv64, Result, Table};

use crate::catalog::{
    CatalogUpdate, TargetCatalog, DEFAULT_MATCH_RESULT_CAPACITY,
    DEFAULT_RESTRICTED_PROFILE_CAPACITY, DEFAULT_SELECTION_CACHE_TABLES,
};

/// Configuration of a [`MatchService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The `ContextMatch` configuration every request runs with.
    pub context: ContextMatchConfig,
    /// How many distinct source databases (by content fingerprint) to keep
    /// warm source-column batches for; `0` disables source-side reuse.
    /// Eviction is oldest-first.
    pub source_cache_capacity: usize,
    /// How many table buckets the catalog's selection cache retains (oldest
    /// evicted first); `0` keeps one bucket, the one being selected against.
    /// Bounds the cache's memory under many distinct source schemas.
    pub selection_cache_tables: usize,
    /// How many view-restricted columns the cross-request
    /// [`cxm_core::RestrictedProfileCache`] retains (oldest inserted evicted
    /// first); `0` disables restricted-column caching — every request then
    /// re-profiles its candidate views' columns, as before PR 4.
    pub restricted_profile_entries: usize,
    /// How many whole-match results the [`cxm_core::MatchResultCache`]
    /// retains (oldest inserted evicted first); `0` disables result
    /// memoization — every request then runs the matcher, warm artifacts or
    /// not. A hit serves a repeat submission of an unchanged source against
    /// an unchanged catalog without any matching work at all.
    pub match_result_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            context: ContextMatchConfig::default(),
            source_cache_capacity: 16,
            selection_cache_tables: DEFAULT_SELECTION_CACHE_TABLES,
            restricted_profile_entries: DEFAULT_RESTRICTED_PROFILE_CAPACITY,
            match_result_entries: DEFAULT_MATCH_RESULT_CAPACITY,
        }
    }
}

/// Per-request telemetry, measured from the process-wide instrumentation
/// counters (`cxm_matching::column::telemetry`, `cxm_classify::telemetry`)
/// and the catalog's shared selection and restricted-profile caches.
///
/// The counters are process-global, so the deltas attribute work to a request
/// accurately only while requests do not overlap — which is how
/// [`MatchService::submit_batch`] runs them (each request is internally
/// parallel over the work-stealing pool; the batch itself is sequential).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTelemetry {
    /// Version of the catalog snapshot the request ran against.
    pub catalog_version: u64,
    /// Whether the entire response was served from the whole-match result
    /// cache. A hit does no matching work at all: every other counter in
    /// this struct is then zero by construction.
    pub result_cache_hit: bool,
    /// Q-gram profiles built during the request. On a warm catalog this
    /// counts **no** target-side builds; with a source-cache hit and no
    /// candidate views it is exactly zero.
    pub qgram_profile_builds: usize,
    /// Selection-cache hits during the request (atom scans avoided).
    pub selection_cache_hits: usize,
    /// Selection-cache misses during the request (atom scans performed).
    pub selection_cache_misses: usize,
    /// View-restricted columns served from the cross-request
    /// restricted-profile cache (profile builds avoided).
    pub restricted_profile_hits: usize,
    /// View-restricted columns the cache had not seen (profiles built and
    /// published for later requests).
    pub restricted_profile_misses: usize,
    /// Entries the bounded restricted-profile cache evicted during the
    /// request. Sustained nonzero evictions under a steady workload mean
    /// the bound is too small for the live view/column population and the
    /// warm path is silently degrading to rebuilds.
    pub restricted_profile_evictions: usize,
    /// Classifier scoring/training work units spent on view inference.
    pub classifier_work_units: usize,
    /// Whether the source database's column batch was served from the warm
    /// source cache.
    pub source_cache_hit: bool,
    /// Entries the bounded source column-batch cache evicted during the
    /// request (the same regression signal as
    /// [`RequestTelemetry::restricted_profile_evictions`], for the source
    /// side).
    pub source_cache_evictions: usize,
    /// Whether this request forced the snapshot's inverted gram index to
    /// build (cold or incremental). At most one request per snapshot pays
    /// this; every later request reuses the artifact for free.
    pub index_built: bool,
    /// Posting lists the forced index build carried forward `Arc`-shared
    /// from the previous generation (`0` unless
    /// [`RequestTelemetry::index_built`]).
    pub index_postings_reused: usize,
    /// Posting lists the forced index build had to (re)build (`0` unless
    /// [`RequestTelemetry::index_built`]).
    pub index_postings_rebuilt: usize,
    /// Candidate (source column, target column) pairs examined by inverted-
    /// index scans during the request.
    pub candidates_scanned: usize,
    /// Scanned pairs sharing at least one gram or one distinct value — the
    /// pairs the exact kernels cannot skip. The difference from
    /// [`RequestTelemetry::candidates_scanned`] is the pruned-pair count;
    /// their ratio is the pruning rate.
    pub candidates_surviving: usize,
    /// Interned kernel evaluations short-circuited by an index-proven zero
    /// (the merge-join / set intersection never ran).
    pub kernel_scores_pruned: usize,
}

impl fmt::Display for RequestTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.result_cache_hit {
            return write!(f, "catalog v{}, served from the result cache", self.catalog_version);
        }
        write!(
            f,
            "catalog v{}, {} profile builds, selections {} hit / {} miss, \
             restricted profiles {} hit / {} miss / {} evicted, {} classifier work units, \
             source cache {} ({} evicted), ",
            self.catalog_version,
            self.qgram_profile_builds,
            self.selection_cache_hits,
            self.selection_cache_misses,
            self.restricted_profile_hits,
            self.restricted_profile_misses,
            self.restricted_profile_evictions,
            self.classifier_work_units,
            if self.source_cache_hit { "hit" } else { "miss" },
            self.source_cache_evictions,
        )?;
        if self.index_built {
            write!(
                f,
                "index built ({} postings reused / {} rebuilt)",
                self.index_postings_reused, self.index_postings_rebuilt
            )?;
        } else {
            write!(f, "index warm")?;
        }
        write!(
            f,
            ", candidates {} scanned / {} surviving, {} kernel scores pruned",
            self.candidates_scanned, self.candidates_surviving, self.kernel_scores_pruned
        )
    }
}

/// A point-in-time snapshot of every warm-artifact store a [`MatchService`]
/// holds, taken by [`MatchService::warm_stats`]. Unlike [`RequestTelemetry`]
/// (per-request deltas of process-global counters, attributable only while
/// requests do not overlap), these are *absolute* totals read from the
/// service's own caches, so they stay meaningful under concurrent load —
/// which is what multi-tenant hosts report per tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Current catalog snapshot version.
    pub catalog_version: u64,
    /// Registered target tables in the current snapshot.
    pub catalog_tables: usize,
    /// Warm source column batches currently held / the configured bound.
    pub source_len: usize,
    /// Configured bound on warm source column batches (`0` = disabled).
    pub source_capacity: usize,
    /// Source batches pushed out by the bound over the service's lifetime.
    pub source_evictions: usize,
    /// Lifetime selection-cache hits (atom scans avoided).
    pub selection_hits: usize,
    /// Lifetime selection-cache misses (atom scans performed).
    pub selection_misses: usize,
    /// Selection atoms currently cached.
    pub selection_atoms: usize,
    /// View-restricted column profiles currently held.
    pub restricted_len: usize,
    /// Configured bound on restricted profiles (`0` = disabled).
    pub restricted_capacity: usize,
    /// Lifetime restricted-profile cache hits.
    pub restricted_hits: usize,
    /// Lifetime restricted-profile cache misses.
    pub restricted_misses: usize,
    /// Restricted profiles pushed out by the bound over the lifetime.
    pub restricted_evictions: usize,
    /// Whole-match results currently memoized.
    pub result_len: usize,
    /// Configured bound on memoized results (`0` = disabled).
    pub result_capacity: usize,
    /// Lifetime whole-match result cache hits.
    pub result_hits: usize,
    /// Lifetime whole-match result cache misses.
    pub result_misses: usize,
    /// Memoized results pushed out by the bound over the lifetime.
    pub result_evictions: usize,
    /// Target columns restored warm from a persisted snapshot (zero for a
    /// cold-constructed service). See [`crate::RestoreSummary`].
    pub restored_columns: usize,
    /// Persisted column records a restore had to discard (fingerprint
    /// mismatch, corruption) — those columns rebuild lazily, cold.
    pub rebuilt_columns: usize,
    /// Restricted-profile cache entries restored from a snapshot.
    pub restored_restricted: usize,
    /// Restricted-profile records a restore discarded.
    pub dropped_restricted: usize,
    /// Snapshot sections degraded during the restore that built this
    /// service (load-time checksum/framing failures plus content-level
    /// cross-validation failures).
    pub degraded_sections: usize,
}

impl WarmStats {
    /// Total warm artifacts evicted by capacity bounds across all stores —
    /// the per-tenant "quota pressure" signal a multi-tenant host reports.
    pub fn quota_evictions(&self) -> usize {
        self.source_evictions + self.restricted_evictions + self.result_evictions
    }
}

impl fmt::Display for WarmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "catalog v{} ({} tables), sources {}/{} ({} evicted), \
             selections {} hit / {} miss ({} atoms), \
             restricted {}/{} ({} hit / {} miss / {} evicted), \
             results {}/{} ({} hit / {} miss / {} evicted)",
            self.catalog_version,
            self.catalog_tables,
            self.source_len,
            self.source_capacity,
            self.source_evictions,
            self.selection_hits,
            self.selection_misses,
            self.selection_atoms,
            self.restricted_len,
            self.restricted_capacity,
            self.restricted_hits,
            self.restricted_misses,
            self.restricted_evictions,
            self.result_len,
            self.result_capacity,
            self.result_hits,
            self.result_misses,
            self.result_evictions,
        )?;
        if self.restored_columns
            + self.rebuilt_columns
            + self.restored_restricted
            + self.dropped_restricted
            + self.degraded_sections
            > 0
        {
            write!(
                f,
                ", restore {} cols / {} rebuilt, restricted {} / {} dropped, {} degraded",
                self.restored_columns,
                self.rebuilt_columns,
                self.restored_restricted,
                self.dropped_restricted,
                self.degraded_sections,
            )?;
        }
        Ok(())
    }
}

/// The outcome of one [`MatchService::submit`] request.
#[derive(Debug)]
pub struct MatchResponse {
    /// The contextual matching result — byte-identical to what a cold
    /// [`ContextualMatcher::run`] returns for the same source and target
    /// instances. `Arc`-shared with the whole-match result cache, so
    /// memoizing (and serving) a result is a pointer copy, never a deep
    /// clone; field access works through the `Arc` as usual.
    pub result: Arc<ContextMatchResult>,
    /// What the request cost and which warm artifacts it reused.
    pub telemetry: RequestTelemetry,
}

/// A long-lived contextual schema matching service: a [`TargetCatalog`] of
/// fingerprinted target tables plus warm-artifact reuse on both sides of the
/// match.
///
/// ```
/// use cxm_relational::{tuple, Attribute, Database, Table, TableSchema};
/// use cxm_service::MatchService;
///
/// let target = Database::new("RT").with_table(
///     Table::with_rows(
///         TableSchema::new("book", vec![Attribute::text("title")]),
///         vec![tuple!["war and peace"], tuple!["middlemarch"]],
///     )
///     .unwrap(),
/// );
/// let service = MatchService::with_defaults();
/// service.register_target(&target);
///
/// let source = Database::new("RS").with_table(
///     Table::with_rows(
///         TableSchema::new("inv", vec![Attribute::text("name")]),
///         vec![tuple!["anna karenina"], tuple!["bleak house"]],
///     )
///     .unwrap(),
/// );
/// let response = service.submit(&source).unwrap();
/// assert_eq!(response.telemetry.catalog_version, 1);
/// ```
#[derive(Debug)]
pub struct MatchService {
    matcher: ContextualMatcher,
    catalog: TargetCatalog,
    /// Oldest-first bounded cache of prepared source-column batches, keyed
    /// by the source's combined content fingerprint.
    sources: Mutex<BoundedCache<u64, Arc<PreparedSourceColumns<'static>>>>,
    /// [`ContextMatchConfig::signature`] of the configuration every request
    /// runs with — the configuration third of each result-cache key,
    /// computed once at construction.
    config_signature: u64,
    /// What the snapshot restore that built this service reused vs. rebuilt
    /// (all zeros for a cold construction). Written once, before the service
    /// is shared — plain data, no lock needed.
    pub(crate) restore: crate::persist::RestoreSummary,
}

impl MatchService {
    /// A service running the given `ContextMatch` configuration with default
    /// service settings.
    pub fn new(context: ContextMatchConfig) -> Self {
        MatchService::with_config(ServiceConfig { context, ..ServiceConfig::default() })
    }

    /// A service with default configuration.
    pub fn with_defaults() -> Self {
        MatchService::with_config(ServiceConfig::default())
    }

    /// A service with explicit configuration.
    pub fn with_config(config: ServiceConfig) -> Self {
        MatchService::with_config_and_interner(config, GramInterner::global())
    }

    /// A service with explicit configuration whose catalog interns against
    /// the given [`GramInterner`] instead of the process-global one.
    ///
    /// Multi-tenant hosts (e.g. `cxm-server`) pass one shared interner to
    /// every tenant's service: grams are content-addressed, so tenants share
    /// one id space — and the flat interned kernels apply across any column
    /// pair — without sharing any catalog state. Interned scoring is
    /// id-assignment-independent, so results stay byte-identical to a
    /// service using a private (or the global) interner.
    pub fn with_config_and_interner(config: ServiceConfig, interner: Arc<GramInterner>) -> Self {
        MatchService {
            matcher: ContextualMatcher::new(config.context),
            catalog: TargetCatalog::with_warm_config(
                config.selection_cache_tables,
                config.restricted_profile_entries,
                config.match_result_entries,
                interner,
            ),
            sources: Mutex::new(BoundedCache::with_capacity(config.source_cache_capacity)),
            config_signature: config.context.signature(),
            restore: crate::persist::RestoreSummary::default(),
        }
    }

    /// The catalog behind this service, for direct snapshot inspection.
    pub fn catalog(&self) -> &TargetCatalog {
        &self.catalog
    }

    /// The `ContextMatch` configuration requests run with.
    pub fn config(&self) -> &ContextMatchConfig {
        self.matcher.config()
    }

    /// Register (or wholly replace) the target database. See
    /// [`TargetCatalog::register_database`].
    pub fn register_target(&self, target: &Database) -> CatalogUpdate {
        self.catalog.register_database(target)
    }

    /// Insert or replace one target table. See
    /// [`TargetCatalog::register_table`].
    pub fn register_table(&self, table: Table) -> CatalogUpdate {
        self.catalog.register_table(table)
    }

    /// Replace a registered target table. See
    /// [`TargetCatalog::replace_table`].
    pub fn replace_table(&self, table: Table) -> Result<CatalogUpdate> {
        self.catalog.replace_table(table)
    }

    /// Drop a registered target table. See [`TargetCatalog::drop_table`].
    pub fn drop_table(&self, name: &str) -> Option<CatalogUpdate> {
        self.catalog.drop_table(name)
    }

    /// Match one source database against the current catalog snapshot.
    ///
    /// Admission cost is one scan of the source data (content fingerprints
    /// for the source cache and the shared selection cache); the run itself
    /// executes `ContextMatch` over the work-stealing pool with the
    /// snapshot's warm target batch — zero target-side re-profiling once the
    /// batch has been used before — and is byte-identical to a cold
    /// [`ContextualMatcher::run`] against the same instances.
    pub fn submit(&self, source: &Database) -> Result<MatchResponse> {
        let snapshot = self.catalog.snapshot();
        self.submit_against(source, &snapshot)
    }

    /// Match several source databases sequentially against **one** catalog
    /// snapshot (a consistent view across the whole batch, even if the
    /// catalog is updated mid-batch). Requests run one after another — each
    /// is internally parallel over the work-stealing pool, and keeping them
    /// disjoint is what makes the per-request telemetry deltas attributable.
    pub fn submit_batch<'s, I>(&self, sources: I) -> Result<Vec<MatchResponse>>
    where
        I: IntoIterator<Item = &'s Database>,
    {
        let snapshot = self.catalog.snapshot();
        sources.into_iter().map(|source| self.submit_against(source, &snapshot)).collect()
    }

    fn submit_against(
        &self,
        source: &Database,
        snapshot: &crate::CatalogSnapshot,
    ) -> Result<MatchResponse> {
        // One scan of the source data: per-table fingerprints drive the
        // result-cache key, the source-column cache key and the shared
        // selection cache validation (the latter performed by the run
        // itself, inside the cache's critical sections — see
        // `SharedSelections`). The scan also fills each source table's
        // per-column fingerprint cache, which the restricted-profile keys
        // read for free during scoring.
        let table_fingerprints = source.table_fingerprints();
        let source_key = combined_fingerprint(&table_fingerprints);

        // Whole-match result memoization: a repeat submission of unchanged
        // source content against an unchanged snapshot under this service's
        // configuration is one lookup — no column prep, no selection scans,
        // no classifier work. Cached results are byte-identical to the run
        // that produced them.
        let result_key = MatchResultKey {
            source_fingerprint: source_key,
            catalog_version: snapshot.version(),
            config_signature: self.config_signature,
        };
        let cached = {
            let mut cache = snapshot.match_results().lock_or_recover();
            if cache.capacity() > 0 {
                cache.get(&result_key).cloned()
            } else {
                None
            }
        };
        if let Some(result) = cached {
            return Ok(MatchResponse {
                result,
                telemetry: RequestTelemetry {
                    catalog_version: snapshot.version(),
                    result_cache_hit: true,
                    ..RequestTelemetry::default()
                },
            });
        }

        let source_evictions_before = self.sources.lock_or_recover().evictions();
        let (source_columns, source_cache_hit) =
            self.source_columns(source, source_key, snapshot.interner());

        let (hits_before, misses_before) = {
            let cache = snapshot.selections().lock_or_recover();
            (cache.hits(), cache.misses())
        };
        // With a capacity-0 (disabled) cache, don't thread it into scoring
        // at all: every lookup would be a guaranteed miss paying two mutex
        // round-trips per restricted column.
        let (
            profile_hits_before,
            profile_misses_before,
            profile_evictions_before,
            restricted_profiles,
        ) = {
            let cache = snapshot.restricted_profiles().lock_or_recover();
            let enabled = (cache.capacity() > 0).then(|| snapshot.restricted_profiles());
            (cache.hits(), cache.misses(), cache.evictions(), enabled)
        };
        let builds_before = profile_telemetry::qgram_profile_builds();
        let work_before = cxm_classify::telemetry::work_units();
        let kernels_before = KernelCounters::snapshot();
        let scanned_before = index_telemetry::candidate_pairs_scanned();
        let surviving_before = index_telemetry::candidate_pairs_surviving();

        // Force the snapshot's (lazy) gram index inside the request, after
        // the before-counters: the first request against a snapshot pays the
        // build — and its forced profile builds are attributed here, exactly
        // like the ones the matchers would have forced anyway — while every
        // later request gets the memoized Arc back.
        let index_prebuilt = snapshot.gram_index_if_built().is_some();
        let gram_index = snapshot.gram_index();

        let result = self.matcher.run_prepared(
            source,
            Some(&source_columns),
            PreparedTargets {
                database: snapshot.database(),
                columns: snapshot.columns(),
                index: Some(&gram_index),
                shared_selections: Some(SharedSelections {
                    cache: snapshot.selections(),
                    source_fingerprints: &table_fingerprints,
                    restricted_profiles,
                    catalog_version: snapshot.version(),
                }),
            },
        )?;

        let (hits_after, misses_after) = {
            let cache = snapshot.selections().lock_or_recover();
            (cache.hits(), cache.misses())
        };
        let (profile_hits_after, profile_misses_after, profile_evictions_after) = {
            let cache = snapshot.restricted_profiles().lock_or_recover();
            (cache.hits(), cache.misses(), cache.evictions())
        };
        let source_evictions_after = self.sources.lock_or_recover().evictions();
        let telemetry = RequestTelemetry {
            catalog_version: snapshot.version(),
            result_cache_hit: false,
            qgram_profile_builds: profile_telemetry::qgram_profile_builds() - builds_before,
            selection_cache_hits: hits_after - hits_before,
            selection_cache_misses: misses_after - misses_before,
            restricted_profile_hits: profile_hits_after - profile_hits_before,
            restricted_profile_misses: profile_misses_after - profile_misses_before,
            restricted_profile_evictions: profile_evictions_after - profile_evictions_before,
            classifier_work_units: cxm_classify::telemetry::work_units() - work_before,
            source_cache_hit,
            source_cache_evictions: source_evictions_after - source_evictions_before,
            index_built: !index_prebuilt,
            index_postings_reused: if index_prebuilt { 0 } else { gram_index.postings_reused() },
            index_postings_rebuilt: if index_prebuilt { 0 } else { gram_index.postings_rebuilt() },
            candidates_scanned: index_telemetry::candidate_pairs_scanned() - scanned_before,
            candidates_surviving: index_telemetry::candidate_pairs_surviving() - surviving_before,
            kernel_scores_pruned: kernels_before.delta().pruned,
        };

        // Publish for repeat submissions: the cache and the response share
        // one `Arc`, so memoization costs a pointer copy and later hits
        // return exactly this response's result, bit for bit.
        let result = Arc::new(result);
        {
            let mut cache = snapshot.match_results().lock_or_recover();
            if cache.capacity() > 0 {
                cache.insert(result_key, Arc::clone(&result));
            }
        }
        Ok(MatchResponse { result, telemetry })
    }

    /// A point-in-time snapshot of this service's warm-artifact stores (see
    /// [`WarmStats`]). Absolute totals, safe to read under concurrent load.
    pub fn warm_stats(&self) -> WarmStats {
        let snapshot = self.catalog.snapshot();
        let sources = self.sources.lock_or_recover();
        let (selection_hits, selection_misses, selection_atoms) = {
            let cache = snapshot.selections().lock_or_recover();
            (cache.hits(), cache.misses(), cache.cached_atoms())
        };
        let restricted = snapshot.restricted_profiles().lock_or_recover();
        let results = snapshot.match_results().lock_or_recover();
        WarmStats {
            catalog_version: snapshot.version(),
            catalog_tables: snapshot.database().len(),
            source_len: sources.len(),
            source_capacity: sources.capacity(),
            source_evictions: sources.evictions(),
            selection_hits,
            selection_misses,
            selection_atoms,
            restricted_len: restricted.len(),
            restricted_capacity: restricted.capacity(),
            restricted_hits: restricted.hits(),
            restricted_misses: restricted.misses(),
            restricted_evictions: restricted.evictions(),
            result_len: results.len(),
            result_capacity: results.capacity(),
            result_hits: results.hits(),
            result_misses: results.misses(),
            result_evictions: results.evictions(),
            restored_columns: self.restore.restored_columns,
            rebuilt_columns: self.restore.rebuilt_columns,
            restored_restricted: self.restore.restored_restricted,
            dropped_restricted: self.restore.dropped_restricted,
            degraded_sections: self.restore.degraded_sections,
        }
    }

    /// The source database's prepared column batch, served from the warm
    /// cache when its content fingerprint is known.
    fn source_columns(
        &self,
        source: &Database,
        key: u64,
        interner: &Arc<GramInterner>,
    ) -> (Arc<PreparedSourceColumns<'static>>, bool) {
        if let Some(columns) = self.sources.lock_or_recover().get(&key).cloned() {
            return (columns, true);
        }
        // Build outside the lock: extraction clones every source value, and
        // holding the lock for that would serialize admission of concurrent
        // requests. A racing builder is benign — batches are content-equal —
        // but the first inserted Arc stays canonical.
        let columns = Arc::new(build_source_columns(source, interner));
        let mut cache = self.sources.lock_or_recover();
        if let Some(existing) = cache.get(&key).cloned() {
            return (existing, true);
        }
        cache.insert(key, Arc::clone(&columns));
        (columns, false)
    }
}

/// Pre-extract every table's columns in [`ColumnData::all_from_table`]
/// layout, in `Arc`-shared storage so cache hits share values and profiles.
/// Columns intern against the catalog's interner so the flat kernels apply
/// to every (source, target) pair.
fn build_source_columns(
    source: &Database,
    interner: &Arc<GramInterner>,
) -> PreparedSourceColumns<'static> {
    source
        .tables()
        .map(|table| {
            let columns = table
                .schema()
                .attributes()
                .iter()
                .map(|a| {
                    ColumnData::shared_from_table(table, &a.name)
                        .expect("attribute comes from the table's own schema")
                        .with_interner(Arc::clone(interner))
                })
                .collect();
            (table.name().to_string(), columns)
        })
        .collect()
}

/// Combine per-table fingerprints into one database-level cache key.
fn combined_fingerprint(tables: &std::collections::BTreeMap<String, u64>) -> u64 {
    let mut h = Fnv64::with_seed(0x6373_6d5f_7372_6373);
    h.write_u64(tables.len() as u64);
    for (name, fingerprint) in tables {
        h.write_str(name);
        h.write_u64(*fingerprint);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_datagen::{generate_retail, RetailConfig};
    use cxm_relational::{tuple, Attribute, TableSchema};

    fn retail() -> (Database, Database) {
        let ds = generate_retail(&RetailConfig {
            source_items: 60,
            target_rows: 24,
            ..RetailConfig::default()
        });
        (ds.source, ds.target)
    }

    #[test]
    fn warm_submit_equals_cold_run() {
        let (source, target) = retail();
        let config = ContextMatchConfig::default().with_tau(0.4);
        // Result memoization off: this test pins the *warm-artifact* path
        // (the result-cache path is pinned separately below).
        let service = MatchService::with_config(ServiceConfig {
            context: config,
            match_result_entries: 0,
            ..ServiceConfig::default()
        });
        service.register_target(&target);

        let cold = ContextualMatcher::new(config).run(&source, &target).unwrap();
        let first = service.submit(&source).unwrap();
        let second = service.submit(&source).unwrap();
        for response in [&first, &second] {
            assert_eq!(response.result.selected, cold.selected);
            assert_eq!(response.result.standard, cold.standard);
            assert_eq!(response.result.candidates, cold.candidates);
        }
        assert!(!first.telemetry.source_cache_hit);
        assert!(second.telemetry.source_cache_hit);
        assert!(!second.telemetry.result_cache_hit, "result cache is disabled");
        assert_eq!(first.telemetry.catalog_version, 1);
    }

    #[test]
    fn repeat_submissions_hit_the_result_cache() {
        let (source, target) = retail();
        let config = ContextMatchConfig::default().with_tau(0.4);
        let service = MatchService::new(config);
        service.register_target(&target);

        let first = service.submit(&source).unwrap();
        assert!(!first.telemetry.result_cache_hit);
        let second = service.submit(&source).unwrap();
        assert!(second.telemetry.result_cache_hit, "unchanged source + catalog must hit");
        // A hit does no work at all and returns the memoized result intact.
        assert_eq!(second.telemetry.qgram_profile_builds, 0);
        assert_eq!(second.telemetry.classifier_work_units, 0);
        assert_eq!(second.telemetry.selection_cache_misses, 0);
        assert_eq!(second.result.selected, first.result.selected);
        assert_eq!(second.result.standard, first.result.standard);
        assert_eq!(second.result.candidates, first.result.candidates);

        // Any catalog update re-keys: the next submission really runs.
        let replacement = target.tables().next().unwrap().clone();
        service.replace_table(replacement.head(replacement.len() - 1)).unwrap();
        let after = service.submit(&source).unwrap();
        assert!(!after.telemetry.result_cache_hit, "a new snapshot version cannot hit");
        assert_eq!(after.telemetry.catalog_version, 2);
        // …and the new (version 2) result is memoized in turn.
        assert!(service.submit(&source).unwrap().telemetry.result_cache_hit);
    }

    #[test]
    fn catalog_updates_drop_unreachable_results_but_keep_totals() {
        let (source, target) = retail();
        let service = MatchService::new(ContextMatchConfig::default().with_tau(0.4));
        service.register_target(&target);
        service.submit(&source).unwrap();
        assert!(service.submit(&source).unwrap().telemetry.result_cache_hit);
        let before = service.warm_stats();
        assert_eq!((before.catalog_version, before.result_len), (1, 1));

        // The update's snapshot holds no entry of version 1 — it could never
        // hit — yet reports the same capacity and lifetime totals, and the
        // dropped entry is not counted as quota pressure.
        let replacement = target.tables().next().unwrap().clone();
        service.replace_table(replacement.head(replacement.len() - 1)).unwrap();
        let after = service.warm_stats();
        assert_eq!((after.catalog_version, after.result_len), (2, 0));
        assert_eq!(after.result_capacity, before.result_capacity);
        assert_eq!(
            (after.result_hits, after.result_misses, after.result_evictions),
            (before.result_hits, before.result_misses, before.result_evictions)
        );
        assert_eq!(after.quota_evictions(), before.quota_evictions());

        // Version 2 memoizes its own result, and only that one.
        assert!(!service.submit(&source).unwrap().telemetry.result_cache_hit);
        assert!(service.submit(&source).unwrap().telemetry.result_cache_hit);
        let stats = service.warm_stats();
        assert_eq!(stats.result_len, 1);
        assert_eq!((stats.result_hits, stats.result_misses), (2, 2));
    }

    #[test]
    fn same_shaped_different_content_sources_never_share_selections() {
        // Two sources with the same table names, same row counts and the
        // same condition atoms, but different rows — the case the selection
        // cache's row-count guard cannot distinguish. The fingerprint
        // validation (performed inside the cache's critical sections) must
        // keep each request's results identical to its own cold run, even
        // when the sources alternate against one warm cache.
        let config = ContextMatchConfig::default().with_tau(0.4);
        let mk = |seed| {
            generate_retail(&RetailConfig {
                seed,
                source_items: 60,
                target_rows: 24,
                ..RetailConfig::default()
            })
        };
        let (a, b) = (mk(1), mk(2));
        assert_eq!(a.source.table_names(), b.source.table_names());
        for (ta, tb) in a.source.tables().zip(b.source.tables()) {
            assert_eq!(ta.len(), tb.len(), "fixtures must be same-shaped");
            assert_ne!(ta.fingerprint(), tb.fingerprint(), "fixtures must differ in content");
        }

        let cold_a = ContextualMatcher::new(config).run(&a.source, &a.target).unwrap();
        let cold_b = ContextualMatcher::new(config).run(&b.source, &a.target).unwrap();
        let service = MatchService::new(config);
        service.register_target(&a.target);
        for round in 0..2 {
            let ra = service.submit(&a.source).unwrap();
            let rb = service.submit(&b.source).unwrap();
            assert_eq!(ra.result.selected, cold_a.selected, "round {round} source a");
            assert_eq!(ra.result.candidates, cold_a.candidates, "round {round} source a");
            assert_eq!(rb.result.selected, cold_b.selected, "round {round} source b");
            assert_eq!(rb.result.candidates, cold_b.candidates, "round {round} source b");
        }
    }

    #[test]
    fn submit_batch_shares_one_snapshot() {
        let (source, target) = retail();
        let service = MatchService::new(ContextMatchConfig::default().with_tau(0.4));
        service.register_target(&target);
        let responses = service.submit_batch([&source, &source]).unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].result.selected, responses[1].result.selected);
        assert_eq!(responses[0].telemetry.catalog_version, 1);
        assert_eq!(responses[1].telemetry.catalog_version, 1);
        assert!(responses[1].telemetry.result_cache_hit, "identical repeat in one batch");
    }

    #[test]
    fn empty_catalog_yields_empty_results() {
        let (source, _) = retail();
        let service = MatchService::with_defaults();
        let response = service.submit(&source).unwrap();
        assert!(response.result.selected.is_empty());
        assert!(response.result.standard.is_empty());
        assert_eq!(response.telemetry.catalog_version, 0);
    }

    #[test]
    fn source_cache_is_bounded_and_evicts_oldest() {
        // Result memoization off so every submit exercises the source cache.
        let service = MatchService::with_config(ServiceConfig {
            source_cache_capacity: 2,
            match_result_entries: 0,
            ..ServiceConfig::default()
        });
        let db = |name: &str, seed: i64| {
            Database::new("RS").with_table(
                Table::with_rows(
                    TableSchema::new(name, vec![Attribute::int("x")]),
                    vec![tuple![seed], tuple![seed + 1]],
                )
                .unwrap(),
            )
        };
        let a = db("a", 0);
        let b = db("b", 10);
        let c = db("c", 20);
        assert!(!service.submit(&a).unwrap().telemetry.source_cache_hit);
        assert!(!service.submit(&b).unwrap().telemetry.source_cache_hit);
        assert!(service.submit(&a).unwrap().telemetry.source_cache_hit);
        // Third distinct source evicts the oldest entry (a) — and the
        // eviction is attributed to the request that caused it.
        let third = service.submit(&c).unwrap();
        assert!(!third.telemetry.source_cache_hit);
        assert_eq!(third.telemetry.source_cache_evictions, 1);
        assert!(!service.submit(&a).unwrap().telemetry.source_cache_hit);
    }

    #[test]
    fn zero_capacity_disables_source_caching() {
        let (source, target) = retail();
        let service = MatchService::with_config(ServiceConfig {
            context: ContextMatchConfig::default().with_tau(0.4),
            source_cache_capacity: 0,
            match_result_entries: 0,
            ..ServiceConfig::default()
        });
        service.register_target(&target);
        service.submit(&source).unwrap();
        let again = service.submit(&source).unwrap();
        assert!(!again.telemetry.source_cache_hit);
    }

    #[test]
    fn index_build_is_attributed_to_the_first_request() {
        let (source, target) = retail();
        let service = MatchService::with_config(ServiceConfig {
            context: ContextMatchConfig::default().with_tau(0.4),
            match_result_entries: 0,
            ..ServiceConfig::default()
        });
        service.register_target(&target);

        let first = service.submit(&source).unwrap();
        assert!(first.telemetry.index_built, "first request pays the build");
        assert_eq!(first.telemetry.index_postings_reused, 0, "cold build carries nothing");
        assert!(first.telemetry.index_postings_rebuilt > 0);
        assert!(first.telemetry.candidates_scanned > 0, "text sources scan the index");
        let second = service.submit(&source).unwrap();
        assert!(!second.telemetry.index_built, "the artifact is memoized per snapshot");
        assert_eq!(second.telemetry.index_postings_rebuilt, 0);

        // A table replace re-keys the snapshot; the next request derives the
        // index incrementally, carrying untouched posting lists forward.
        let replacement = target.tables().next().unwrap().clone();
        service.replace_table(replacement.head(replacement.len() - 1)).unwrap();
        let after = service.submit(&source).unwrap();
        assert!(after.telemetry.index_built);
        assert!(after.telemetry.index_postings_reused > 0, "incremental build shares lists");
    }

    #[test]
    fn submits_racing_catalog_updates_match_cold_runs() {
        use std::collections::BTreeMap;
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        // Every snapshot shares the catalog's selection and restricted-profile
        // caches, so requests against different versions publish into one
        // pair of caches while the catalog changes underneath them. Each
        // answer must still be the cold answer for the version it names.
        let config = ContextMatchConfig::default().with_tau(0.4);
        let retail = |seed| {
            generate_retail(&RetailConfig {
                seed,
                source_items: 40,
                target_rows: 16,
                ..RetailConfig::default()
            })
        };
        let sources: Vec<Database> = (1..=3).map(|seed| retail(seed).source).collect();
        let target = retail(1).target;
        let flipped = target.tables().next().unwrap().clone();
        let states = [flipped.clone(), flipped.head(flipped.len() - 1)];
        let cold: Vec<Vec<ContextMatchResult>> = states
            .iter()
            .map(|state| {
                let mut db = target.clone();
                db.replace_table(state.clone());
                let matcher = ContextualMatcher::new(config);
                sources.iter().map(|source| matcher.run(source, &db).unwrap()).collect()
            })
            .collect();

        let service = MatchService::with_config_and_interner(
            ServiceConfig { context: config, match_result_entries: 0, ..ServiceConfig::default() },
            Arc::new(GramInterner::new()),
        );
        let mut installed = BTreeMap::from([(service.register_target(&target).version, 0)]);
        let done = AtomicBool::new(false);
        let completed = AtomicUsize::new(0);
        let responses: Vec<(usize, MatchResponse)> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            for (i, source) in sources.iter().enumerate() {
                                seen.push((i, service.submit(source).unwrap()));
                                completed.fetch_add(1, Ordering::Release);
                            }
                        }
                        seen
                    })
                })
                .collect();
            // Flip the table only after some submit completed since the last
            // flip, so the responses span many versions on any host.
            let mut last = 0;
            for flip in 1..=20 {
                while completed.load(Ordering::Acquire) == last {
                    assert!(!submitters.iter().all(|h| h.is_finished()), "submitters stopped");
                    std::thread::yield_now();
                }
                last = completed.load(Ordering::Acquire);
                let state = flip % 2;
                installed
                    .insert(service.replace_table(states[state].clone()).unwrap().version, state);
            }
            done.store(true, Ordering::Release);
            submitters.into_iter().flat_map(|handle| handle.join().unwrap()).collect()
        });

        let mut versions = std::collections::BTreeSet::new();
        for (i, response) in &responses {
            let version = response.telemetry.catalog_version;
            let expected = &cold[installed[&version]][*i];
            assert_eq!(response.result.selected, expected.selected, "source {i}, v{version}");
            assert_eq!(response.result.standard, expected.standard, "source {i}, v{version}");
            assert_eq!(response.result.candidates, expected.candidates, "source {i}, v{version}");
            versions.insert(version);
        }
        assert!(versions.len() > 2, "submits must span catalog updates: {versions:?}");
        assert!(
            responses.iter().any(|(_, r)| !r.result.candidates.is_empty()),
            "the fixture must score candidate views, or neither cache is exercised"
        );
    }

    #[test]
    fn telemetry_display_is_humane() {
        let t = RequestTelemetry {
            catalog_version: 3,
            result_cache_hit: false,
            qgram_profile_builds: 0,
            selection_cache_hits: 5,
            selection_cache_misses: 1,
            restricted_profile_hits: 7,
            restricted_profile_misses: 2,
            restricted_profile_evictions: 1,
            classifier_work_units: 42,
            source_cache_hit: true,
            source_cache_evictions: 0,
            index_built: true,
            index_postings_reused: 9,
            index_postings_rebuilt: 4,
            candidates_scanned: 12,
            candidates_surviving: 3,
            kernel_scores_pruned: 18,
        };
        let s = t.to_string();
        assert!(s.contains("catalog v3"));
        assert!(s.contains("restricted profiles 7 hit / 2 miss / 1 evicted"));
        assert!(s.contains("source cache hit (0 evicted)"));
        assert!(s.contains("index built (9 postings reused / 4 rebuilt)"));
        assert!(s.contains("candidates 12 scanned / 3 surviving"));
        assert!(s.contains("18 kernel scores pruned"));
        let warm = RequestTelemetry { index_built: false, ..t };
        assert!(warm.to_string().contains("index warm"));
        let hit = RequestTelemetry { result_cache_hit: true, ..t };
        assert!(hit.to_string().contains("served from the result cache"));
    }
}
