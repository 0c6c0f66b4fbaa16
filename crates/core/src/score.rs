//! `ScoreMatch` — re-scoring prototype matches against candidate views
//! (Figure 5, lines 6–11).
//!
//! For every candidate view `Vc` and every prototype match `m` from the view's
//! base table, the match `m′ = m with RS replaced by Vc` is scored by the
//! standard matching machinery *restricted to the subset of sample data
//! meeting `c`*, and the confidence is computed against the score distribution
//! of the original (unrestricted) attribute so that it is comparable to the
//! prototype's confidence.
//!
//! ## Execution strategy
//!
//! This is the hottest loop of the system — O(views × matches) rescorings per
//! source table — so it runs on the zero-copy execution layer:
//!
//! 1. each view is evaluated to a [`RowSelection`] through a shared
//!    [`SelectionCache`] (condition atoms recurring across a view family are
//!    scanned once per base table);
//! 2. per-match *target* columns are extracted once, outside the view loop;
//! 3. each (base table, matched source attribute, target interner) gets one
//!    [`ColumnRuns`]: on first demand, one pass tokenizes every row of the
//!    base column once and records its `(gram, count)` run and value,
//!    resolved against the target's vocabulary without inserting, so each
//!    source value is tokenized once per call, not once per candidate view;
//!    the runs are dropped when the call returns;
//! 4. the view × match scoring grid is computed in parallel with `rayon`,
//!    one task per view, each building borrowed, view-restricted
//!    [`ColumnData`] values ([`ColumnData::restricted`]) whose resolved
//!    profile and value set assemble from the selected rows' runs — zero
//!    `Tuple` clones and no re-tokenizing anywhere on this path;
//! 5. results are collected per view and appended in view order, so the
//!    output is byte-identical to the sequential, materializing evaluation
//!    (the tests crate's reference oracle,
//!    `cxm_tests::reference::score_candidates_materializing`).

use std::sync::{Arc, Mutex};

use cxm_matching::index::{telemetry as index_telemetry, CandidateScan};
use cxm_matching::{
    ColumnArtifacts, ColumnData, ColumnRuns, GramIndex, Match, MatchList, MatchingOutcome,
    StandardMatcher,
};
use cxm_relational::{Database, Result, RowSelection, SelectionCache, Table, ViewDef};
use rayon::prelude::*;

/// Score the contextual versions of the prototype matches against each
/// candidate view. Returns the contextual candidate list `RL` (every `(m′, s)`
/// pair of the algorithm), in deterministic (view, match) order.
///
/// Extracts its own target columns; callers holding a hoisted
/// [`ColumnData::all_from_database`] batch (the sharded `ContextMatch` path)
/// should use [`score_candidates_prepared`] so target profiles are reused
/// across source tables.
pub fn score_candidates(
    source: &Database,
    target: &Database,
    matcher: &StandardMatcher,
    outcome: &MatchingOutcome,
    source_table: &Table,
    views: &[ViewDef],
    prototype: &MatchList,
) -> Result<MatchList> {
    score_candidates_prepared(
        source,
        target,
        &[],
        matcher,
        outcome,
        source_table,
        views,
        prototype,
        None,
        None,
    )
}

/// A cross-run selection cache together with the per-table content
/// fingerprints guarding it.
///
/// The fingerprints **must cover every table of the source database** the
/// views select from. They are validated
/// ([`SelectionCache::validate_fingerprint`]) under the *same lock
/// acquisition* that serves this call's selections — validating in a
/// separate critical section would let two concurrent runs whose
/// same-named, equally sized source tables differ in content interleave
/// validation and use, serving one run the other's row indices.
#[derive(Clone, Copy)]
pub struct SharedSelections<'a> {
    /// The cache shared across runs (and threads).
    pub cache: &'a Mutex<SelectionCache>,
    /// Content fingerprint per source table name ([`Table::fingerprint`]).
    pub source_fingerprints: &'a std::collections::BTreeMap<String, u64>,
    /// Optional cross-run cache of view-restricted column profiles (see
    /// [`RestrictedProfileCache`]). When present, every restricted column
    /// built by [`score_candidates_prepared`] first consults the cache and
    /// publishes its freshly built artifacts afterwards, so a warm repeat
    /// of the same views over the same source content builds **zero**
    /// q-gram profiles.
    pub restricted_profiles: Option<&'a Mutex<RestrictedProfileCache>>,
    /// Version of the catalog snapshot whose warm caches these are (`0`
    /// outside a snapshot-versioned catalog, e.g. ad-hoc shared caches in
    /// tests). The version is threaded into every restricted-profile
    /// publication so the cache can report which generations its entries
    /// came from ([`RestrictedProfileCache::version_span`]); the keys
    /// themselves stay content-fingerprinted, so entries remain valid — and
    /// shareable — across versions.
    pub catalog_version: u64,
}

/// Identity of one view-restricted column's derived artifacts, at **column
/// granularity**: the content fingerprint of the restricted attribute's base
/// column, the view's selection condition, the combined content fingerprint
/// of the columns that condition reads, and the identity token of the
/// [`cxm_matching::GramInterner`] the artifacts were built against.
///
/// Two keys are equal exactly when the restricted value bag is guaranteed
/// equal — the restricted bag is a function of (attribute column values in
/// row order, condition, condition-column values in row order), each pinned
/// by a field — *and* the interned ids live in the same id space. Cached
/// artifacts can therefore never leak across different contents or
/// interners: changed content re-keys and simply misses. Unlike the previous
/// table-fingerprint key, editing an *unrelated* column of the base table
/// no longer invalidates anything.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RestrictedKey {
    /// [`Table::column_fingerprint`] of the restricted (scored) attribute in
    /// the view's base table.
    pub column_fingerprint: u64,
    /// The view's selection condition (structural equality/hashing).
    pub condition: cxm_relational::Condition,
    /// [`condition_fingerprint`] over the base table: the combined content
    /// fingerprint of every column the condition reads.
    pub condition_fingerprint: u64,
    /// [`cxm_matching::GramInterner::token`] of the column's interner.
    pub interner: u64,
}

impl RestrictedKey {
    /// Build the key for one restricted column under the given interner
    /// identity.
    pub fn new(
        column_fingerprint: u64,
        condition: &cxm_relational::Condition,
        condition_fingerprint: u64,
        interner: u64,
    ) -> Self {
        RestrictedKey {
            column_fingerprint,
            condition: condition.clone(),
            condition_fingerprint,
            interner,
        }
    }
}

/// The combined content fingerprint of the columns `condition` reads from
/// `base` — the condition half of a [`RestrictedKey`]. Attribute names are
/// folded in alongside their [`Table::column_fingerprint`]s (a condition
/// mentioning an attribute the table does not have contributes a marker
/// byte), so conditions over different column sets never alias. A condition
/// reading no columns at all (`Condition::True`) hashes to a constant: its
/// selection is the full table, which the attribute-column fingerprint
/// already pins.
pub fn condition_fingerprint(base: &Table, condition: &cxm_relational::Condition) -> u64 {
    let mut h = cxm_relational::Fnv64::with_seed(0x636f_6e64_5f66_7031);
    for attribute in condition.attributes() {
        h.write_str(&attribute);
        match base.column_fingerprint(&attribute) {
            Ok(fingerprint) => h.write_u64(fingerprint),
            Err(_) => h.write_u8(0),
        }
    }
    h.finish()
}

/// A bounded, fingerprint-keyed cache of view-restricted column artifacts —
/// the warm-path answer to the one rebuild the target catalog could not
/// absorb: `ScoreMatch` re-derives each candidate view's restricted columns
/// per request, and before this cache it re-profiled them per request too.
///
/// Entries are keyed by [`RestrictedKey`] (the restricted attribute's
/// column fingerprint, the view's condition, the combined fingerprint of
/// the columns that condition reads, and the interner's identity token), so
/// no explicit invalidation is needed: content changes re-key, and stale
/// entries age out through the oldest-first bound. The artifacts are
/// source-side, resolved without inserting, so they are exact only against
/// targets they cover ([`ColumnArtifacts::covers`]): a lookup whose target
/// index has outgrown an entry resolves that entry again and publishes the
/// refreshed artifacts in its place. A long-lived match
/// service carries one instance across catalog snapshots and threads it
/// into [`score_candidates_prepared`] via [`SharedSelections`].
#[derive(Debug, Clone, Default)]
pub struct RestrictedProfileCache {
    entries: cxm_relational::BoundedCache<RestrictedKey, RestrictedEntry>,
}

/// One cached restricted column: its artifacts plus the catalog version that
/// published it (diagnostic only — validity comes from the content key).
#[derive(Debug, Clone)]
struct RestrictedEntry {
    artifacts: ColumnArtifacts,
    version: u64,
}

impl RestrictedProfileCache {
    /// A cache retaining at most `capacity` restricted columns (oldest
    /// inserted evicted first); `0` disables caching entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        RestrictedProfileCache { entries: cxm_relational::BoundedCache::with_capacity(capacity) }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of cached restricted columns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.entries.hits()
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> usize {
        self.entries.misses()
    }

    /// Entries evicted by the capacity bound so far. A steadily climbing
    /// eviction count under a steady workload means the bound is too small
    /// for the live view/column population — the warm path silently degrades
    /// to rebuilding, which is why the service surfaces this per request.
    pub fn evictions(&self) -> usize {
        self.entries.evictions()
    }

    /// The `(oldest, newest)` catalog versions among live entries (`None`
    /// when empty) — a diagnostic for how many catalog generations the
    /// content-keyed entries have outlived.
    pub fn version_span(&self) -> Option<(u64, u64)> {
        let mut versions = self.entries.values().map(|e| e.version);
        let first = versions.next()?;
        let (min, max) = versions.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
        Some((min, max))
    }

    /// The artifacts cached for `key`, recording a hit or miss.
    pub fn get(&mut self, key: &RestrictedKey) -> Option<ColumnArtifacts> {
        self.entries.get(key).map(|entry| entry.artifacts.clone())
    }

    /// Cache `artifacts` under `key`, tagged with the catalog `version` that
    /// published them, evicting oldest entries beyond the capacity.
    /// Re-inserting an existing key — a racing publisher, or artifacts
    /// resolved again against a grown vocabulary — replaces its artifacts in
    /// place: its age and the version that first published it are
    /// unchanged.
    pub fn insert(&mut self, key: RestrictedKey, artifacts: ColumnArtifacts, version: u64) {
        match self.entries.peek_mut(&key) {
            Some(entry) => entry.artifacts = artifacts,
            None => self.entries.insert(key, RestrictedEntry { artifacts, version }),
        }
    }

    /// Export every live entry as `(key, artifacts, version)` in insertion
    /// order (oldest first) — replaying these through
    /// [`RestrictedProfileCache::insert`] on a fresh cache reproduces the
    /// same contents with the same eviction ages. Used by warm-state
    /// persistence.
    pub fn export(&self) -> Vec<(RestrictedKey, ColumnArtifacts, u64)> {
        self.entries
            .iter_ordered()
            .map(|(key, entry)| (key.clone(), entry.artifacts.clone(), entry.version))
            .collect()
    }
}

/// [`score_candidates`] against a pre-extracted target column batch, with
/// an optional *shared* selection cache and an optional inverted gram index.
///
/// Each match's target column is looked up in `target_batch` (falling back
/// to fresh extraction when absent, e.g. for an empty batch), so the
/// memoized target profiles built during standard matching are reused
/// instead of rebuilt once per source table. Each view-restricted column
/// adopts its target column's interner, so every pair is scored in the
/// target's id space. When `shared_selections` is provided, view conditions
/// are resolved through it (under its lock, after fingerprint validation —
/// see [`SharedSelections`]) instead of a run-local cache, so selection
/// vectors survive across calls — and, for a long-lived match service,
/// across requests. Results are byte-identical to the local-cache path
/// either way.
#[allow(clippy::too_many_arguments)]
pub fn score_candidates_prepared<'a>(
    source: &Database,
    target: &'a Database,
    target_batch: &[ColumnData<'a>],
    matcher: &StandardMatcher,
    outcome: &MatchingOutcome,
    source_table: &Table,
    views: &[ViewDef],
    prototype: &MatchList,
    shared_selections: Option<SharedSelections<'_>>,
    index: Option<&GramIndex>,
) -> Result<MatchList> {
    // Trust the inverted index only when it demonstrably describes the
    // hoisted target batch; anything else scores exactly, unhinted.
    let index = index.filter(|idx| idx.matches_batch(target_batch));
    let mut candidates = MatchList::new();
    let from_this_table: Vec<&Match> =
        prototype.iter().filter(|m| m.base_table == source_table.name()).collect();
    if from_this_table.is_empty() || views.is_empty() {
        return Ok(candidates);
    }

    // Resolve every view to (base table, selection) serially so the atom
    // cache is shared across the whole family; empty views support no
    // matches and are skipped entirely. Matched source attributes are
    // validated (against the view's *output* schema) for the surviving
    // views, so the parallel loop below cannot fail — mirroring exactly when
    // the materializing reference reports an `Err` instead of scoring.
    //
    // With a shared cache the lock spans only this resolve loop (atom scans
    // and merges), never the scoring grid below. Fingerprint validation
    // happens inside the same critical section as the selects it guards.
    let mut local_cache = SelectionCache::new();
    let mut shared_guard = shared_selections.map(|shared| {
        let mut guard = shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (table, fingerprint) in shared.source_fingerprints {
            guard.validate_fingerprint(table, *fingerprint);
        }
        guard
    });
    let cache: &mut SelectionCache = match shared_guard.as_deref_mut() {
        Some(shared) => shared,
        None => &mut local_cache,
    };
    let mut work: Vec<(&ViewDef, &Table, Arc<RowSelection>)> = Vec::with_capacity(views.len());
    for view in views {
        let base = source.require_table(&view.base_table)?;
        let selection = view.select_cached(base, cache)?;
        if selection.is_empty() {
            continue;
        }
        match &view.projection {
            // Select-only views (the common case) expose the base schema
            // as-is: validate against it directly, no schema clone.
            None => {
                for m in &from_this_table {
                    base.schema().require_index(&m.source.attribute)?;
                }
            }
            // Select-project views need the derived output schema so a
            // projected-away attribute errors exactly like the
            // materializing reference.
            Some(_) => {
                let view_schema = view.schema(base.schema())?;
                for m in &from_this_table {
                    view_schema.require_index(&m.source.attribute)?;
                }
            }
        }
        work.push((view, base, selection));
    }
    // Release the shared cache before the (parallel, expensive) scoring grid.
    drop(shared_guard);
    if work.is_empty() {
        return Ok(candidates);
    }

    // Target columns depend only on the match, not on the view: take each one
    // from the hoisted batch when available — a clone shares the memoized
    // profiles, so a column profiled during standard matching is never
    // re-profiled here — and extract it once otherwise (a materializing
    // evaluation would re-extract it per view × match).
    let by_attr: std::collections::HashMap<&cxm_relational::AttrRef, &ColumnData<'a>> =
        target_batch.iter().map(|c| (&c.attr, c)).collect();
    let target_cols: Vec<ColumnData<'a>> = from_this_table
        .iter()
        .map(|m| {
            if let Some(col) = by_attr.get(&m.target) {
                return Ok((*col).clone());
            }
            let target_table = target.require_table(&m.target.table)?;
            ColumnData::from_table(target_table, &m.target.attribute)
        })
        .collect::<Result<_>>()?;

    // Each restricted column assembles its resolved artifacts from per-row
    // runs of its base column rather than re-tokenizing its values. The
    // runs are built on first demand, at most once per call for each (base
    // table, attribute, interner) the grid needs, and shared by every view
    // over that column; they are dropped when the call returns.
    let mut base_runs: std::collections::BTreeMap<(&str, &str, u64), ColumnRuns> =
        std::collections::BTreeMap::new();
    for (_, base, _) in &work {
        for (m, target_col) in from_this_table.iter().zip(&target_cols) {
            let interner = target_col.interner();
            base_runs
                .entry((base.name(), m.source.attribute.as_str(), interner.token()))
                .or_insert_with(|| {
                    ColumnRuns::new(base, &m.source.attribute, Arc::clone(interner))
                        .expect("prototype matches come from the view's base table")
                });
        }
    }

    // Lines 6–11, parallel over views. Each task only reads shared borrowed
    // state; per-view results are collected independently and appended in
    // view order below, which keeps the output deterministic regardless of
    // scheduling.
    let profile_cache = shared_selections.and_then(|shared| shared.restricted_profiles);
    let catalog_version = shared_selections.map(|shared| shared.catalog_version).unwrap_or(0);
    let per_view: Vec<Vec<Match>> = work
        .par_iter()
        .map(|(view, base, selection)| {
            // Cross-request identity of this view's restricted columns: the
            // condition signature over the base table's *column* content
            // fingerprints (None outside the warm service path — then
            // nothing is cached). The per-column fingerprints are cached on
            // the table instance, so after the service's admission scan this
            // is a lookup, not a rescan.
            let cache_ctx =
                profile_cache.map(|cache| (cache, condition_fingerprint(base, &view.condition)));
            // Prototype matches frequently share a source attribute (one match
            // per target attribute); build each view-restricted column — and
            // thereby its memoized matcher profiles — once per attribute. The
            // bool tracks columns whose artifacts are published after the
            // scoring pass (the cache had none, or had them stale); the
            // `Option<CandidateScan>` holds the column's lazily-computed TAAT
            // scan over the inverted index (computed at the first pair whose
            // exact path would profile the column anyway — see `hintable`).
            let mut restricted_cols: std::collections::BTreeMap<
                &str,
                (ColumnData, bool, Option<CandidateScan>),
            > = std::collections::BTreeMap::new();
            let scored: Vec<Match> = from_this_table
                .iter()
                .zip(&target_cols)
                .map(|(m, target_col)| {
                    // The view projects all base attributes (select-only), so
                    // the matched attribute is always present.
                    let (restricted, _, scan) =
                        restricted_cols.entry(m.source.attribute.as_str()).or_insert_with(|| {
                            // The restricted column adopts its target
                            // counterpart's interner (its runs are built
                            // there) so the interned kernels apply whatever
                            // interner the caller scoped.
                            let runs = &base_runs[&(
                                base.name(),
                                m.source.attribute.as_str(),
                                target_col.interner().token(),
                            )];
                            let column = ColumnData::restricted(runs, selection, view.name.clone());
                            let mut publish = false;
                            if let Some((cache, condition_fp)) = cache_ctx {
                                let key = RestrictedKey::new(
                                    base.column_fingerprint(&m.source.attribute).expect(
                                        "prototype matches come from the view's base table",
                                    ),
                                    &view.condition,
                                    condition_fp,
                                    column.interner().token(),
                                );
                                let cached = cache
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .get(&key);
                                match cached {
                                    Some(artifacts) => match index.map(GramIndex::id_bound) {
                                        // Resolved below the index's ids:
                                        // bring the entry up to the
                                        // vocabulary and republish it.
                                        Some(bound) if !artifacts.covers(bound) => {
                                            let interner = column.interner();
                                            let refreshed =
                                                artifacts.resolved_again(interner, bound);
                                            column.seed_artifacts(&refreshed);
                                            publish = true;
                                        }
                                        _ => column.seed_artifacts(&artifacts),
                                    },
                                    None => publish = true,
                                }
                            }
                            (column, publish, None)
                        });
                    let hint = index.and_then(|idx| {
                        if !hintable(restricted, target_col, idx) {
                            return None;
                        }
                        if scan.is_none() {
                            let (interner, bound) = (target_col.interner(), idx.id_bound());
                            let fresh = idx.scan(
                                &restricted.qgram3_ids_in(interner, bound),
                                &restricted.value_ids_in(interner, bound),
                            );
                            index_telemetry::record_scan(fresh.len(), fresh.surviving());
                            *scan = Some(fresh);
                        }
                        idx.slot_of(&m.target).map(|slot| scan.as_ref().unwrap().hint(slot))
                    });
                    let (score, confidence) =
                        matcher.rescore_hinted(outcome, restricted, &m.source, target_col, hint);
                    m.with_context(view.name.clone(), view.condition.clone(), score, confidence)
                })
                .collect();
            // Publish the artifacts of columns the cache missed, in one lock.
            if let Some((cache, condition_fp)) = cache_ctx {
                let fresh: Vec<(&str, &ColumnData)> = restricted_cols
                    .iter()
                    .filter(|(_, (_, fresh, _))| *fresh)
                    .map(|(attr, (column, _, _))| (*attr, column))
                    .collect();
                if !fresh.is_empty() {
                    let mut cache = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    for (attr, column) in fresh {
                        cache.insert(
                            RestrictedKey::new(
                                base.column_fingerprint(attr)
                                    .expect("prototype matches come from the view's base table"),
                                &view.condition,
                                condition_fp,
                                column.interner().token(),
                            ),
                            column.harvest_artifacts(),
                            catalog_version,
                        );
                    }
                }
            }
            scored
        })
        .collect();

    for view_matches in per_view {
        candidates.extend(view_matches);
    }
    Ok(candidates)
}

/// Whether an index scan of `restricted` may be forced for this pair without
/// perturbing the exact path's profile-build accounting: a scan builds the
/// restricted column's interned artifacts, which the exact path does exactly
/// when some q-gram-applicable pair exists — this pair being applicable is
/// the sufficient (and cheapest) witness. Both columns must live in the
/// index's interner id space for the hint to mean anything.
fn hintable(restricted: &ColumnData, target: &ColumnData, index: &GramIndex) -> bool {
    !restricted.is_empty()
        && !target.is_empty()
        && (!restricted.looks_numeric() || !target.looks_numeric())
        && restricted.interner().token() == index.interner_token()
        && target.interner().token() == index.interner_token()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_matching::MatchingConfig;
    use cxm_relational::{tuple, Attribute, Condition, TableSchema};

    fn source_db() -> Database {
        let inv = Table::with_rows(
            TableSchema::new(
                "inv",
                vec![
                    Attribute::int("id"),
                    Attribute::text("name"),
                    Attribute::int("type"),
                    Attribute::text("descr"),
                ],
            ),
            vec![
                tuple![0, "leaves of grass", 1, "hardcover"],
                tuple![1, "the white album", 2, "audio cd"],
                tuple![2, "heart of darkness", 1, "paperback"],
                tuple![3, "wasteland", 1, "paperback"],
                tuple![4, "hotel california", 2, "elektra cd"],
                tuple![5, "kind of blue", 2, "columbia cd"],
            ],
        )
        .unwrap();
        Database::new("RS").with_table(inv)
    }

    fn target_db() -> Database {
        let book = Table::with_rows(
            TableSchema::new("book", vec![Attribute::text("title"), Attribute::text("format")]),
            vec![
                tuple!["the historian", "hardcover"],
                tuple!["war and peace", "paperback"],
                tuple!["middlemarch", "paperback"],
            ],
        )
        .unwrap();
        let music = Table::with_rows(
            TableSchema::new("music", vec![Attribute::text("title"), Attribute::text("label")]),
            vec![tuple!["x&y", "capitol cd"], tuple!["abbey road", "apple cd"]],
        )
        .unwrap();
        Database::new("RT").with_table(book).with_table(music)
    }

    #[test]
    fn candidates_cover_every_view_times_prototype_match() {
        let source = source_db();
        let target = target_db();
        let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.3));
        let table = source.table("inv").unwrap();
        let outcome = matcher.match_table(table, &target);
        let views = vec![
            ViewDef::named_by_condition("inv", Condition::eq("type", 1)),
            ViewDef::named_by_condition("inv", Condition::eq("type", 2)),
        ];
        let candidates = score_candidates(
            &source,
            &target,
            &matcher,
            &outcome,
            table,
            &views,
            &outcome.accepted,
        )
        .unwrap();
        assert_eq!(candidates.len(), 2 * outcome.accepted.len());
        assert!(candidates.iter().all(|c| c.is_contextual()));
        assert!(candidates.iter().all(|c| c.base_table == "inv"));
    }

    #[test]
    fn the_right_context_scores_higher_than_the_wrong_one() {
        let source = source_db();
        let target = target_db();
        let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.3));
        let table = source.table("inv").unwrap();
        let outcome = matcher.match_table(table, &target);
        let views = vec![
            ViewDef::named_by_condition("inv", Condition::eq("type", 1)),
            ViewDef::named_by_condition("inv", Condition::eq("type", 2)),
        ];
        let candidates = score_candidates(
            &source,
            &target,
            &matcher,
            &outcome,
            table,
            &views,
            &outcome.accepted,
        )
        .unwrap();
        // For descr → book.format, the type=1 (book) view should outscore type=2.
        let conf_of = |view: &str| {
            candidates
                .iter()
                .find(|c| {
                    c.source.table == view
                        && c.source.attribute == "descr"
                        && c.target.table == "book"
                        && c.target.attribute == "format"
                })
                .map(|c| c.confidence)
        };
        if let (Some(book_view), Some(cd_view)) =
            (conf_of("inv[type = 1]"), conf_of("inv[type = 2]"))
        {
            assert!(
                book_view > cd_view,
                "book-context format match ({book_view}) should beat cd-context ({cd_view})"
            );
        }
    }

    #[test]
    fn empty_views_and_foreign_prototypes_are_skipped() {
        let source = source_db();
        let target = target_db();
        let matcher = StandardMatcher::with_defaults();
        let table = source.table("inv").unwrap();
        let outcome = matcher.match_table(table, &target);
        // A view selecting nothing.
        let views = vec![ViewDef::named_by_condition("inv", Condition::eq("type", 99))];
        let candidates = score_candidates(
            &source,
            &target,
            &matcher,
            &outcome,
            table,
            &views,
            &outcome.accepted,
        )
        .unwrap();
        assert!(candidates.is_empty());

        // Prototype matches from another table contribute nothing.
        let foreign = vec![cxm_matching::Match::standard(
            cxm_relational::AttrRef::new("other", "x"),
            cxm_relational::AttrRef::new("book", "title"),
            0.9,
            0.9,
        )];
        let candidates = score_candidates(
            &source,
            &target,
            &matcher,
            &outcome,
            table,
            &[ViewDef::named_by_condition("inv", Condition::eq("type", 1))],
            &foreign,
        )
        .unwrap();
        assert!(candidates.is_empty());
    }

    #[test]
    fn restricted_profile_cache_round_trips_and_bounds() {
        let mut cache = RestrictedProfileCache::with_capacity(2);
        assert!(cache.is_empty());
        assert_eq!(cache.version_span(), None);
        let key = |i: u64| RestrictedKey::new(i, &Condition::eq("type", 1), 0xc0de, 7);
        assert!(cache.get(&key(1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key(1), cxm_matching::ColumnArtifacts::default(), 3);
        cache.insert(key(2), cxm_matching::ColumnArtifacts::default(), 5);
        assert!(cache.get(&key(1)).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.version_span(), Some((3, 5)));
        // Third insert evicts the oldest (key 1) and counts the eviction.
        assert_eq!(cache.evictions(), 0);
        cache.insert(key(3), cxm_matching::ColumnArtifacts::default(), 5);
        assert_eq!(cache.len(), 2);
        // A re-insert keeps the version that first published the entry.
        cache.insert(key(2), cxm_matching::ColumnArtifacts::default(), 9);
        assert_eq!(cache.version_span(), Some((5, 5)));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.version_span(), Some((5, 5)));
        // Different conditions / condition contents / interners key separately.
        assert_ne!(key(1), RestrictedKey::new(1, &Condition::eq("type", 2), 0xc0de, 7));
        assert_ne!(key(1), RestrictedKey::new(1, &Condition::eq("type", 1), 0xbeef, 7));
        assert_ne!(key(1), RestrictedKey::new(1, &Condition::eq("type", 1), 0xc0de, 8));
        // Zero capacity disables caching.
        let mut off = RestrictedProfileCache::with_capacity(0);
        off.insert(key(1), cxm_matching::ColumnArtifacts::default(), 0);
        assert!(off.is_empty());
        assert_eq!(off.capacity(), 0);
    }

    #[test]
    fn condition_fingerprints_track_condition_columns_only() {
        let source = source_db();
        let inv = source.table("inv").unwrap();
        let on_type = condition_fingerprint(inv, &Condition::eq("type", 1));
        // The same condition over the same content fingerprints equally, and
        // the *value* inside the condition does not matter (it is keyed
        // separately, structurally).
        assert_eq!(on_type, condition_fingerprint(inv, &Condition::eq("type", 2)));
        // Conditions over different columns fingerprint differently.
        assert_ne!(on_type, condition_fingerprint(inv, &Condition::eq("descr", "x")));
        // True reads no columns: constant fingerprint, different from any
        // column-reading condition with overwhelming probability.
        assert_eq!(
            condition_fingerprint(inv, &Condition::True),
            condition_fingerprint(inv, &Condition::True)
        );
        // Editing a column the condition does NOT read leaves its
        // fingerprint unchanged; editing one it does read changes it.
        let mut edited = source_db();
        let rows: Vec<_> = inv
            .rows()
            .iter()
            .map(|r| {
                cxm_relational::Tuple::new(vec![
                    r.at(0).clone(),
                    r.at(1).clone(),
                    r.at(2).clone(),
                    cxm_relational::Value::str("edited"),
                ])
            })
            .collect();
        edited.replace_table(Table::with_rows(inv.schema().clone(), rows).unwrap());
        let edited_inv = edited.table("inv").unwrap();
        assert_eq!(on_type, condition_fingerprint(edited_inv, &Condition::eq("type", 1)));
        assert_ne!(
            condition_fingerprint(inv, &Condition::eq("descr", "x")),
            condition_fingerprint(edited_inv, &Condition::eq("descr", "x")),
        );
        // A condition over a missing column still fingerprints (marker byte).
        let _ = condition_fingerprint(inv, &Condition::eq("missing", 1));
    }

    #[test]
    fn shared_restricted_cache_warms_across_calls() {
        let source = source_db();
        let target = target_db();
        let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.2));
        let table = source.table("inv").unwrap();
        let outcome = matcher.match_table(table, &target);
        let views = vec![
            ViewDef::named_by_condition("inv", Condition::eq("type", 1)),
            ViewDef::named_by_condition("inv", Condition::eq("type", 2)),
        ];
        let selections = Mutex::new(SelectionCache::new());
        let fingerprints = source.table_fingerprints();
        let profiles = Mutex::new(RestrictedProfileCache::with_capacity(64));
        let shared = SharedSelections {
            cache: &selections,
            source_fingerprints: &fingerprints,
            restricted_profiles: Some(&profiles),
            catalog_version: 0,
        };
        let run = || {
            score_candidates_prepared(
                &source,
                &target,
                &[],
                &matcher,
                &outcome,
                table,
                &views,
                &outcome.accepted,
                Some(shared),
                None,
            )
            .unwrap()
        };
        let baseline = score_candidates(
            &source,
            &target,
            &matcher,
            &outcome,
            table,
            &views,
            &outcome.accepted,
        )
        .unwrap();

        let first = run();
        let (hits_after_first, misses_after_first) = {
            let cache = profiles.lock().unwrap();
            assert!(!cache.is_empty(), "first call must populate the cache");
            (cache.hits(), cache.misses())
        };
        assert_eq!(hits_after_first, 0, "cold cache cannot hit");
        assert!(misses_after_first > 0);

        let second = run();
        {
            let cache = profiles.lock().unwrap();
            assert_eq!(cache.misses(), misses_after_first, "warm repeat must not miss");
            assert!(cache.hits() > 0, "warm repeat must be served from the cache");
        }
        // Byte-identical to the uncached path, warm or cold.
        for candidates in [&first, &second] {
            assert_eq!(candidates.len(), baseline.len());
            for (a, b) in candidates.iter().zip(baseline.iter()) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn parallel_scoring_is_deterministic() {
        let source = source_db();
        let target = target_db();
        let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.2));
        let table = source.table("inv").unwrap();
        let outcome = matcher.match_table(table, &target);
        let views: Vec<ViewDef> =
            (1..=2).map(|v| ViewDef::named_by_condition("inv", Condition::eq("type", v))).collect();
        let run = || {
            score_candidates(&source, &target, &matcher, &outcome, table, &views, &outcome.accepted)
                .unwrap()
        };
        let first = run();
        for _ in 0..4 {
            let again = run();
            assert_eq!(format!("{first:?}"), format!("{again:?}"));
        }
    }
}
