//! Whole-match result memoization.
//!
//! The warm-artifact stack (catalog column batches, shared selections,
//! restricted profiles) makes a repeat request *cheap*; this module makes it
//! *free*. A [`MatchResultCache`] memoizes entire [`ContextMatchResult`]s
//! keyed by [`MatchResultKey`] — the content fingerprint of the source
//! database, the version of the catalog snapshot matched against, and the
//! signature of the configuration that ran. A repeat submission of an
//! unchanged source against an unchanged catalog under the same
//! configuration is then a single cache lookup: zero profile builds, zero
//! selection scans, zero classifier work.
//!
//! Invalidation is automatic through the key: any catalog update bumps the
//! snapshot version, so every entry of the previous generation stops being
//! addressable — and the new snapshot starts from
//! [`MatchResultCache::next_generation`], which drops those dead entries
//! instead of carrying them until the bound ages them out. Any source edit
//! changes the source fingerprint the same way, and those entries age out
//! through the oldest-first capacity bound. Nothing is ever served stale.
//!
//! Hit results are **byte-identical** to what the run they memoize produced
//! (a clone of the stored result; every score and confidence keeps its exact
//! bit pattern), and that run was itself byte-identical to a cold
//! [`crate::ContextualMatcher::run`] — so result-cache hits preserve the
//! service's end-to-end equivalence guarantee.

use std::sync::Arc;

use crate::bounded::BoundedCache;
use crate::context_match::ContextMatchResult;

/// Identity of one memoized match run: *what* was matched (source content),
/// *against what* (catalog snapshot version — itself a proxy for target
/// content, since every content change produces a new version), and *how*
/// ([`crate::ContextMatchConfig::signature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchResultKey {
    /// Combined content fingerprint of the source database's tables.
    pub source_fingerprint: u64,
    /// Version of the catalog snapshot the run matched against.
    pub catalog_version: u64,
    /// Signature of the `ContextMatch` configuration that ran.
    pub config_signature: u64,
}

/// A bounded, oldest-first cache of whole [`ContextMatchResult`]s. Results
/// are stored behind `Arc`s, so caching one costs no deep copy beyond the
/// insert-time clone the caller makes; a long-lived match service keeps one
/// per catalog snapshot and hands its lifetime totals to the next snapshot's
/// ([`MatchResultCache::next_generation`]).
#[derive(Debug, Clone, Default)]
pub struct MatchResultCache {
    entries: BoundedCache<MatchResultKey, Arc<ContextMatchResult>>,
}

impl MatchResultCache {
    /// A cache retaining at most `capacity` results (oldest inserted evicted
    /// first); `0` disables caching entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        MatchResultCache { entries: BoundedCache::with_capacity(capacity) }
    }

    /// The cache a new catalog snapshot starts from: empty — every entry
    /// here is keyed to a superseded catalog version and can never hit
    /// again — with the same capacity and the lifetime hit, miss and
    /// eviction totals. Dropping the dead entries does not count as
    /// evictions, which report capacity pressure.
    pub fn next_generation(&self) -> Self {
        MatchResultCache { entries: self.entries.emptied() }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of cached results.
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

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> usize {
        self.entries.evictions()
    }

    /// The result cached for `key`, recording a hit or miss.
    pub fn get(&mut self, key: &MatchResultKey) -> Option<Arc<ContextMatchResult>> {
        self.entries.get(key).map(Arc::clone)
    }

    /// Cache `result` under `key`, evicting oldest entries beyond the
    /// capacity. Re-inserting an existing key replaces its result in place
    /// (its age is unchanged).
    pub fn insert(&mut self, key: MatchResultKey, result: Arc<ContextMatchResult>) {
        self.entries.insert(key, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(source: u64, version: u64, config: u64) -> MatchResultKey {
        MatchResultKey {
            source_fingerprint: source,
            catalog_version: version,
            config_signature: config,
        }
    }

    #[test]
    fn round_trips_bounds_and_counts() {
        let mut cache = MatchResultCache::with_capacity(2);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 2);
        assert!(cache.get(&key(1, 1, 1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let result = Arc::new(ContextMatchResult::default());
        cache.insert(key(1, 1, 1), Arc::clone(&result));
        cache.insert(key(2, 1, 1), Arc::clone(&result));
        assert_eq!(cache.len(), 2);
        let hit = cache.get(&key(1, 1, 1)).unwrap();
        assert!(Arc::ptr_eq(&hit, &result), "hits serve the stored result");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A third key evicts the oldest entry and counts it.
        cache.insert(key(1, 2, 1), Arc::clone(&result));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(1, 1, 1)).is_none());

        // Source, version and config each discriminate.
        assert_ne!(key(1, 1, 1), key(2, 1, 1));
        assert_ne!(key(1, 1, 1), key(1, 2, 1));
        assert_ne!(key(1, 1, 1), key(1, 1, 2));

        // The next generation is empty but keeps capacity and totals.
        let next = cache.next_generation();
        assert!(next.is_empty());
        assert_eq!(next.capacity(), 2);
        assert_eq!((next.hits(), next.misses(), next.evictions()), (1, 2, 1));

        // Zero capacity disables caching.
        let mut off = MatchResultCache::with_capacity(0);
        off.insert(key(1, 1, 1), result);
        assert!(off.is_empty());
    }
}
