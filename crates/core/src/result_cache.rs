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
//! addressable — and the new snapshot starts from [`BoundedCache::emptied`],
//! which drops those dead entries instead of carrying them until the bound
//! ages them out. Any source edit changes the source fingerprint the same
//! way, and those entries age out through the oldest-first capacity bound.
//! Nothing is ever served stale.
//!
//! Hit results are **byte-identical** to what the run they memoize produced
//! (a clone of the stored result; every score and confidence keeps its exact
//! bit pattern), and that run was itself byte-identical to a cold
//! [`crate::ContextualMatcher::run`] — so result-cache hits preserve the
//! service's end-to-end equivalence guarantee.

use std::sync::Arc;

use crate::context_match::ContextMatchResult;
use cxm_relational::BoundedCache;

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
/// per catalog snapshot and starts the next snapshot's from
/// [`BoundedCache::emptied`], which keeps the capacity and lifetime totals.
pub type MatchResultCache = BoundedCache<MatchResultKey, Arc<ContextMatchResult>>;

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
        assert!(Arc::ptr_eq(hit, &result), "hits serve the stored result");
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
        let next = cache.emptied();
        assert!(next.is_empty());
        assert_eq!(next.capacity(), 2);
        assert_eq!((next.hits(), next.misses(), next.evictions()), (1, 2, 1));

        // Zero capacity disables caching.
        let mut off = MatchResultCache::with_capacity(0);
        off.insert(key(1, 1, 1), result);
        assert!(off.is_empty());
    }
}
