//! The bounded insertion-order cache shared by every warm-artifact cache.
//!
//! [`crate::RestrictedProfileCache`], [`crate::MatchResultCache`] and the
//! service's source column-batch cache all need the same shape: a
//! capacity-bounded map evicting oldest-inserted first, with `0` meaning
//! "disabled", and hit/miss/eviction counters for telemetry. This is that
//! shape, once: the result and source caches are instances of
//! [`BoundedCache`], and the restricted-profile cache wraps one.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded map evicting oldest-inserted entries first.
///
/// * `with_capacity(0)` disables the cache entirely: inserts are dropped
///   and the cache stays empty (lookups still count misses, so callers that
///   skip lookups on disabled caches should check [`BoundedCache::capacity`]
///   first).
/// * Re-inserting an existing key replaces its value in place; its age is
///   unchanged.
/// * [`BoundedCache::get`] records a hit or miss; evictions are counted so
///   holders can surface capacity pressure instead of degrading silently.
#[derive(Debug, Clone)]
pub struct BoundedCache<K, V> {
    capacity: usize,
    // cxm-lint: allow(C001, reason = "this IS the bound: insert() evicts oldest-first past `capacity`")
    entries: HashMap<K, V>,
    // cxm-lint: allow(C001, reason = "one entry per `entries` key, popped in lock-step by eviction")
    order: VecDeque<K>,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl<K, V> Default for BoundedCache<K, V> {
    /// A disabled cache (capacity 0) — manual so `K`/`V` need not be
    /// `Default` themselves.
    fn default() -> Self {
        BoundedCache {
            capacity: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V> BoundedCache<K, V> {
    /// A cache retaining at most `capacity` entries (`0` disables caching).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// An empty cache with this cache's capacity and lifetime hit, miss and
    /// eviction totals — for a holder whose every entry just became
    /// unreachable. Dropping them is not capacity pressure, so the eviction
    /// total does not grow.
    pub fn emptied(&self) -> Self {
        BoundedCache {
            capacity: self.capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// The value cached for `key`, recording a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.entries.get(key) {
            Some(value) => {
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Cache `value` under `key`, evicting oldest entries beyond the
    /// capacity (a no-op on a disabled cache).
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(evicted) => {
                    self.entries.remove(&evicted);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Iterate over the cached values (arbitrary order — callers must not
    /// let the visit order reach any deterministic output).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        // cxm-lint: allow(D001, reason = "order-independent use only: telemetry counting and set-shaped reductions")
        self.entries.values()
    }

    /// Iterate over `(key, value)` pairs in **insertion order** (oldest
    /// first) — the deterministic walk persistence uses to export a cache so
    /// a restored cache replays inserts in the original order and keeps the
    /// same eviction age ranking.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.iter().filter_map(|key| self.entries.get(key).map(|value| (key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_counts_and_replaces_in_place() {
        let mut cache: BoundedCache<u32, &str> = BoundedCache::with_capacity(2);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 2);
        assert!(cache.get(&1).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        cache.insert(1, "a");
        cache.insert(2, "b");
        assert_eq!(cache.get(&1), Some(&"a"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Re-inserting replaces without aging: 1 is still the oldest.
        cache.insert(1, "a2");
        assert_eq!(cache.len(), 2);
        cache.insert(3, "c");
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&1).is_none(), "oldest (1) evicted despite re-insert");
        assert_eq!(cache.get(&3), Some(&"c"));
        assert_eq!(cache.values().count(), 2);

        // Capacity 0 disables caching.
        let mut off: BoundedCache<u32, &str> = BoundedCache::with_capacity(0);
        off.insert(1, "a");
        assert!(off.is_empty());
    }
}
