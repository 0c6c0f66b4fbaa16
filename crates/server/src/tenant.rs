//! The tenant registry: one isolated [`MatchService`] per tenant, all
//! sharing one [`GramInterner`].
//!
//! Isolation is the point — each tenant owns its catalog, its warm caches
//! and its policy, so one tenant's updates or cache churn can never evict
//! another's warm artifacts. The *only* shared matching state is the gram
//! interner, which is safe to share: grams are content-addressed, interned
//! scoring is id-assignment-independent, and sharing one id space is what
//! lets the flat kernels compare any tenant's source column against any
//! catalog without re-interning.
//!
//! Each tenant also memoizes the encoded `result` member of its recent
//! result-cache hits (`ReplyMemo`), so a repeat hit on the same result
//! under the same policy costs one copy instead of an encode.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock, Weak};

use cxm_core::{ContextMatchConfig, ContextMatchResult};
use cxm_matching::GramInterner;
use cxm_service::{MatchService, MutexExt, RwLockExt, ServiceConfig};

use crate::protocol::{write_result, TenantPolicy, TenantQuotas};
use crate::telemetry::{TenantCounters, TenantStats};

/// Server-wide **ceilings** on per-tenant warm-state quotas. A tenant's
/// [`TenantQuotas`] request is clamped to these at creation; omitted knobs
/// take the ceiling itself. Ceilings are what make the quota a guarantee:
/// no registration frame can grab an unbounded share of warm memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaCeilings {
    /// Max warm source column batches per tenant.
    pub source_cache_capacity: usize,
    /// Max selection-cache table buckets per tenant.
    pub selection_cache_tables: usize,
    /// Max cached view-restricted profiles per tenant.
    pub restricted_profile_entries: usize,
    /// Max memoized whole-match results per tenant.
    pub match_result_entries: usize,
}

impl Default for QuotaCeilings {
    /// The single-service defaults of [`ServiceConfig`] become the
    /// per-tenant ceilings.
    fn default() -> Self {
        let defaults = ServiceConfig::default();
        QuotaCeilings {
            source_cache_capacity: defaults.source_cache_capacity,
            selection_cache_tables: defaults.selection_cache_tables,
            restricted_profile_entries: defaults.restricted_profile_entries,
            match_result_entries: defaults.match_result_entries,
        }
    }
}

impl QuotaCeilings {
    /// Clamp a tenant's quota request into a concrete [`ServiceConfig`].
    pub fn clamp(&self, quotas: &TenantQuotas, context: ContextMatchConfig) -> ServiceConfig {
        let take = |requested: Option<usize>, ceiling: usize| match requested {
            Some(r) => r.min(ceiling),
            None => ceiling,
        };
        ServiceConfig {
            context,
            source_cache_capacity: take(quotas.source_cache_capacity, self.source_cache_capacity),
            selection_cache_tables: take(
                quotas.selection_cache_tables,
                self.selection_cache_tables,
            ),
            restricted_profile_entries: take(
                quotas.restricted_profile_entries,
                self.restricted_profile_entries,
            ),
            match_result_entries: take(quotas.match_result_entries, self.match_result_entries),
        }
    }
}

/// The encoded `result` members of a tenant's recent result-cache hits.
///
/// An entry is keyed by the identity of the result it encodes (a [`Weak`]
/// of the `Arc` the service's result cache handed out) and by the policy
/// it was encoded under; a lookup matches only that very allocation under
/// an equal policy (`==`, so a NaN threshold never matches and is simply
/// re-encoded). Identity is sound because the held [`Weak`] keeps the
/// allocation from being reused: no other result can ever share the
/// address while the entry exists. Results are immutable once shared, so
/// equal identity means equal bytes.
///
/// Bounded by the tenant's clamped `match_result_entries` (`0` turns the
/// memo off together with the result cache). The lock is a leaf, never
/// held while encoding or copying bytes.
struct ReplyMemo {
    capacity: usize,
    /// Oldest first.
    entries: Mutex<VecDeque<MemoEntry>>,
}

struct MemoEntry {
    result: Weak<ContextMatchResult>,
    policy: TenantPolicy,
    bytes: Arc<[u8]>,
}

impl MemoEntry {
    fn encodes(&self, result: &Arc<ContextMatchResult>, policy: &TenantPolicy) -> bool {
        Weak::as_ptr(&self.result) == Arc::as_ptr(result) && self.policy == *policy
    }
}

impl ReplyMemo {
    fn new(capacity: usize) -> ReplyMemo {
        ReplyMemo { capacity, entries: Mutex::new(VecDeque::new()) }
    }

    fn get(&self, result: &Arc<ContextMatchResult>, policy: &TenantPolicy) -> Option<Arc<[u8]>> {
        let entries = self.entries.lock_or_recover();
        entries.iter().find(|e| e.encodes(result, policy)).map(|e| Arc::clone(&e.bytes))
    }

    /// Memoize `bytes` as `result`'s encoding under `policy`. First drops
    /// every entry whose result is gone or that was encoded under another
    /// policy (after a policy swap those are stale), then the oldest entry
    /// if the memo is full. A key already present (two workers raced on
    /// one hit) is kept, never duplicated.
    fn insert(&self, result: &Arc<ContextMatchResult>, policy: TenantPolicy, bytes: Arc<[u8]>) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock_or_recover();
        entries.retain(|e| e.result.strong_count() > 0 && e.policy == policy);
        if entries.iter().any(|e| e.encodes(result, &policy)) {
            return;
        }
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(MemoEntry { result: Arc::downgrade(result), policy, bytes });
    }

    fn len(&self) -> usize {
        self.entries.lock_or_recover().len()
    }
}

impl fmt::Debug for ReplyMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplyMemo")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// One tenant: an isolated warm [`MatchService`], the tenant's post-match
/// policy, and its serving counters.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant name (the registry key).
    pub name: String,
    /// The tenant's isolated match service.
    pub service: MatchService,
    /// Post-match response policy (mutable via re-registration).
    policy: Mutex<TenantPolicy>,
    /// The quota *request* the tenant registered with (pre-clamp). Persisted
    /// with the warm state so a restored server re-derives the same clamped
    /// [`ServiceConfig`] — even if the ceilings changed across the restart.
    quotas: TenantQuotas,
    /// Serving counters.
    pub counters: TenantCounters,
    /// Encoded `result` members of recent result-cache hits.
    replies: ReplyMemo,
}

impl Tenant {
    fn new(
        name: &str,
        service: MatchService,
        policy: TenantPolicy,
        quotas: TenantQuotas,
        match_result_entries: usize,
    ) -> Tenant {
        Tenant {
            name: name.to_string(),
            service,
            policy: Mutex::new(policy),
            quotas,
            counters: TenantCounters::default(),
            replies: ReplyMemo::new(match_result_entries),
        }
    }

    /// The current policy (a copy; policies are tiny).
    pub fn policy(&self) -> TenantPolicy {
        *self.policy.lock_or_recover()
    }

    /// The quota request the tenant was created with (pre-clamp).
    pub fn quotas(&self) -> TenantQuotas {
        self.quotas
    }

    /// Swap the post-match policy. Takes effect for the next response
    /// encoded; never touches cached match results (the policy is applied
    /// at encode time).
    pub fn set_policy(&self, policy: TenantPolicy) {
        *self.policy.lock_or_recover() = policy;
    }

    /// Append the `result` member of a `submit` reply to `out`: the bytes
    /// of [`write_result`] for `result` under `policy`. A result-cache hit
    /// whose result this tenant already encoded under an equal policy is
    /// served from the memo; any other hit is encoded and memoized. A miss
    /// is encoded and never memoized: a never-seen source is unlikely to
    /// repeat, and memoizing misses would pin a full reply per result-cache
    /// entry.
    pub(crate) fn write_result(
        &self,
        out: &mut Vec<u8>,
        result: &Arc<ContextMatchResult>,
        policy: &TenantPolicy,
        result_cache_hit: bool,
    ) {
        if !result_cache_hit || self.replies.capacity == 0 {
            write_result(out, result, policy);
            return;
        }
        if let Some(bytes) = self.replies.get(result, policy) {
            out.extend_from_slice(&bytes);
            return;
        }
        let start = out.len();
        write_result(out, result, policy);
        self.replies.insert(result, *policy, Arc::from(&out[start..]));
    }

    /// This tenant's stats snapshot.
    pub fn stats(&self) -> TenantStats {
        TenantStats {
            tenant: self.name.clone(),
            submits: self.counters.submits.load(Ordering::Relaxed),
            result_cache_hits: self.counters.result_cache_hits.load(Ordering::Relaxed),
            deadline_expiries: self.counters.deadline_expiries.load(Ordering::Relaxed),
            admission_rejects: self.counters.admission_rejects.load(Ordering::Relaxed),
            inflight_rejects: self.counters.inflight_rejects.load(Ordering::Relaxed),
            inflight: self.counters.inflight.load(Ordering::Relaxed),
            inflight_peak: self.counters.inflight_peak.load(Ordering::Relaxed),
            warm: self.service.warm_stats(),
        }
    }
}

/// The set of live tenants, keyed by name, plus the shared interner and the
/// construction parameters every new tenant gets.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    interner: Arc<GramInterner>,
    context: ContextMatchConfig,
    ceilings: QuotaCeilings,
}

impl TenantRegistry {
    /// An empty registry. Every tenant created through it runs `context`
    /// under `ceilings`, interning against one fresh shared interner.
    pub fn new(context: ContextMatchConfig, ceilings: QuotaCeilings) -> Self {
        TenantRegistry::with_interner(context, ceilings, Arc::new(GramInterner::new()))
    }

    /// An empty registry over an explicit interner — how a snapshot restore
    /// hands every tenant the interner already preloaded with the snapshot's
    /// dump.
    pub fn with_interner(
        context: ContextMatchConfig,
        ceilings: QuotaCeilings,
        interner: Arc<GramInterner>,
    ) -> Self {
        TenantRegistry { tenants: RwLock::new(BTreeMap::new()), interner, context, ceilings }
    }

    /// The server-wide quota ceilings tenants are clamped to.
    pub fn ceilings(&self) -> QuotaCeilings {
        self.ceilings
    }

    /// The `ContextMatch` configuration every tenant's service runs.
    pub fn context(&self) -> ContextMatchConfig {
        self.context
    }

    /// The interner shared by every tenant's catalog.
    pub fn interner(&self) -> &Arc<GramInterner> {
        &self.interner
    }

    /// The registered tenant of that name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read_or_recover().get(name).cloned()
    }

    /// The tenant, created on first use. Quotas are clamped to the ceilings
    /// and **fixed at creation** (cache bounds are service-construction
    /// parameters); the policy is swapped on every call, so re-registering
    /// updates the projection knobs.
    pub fn register(&self, name: &str, policy: TenantPolicy, quotas: &TenantQuotas) -> Arc<Tenant> {
        if let Some(tenant) = self.get(name) {
            tenant.set_policy(policy);
            return tenant;
        }
        let mut tenants = self.tenants.write_or_recover();
        // Double-checked under the write lock: a racing register of the
        // same name must converge on one service, never build two.
        if let Some(tenant) = tenants.get(name) {
            tenant.set_policy(policy);
            return Arc::clone(tenant);
        }
        let config = self.ceilings.clamp(quotas, self.context);
        let service = MatchService::with_config_and_interner(config, Arc::clone(&self.interner));
        let tenant =
            Arc::new(Tenant::new(name, service, policy, *quotas, config.match_result_entries));
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }

    /// Install a tenant around an already-restored service (snapshot restore
    /// path; the service must intern against this registry's interner).
    /// First registration wins, exactly like [`TenantRegistry::register`] —
    /// a name already present keeps its existing tenant.
    pub fn install_restored(
        &self,
        name: &str,
        policy: TenantPolicy,
        quotas: TenantQuotas,
        service: MatchService,
    ) -> Arc<Tenant> {
        debug_assert!(
            Arc::ptr_eq(service.catalog().interner(), &self.interner),
            "restored service must share the registry interner"
        );
        let mut tenants = self.tenants.write_or_recover();
        if let Some(tenant) = tenants.get(name) {
            return Arc::clone(tenant);
        }
        let memo_capacity = self.ceilings.clamp(&quotas, self.context).match_result_entries;
        let tenant = Arc::new(Tenant::new(name, service, policy, quotas, memo_capacity));
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }

    /// Every live tenant, in name order.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read_or_recover().values().cloned().collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read_or_recover().len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stats snapshots of every tenant (or the one named), in name order.
    pub fn stats(&self, only: Option<&str>) -> Vec<TenantStats> {
        let tenants = self.tenants.read_or_recover();
        tenants
            .values()
            .filter(|t| only.is_none_or(|name| t.name == name))
            .map(|t| t.stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_matching::Match;
    use cxm_relational::AttrRef;

    /// A synthetic result whose bytes name `tag`, with four selected
    /// matches scoring 1.0, 0.875, 0.75 and 0.625.
    fn result(tag: usize) -> Arc<ContextMatchResult> {
        let m = |i: usize| {
            let score = 1.0 - i as f64 / 8.0;
            Match::standard(
                AttrRef::new(format!("src{tag}"), format!("a{i}")),
                AttrRef::new("book", format!("t{i}")),
                score,
                score,
            )
        };
        Arc::new(ContextMatchResult {
            selected: (0..4).map(m).collect(),
            standard: vec![m(0)],
            ..ContextMatchResult::default()
        })
    }

    /// Four policies that project the results above four different ways.
    const POLICIES: [TenantPolicy; 4] = [
        TenantPolicy { score_threshold: None, top_k: None },
        TenantPolicy { score_threshold: None, top_k: Some(1) },
        TenantPolicy { score_threshold: Some(0.8), top_k: None },
        TenantPolicy { score_threshold: None, top_k: Some(0) },
    ];

    fn memo_tenant(match_result_entries: usize) -> Arc<Tenant> {
        let registry = TenantRegistry::new(ContextMatchConfig::default(), QuotaCeilings::default());
        let quotas = TenantQuotas {
            match_result_entries: Some(match_result_entries),
            ..TenantQuotas::default()
        };
        registry.register("t", TenantPolicy::default(), &quotas)
    }

    /// The `result` member a result-cache hit gets from `tenant`.
    fn hit(tenant: &Tenant, result: &Arc<ContextMatchResult>, policy: &TenantPolicy) -> Vec<u8> {
        let mut out = Vec::new();
        tenant.write_result(&mut out, result, policy, true);
        out
    }

    fn encoded(result: &ContextMatchResult, policy: &TenantPolicy) -> Vec<u8> {
        let mut out = Vec::new();
        write_result(&mut out, result, policy);
        out
    }

    #[test]
    fn the_reply_memo_keeps_the_newest_hits_within_its_bound() {
        let tenant = memo_tenant(3);
        let policy = TenantPolicy::default();
        let results: Vec<_> = (0..8).map(result).collect();
        for (i, r) in results.iter().enumerate() {
            // A miss is encoded but never memoized.
            let mut miss = Vec::new();
            tenant.write_result(&mut miss, r, &policy, false);
            assert_eq!(miss, encoded(r, &policy));
            assert_eq!(tenant.replies.len(), i.min(3));
            // The first hit fills the memo, the second is served from it.
            assert_eq!(hit(&tenant, r, &policy), encoded(r, &policy));
            assert_eq!(hit(&tenant, r, &policy), encoded(r, &policy));
            assert_eq!(tenant.replies.len(), (i + 1).min(3));
        }
        let kept: Vec<_> =
            tenant.replies.entries.lock_or_recover().iter().map(|e| e.result.as_ptr()).collect();
        assert_eq!(kept, results[5..].iter().map(Arc::as_ptr).collect::<Vec<_>>(), "oldest out");
    }

    #[test]
    fn the_reply_memo_drops_dead_results_and_stale_policies() {
        let tenant = memo_tenant(8);
        let [p0, p1, ..] = POLICIES;
        let (a, b) = (result(0), result(1));
        hit(&tenant, &a, &p0);
        hit(&tenant, &b, &p0);
        assert_eq!(tenant.replies.len(), 2);
        drop(b);
        // The next insert prunes the entry whose result is gone.
        let c = result(2);
        assert_eq!(hit(&tenant, &c, &p0), encoded(&c, &p0));
        assert_eq!(tenant.replies.len(), 2);
        // After a policy swap the old bytes never match, and the first
        // insert under the new policy drops every entry of the old one.
        assert_ne!(encoded(&a, &p0), encoded(&a, &p1));
        assert_eq!(hit(&tenant, &a, &p1), encoded(&a, &p1));
        assert_eq!(tenant.replies.len(), 1);
        assert_eq!(hit(&tenant, &a, &p1), encoded(&a, &p1));
        // A NaN threshold equals no policy, itself included: it is
        // re-encoded on every hit, never served another policy's bytes.
        let nan = TenantPolicy { score_threshold: Some(f64::NAN), top_k: None };
        for _ in 0..2 {
            assert_eq!(hit(&tenant, &a, &nan), encoded(&a, &nan));
        }
        assert!(tenant.replies.len() <= 1);
    }

    #[test]
    fn a_zero_result_quota_memoizes_nothing() {
        let tenant = memo_tenant(0);
        let a = result(0);
        for policy in &POLICIES {
            for _ in 0..2 {
                assert_eq!(hit(&tenant, &a, policy), encoded(&a, policy));
            }
        }
        assert_eq!(tenant.replies.len(), 0);
    }

    #[test]
    fn racing_hits_and_policy_swaps_get_their_own_results_bytes() {
        const ROUNDS: usize = 400;
        let tenant = memo_tenant(4);
        let shared: Vec<_> = (0..6).map(result).collect();
        let expected: Vec<Vec<Vec<u8>>> =
            shared.iter().map(|r| POLICIES.iter().map(|p| encoded(r, p)).collect()).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (tenant, shared, expected) = (&tenant, &shared, &expected);
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        if i % 3 == t % 3 {
                            tenant.set_policy(POLICIES[(i + t) % POLICIES.len()]);
                        }
                        let policy = tenant.policy();
                        let p = POLICIES.iter().position(|q| *q == policy).expect("known policy");
                        let k = (i * 7 + t) % shared.len();
                        assert_eq!(hit(tenant, &shared[k], &policy), expected[k][p]);
                        // A result that dies right after its hits: its
                        // address may be reused once its entry is pruned,
                        // never while the entry holds it.
                        let fresh = result(100 + t * ROUNDS + i);
                        assert_eq!(hit(tenant, &fresh, &policy), encoded(&fresh, &policy));
                        assert_eq!(hit(tenant, &fresh, &policy), encoded(&fresh, &policy));
                        assert!(tenant.replies.len() <= 4);
                    }
                });
            }
        });
    }

    #[test]
    fn quotas_clamp_to_ceilings_and_default_to_them() {
        let ceilings = QuotaCeilings {
            source_cache_capacity: 4,
            selection_cache_tables: 8,
            restricted_profile_entries: 16,
            match_result_entries: 2,
        };
        let config = ceilings.clamp(
            &TenantQuotas {
                source_cache_capacity: Some(99),
                match_result_entries: Some(1),
                ..TenantQuotas::default()
            },
            ContextMatchConfig::default(),
        );
        assert_eq!(config.source_cache_capacity, 4, "request above ceiling clamps");
        assert_eq!(config.selection_cache_tables, 8, "omitted knob takes the ceiling");
        assert_eq!(config.match_result_entries, 1, "request below ceiling honored");
    }

    #[test]
    fn tenants_are_isolated_but_share_one_interner() {
        let registry = TenantRegistry::new(ContextMatchConfig::default(), QuotaCeilings::default());
        let a = registry.register("a", TenantPolicy::default(), &TenantQuotas::default());
        let b = registry.register("b", TenantPolicy::default(), &TenantQuotas::default());
        assert_eq!(registry.len(), 2);
        assert!(
            Arc::ptr_eq(a.service.catalog().interner(), b.service.catalog().interner()),
            "one shared interner"
        );
        assert!(
            Arc::ptr_eq(a.service.catalog().interner(), registry.interner()),
            "the registry's own"
        );

        // Re-registering returns the same tenant (same service, warm state
        // intact) and swaps only the policy.
        let again = registry.register(
            "a",
            TenantPolicy { top_k: Some(1), ..TenantPolicy::default() },
            &TenantQuotas::default(),
        );
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(again.policy().top_k, Some(1));
        assert_eq!(registry.len(), 2);
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn a_zero_selection_quota_keeps_one_bucket() {
        use cxm_relational::{tuple, Attribute, Condition, Table, TableSchema};
        // A zero request clamps to zero, which must stay a bound: the
        // ceiling is what keeps a tenant's warm memory in check.
        let registry = TenantRegistry::new(ContextMatchConfig::default(), QuotaCeilings::default());
        let quotas = TenantQuotas { selection_cache_tables: Some(0), ..TenantQuotas::default() };
        let tenant = registry.register("t", TenantPolicy::default(), &quotas);
        let snapshot = tenant.service.catalog().snapshot();
        let mut cache = snapshot.selections().lock_or_recover();
        for name in ["a", "b", "c"] {
            let table = Table::with_rows(
                TableSchema::new(name, vec![Attribute::int("x")]),
                vec![tuple![1]],
            )
            .unwrap();
            cache.select(&table, &Condition::eq("x", 1));
        }
        assert!(cache.cached_tables().len() <= 1, "{:?}", cache.cached_tables());
    }
}
