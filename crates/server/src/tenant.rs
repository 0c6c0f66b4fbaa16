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

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

use cxm_core::ContextMatchConfig;
use cxm_matching::GramInterner;
use cxm_service::{MatchService, MutexExt, RwLockExt, ServiceConfig};

use crate::protocol::{TenantPolicy, TenantQuotas};
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
}

impl Tenant {
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
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            service: MatchService::with_config_and_interner(config, Arc::clone(&self.interner)),
            policy: Mutex::new(policy),
            quotas: *quotas,
            counters: TenantCounters::default(),
        });
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
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            service,
            policy: Mutex::new(policy),
            quotas,
            counters: TenantCounters::default(),
        });
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
