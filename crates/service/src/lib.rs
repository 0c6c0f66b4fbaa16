//! # cxm-service
//!
//! A **long-lived match service** over the `ContextMatch` pipeline.
//!
//! The paper frames contextual schema matching as a one-shot algorithm, but
//! the enterprise setting it targets is a *service*: many source schemas
//! matched repeatedly against a slowly-changing, shared target. One-shot
//! [`cxm_core::ContextualMatcher::run`] rebuilds every target-side artifact
//! per call; this crate keeps them warm across calls and invalidates them by
//! *content fingerprint* when — and only when — a table actually changes.
//!
//! Two layers:
//!
//! * [`TargetCatalog`] — an immutable, snapshot-swapped registry of target
//!   tables. Each registered table carries its
//!   [`cxm_relational::Table::fingerprint`]; a snapshot hoists the target
//!   column batch once (with `Arc`-shared values and memoized matcher
//!   profiles). Updates (`register`/`replace`/`drop`) build a *new*
//!   snapshot behind an `Arc` swap, rebuilding only the tables whose
//!   fingerprint changed — in-flight requests keep a consistent view of the
//!   snapshot they started with.
//! * [`MatchService`] — request execution. [`MatchService::submit`] runs the
//!   contextual matcher for one source database against the current
//!   snapshot over the existing work-stealing pool (parallel source-table
//!   shards, parallel view scoring). Every response carries
//!   [`RequestTelemetry`]:
//!   q-gram profile builds, selection-cache hits/misses, restricted-profile
//!   cache hits/misses, classifier work units, and which warm artifacts
//!   were reused.
//!
//! The catalog owns one [`cxm_relational::SelectionCache`] and one bounded,
//! fingerprint-keyed [`cxm_core::RestrictedProfileCache`], created with its
//! first snapshot and shared by every later one. Both hold artifacts of the
//! *source* instances requests submit, validated by source content
//! fingerprints, so a catalog update neither copies nor reconciles them.
//! The view-restricted columns `ScoreMatch` derives per candidate view are
//! profiled once and reused by every later request over the same source
//! content — a warm repeat performs **zero** q-gram profile builds even
//! when candidate views are in play. All scoring runs on the interned flat
//! kernels of [`cxm_matching::intern`] (the catalog scopes a shared
//! [`cxm_matching::GramInterner`] for every column it hands out).
//!
//! The warm path is **byte-identical** to a cold one-shot
//! `ContextualMatcher::run` against the same instances — warm artifacts hold
//! the same values, so every score, confidence and selected match comes out
//! the same; only the redundant work disappears. The integration tests pin
//! this equivalence and the zero-target-rebuild guarantee.

mod catalog;
mod lock;
mod persist;
mod service;

pub use catalog::{
    CatalogSnapshot, CatalogUpdate, TargetCatalog, DEFAULT_RESTRICTED_PROFILE_CAPACITY,
};
pub use lock::{MutexExt, RwLockExt};
pub use persist::RestoreSummary;
pub use service::{MatchResponse, MatchService, RequestTelemetry, ServiceConfig, WarmStats};
