//! Facade crate for the contextual schema matching workspace.
//!
//! Re-exports every layer under one roof so the `examples/` directory and
//! downstream users can depend on a single crate:
//!
//! * [`relational`] — in-memory relational substrate, selection conditions,
//!   views, table content fingerprints, and the zero-copy execution layer
//!   (`RowSelection` — a sorted row-index vector — `TableSlice`,
//!   `SelectionCache`).
//! * [`matching`] — the standard (black-box) instance matcher ensemble.
//! * [`core`] — the `ContextMatch` algorithm and its design space.
//! * [`service`] — the long-lived match service: a fingerprinted,
//!   snapshot-swapped target catalog with warm-artifact reuse
//!   (`MatchService`, `TargetCatalog`).
//! * [`server`] — the multi-tenant network front-end: framed JSON-over-TCP
//!   serving with admission control, per-request deadline budgets, and
//!   per-tenant warm-state quotas over isolated `MatchService`s.
//! * [`persist`] — crash-safe warm-state snapshots: a versioned, checksummed
//!   container written atomically and loaded validation-first, so a corrupt
//!   or stale snapshot degrades to a cold rebuild instead of a wrong answer.
//! * [`mapping`] — the §4 schema-mapping extensions (Clio-style queries).
//! * [`datagen`] — deterministic synthetic datasets for the paper's figures.

pub use cxm_classify as classify;
pub use cxm_core as core;
pub use cxm_datagen as datagen;
pub use cxm_mapping as mapping;
pub use cxm_matching as matching;
pub use cxm_persist as persist;
pub use cxm_relational as relational;
pub use cxm_server as server;
pub use cxm_service as service;
pub use cxm_stats as stats;
