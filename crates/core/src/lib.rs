//! # cxm-core
//!
//! The primary contribution of *Putting Context into Schema Matching*
//! (Bohannon, Elnahrawy, Fan, Flaster; VLDB 2006): **contextual schema
//! matching**, in which each attribute-level match is annotated with a
//! selection condition describing the context in which the match applies.
//!
//! The crate implements the full design space described in §3 of the paper:
//!
//! * [`context_match::ContextualMatcher`] — the overall `ContextMatch`
//!   algorithm (Figure 5): run `StandardMatch`, infer candidate views, re-score
//!   every prototype match against every candidate view, and select a coherent
//!   subset to present to the user.
//! * Candidate-view inference ([`candidate_views`]):
//!   * [`mod@naive_infer`] — `NaiveInfer`, one view per value of every
//!     categorical attribute (plus value subsets under early disjuncts);
//!   * [`clustered`] — `ClusteredViewGen` (Figure 6), which accepts a view
//!     family only when a classifier predicts the partitioning attribute
//!     significantly better than the majority-label null model;
//!   * [`labeler`] — the two classifier constructions that plug into
//!     `ClusteredViewGen`: `SrcClassInfer` (classifier trained on source
//!     values) and `TgtClassInfer` (classifier built from target-schema
//!     columns, Figure 7).
//! * Disjunction handling (§3.3): `EarlyDisjuncts` merges the most-confused
//!   value pairs during inference; `LateDisjuncts` unions high-scoring simple
//!   views at selection time.
//! * Match selection ([`select`], §3.4): `MultiTable` (best match per target
//!   attribute) and `QualTable` (best consistent source table or view set per
//!   target table, gated by the improvement threshold ω).
//! * Conjunctive contexts ([`conjunctive`], §3.5): iterative re-partitioning of
//!   the previous stage's views.
//! * The strawman configuration ([`strawman`]) = `NaiveInfer` + `MultiTable`,
//!   used as a baseline in the experiments.

pub mod bounded;
pub mod candidate_views;
pub mod clustered;
pub mod config;
pub mod conjunctive;
pub mod context_match;
pub mod labeler;
pub mod naive_infer;
pub mod result_cache;
pub mod score;
pub mod select;
pub mod strawman;

pub use bounded::BoundedCache;
pub use candidate_views::infer_candidate_views;
pub use clustered::{clustered_view_gen, FamilyQuality, ScoredFamily};
pub use config::{ContextMatchConfig, SelectionStrategy, ViewInferenceStrategy};
pub use conjunctive::conjunctive_context_match;
pub use context_match::{
    ContextMatchResult, ContextualMatcher, PreparedSourceColumns, PreparedTargets,
};
pub use labeler::{LabelPredictor, SrcLabeler, TgtLabeler};
pub use naive_infer::naive_infer;
pub use result_cache::{MatchResultCache, MatchResultKey};
pub use score::{
    condition_fingerprint, score_candidates, score_candidates_prepared, RestrictedKey,
    RestrictedProfileCache, SharedSelections,
};
pub use select::select_contextual_matches;
pub use strawman::strawman_config;
