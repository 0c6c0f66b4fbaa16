//! # cxm-matching
//!
//! The *standard* (non-contextual) schema matching system that the contextual
//! matcher of `cxm-core` builds on (*Putting Context into Schema Matching*,
//! Bohannon et al., VLDB 2006, §2.3).
//!
//! Following the LSD / iMAP / COMA lineage the paper cites, the system is an
//! ensemble of *matchers*, each producing a raw similarity score for a
//! (source attribute, target attribute) pair:
//!
//! * a **name matcher** over attribute names ([`name::NameMatcher`]),
//! * a **q-gram instance matcher** over value profiles
//!   ([`instance::QGramMatcher`]),
//! * a **value-overlap matcher** over distinct value sets
//!   ([`instance::ValueOverlapMatcher`]),
//! * a **numeric-distribution matcher** ([`numeric::NumericMatcher`]).
//!
//! Per §2.3, "for a single matcher m and source attribute a, the distribution
//! of scores to all target attributes are treated as samples of a normal
//! distribution, allowing the raw scores given by m for a to be converted into
//! confidence scores"; the per-matcher confidences are then combined with
//! weights. [`standard::StandardMatcher`] implements `StandardMatch(RS, RT, τ)`
//! and retains the per-attribute score distributions so that `ScoreMatch` can
//! later re-score a *view-restricted* sample against the same distribution —
//! exactly what `ContextMatch` needs.

pub mod column;
pub mod combine;
pub mod confidence;
pub mod index;
pub mod instance;
pub mod intern;
pub mod match_types;
pub mod matcher;
pub mod name;
pub mod numeric;
pub mod standard;

pub use column::{ColumnArtifacts, ColumnData, ColumnRuns};
pub use combine::MatcherEnsemble;
pub use confidence::ScoreDistribution;
pub use index::{CandidateScan, GramIndex};
pub use intern::telemetry::KernelCounters;
pub use intern::{GramInterner, InternedProfile, InternedValueSet};
pub use match_types::{Match, MatchList};
pub use matcher::{Matcher, PairHint};
pub use standard::{MatchingConfig, MatchingOutcome, StandardMatcher};
