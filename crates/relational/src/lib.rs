//! # cxm-relational
//!
//! In-memory relational substrate for the contextual schema matching system
//! described in *Putting Context into Schema Matching* (Bohannon et al., VLDB 2006).
//!
//! The paper assumes its matching algorithms run against sample data pulled from a
//! DBMS; candidate views are *never* materialized in the DBMS during the search.
//! This crate provides exactly the substrate those algorithms need:
//!
//! * typed values ([`Value`]) and data types ([`DataType`]),
//! * table schemas ([`TableSchema`]) and whole-schema catalogs ([`Schema`]),
//! * in-memory instances ([`Table`], [`Database`]) with bag semantics,
//! * selection conditions ([`Condition`]) of the paper's complexity classes
//!   (simple 1-conditions, disjunctive 1-conditions, conjunctive k-conditions),
//! * select-only / select-project views ([`ViewDef`]) and view families
//!   ([`ViewFamily`]) partitioning a table on a categorical attribute,
//! * categorical-attribute detection (§2.1 of the paper),
//! * keys, foreign keys and the paper's new *contextual foreign keys* (§4.2),
//! * train/test partitioning of samples.
//!
//! Everything is deterministic and fully in memory; no external storage engine is
//! involved, mirroring the paper's remark that "views are not created in the DBMS
//! storing R_S or R_T during the search process".
//!
//! ## The zero-copy view execution layer
//!
//! `ContextMatch` evaluates every candidate view against the sample data once
//! per scoring pass, so view evaluation is the hottest path in the system.
//! The [`selection`] module provides the execution layer that keeps this path
//! free of tuple copies:
//!
//! * [`RowSelection`] — a selection of base-table row indices, stored as one
//!   sorted, duplicate-free index vector; built by one evaluator that scans
//!   once per condition atom (or takes cached atoms) and merges with
//!   `intersect`/`union`.
//! * [`TableSlice`] — a borrowed view of a [`Table`] restricted by a
//!   `RowSelection`; rows and values come out as references into the base
//!   table in base-row order, never cloned.
//! * [`SelectionCache`] — memoizes selection vectors per
//!   `(base table, condition atom)` so conjunctive and disjunctive conditions
//!   are evaluated by merging cached vectors instead of rescanning rows; its
//!   table buckets are bounded by the [`BoundedCache`] every warm-artifact
//!   cache in the workspace uses.
//!
//! [`ViewDef::select`] is the entry point: it returns the view's
//! `RowSelection`. Rows are copied out in one place,
//! [`TableSlice::materialize`], reached through
//! [`ViewDef::materialize_selection`]; [`ViewDef::evaluate`] wraps the two
//! for the one library caller that needs an owned instance (the
//! schema-mapping executor). Invariants are documented on the [`selection`]
//! module.

pub mod attribute;
pub mod bounded;
pub mod categorical;
pub mod condition;
pub mod constraint;
pub mod database;
pub mod error;
pub mod fingerprint;
pub mod sample;
pub mod schema;
pub mod selection;
pub mod table;
pub mod tuple;
pub mod types;
pub mod value;
pub mod view;
pub mod view_family;

pub use attribute::{AttrRef, Attribute};
pub use bounded::BoundedCache;
pub use categorical::{
    categorical_attributes, is_categorical, non_categorical_attributes, CategoricalPolicy,
};
pub use condition::Condition;
pub use constraint::{ConstraintSet, ContextualForeignKey, ForeignKey, Key};
pub use database::Database;
pub use error::{Error, Result};
pub use fingerprint::{combine_column_fingerprints, Fnv64, TABLE_FINGERPRINT_SEED};
pub use sample::{split_selection, SplitRatio};
pub use schema::{Schema, TableSchema};
pub use selection::{RowSelection, SelectionCache, TableSlice};
pub use table::Table;
pub use tuple::Tuple;
pub use types::DataType;
pub use value::Value;
pub use view::ViewDef;
pub use view_family::ViewFamily;
