//! Integration-test package — the cross-crate tests live in `tests/tests/`.
//!
//! The library target holds what those tests (and the benches) share: the
//! [`reference`](mod@reference) oracles the optimised library paths are
//! pinned against.

pub mod reference;
