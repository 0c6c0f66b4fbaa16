//! T001 fixture: `#[doc(hidden)]` items outside the tests crate.
//! Linted as crate `core` (and as `tests`, where the rule does not fire);
//! never compiled (cargo ignores tests/ subdirs).

#[doc(hidden)]
pub fn hidden_reference_oracle() {}

/// Documented public API is fine.
pub fn visible() {}

// cxm-lint: allow(T001, reason = "expanded by an exported macro only, never called by hand")
#[doc(hidden)]
pub fn macro_support() {}

// cxm-lint: allow(T001)
#[doc(hidden)]
pub fn bare_allow_is_rejected() {}
