//! Only catalog content gets interner ids. A match service facing an
//! open-ended stream of never-seen sources resolves every source string
//! against the catalog's vocabulary without inserting it, so the catalog's
//! interner keeps the length its target builds gave it — while every reply
//! stays byte-identical to a cold `ContextualMatcher::run`. A catalog edit
//! that does add strings a cached source holds makes that source's
//! artifacts stale; the next request resolves them again, and never serves
//! them as they were.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cxm_core::{ContextMatchConfig, ContextMatchResult, ContextualMatcher, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_matching::GramInterner;
use cxm_relational::{Database, Table, Tuple};
use cxm_service::{MatchResponse, MatchService, ServiceConfig};

/// Request telemetry is a delta of process-global counters that a
/// concurrently running test also bumps; every test here holds this lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The repository benchmark's inference: Naive at τ 0.4, so every miss
/// scores candidate views over restricted columns.
fn config() -> ContextMatchConfig {
    ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4)
}

fn retail(seed: u64) -> (Database, Database) {
    let ds = generate_retail(&RetailConfig {
        seed,
        source_items: 24,
        target_rows: 12,
        ..RetailConfig::default()
    });
    (ds.source, ds.target)
}

/// A service over a private interner, so its length is this test's alone.
fn service() -> (MatchService, Arc<GramInterner>) {
    let interner = Arc::new(GramInterner::new());
    let config = ServiceConfig { context: config(), ..ServiceConfig::default() };
    (MatchService::with_config_and_interner(config, Arc::clone(&interner)), interner)
}

fn assert_cold(response: &MatchResponse, cold: &ContextMatchResult, label: &str) {
    assert_eq!(
        format!("{:?}", response.result.selected),
        format!("{:?}", cold.selected),
        "{label}"
    );
    assert_eq!(
        format!("{:?}", response.result.standard),
        format!("{:?}", cold.standard),
        "{label}"
    );
    assert_eq!(
        format!("{:?}", response.result.candidates),
        format!("{:?}", cold.candidates),
        "{label}"
    );
}

#[test]
fn never_seen_sources_leave_the_catalog_interner_as_registered() {
    let _serial = serial();
    let (_, target) = retail(1);
    let (service, interner) = service();
    service.register_target(&target);
    // Set-up: the first request builds the index, which interns the
    // catalog; nothing after it may add a string.
    let (warm_up, _) = retail(1);
    service.submit(&warm_up).expect("warm-up submit");
    let registered = interner.len();
    assert!(registered > 0);

    let matcher = ContextualMatcher::new(config());
    let mut candidates = 0;
    for seed in 2..=53 {
        let (source, _) = retail(seed);
        let response = service.submit(&source).expect("submit");
        assert!(!response.telemetry.result_cache_hit, "seed {seed} is never-seen");
        assert_eq!(interner.len(), registered, "seed {seed} added to the catalog's interner");
        assert_cold(&response, &matcher.run(&source, &target).expect("cold run"), "seed {seed}");
        candidates += response.result.candidates.len();
    }
    assert!(candidates > 0, "the sources must score candidate views over restricted columns");
}

#[test]
fn a_catalog_edit_adding_a_sources_strings_resolves_it_again() {
    let _serial = serial();
    let (source, target) = retail(7);
    let (service, interner) = service();
    service.register_target(&target);
    let matcher = ContextualMatcher::new(config());
    let first = service.submit(&source).expect("first submit");
    assert_cold(&first, &matcher.run(&source, &target).expect("cold"), "before the edit");
    let before = interner.len();

    // Replace the first target table with one whose first column holds the
    // source's item names: the catalog now has strings the source's cached
    // artifacts were resolved without.
    let names: Vec<String> = source.tables().next().expect("one source table").rows()[..]
        .iter()
        .map(|row| row.at(1).as_text())
        .collect();
    let book = target.tables().next().expect("a target table").clone();
    let rows = book
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut values = row.values().to_vec();
            values[0] = cxm_relational::Value::str(names[i % names.len()].clone());
            Tuple::new(values)
        })
        .collect();
    let edited = Table::with_rows(book.schema().clone(), rows).expect("same schema");
    let mut target2 = target.clone();
    target2.replace_table(edited.clone());
    service.replace_table(edited).expect("replace");

    let second = service.submit(&source).expect("second submit");
    assert!(interner.len() > before, "the edit added the source's strings to the catalog");
    assert!(second.telemetry.source_cache_hit, "the cached batch is reused, resolved again");
    assert!(second.telemetry.restricted_profile_hits > 0, "cached views are reused too");
    assert_cold(&second, &matcher.run(&source, &target2).expect("cold"), "after the edit");

    // A register that adds no string invalidates nothing and grows nothing.
    let after = interner.len();
    service.register_target(&target2);
    let third = service.submit(&source).expect("third submit");
    assert_eq!(interner.len(), after);
    assert!(third.telemetry.source_cache_hit);
    assert_eq!(third.telemetry.qgram_profile_builds, 0, "nothing was stale");
    assert_cold(&third, &matcher.run(&source, &target2).expect("cold"), "after the register");
}

#[test]
fn another_tenants_growth_in_a_shared_interner_invalidates_nothing() {
    let _serial = serial();
    let shared = Arc::new(GramInterner::new());
    let config = ServiceConfig { context: config(), ..ServiceConfig::default() };
    let (source, target) = retail(11);
    let tenant = MatchService::with_config_and_interner(config, Arc::clone(&shared));
    tenant.register_target(&target);
    tenant.submit(&source).expect("warm the source batch");

    // Another tenant's catalog adds strings to the shared interner — the
    // source's item names among them.
    let other = MatchService::with_config_and_interner(config, Arc::clone(&shared));
    let (other_source, other_target) = retail(12);
    let before = shared.len();
    other.register_target(&other_target.with_table(source.tables().next().expect("items").clone()));
    other.submit(&other_source).expect("the other tenant builds its index");
    assert!(shared.len() > before, "the other catalog grew the shared interner");

    // The first tenant's catalog did not move, so its artifacts still cover
    // it: a new catalog version re-runs the match with no build at all.
    tenant.register_target(&target);
    let again = tenant.submit(&source).expect("submit");
    assert!(again.telemetry.source_cache_hit);
    assert_eq!(again.telemetry.qgram_profile_builds, 0, "nothing was stale");
    let cold = ContextualMatcher::new(config.context).run(&source, &target).expect("cold");
    assert_cold(&again, &cold, "after the other tenant's growth");
}
