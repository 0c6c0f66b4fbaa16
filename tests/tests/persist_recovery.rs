//! Fault-injected recovery: every way a snapshot write or file can die —
//! kill before the atomic rename, torn write truncated at every section
//! boundary, a bit flip inside every section, a stale snapshot behind an
//! edited catalog — must leave a restart that answers **byte-identically**
//! to a cold service. Corruption may cost rebuild time (reported in the
//! restore summary); it may never change an answer. And the clean-restart
//! path must re-profile *zero* unchanged target columns.

use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cxm_core::ContextMatchConfig;
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_persist::{encode, encode_with_layout, FaultFs, FaultPlan, SnapshotStore};
use cxm_relational::{Database, Table, Tuple, Value};
use cxm_service::{MatchService, ServiceConfig};

/// Two tests here compare `qgram_profile_builds` telemetry, a delta of a
/// process-global counter that any concurrently running test also bumps;
/// every test in this binary holds this lock, so they run one at a time and
/// the deltas are exact.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fixture() -> (Database, Database) {
    let ds = generate_retail(&RetailConfig {
        source_items: 40,
        target_rows: 16,
        ..RetailConfig::default()
    });
    (ds.source, ds.target)
}

fn second_source() -> Database {
    generate_retail(&RetailConfig {
        seed: 29,
        source_items: 30,
        target_rows: 16,
        ..RetailConfig::default()
    })
    .source
}

fn config() -> ServiceConfig {
    ServiceConfig {
        context: ContextMatchConfig::default().with_tau(0.4),
        ..ServiceConfig::default()
    }
}

/// The full match answer as one comparable string (`Debug` round-trips
/// `f64` bits, so equality here is bit-identity of every score).
fn answer(service: &MatchService, source: &Database) -> String {
    let outcome = service.submit(source).expect("submit");
    format!(
        "{:?}|{:?}|{:?}",
        outcome.result.selected, outcome.result.standard, outcome.result.candidates
    )
}

/// A warmed service whose snapshot the fault sweeps corrupt.
fn warmed(target: &Database, source: &Database) -> MatchService {
    let service = MatchService::with_config(config());
    service.register_target(target);
    let _ = service.submit(source).expect("warm-up submit");
    service
}

#[test]
fn kill_before_rename_at_any_progress_is_a_correct_cold_start() {
    let _serial = serial();
    let (source, target) = fixture();
    let cold = answer(&warmed(&target, &source), &source);
    let service = warmed(&target, &source);
    let len = encode(&service.export_snapshot()).len();
    let path = Path::new("warm.snap");

    for after_bytes in [0, 1, len / 3, len / 2, len - 1, len] {
        let store = FaultFs::new();
        store.set_plan(FaultPlan::KillBeforeRename { after_bytes });
        service.save_warm_state_to(&store, path).expect_err("the injected kill must surface");
        assert!(
            store.read(path).expect("read").is_none(),
            "kill after {after_bytes} bytes must never publish the destination"
        );

        let restored = MatchService::with_warm_state_from(config(), &store, path).expect("cold");
        assert_eq!(restored.restore_summary().restored_columns, 0);
        restored.register_target(&target);
        assert_eq!(answer(&restored, &source), cold, "kill after {after_bytes} bytes");
    }
}

#[test]
fn torn_write_truncated_at_every_section_boundary_degrades_never_lies() {
    let _serial = serial();
    let (source, target) = fixture();
    let cold = answer(&warmed(&target, &source), &source);
    let service = warmed(&target, &source);
    let (bytes, layout) = encode_with_layout(&service.export_snapshot());
    let path = Path::new("warm.snap");

    // Cut exactly at each section's start and mid-payload, plus the first
    // and last byte of the file.
    let mut cuts = vec![1, bytes.len() - 1];
    for entry in &layout {
        cuts.push(entry.offset as usize);
        cuts.push((entry.offset + entry.len / 2) as usize);
    }

    for keep_bytes in cuts {
        let store = FaultFs::new();
        store.set_plan(FaultPlan::TornWrite { keep_bytes });
        service.save_warm_state_to(&store, path).expect_err("the torn write must surface");
        let published = store.read(path).expect("read").expect("torn write published a prefix");
        assert_eq!(published.len(), keep_bytes.min(bytes.len()));

        let restored =
            MatchService::with_warm_state_from(config(), &store, path).expect("degraded load");
        let summary = restored.restore_summary();
        assert!(summary.degraded_sections >= 1, "cut at {keep_bytes}: {summary}");
        restored.register_target(&target);
        assert_eq!(answer(&restored, &source), cold, "cut at {keep_bytes}");
    }
}

#[test]
fn a_bit_flip_in_every_section_degrades_that_section_and_stays_byte_identical() {
    let _serial = serial();
    let (source, target) = fixture();
    let cold = answer(&warmed(&target, &source), &source);
    let service = warmed(&target, &source);
    let (_, layout) = encode_with_layout(&service.export_snapshot());
    let path = Path::new("warm.snap");

    // One flip inside each section's payload (or its tag byte when the
    // payload is empty), plus one in the trailer.
    let mut flip_offsets: Vec<(String, u64)> = layout
        .iter()
        .map(|entry| {
            let header = 1 + 2 + entry.label.len() as u64 + 8;
            let inside =
                if entry.len == 0 { entry.offset } else { entry.offset + header + entry.len / 2 };
            (format!("section {}:{}", entry.tag, entry.label), inside)
        })
        .collect();

    let store = FaultFs::new();
    service.save_warm_state_to(&store, path).expect("clean save");
    let file_len = store.read(path).expect("read").expect("saved").len() as u64;
    flip_offsets.push(("trailer".into(), file_len - 4));

    for (what, offset) in flip_offsets {
        let store = FaultFs::new();
        service.save_warm_state_to(&store, path).expect("clean save");
        assert!(store.mutate(path, |b| b[offset as usize] ^= 0x20), "mutate {what}");

        let restored =
            MatchService::with_warm_state_from(config(), &store, path).expect("degraded load");
        let summary = restored.restore_summary();
        assert!(summary.degraded_sections >= 1, "flip in {what} at {offset}: {summary}");
        restored.register_target(&target);
        assert_eq!(answer(&restored, &source), cold, "flip in {what} at {offset}");
    }
}

#[test]
fn a_stale_snapshot_behind_an_edited_catalog_rebuilds_only_the_edited_column() {
    let _serial = serial();
    let (source, target) = fixture();
    let service = warmed(&target, &source);
    let snapshot = encode(&service.export_snapshot());

    // Edit one cell of the first column of the first table: exactly one
    // column fingerprint changes.
    let tables: Vec<&Table> = target.tables().collect();
    let old = *tables.first().expect("a table");
    let rows: Vec<Tuple> = old
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            Tuple::new(
                (0..old.column_fingerprints().len())
                    .map(|c| {
                        if i == 0 && c == 0 {
                            Value::str(format!("{}~edited", row.at(c).as_text()))
                        } else {
                            row.at(c).clone()
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    let edited_table = Table::with_rows(old.schema().clone(), rows).expect("same arity");
    let edited = tables
        .iter()
        .skip(1)
        .fold(Database::new(target.name()).with_table(edited_table), |db, t| {
            db.with_table((*t).clone())
        });

    // Reference: cold service over the edited catalog.
    let cold = answer(&warmed(&edited, &source), &source);

    // Clean restart re-registering the *unchanged* catalog: the baseline
    // number of profile builds a fresh submit needs (source side only).
    let clean = MatchService::from_snapshot_bytes(config(), &snapshot);
    clean.register_target(&target);
    let clean_builds = clean.submit(&source).expect("submit").telemetry.qgram_profile_builds;

    // Stale restart: the snapshot predates the edit. Re-registering the
    // edited catalog must keep every unchanged column's warm profile and
    // rebuild exactly the edited one.
    let stale = MatchService::from_snapshot_bytes(config(), &snapshot);
    assert_eq!(stale.restore_summary().degraded_sections, 0, "the file itself is clean");
    stale.register_target(&edited);
    let outcome = stale.submit(&source).expect("submit");
    assert_eq!(
        outcome.telemetry.qgram_profile_builds,
        clean_builds + 1,
        "exactly the edited column re-profiles"
    );
    let stale_answer = format!(
        "{:?}|{:?}|{:?}",
        outcome.result.selected, outcome.result.standard, outcome.result.candidates
    );
    assert_eq!(stale_answer, cold, "stale warm state must never leak into answers");
}

#[test]
fn clean_restart_re_profiles_zero_unchanged_columns() {
    let _serial = serial();
    let (source_a, target) = fixture();
    let source_b = second_source();

    // Reference: one service, warmed on A, then submits B against the warm
    // catalog — the builds B pays are source-side only.
    let reference = warmed(&target, &source_a);
    let snapshot = encode(&reference.export_snapshot());
    let ref_outcome = reference.submit(&source_b).expect("submit");
    let ref_answer = format!(
        "{:?}|{:?}|{:?}",
        ref_outcome.result.selected, ref_outcome.result.standard, ref_outcome.result.candidates
    );

    // Restored process: same warm state, never saw B. Its first submit of B
    // must pay exactly the same builds — i.e. zero for the target side.
    let restored = MatchService::from_snapshot_bytes(config(), &snapshot);
    let summary = restored.restore_summary();
    assert_eq!(summary.degraded_sections, 0, "{summary}");
    assert_eq!(summary.rebuilt_columns, 0, "{summary}");
    assert!(summary.restored_columns > 0, "{summary}");

    let outcome = restored.submit(&source_b).expect("submit");
    assert_eq!(
        outcome.telemetry.qgram_profile_builds, ref_outcome.telemetry.qgram_profile_builds,
        "a clean restart must not re-profile any unchanged target column"
    );
    assert_eq!(
        outcome.telemetry.restricted_profile_misses,
        ref_outcome.telemetry.restricted_profile_misses,
        "the restored restricted cache serves the same hits"
    );
    let got = format!(
        "{:?}|{:?}|{:?}",
        outcome.result.selected, outcome.result.standard, outcome.result.candidates
    );
    assert_eq!(got, ref_answer);
}

mod server_restart {
    use cxm_core::ContextMatchConfig;
    use cxm_datagen::{generate_retail, RetailConfig};
    use cxm_server::client::is_ok;
    use cxm_server::{serve, Client, Json, ServerConfig, TenantPolicy, TenantQuotas};

    fn server_config(persist: &std::path::Path) -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            context: ContextMatchConfig::default().with_tau(0.4),
            persist_path: Some(persist.to_path_buf()),
            ..ServerConfig::default()
        }
    }

    /// Full server lifecycle: warm two tenants, snapshot via the `persist`
    /// op *and* the drain path, restart from the file, and require
    /// byte-identical responses with restored (not rebuilt) warm state.
    #[test]
    fn a_restarted_server_answers_byte_identically_from_its_snapshot() {
        let _serial = super::serial();
        let dir = std::env::temp_dir().join(format!("cxm-persist-test-{}", std::process::id()));
        let snap = dir.join("server.snap");
        let _ = std::fs::remove_file(&snap);

        let retail_a = generate_retail(&RetailConfig {
            source_items: 40,
            target_rows: 16,
            ..RetailConfig::default()
        });
        let retail_b = generate_retail(&RetailConfig {
            seed: 29,
            source_items: 30,
            target_rows: 14,
            ..RetailConfig::default()
        });
        let tenants = [("alpha", &retail_a), ("beta", &retail_b)];

        // First life: register, warm, persist on demand, then drain (which
        // snapshots again — the on-demand frame proves the op works, the
        // drain write is what the restart actually reads).
        let first = serve(server_config(&snap)).expect("bind first life");
        let mut expected = Vec::new();
        {
            let mut client = Client::connect(first.local_addr()).expect("connect");
            for (name, retail) in &tenants {
                let ack = client
                    .register(
                        name,
                        &retail.target,
                        &TenantPolicy::default(),
                        &TenantQuotas::default(),
                    )
                    .expect("register");
                assert!(is_ok(&ack), "{ack:?}");
            }
            for (name, retail) in &tenants {
                let reply = client.submit(name, &retail.source, None).expect("submit");
                assert!(is_ok(&reply), "{reply:?}");
                expected.push(reply.get("result").expect("result member").to_text());
            }
            let persisted = client.persist().expect("persist op");
            assert!(is_ok(&persisted), "{persisted:?}");
            assert_eq!(persisted.get("tenants").and_then(Json::as_u64), Some(2));
            let _ = client.shutdown();
        }
        first.join();
        assert!(snap.is_file(), "drain must leave a snapshot behind");

        // Second life: no registration at all — tenants, catalogs and warm
        // profiles all come from the snapshot.
        let second = serve(server_config(&snap)).expect("bind second life");
        {
            let mut client = Client::connect(second.local_addr()).expect("reconnect");
            for ((name, retail), expected) in tenants.iter().zip(&expected) {
                let reply = client.submit(name, &retail.source, None).expect("submit");
                assert!(is_ok(&reply), "{reply:?}");
                let got = reply.get("result").expect("result member").to_text();
                assert_eq!(&got, expected, "tenant {name} must answer byte-identically");
            }
            let stats = client.stats(None).expect("stats");
            let tenant_stats = stats.get("tenants").and_then(Json::as_array).expect("tenants");
            assert_eq!(tenant_stats.len(), 2);
            for t in tenant_stats {
                let restored = t.get("restored_columns").and_then(Json::as_u64).expect("member");
                let rebuilt = t.get("rebuilt_columns").and_then(Json::as_u64).expect("member");
                let degraded = t.get("degraded_sections").and_then(Json::as_u64).expect("member");
                assert!(restored > 0, "restored warm state: {t:?}");
                assert_eq!(rebuilt, 0, "{t:?}");
                assert_eq!(degraded, 0, "{t:?}");
            }
            let _ = client.shutdown();
        }
        second.join();
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_dir(&dir);
    }
}
