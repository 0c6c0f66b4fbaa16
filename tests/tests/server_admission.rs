//! Serving-discipline contracts: a full 1-slot admission queue rejects with
//! an explicit `overloaded` frame (every client always gets exactly one
//! reply — never a hang, never a dropped connection), an expired deadline is
//! answered `deadline_exceeded` after **zero** classifier work, and a
//! graceful drain acknowledges, refuses new work, and lets `join()` return.
//!
//! This file intentionally holds a **single test**: the deadline section
//! differences the process-wide `cxm_classify::telemetry` work-unit counter,
//! so nothing else in this binary may drive the matchers concurrently.

use std::sync::{Arc, Barrier};
use std::thread;

use cxm_datagen::{generate_retail, RetailConfig};
use cxm_relational::{tuple, Attribute, Database, Table, TableSchema};
use cxm_server::client::{error_code, is_ok};
use cxm_server::protocol::encode_table;
use cxm_server::{serve, Client, Json, QuotaCeilings, ServerConfig, TenantPolicy, TenantQuotas};

#[test]
fn admission_deadline_and_drain_contracts() {
    overload_rejects_explicitly();
    deadline_expiry_does_zero_classifier_work();
    graceful_drain_refuses_new_work();
}

fn small_target() -> Database {
    Database::new("RT").with_table(
        Table::with_rows(
            TableSchema::new("book", vec![Attribute::text("title"), Attribute::text("binding")]),
            vec![tuple!["war and peace", "clothbound"], tuple!["middlemarch", "paperback"]],
        )
        .unwrap(),
    )
}

fn small_source(tag: usize) -> Database {
    Database::new("RS").with_table(
        Table::with_rows(
            TableSchema::new("inv", vec![Attribute::text("name"), Attribute::text("descr")]),
            vec![
                tuple![format!("leaves of grass {tag}"), format!("first edition {tag}")],
                tuple![format!("moby dick {tag}"), format!("paperback {tag}")],
            ],
        )
        .unwrap(),
    )
}

/// Overload a `workers = 1, queue_capacity = 1` server with barrier-released
/// concurrent cold submissions. At most two requests can be in the system
/// (one running, one queued); the rest must be rejected *explicitly* — an
/// `overloaded` error frame with a `retry_after_ms` hint — and every client
/// must receive exactly one reply per request.
fn overload_rejects_explicitly() {
    const CLIENTS: usize = 8;
    let retail = generate_retail(&RetailConfig {
        source_items: 120,
        target_rows: 40,
        ..RetailConfig::default()
    });
    let handle = serve(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 7,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();
    let mut setup = Client::connect(addr).expect("connect");
    let ack = setup
        .register("t", &retail.target, &TenantPolicy::default(), &TenantQuotas::default())
        .expect("register");
    assert!(is_ok(&ack), "{ack:?}");

    // Overload is probabilistic per round (threads may serialize), so retry
    // with fresh cold sources until a reject is observed; the *contract*
    // assertions — one reply per request, only ok/overloaded outcomes, a
    // retry hint on every reject — hold in every round.
    let mut total_rejects = 0;
    for round in 0..5 {
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let replies: Vec<Json> = (0..CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let source = generate_retail(&RetailConfig {
                    seed: 1000 + (round * CLIENTS + c) as u64,
                    source_items: 90,
                    target_rows: 40,
                    ..RetailConfig::default()
                })
                .source;
                thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client.submit("t", &source, None).expect("every request gets a reply")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();
        assert_eq!(replies.len(), CLIENTS, "exactly one reply per request");
        for reply in &replies {
            if is_ok(reply) {
                continue;
            }
            assert_eq!(error_code(reply), Some("overloaded"), "{reply:?}");
            // The hint scales with observed queue depth × service time but
            // is floored at the configured value — so it is present on
            // every reject and never below the floor.
            match reply.get("error").and_then(|e| e.get("retry_after_ms")) {
                Some(&Json::Int(hint)) => {
                    assert!(hint >= 7, "hint {hint} below the configured floor: {reply:?}")
                }
                other => panic!("rejects carry the retry hint, got {other:?}: {reply:?}"),
            }
            total_rejects += 1;
        }
        if total_rejects > 0 {
            break;
        }
    }
    assert!(total_rejects > 0, "a 1-slot queue under 8 simultaneous cold submits must shed load");
    let stats = handle.stats();
    assert_eq!(stats.admission_rejects, total_rejects, "{stats}");
    assert_eq!(stats.queue_depth, 0, "all replies received means the queue drained: {stats}");
    handle.shutdown();
    handle.join();
}

/// A zero-millisecond deadline budget is expired at dequeue: the reply is
/// `deadline_exceeded` and the classifier runs **zero** work units — the
/// request never reaches decoding or matching.
fn deadline_expiry_does_zero_classifier_work() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let ack = client
        .register("t", &small_target(), &TenantPolicy::default(), &TenantQuotas::default())
        .expect("register");
    assert!(is_ok(&ack), "{ack:?}");

    let work_before = cxm_classify::telemetry::work_units();
    let reply = client.submit("t", &small_source(1), Some(0)).expect("reply");
    assert_eq!(error_code(&reply), Some("deadline_exceeded"), "{reply:?}");
    assert_eq!(
        cxm_classify::telemetry::work_units(),
        work_before,
        "an expired deadline does zero classifier work"
    );

    // The same submission without a deadline succeeds — the expiry above was
    // the budget's doing, not a broken request.
    let reply = client.submit("t", &small_source(1), None).expect("reply");
    assert!(is_ok(&reply), "{reply:?}");
    assert!(
        cxm_classify::telemetry::work_units() > work_before,
        "the control submission really does classifier work"
    );

    let stats = handle.stats();
    assert_eq!(stats.deadline_expiries, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    let tenant = &handle.tenant_stats()[0];
    assert_eq!(tenant.deadline_expiries, 1, "{tenant}");
    handle.shutdown();
    handle.join();
}

/// A `shutdown` frame is acknowledged, already-open connections get explicit
/// `shutting_down` refusals for new work, and `join()` returns — the drain
/// neither hangs nor silently drops clients. Also pins the remaining error
/// codes (`unknown_tenant`, `unknown_table`, `bad_request`, including a
/// `register` that lists one table twice and creates no tenant) and that
/// quota requests above the server ceilings are clamped, not honored.
fn graceful_drain_refuses_new_work() {
    let handle = serve(ServerConfig {
        quota_ceilings: QuotaCeilings { match_result_entries: 2, ..QuotaCeilings::default() },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();
    let mut alice = Client::connect(addr).expect("connect");
    let mut bob = Client::connect(addr).expect("connect");

    let reply = alice.submit("ghost", &small_source(2), None).expect("reply");
    assert_eq!(error_code(&reply), Some("unknown_tenant"), "{reply:?}");
    let ack = alice
        .register(
            "t",
            &small_target(),
            &TenantPolicy::default(),
            &TenantQuotas { match_result_entries: Some(9999), ..TenantQuotas::default() },
        )
        .expect("register");
    assert!(is_ok(&ack), "{ack:?}");
    let reply = alice.drop_table("t", "no_such_table").expect("reply");
    assert_eq!(error_code(&reply), Some("unknown_table"), "{reply:?}");
    let reply =
        alice.request(&Json::Object(vec![("op".into(), Json::str("warp"))])).expect("reply");
    assert_eq!(error_code(&reply), Some("bad_request"), "{reply:?}");
    let book = encode_table(small_target().table("book").expect("book"));
    let reply = alice
        .request(&Json::Object(vec![
            ("op".into(), Json::str("register")),
            ("tenant".into(), Json::str("twice")),
            ("tables".into(), Json::Array(vec![book.clone(), book])),
        ]))
        .expect("reply");
    assert_eq!(error_code(&reply), Some("bad_request"), "{reply:?}");
    let message = reply.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
    assert_eq!(message, Some("duplicate target table `book`"));
    let reply = alice.stats(Some("twice")).expect("reply");
    assert_eq!(error_code(&reply), Some("unknown_tenant"), "no tenant was created: {reply:?}");
    let reply = bob.submit("t", &small_source(3), None).expect("reply");
    assert!(is_ok(&reply), "{reply:?}");
    assert_eq!(
        handle.tenant_stats()[0].warm.result_capacity,
        2,
        "quota requests above the ceiling are clamped"
    );

    let ack = alice.shutdown().expect("shutdown is acknowledged");
    assert!(is_ok(&ack), "{ack:?}");
    assert_eq!(ack.get("draining"), Some(&Json::Bool(true)));

    // Bob's connection predates the drain; his new work is refused with an
    // explicit frame, not a hang or a reset.
    let reply = bob.submit("t", &small_source(4), None).expect("reply");
    assert_eq!(error_code(&reply), Some("shutting_down"), "{reply:?}");
    let reply = bob
        .register("u", &small_target(), &TenantPolicy::default(), &TenantQuotas::default())
        .expect("reply");
    assert_eq!(error_code(&reply), Some("shutting_down"), "{reply:?}");

    assert!(handle.stats().draining);
    handle.join();
}
