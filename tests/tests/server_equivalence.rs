//! The concurrent server must be **byte-identical** to a serial in-process
//! `MatchService`: N client threads × M tenants hammering the wire protocol
//! get exactly the bytes a single-threaded reference produces through the
//! same canonical encoder. This is the serving layer's determinism
//! contract — admission order, worker interleaving, and the shared gram
//! interner must all be invisible in the results. The raw-frame test
//! compares whole reply payloads as they come off the socket, so the
//! server's streamed replies and its memoized hit bytes are pinned to the
//! value-tree encoding, frame for frame.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::thread;

use cxm_core::{ContextMatchConfig, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_relational::{Database, Table};
use cxm_server::client::is_ok;
use cxm_server::json::parse;
use cxm_server::protocol::{encode_database, ok_frame};
use cxm_server::{
    read_frame, serve, write_frame, Client, Json, ServerConfig, TenantPolicy, TenantQuotas,
    DEFAULT_MAX_FRAME_BYTES,
};
use cxm_service::{MatchResponse, MatchService, ServiceConfig};

const CLIENT_THREADS: usize = 6;

#[test]
fn concurrent_submissions_are_byte_identical_to_a_serial_service() {
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let retail_a = generate_retail(&RetailConfig {
        source_items: 60,
        target_rows: 25,
        ..RetailConfig::default()
    });
    let retail_b = generate_retail(&RetailConfig {
        seed: 29,
        source_items: 45,
        target_rows: 25,
        ..RetailConfig::default()
    });
    let sources = [&retail_a.source, &retail_b.source];
    // Two tenants over different catalogs; beta additionally projects its
    // responses through a post-match policy, which must not perturb bytes
    // anywhere else.
    let tenants = [
        ("alpha", &retail_a.target, TenantPolicy::default()),
        ("beta", &retail_b.target, TenantPolicy { score_threshold: Some(0.05), top_k: Some(3) }),
    ];

    // Serial in-process references, rendered through the same canonical
    // encoder the server uses.
    let mut expected: BTreeMap<(&str, usize), String> = BTreeMap::new();
    for (tenant, target, policy) in &tenants {
        let service =
            MatchService::with_config(ServiceConfig { context, ..ServiceConfig::default() });
        service.register_target(target);
        for (s, source) in sources.iter().enumerate() {
            let response = service.submit(source).expect("reference submit");
            expected.insert(
                (*tenant, s),
                cxm_server::encode_result(&response.result, policy).to_text(),
            );
        }
    }

    let handle =
        serve(ServerConfig { workers: 4, queue_capacity: 64, context, ..ServerConfig::default() })
            .expect("bind");
    let addr = handle.local_addr();

    // Register both tenants and warm each (tenant, source) pair once, so the
    // concurrent phase below exercises the warm result-cache path under
    // contention — where nondeterminism would hide if there were any.
    let mut setup = Client::connect(addr).expect("connect");
    for (tenant, target, policy) in &tenants {
        let ack =
            setup.register(tenant, target, policy, &TenantQuotas::default()).expect("register");
        assert!(is_ok(&ack), "{ack:?}");
    }
    for (tenant, _, _) in &tenants {
        for (s, source) in sources.iter().enumerate() {
            let reply = setup.submit(tenant, source, None).expect("warm-up submit");
            assert!(is_ok(&reply), "{reply:?}");
            let bytes = reply.get("result").expect("result member").to_text();
            assert_eq!(&bytes, &expected[&(*tenant, s)], "warm-up {tenant}/{s}");
        }
    }

    let workers: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let expected = expected.clone();
            let sources: Vec<_> = sources.iter().map(|s| (*s).clone()).collect();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Every thread hits every (tenant, source) pair, rotated so
                // threads collide on different pairs at different times.
                for round in 0..4 {
                    let s = (t + round) % sources.len();
                    for tenant in ["alpha", "beta"] {
                        let reply = client.submit(tenant, &sources[s], None).expect("submit");
                        assert!(is_ok(&reply), "{reply:?}");
                        assert_eq!(
                            reply.get("result_cache_hit"),
                            Some(&Json::Bool(true)),
                            "post-warm-up submissions are result-cache hits"
                        );
                        let bytes = reply.get("result").expect("result member").to_text();
                        assert_eq!(&bytes, &expected[&(tenant, s)], "thread {t} {tenant}/{s}");
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // Every submission was admitted and completed; the warm phase was
    // entirely result-cache hits.
    let total = 2 * sources.len() + CLIENT_THREADS * 4 * 2;
    let stats = handle.stats();
    assert_eq!(stats.submits, total, "{stats}");
    assert_eq!(stats.completed, total, "{stats}");
    assert_eq!(stats.admission_rejects, 0, "{stats}");
    assert_eq!(stats.deadline_expiries, 0, "{stats}");
    assert_eq!(stats.tenants, 2, "{stats}");
    for tenant in handle.tenant_stats() {
        assert_eq!(tenant.submits, total / 2, "{tenant}");
        assert_eq!(tenant.result_cache_hits, CLIENT_THREADS * 4, "{tenant}");
        assert_eq!(tenant.warm.result_len, sources.len(), "{tenant}");
    }

    // The stats op reports the same numbers over the wire.
    let stats_frame = setup.stats(Some("alpha")).expect("stats");
    assert!(is_ok(&stats_frame), "{stats_frame:?}");
    let tenants_member = stats_frame.get("tenants").and_then(Json::as_array).expect("tenants");
    assert_eq!(tenants_member.len(), 1);
    assert_eq!(tenants_member[0].get("submits").and_then(Json::as_i64), Some((total / 2) as i64));

    let ack = setup.shutdown().expect("shutdown");
    assert!(is_ok(&ack), "{ack:?}");
    handle.join();
}

/// Sends `submit` frames and returns each reply payload exactly as it came
/// off the socket, never parsed and re-serialized.
struct RawSubmits {
    stream: TcpStream,
    tenant: &'static str,
}

impl RawSubmits {
    fn submit(&mut self, source: &Database) -> Vec<u8> {
        let request = Json::Object(vec![
            ("op".into(), Json::str("submit")),
            ("tenant".into(), Json::str(self.tenant)),
            ("source".into(), encode_database(source)),
        ]);
        write_frame(&mut self.stream, &request.to_bytes()).expect("write a frame");
        read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES).expect("read").expect("a reply")
    }
}

/// The reply payload a serial reference response stands for.
fn reply_payload(tenant: &str, response: &MatchResponse, policy: &TenantPolicy) -> Vec<u8> {
    ok_frame(
        "submit",
        vec![
            ("tenant".into(), Json::str(tenant)),
            ("catalog_version".into(), Json::Int(response.telemetry.catalog_version as i64)),
            ("result_cache_hit".into(), Json::Bool(response.telemetry.result_cache_hit)),
            ("result".into(), cxm_server::encode_result(&response.result, policy)),
        ],
    )
    .to_bytes()
}

fn selected(payload: &[u8]) -> Json {
    let reply = parse(payload).expect("a reply parses");
    reply.get("result").and_then(|r| r.get("selected")).cloned().expect("selected")
}

#[test]
fn raw_submit_frames_equal_a_serial_service_across_hits_policy_swaps_and_replaces() {
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let retail = generate_retail(&RetailConfig {
        source_items: 40,
        target_rows: 20,
        ..RetailConfig::default()
    });
    let (target, source) = (&retail.target, &retail.source);
    // Tenant names that need escaping in every reply they appear in.
    const TENANT: &str = "q\"uoted\\ ténant\t中 😀";
    const UNCACHED: &str = "zéro \"quota\"";
    let open = TenantPolicy::default();
    let top2 = TenantPolicy { score_threshold: Some(0.05), top_k: Some(2) };

    let handle =
        serve(ServerConfig { workers: 2, context, ..ServerConfig::default() }).expect("bind");
    let mut control = Client::connect(handle.local_addr()).expect("connect");
    let raw = |tenant| RawSubmits {
        stream: TcpStream::connect(handle.local_addr()).expect("connect"),
        tenant,
    };
    let reference =
        MatchService::with_config(ServiceConfig { context, ..ServiceConfig::default() });
    // Submit on both sides; the wire payload must be the reference's reply.
    let exchange = |wire: &mut RawSubmits, service: &MatchService, policy, hit| {
        let response = service.submit(source).expect("reference submit");
        assert_eq!(response.telemetry.result_cache_hit, hit, "reference cache state");
        let payload = wire.submit(source);
        assert!(
            payload == reply_payload(wire.tenant, &response, policy),
            "{}: {}",
            wire.tenant,
            String::from_utf8_lossy(&payload[..payload.len().min(300)])
        );
        payload
    };

    let mut wire = raw(TENANT);
    let ack = control.register(TENANT, target, &open, &TenantQuotas::default()).expect("register");
    assert!(is_ok(&ack), "{ack:?}");
    reference.register_target(target);
    // A miss, the hit that fills the memo, and a hit served from it.
    exchange(&mut wire, &reference, &open, false);
    let open_hit = exchange(&mut wire, &reference, &open, true);
    assert_eq!(exchange(&mut wire, &reference, &open, true), open_hit);

    // A policy swap (a re-register, which also starts catalog version 2):
    // the first reply after it is a miss, and the next hit projects
    // `selected` through the new policy, not the memoized bytes of the old.
    let ack = control.register(TENANT, target, &top2, &TenantQuotas::default()).expect("register");
    assert_eq!(ack.get("version"), Some(&Json::Int(2)), "{ack:?}");
    reference.register_target(target);
    exchange(&mut wire, &reference, &top2, false);
    let top2_hit = exchange(&mut wire, &reference, &top2, true);
    exchange(&mut wire, &reference, &top2, true);
    assert_ne!(selected(&top2_hit), selected(&open_hit));
    assert!(selected(&top2_hit).as_array().expect("array").len() <= 2);

    // A replace starts version 3, whose first reply is freshly matched.
    let table = target.tables().next().expect("a target table");
    let edited =
        Table::with_rows(table.schema().clone(), table.rows()[1..].to_vec()).expect("same schema");
    let ack = control.replace_table(TENANT, &edited).expect("replace");
    assert_eq!(ack.get("version"), Some(&Json::Int(3)), "{ack:?}");
    reference.replace_table(edited).expect("reference replace");
    let fresh = exchange(&mut wire, &reference, &top2, false);
    assert_eq!(parse(&fresh).expect("parses").get("catalog_version"), Some(&Json::Int(3)));
    exchange(&mut wire, &reference, &top2, true);
    exchange(&mut wire, &reference, &top2, true);

    // With `match_result_entries: 0` there is no result cache and no memo:
    // every reply is a correct miss.
    let zero = TenantQuotas { match_result_entries: Some(0), ..TenantQuotas::default() };
    let ack = control.register(UNCACHED, target, &open, &zero).expect("register");
    assert!(is_ok(&ack), "{ack:?}");
    let uncached = MatchService::with_config(ServiceConfig {
        context,
        match_result_entries: 0,
        ..ServiceConfig::default()
    });
    uncached.register_target(target);
    let mut wire = raw(UNCACHED);
    for _ in 0..3 {
        exchange(&mut wire, &uncached, &open, false);
    }

    let ack = control.shutdown().expect("shutdown");
    assert!(is_ok(&ack), "{ack:?}");
    handle.join();
}
