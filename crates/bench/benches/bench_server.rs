//! Serving-layer benchmarks: the `server_throughput` group compares a warm
//! `submit` over the loopback wire protocol against the same submission on
//! an in-process `MatchService` (the wire tax: JSON encode/decode, framing,
//! one TCP round trip), and the `connection_scaling` group measures a warm
//! wire `submit` with zero and with 1 000 idle peer connections attached
//! (the readiness-driven reactor's claim is that idle connections are free:
//! descriptors and buffers, not threads or latency). The `wire_codec` group
//! times the JSON codec alone on the two frames the benchmark's workloads
//! spend their codec time in — a warm retail `submit` reply and a wide
//! `register` — parsing their bytes and writing their prebuilt value trees,
//! each beside a `*_reference` twin running the character-at-a-time codec
//! of `cxm_tests::reference`. It also times the two ways to encode a match
//! result, on the retail reply and on the wide catalog's probe reply: the
//! server's streaming `write_result` (`write_result_*`) against building
//! and writing the `encode_result` tree (`encode_result_*`), and the two
//! ways to write the wide `register` frame from its tables: the client's
//! streaming `write_table` (`write_wide_register`) against building and
//! writing the `encode_table` tree (`tree_wide_register`).
//!
//! The `register_refresh` group times a wide re-register over the wire, a
//! loopback `Client::request` alternating the two states of the
//! `wide_refresh` catalog (60 tables × 8 columns × 40 rows, every sixth
//! table changed). `warm_memo` sends both states in one table order, so the
//! tenant's register memo meets 50 unchanged elements at their remembered
//! positions; `cold_memo` reverses the second state's order, so no element
//! ever does, while the catalog sees the same transitions. Before timing it
//! asserts that both sides' acks are equal and that every re-register
//! reuses 50 tables and decodes 10 on the warm side, and decodes all 60 on
//! the cold one.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use cxm_core::{ContextMatchConfig, ContextMatchResult, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, generate_wide_catalog, RetailConfig, WideCatalogConfig};
use cxm_server::client::is_ok;
use cxm_server::json::parse;
use cxm_server::protocol::{encode_database, encode_table, ok_frame, write_result, write_table};
use cxm_server::{
    encode_result, serve, Client, Json, ServerConfig, ServerHandle, TenantPolicy, TenantQuotas,
};
use cxm_service::{MatchService, ServiceConfig};
use cxm_tests::reference::{json_parse, json_to_bytes};

fn bench_config() -> ContextMatchConfig {
    ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4)
}

fn bench_dataset() -> cxm_datagen::RetailDataset {
    generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 600,
        ..RetailConfig::default()
    })
}

/// Start a server, register the bench tenant, and warm its result cache.
fn warm_server(workers: usize) -> (ServerHandle, Client) {
    let dataset = bench_dataset();
    let handle = serve(ServerConfig {
        workers,
        queue_capacity: 256,
        context: bench_config(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback port");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let ack = client
        .register("bench", &dataset.target, &TenantPolicy::default(), &TenantQuotas::default())
        .expect("register");
    assert!(is_ok(&ack), "{ack:?}");
    let reply = client.submit("bench", &dataset.source, None).expect("warm-up");
    assert!(is_ok(&reply), "{reply:?}");
    (handle, client)
}

fn assert_warm_hit(reply: &Json) {
    assert!(is_ok(reply), "{reply:?}");
    assert_eq!(reply.get("result_cache_hit"), Some(&Json::Bool(true)), "warm phase must hit");
}

/// Open `count` extra connections, each proving liveness with one `stats`
/// round trip before going idle.
fn idle_fleet(handle: &ServerHandle, count: usize) -> Vec<Client> {
    (0..count)
        .map(|i| {
            let mut client =
                Client::connect(handle.local_addr()).unwrap_or_else(|e| panic!("connect {i}: {e}"));
            let reply = client.stats(None).unwrap_or_else(|e| panic!("stats {i}: {e}"));
            assert!(is_ok(&reply), "idle connection {i}: {reply:?}");
            client
        })
        .collect()
}

fn bench_server_throughput(c: &mut Criterion) {
    let dataset = bench_dataset();
    let mut group = c.benchmark_group("server_throughput");

    let (handle, mut client) = warm_server(2);
    group.bench_function("wire_warm_submit", |b| {
        b.iter(|| {
            let reply = client.submit("bench", &dataset.source, None).expect("submit");
            assert_warm_hit(&reply);
            reply
        })
    });
    client.shutdown().expect("shutdown");
    handle.join();

    let service = MatchService::with_config(ServiceConfig {
        context: bench_config(),
        ..ServiceConfig::default()
    });
    service.register_target(&dataset.target);
    service.submit(&dataset.source).expect("warm-up");
    group.bench_function("in_process_warm_submit", |b| {
        b.iter(|| {
            let response = service.submit(&dataset.source).expect("submit");
            assert!(response.telemetry.result_cache_hit);
            response
        })
    });
    group.finish();
}

fn bench_connection_scaling(c: &mut Criterion) {
    let dataset = bench_dataset();
    let mut group = c.benchmark_group("connection_scaling");
    for idle in [0usize, 1_000] {
        let (handle, mut client) = warm_server(2);
        let fleet = idle_fleet(&handle, idle);
        group.bench_function(format!("wire_warm_submit_{idle}_idle_conns"), |b| {
            b.iter(|| {
                let reply = client.submit("bench", &dataset.source, None).expect("submit");
                assert_warm_hit(&reply);
                reply
            })
        });
        drop(fleet);
        client.shutdown().expect("shutdown");
        handle.join();
    }
    group.finish();
}

/// The benchmark's wide catalog: 60 tables × 8 columns × 40 rows in 15
/// value families, plus its probe source.
fn wide_dataset() -> cxm_datagen::WideCatalogDataset {
    generate_wide_catalog(&WideCatalogConfig {
        tables: 60,
        columns_per_table: 8,
        rows_per_table: 40,
        families: 15,
        ..WideCatalogConfig::default()
    })
}

/// The match result of `source` against a fresh service over `target`.
fn match_result(
    target: &cxm_relational::Database,
    source: &cxm_relational::Database,
) -> Arc<ContextMatchResult> {
    let service = MatchService::with_config(ServiceConfig {
        context: bench_config(),
        ..ServiceConfig::default()
    });
    service.register_target(target);
    service.submit(source).expect("submit").result
}

/// The `wire_codec` frames at the benchmark's sizes: the retail reply
/// (100 source items, 600 target rows) and the register of the wide
/// catalog.
fn codec_frames(retail: &ContextMatchResult) -> [(&'static str, Json); 2] {
    let reply = ok_frame(
        "submit",
        vec![
            ("tenant".into(), Json::str("bench")),
            ("catalog_version".into(), Json::Int(1)),
            ("result_cache_hit".into(), Json::Bool(true)),
            ("result".into(), encode_result(retail, &TenantPolicy::default())),
        ],
    );
    let tables = encode_database(&wide_dataset().target).get("tables").cloned().expect("tables");
    let register = Json::Object(vec![
        ("op".into(), Json::str("register")),
        ("tenant".into(), Json::str("bench")),
        ("tables".into(), tables),
    ]);
    [("retail_reply", reply), ("wide_register", register)]
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let retail = bench_dataset();
    let retail = match_result(&retail.target, &retail.source);
    for (name, frame) in codec_frames(&retail) {
        let bytes = frame.to_bytes();
        assert_eq!(bytes, json_to_bytes(&frame), "{name}: writer bytes differ from the reference");
        let parsed = parse(&bytes).expect("an encoded frame parses");
        assert_eq!(Some(&parsed), json_parse(&bytes).ok().as_ref(), "{name}: parse differs");
        group.bench_function(format!("parse_{name}"), |b| b.iter(|| parse(&bytes)));
        group.bench_function(format!("parse_{name}_reference"), |b| b.iter(|| json_parse(&bytes)));
        group.bench_function(format!("encode_{name}"), |b| b.iter(|| frame.to_bytes()));
        group.bench_function(format!("encode_{name}_reference"), |b| {
            b.iter(|| json_to_bytes(&frame))
        });
    }
    // The client's register frame of the wide catalog, streamed from its
    // tables, against building its value tree and writing that (the
    // client's path before it streamed; the tree's drop is timed too).
    let wide = wide_dataset();
    let write_register = || {
        let mut out = br#"{"op":"register","tenant":"bench","tables":["#.to_vec();
        for (i, table) in wide.target.tables().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_table(&mut out, table);
        }
        out.extend_from_slice(b"]}");
        out
    };
    let tree_register = || {
        Json::Object(vec![
            ("op".into(), Json::str("register")),
            ("tenant".into(), Json::str("bench")),
            ("tables".into(), Json::Array(wide.target.tables().map(encode_table).collect())),
        ])
        .to_bytes()
    };
    assert_eq!(write_register(), tree_register(), "streamed register differs from the tree's");
    group.bench_function("write_wide_register", |b| b.iter(write_register));
    group.bench_function("tree_wide_register", |b| b.iter(tree_register));
    let wide = match_result(&wide.target, &wide.source);
    let policy = TenantPolicy::default();
    for (name, result) in [("retail_reply", &retail), ("wide_reply", &wide)] {
        let write = || {
            let mut out = Vec::new();
            write_result(&mut out, result, &policy);
            out
        };
        assert_eq!(
            write(),
            encode_result(result, &policy).to_bytes(),
            "{name}: streamed bytes differ from the tree's"
        );
        group.bench_function(format!("write_result_{name}"), |b| b.iter(write));
        group.bench_function(format!("encode_result_{name}"), |b| {
            b.iter(|| encode_result(result, &policy).to_bytes())
        });
    }
    group.finish();
}

/// The two states of the `wide_refresh` catalog: the wide catalog, and a
/// copy in which every sixth table holds the rows of the table 15 places
/// on, of the same value family.
fn refresh_states() -> [cxm_relational::Database; 2] {
    let wide = wide_dataset().target;
    let mut second = wide.clone();
    for i in (0..60).step_by(6) {
        let table = wide.table(&format!("wide_{i}")).expect("generated table");
        let donor = wide.table(&format!("wide_{}", (i + 15) % 60)).expect("generated table");
        let rows = donor.rows().to_vec();
        second.replace_table(
            cxm_relational::Table::with_rows(table.schema().clone(), rows)
                .expect("same-shaped wide tables"),
        );
    }
    [wide, second]
}

/// The `register` request `Client::register` sends for `target` under the
/// default policy, its tables in name order or reversed.
fn register_request(target: &cxm_relational::Database, reversed: bool) -> Json {
    let mut tables: Vec<Json> = target.tables().map(encode_table).collect();
    if reversed {
        tables.reverse();
    }
    Json::Object(vec![
        ("op".into(), Json::str("register")),
        ("tenant".into(), Json::str("bench")),
        ("tables".into(), Json::Array(tables)),
    ])
}

/// The bench tenant's lifetime `(register_tables_reused,
/// register_tables_decoded)`.
fn register_counts(client: &mut Client) -> (u64, u64) {
    let stats = client.stats(Some("bench")).expect("stats");
    let tenant = &stats.get("tenants").and_then(Json::as_array).expect("tenant stats")[0];
    let count = |key| tenant.get(key).and_then(Json::as_u64).expect("a count member");
    (count("register_tables_reused"), count("register_tables_decoded"))
}

fn bench_register_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("register_refresh");
    group.sample_size(30);
    let states = refresh_states();
    let mut sides = Vec::new();
    for (name, reversed, per_refresh) in
        [("warm_memo", false, (50, 10)), ("cold_memo", true, (0, 60))]
    {
        let frames = [register_request(&states[0], false), register_request(&states[1], reversed)];
        let handle = serve(ServerConfig { context: bench_config(), ..ServerConfig::default() })
            .expect("bind a loopback port");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let mut acks = Vec::new();
        let mut before = (0, 0);
        for i in 0..5 {
            let ack = client.request(&frames[i % 2]).expect("register");
            assert!(is_ok(&ack), "{ack:?}");
            let after = register_counts(&mut client);
            let expected = if i == 0 { (0, 60) } else { per_refresh };
            assert_eq!((after.0 - before.0, after.1 - before.1), expected, "{name}: register {i}");
            if i > 0 {
                assert_eq!(ack.get("columns_rebuilt"), Some(&Json::Int(80)), "{name}: {ack:?}");
            }
            before = after;
            acks.push(ack);
        }
        sides.push((name, frames, handle, client, acks));
    }
    assert_eq!(sides[0].4, sides[1].4, "warm and cold registers must be acknowledged alike");
    for (name, frames, handle, mut client, acks) in sides {
        let mut sent = acks.len();
        group.bench_function(name, |b| {
            b.iter(|| {
                let ack = client.request(&frames[sent % 2]).expect("register");
                sent += 1;
                ack
            })
        });
        client.shutdown().expect("shutdown");
        handle.join();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_server_throughput,
    bench_connection_scaling,
    bench_wire_codec,
    bench_register_refresh
);
criterion_main!(benches);
