//! Warm-state persistence benchmarks: the `persist_io` group measures
//! snapshot save and load+restore on a midsize catalog, and compares a cold
//! service start (construct + register + first submit) against a
//! snapshot-restored start (load + validate + first submit).

use criterion::{criterion_group, criterion_main, Criterion};

use cxm_core::{ContextMatchConfig, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_service::{MatchService, ServiceConfig};

fn bench_service_config() -> ServiceConfig {
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);
    ServiceConfig { context, ..ServiceConfig::default() }
}

fn bench_persist_io(c: &mut Criterion) {
    let ds = generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 300,
        ..RetailConfig::default()
    });
    let service = MatchService::with_config(bench_service_config());
    service.register_target(&ds.target);
    service.submit(&ds.source).expect("warm-up");
    let path = std::env::temp_dir().join(format!("cxm-bench-{}-io.snap", std::process::id()));
    let mut group = c.benchmark_group("persist_io");

    group.bench_function("snapshot_save", |b| {
        b.iter(|| service.save_warm_state(&path).expect("save"))
    });
    service.save_warm_state(&path).expect("save");
    group.bench_function("snapshot_load_restore", |b| {
        b.iter(|| {
            let restored =
                MatchService::with_warm_state(bench_service_config(), &path).expect("load");
            assert!(restored.restore_summary().restored_columns > 0);
            restored
        })
    });

    group.bench_function("cold_start_first_submit", |b| {
        b.iter(|| {
            let service = MatchService::with_config(bench_service_config());
            service.register_target(&ds.target);
            service.submit(&ds.source).expect("cold submit")
        })
    });
    group.bench_function("restored_start_first_submit", |b| {
        b.iter(|| {
            let restored =
                MatchService::with_warm_state(bench_service_config(), &path).expect("load");
            let summary = restored.restore_summary();
            assert_eq!(summary.degraded_sections, 0, "{summary}");
            assert_eq!(summary.rebuilt_columns, 0, "{summary}");
            restored.submit(&ds.source).expect("restored submit")
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_persist_io);
criterion_main!(benches);
