//! Bench for Figures 16–17 (schema-size scaling): matching cost with padding
//! attributes added to every table, per inference strategy — the runtime
//! figure's claim is that TgtClassInfer scales worst with schema width.
//!
//! Also hosts the `zero_copy_scoring` group comparing the selection-vector
//! `ScoreMatch` hot path against the materializing reference
//! `cxm_tests::reference::score_candidates_materializing`, the
//! `interned_kernels` group comparing the interned flat-profile scoring
//! kernels against the string-keyed `BTreeMap`/`BTreeSet` reference kernels
//! of `cxm_tests::reference` on the same `ScoreMatch` unit of work, the
//! `sharded_standard_match` group comparing the sharded `StandardMatch`
//! pipeline (hoisted target batch, work-stealing source-table shards) against
//! the serial per-table loop as the number of source tables grows, and the
//! `service_warm_vs_cold` group measuring the match service's warm-artifact
//! reuse (cold register+match vs warm repeat — with and without the
//! cross-request restricted-profile cache — vs partial rebuild after a
//! single-table replace).
//!
//! The `wide_catalog` group compares brute-force `match_columns` against the
//! inverted-gram-index-pruned `match_columns_indexed` (plus the index's own
//! build cost) on the catalog-scale `wide_catalog` datagen scenario.
//!
//! The final `pr4_report` / `pr5_report` / `pr6_report` "benchmarks"
//! re-measure the PR 4–6 comparisons with plain wall clocks and write
//! machine-readable summaries to `BENCH_PR4.json` / `BENCH_PR5.json` /
//! `BENCH_PR6.json` at the repository root (they run in `--test` smoke mode
//! too, so CI can archive the files as artifacts). PR 5's report covers the
//! column-granular warm keys and the whole-match result cache: single-column
//! replace vs full-table replace vs full re-register vs warm repeat vs
//! result-cache hit. PR 6's covers the inverted gram index: brute-force vs
//! index-pruned matching at catalog scale with pruning statistics, and the
//! service-level cold/warm/replace-one-column crossover with incremental
//! posting-list reuse.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cxm_core::{
    candidate_views::{flatten_views, infer_candidate_views},
    score_candidates, ContextMatchConfig, ContextualMatcher, ViewInferenceStrategy,
};
use cxm_datagen::{
    generate_multi_table_retail, generate_retail, generate_wide_catalog, RetailConfig,
    WideCatalogConfig, WideCatalogDataset,
};
use cxm_matching::index::telemetry as index_telemetry;
use cxm_matching::{ColumnData, GramIndex, GramInterner, KernelCounters, StandardMatcher};
use cxm_relational::{DataType, Database, Table, Tuple, Value};
use cxm_service::{MatchService, ServiceConfig};
use cxm_tests::reference;

/// A copy of `table` with every value of one column textually perturbed —
/// the "small, continuous drift" unit the column-granular warm keys target.
fn with_column_edited(table: &Table, column: &str) -> Table {
    let index = table.schema().index_of(column).expect("column exists");
    let rows = table
        .rows()
        .iter()
        .map(|row| {
            Tuple::new(
                (0..table.schema().arity())
                    .map(|i| {
                        if i == index {
                            Value::str(format!("{}~", row.at(i).as_text()))
                        } else {
                            row.at(i).clone()
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    Table::with_rows(table.schema().clone(), rows).expect("schema unchanged")
}

/// The name of some text column of `table` (the edit target).
fn some_text_column(table: &Table) -> String {
    table
        .schema()
        .attributes()
        .iter()
        .find(|a| a.data_type == DataType::Text)
        .map(|a| a.name.clone())
        .expect("retail tables have text columns")
}

/// A copy of `table` with EVERY column perturbed (all columns re-key).
fn with_all_columns_edited(table: &Table) -> Table {
    let rows = table
        .rows()
        .iter()
        .map(|row| {
            Tuple::new(
                (0..table.schema().arity())
                    .map(|i| Value::str(format!("{}~", row.at(i).as_text())))
                    .collect(),
            )
        })
        .collect();
    // All-text variant of the schema so the perturbed values stay valid.
    let schema = cxm_relational::TableSchema::new(
        table.name(),
        table
            .schema()
            .attributes()
            .iter()
            .map(|a| cxm_relational::Attribute::text(&a.name))
            .collect::<Vec<_>>(),
    );
    Table::with_rows(schema, rows).expect("arity unchanged")
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_17_scaling");
    group.sample_size(10);
    for extra in [0usize, 16] {
        let dataset = generate_retail(&RetailConfig {
            source_items: 200,
            target_rows: 50,
            extra_attrs: extra,
            ..RetailConfig::default()
        });
        for strategy in [ViewInferenceStrategy::SrcClass, ViewInferenceStrategy::TgtClass] {
            let config = ContextMatchConfig::default().with_inference(strategy);
            group.bench_with_input(BenchmarkId::new(strategy.name(), extra), &extra, |b, _| {
                b.iter(|| {
                    ContextualMatcher::new(config)
                        .run(&dataset.source, &dataset.target)
                        .expect("well-formed dataset")
                })
            });
        }
    }
    group.finish();
}

/// Zero-copy selection scoring vs the materializing baseline, on the
/// `ScoreMatch` unit of work (one source table, all candidate views, all
/// prototype matches).
fn bench_zero_copy_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_copy_scoring");
    group.sample_size(10);
    for items in [200usize, 400] {
        let dataset = generate_retail(&RetailConfig {
            source_items: items,
            target_rows: 50,
            ..RetailConfig::default()
        });
        let config = ContextMatchConfig::default()
            .with_inference(ViewInferenceStrategy::SrcClass)
            .with_tau(0.4);
        let matcher = StandardMatcher::new(config.matching);
        // Fixed scoring inputs: the benchmark isolates ScoreMatch itself.
        let table = dataset.source.tables().next().expect("retail source has a table");
        let outcome = matcher.match_table(table, &dataset.target);
        let prototype = outcome.accepted.clone();
        let families = infer_candidate_views(table, &prototype, &dataset.target, &config);
        let views = flatten_views(&families, &config);

        group.bench_with_input(BenchmarkId::new("selection", items), &items, |b, _| {
            b.iter(|| {
                score_candidates(
                    &dataset.source,
                    &dataset.target,
                    &matcher,
                    &outcome,
                    table,
                    &views,
                    &prototype,
                )
                .expect("scoring succeeds")
            })
        });
        group.bench_with_input(BenchmarkId::new("materializing", items), &items, |b, _| {
            b.iter(|| {
                reference::score_candidates_materializing(
                    &dataset.source,
                    &dataset.target,
                    &matcher,
                    &outcome,
                    table,
                    &views,
                    &prototype,
                )
                .expect("scoring succeeds")
            })
        });
    }
    group.finish();
}

/// One `ScoreMatch` unit of work (all candidate views × all prototype
/// matches of the retail source table) under the interned kernels or the
/// string-keyed reference kernels: returns the fixed inputs so the bench
/// loop isolates restricted-column profiling plus pair scoring.
struct KernelBenchInput {
    dataset: cxm_datagen::RetailDataset,
    matcher: StandardMatcher,
    outcome: cxm_matching::MatchingOutcome,
    prototype: cxm_matching::MatchList,
    views: Vec<cxm_relational::ViewDef>,
    /// Pre-resolved non-empty row selections, one per entry of `views`.
    resolved: Vec<cxm_relational::RowSelection>,
    /// Each prototype match's target column, warm (profiles memoized), in
    /// `prototype` order.
    target_cols: Vec<cxm_matching::ColumnData<'static>>,
}

fn kernel_bench_input(items: usize, legacy: bool) -> KernelBenchInput {
    let dataset = generate_retail(&RetailConfig {
        source_items: items,
        target_rows: 50,
        ..RetailConfig::default()
    });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let matcher = if legacy {
        reference::string_kernel_matcher(config.matching)
    } else {
        StandardMatcher::new(config.matching)
    };
    let table = dataset.source.tables().next().expect("retail source has a table");
    let outcome = matcher.match_table(table, &dataset.target);
    let prototype = outcome.accepted.clone();
    let families = infer_candidate_views(table, &prototype, &dataset.target, &config);
    let all_views = flatten_views(&families, &config);
    let mut views = Vec::new();
    let mut resolved = Vec::new();
    for view in all_views {
        let base = dataset.source.require_table(&view.base_table).expect("base exists");
        let selection = view.select(base).expect("view evaluates");
        if !selection.is_empty() {
            resolved.push(selection);
            views.push(view);
        }
    }
    let target_cols = prototype
        .iter()
        .map(|m| {
            let target_table =
                dataset.target.require_table(&m.target.table).expect("target exists");
            let col =
                cxm_matching::ColumnData::shared_from_table(target_table, &m.target.attribute)
                    .expect("attribute exists");
            // Warm the target profile outside the measured loop (a real warm
            // service serves targets from the catalog batch).
            let _ = col.qgram3_ids();
            col
        })
        .collect();
    KernelBenchInput { dataset, matcher, outcome, prototype, views, resolved, target_cols }
}

/// The **scoring kernel** alone: per iteration, every candidate view's
/// restricted columns are rebuilt (and so re-profiled) from pre-resolved
/// selections and every prototype match is rescored against its warm target
/// column — profile builds + similarity inner loops, none of the
/// selection-scan / match-assembly machinery around them.
fn run_rescore_kernel(input: &KernelBenchInput) -> f64 {
    let table = input.dataset.source.tables().next().expect("retail source has a table");
    let mut acc = 0.0;
    for (view, selection) in input.views.iter().zip(&input.resolved) {
        let slice = cxm_relational::TableSlice::new(table, selection);
        let mut restricted: std::collections::BTreeMap<&str, cxm_matching::ColumnData> =
            std::collections::BTreeMap::new();
        for (m, target_col) in input.prototype.iter().zip(&input.target_cols) {
            let column = restricted.entry(m.source.attribute.as_str()).or_insert_with(|| {
                let column = slice.column(&m.source.attribute).expect("attribute exists");
                cxm_matching::ColumnData::from_slice(&column, view.name.clone())
            });
            let (score, confidence) =
                input.matcher.rescore(&input.outcome, column, &m.source, target_col);
            acc += score + confidence;
        }
    }
    acc
}

fn run_kernel_input(input: &KernelBenchInput) -> cxm_matching::MatchList {
    let table = input.dataset.source.tables().next().expect("retail source has a table");
    score_candidates(
        &input.dataset.source,
        &input.dataset.target,
        &input.matcher,
        &input.outcome,
        table,
        &input.views,
        &input.prototype,
    )
    .expect("scoring succeeds")
}

/// Interned flat-profile kernels vs the string-keyed `BTreeMap`/`BTreeSet`
/// reference kernels on the `ScoreMatch` scoring unit: every iteration
/// rebuilds the view-restricted columns (and so re-profiles them) and scores
/// the full view × match grid — exactly the work the kernel rewrite targets.
/// The reference is a naive specification that memoizes no profile, so the
/// `*_legacy` side rebuilds both string profiles for every scored pair.
fn bench_interned_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("interned_kernels");
    group.sample_size(10);
    for items in [200usize, 400] {
        for legacy in [true, false] {
            let input = kernel_bench_input(items, legacy);
            let label = if legacy { "legacy" } else { "interned" };
            group.bench_with_input(
                BenchmarkId::new(format!("kernel_{label}"), items),
                &items,
                |b, _| b.iter(|| run_rescore_kernel(&input)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("score_candidates_{label}"), items),
                &items,
                |b, _| b.iter(|| run_kernel_input(&input)),
            );
        }
    }
    group.finish();
}

/// Serial vs sharded `StandardMatch` over a growing number of source tables.
fn bench_sharded_standard_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_standard_match");
    group.sample_size(10);
    let base = RetailConfig { source_items: 150, target_rows: 50, ..RetailConfig::default() };
    for tables in [2usize, 4, 8] {
        let (source, target) = generate_multi_table_retail(&base, tables);
        let matcher = StandardMatcher::new(ContextMatchConfig::default().matching);
        group.bench_with_input(BenchmarkId::new("serial", tables), &tables, |b, _| {
            b.iter(|| reference::match_databases_serial(&matcher, &source, &target))
        });
        group.bench_with_input(BenchmarkId::new("sharded", tables), &tables, |b, _| {
            b.iter(|| matcher.match_databases(&source, &target))
        });
    }
    group.finish();
}

/// The match service's reuse trajectory: a cold register+match (what a
/// one-shot deployment pays every time), a warm repeat against an unchanged
/// catalog (zero base-column re-profiling), and a repeat after replacing one
/// target table (fingerprint-keyed partial rebuild).
fn bench_service_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_warm_vs_cold");
    group.sample_size(10);
    // A target-heavy shape: the warm path's win is skipping target-side
    // re-profiling and selection re-scans, so give the target enough rows
    // for that to dominate, and use classifier-free Naive inference (the
    // classifiers rerun per request on any path and would mask the effect).
    let dataset = generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 600,
        ..RetailConfig::default()
    });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);

    group.bench_function("cold_register_and_match", |b| {
        b.iter(|| {
            let service = MatchService::new(config);
            service.register_target(&dataset.target);
            service.submit(&dataset.source).expect("well-formed dataset")
        })
    });

    // Warm-path repeats disable whole-match result memoization: a default
    // service would serve them from the result cache (measured separately
    // below) and the matcher would never run.
    let rerun_config =
        ServiceConfig { context: config, match_result_entries: 0, ..ServiceConfig::default() };
    let warm = MatchService::with_config(rerun_config);
    warm.register_target(&dataset.target);
    warm.submit(&dataset.source).expect("well-formed dataset");
    group.bench_function("warm_repeat", |b| {
        b.iter(|| warm.submit(&dataset.source).expect("well-formed dataset"))
    });

    // The same warm repeat with the cross-request restricted-profile cache
    // disabled: every iteration re-profiles the candidate views' restricted
    // columns (the pre-PR 4 warm path). The delta against `warm_repeat` is
    // the cache's contribution.
    let uncached =
        MatchService::with_config(ServiceConfig { restricted_profile_entries: 0, ..rerun_config });
    uncached.register_target(&dataset.target);
    uncached.submit(&dataset.source).expect("well-formed dataset");
    group.bench_function("warm_repeat_no_restricted_cache", |b| {
        b.iter(|| uncached.submit(&dataset.source).expect("well-formed dataset"))
    });

    // A repeat under the default configuration: pure result-cache hit.
    let memoized = MatchService::new(config);
    memoized.register_target(&dataset.target);
    memoized.submit(&dataset.source).expect("well-formed dataset");
    group.bench_function("result_cache_hit", |b| {
        b.iter(|| {
            let response = memoized.submit(&dataset.source).expect("well-formed dataset");
            assert!(response.telemetry.result_cache_hit);
            response
        })
    });

    // Alternate one target table between two variants so every iteration
    // really changes its fingerprint (a same-fingerprint replace is a no-op
    // rebuild) while the other table stays warm.
    let partial = MatchService::with_config(rerun_config);
    partial.register_target(&dataset.target);
    partial.submit(&dataset.source).expect("well-formed dataset");
    let original = dataset.target.tables().next().expect("retail target has tables").clone();
    let variant = original.head(original.len() - 1);
    let mut flip = false;
    group.bench_function("replace_one_table_then_match", |b| {
        b.iter(|| {
            flip = !flip;
            let table = if flip { variant.clone() } else { original.clone() };
            partial.replace_table(table).expect("table is registered");
            partial.submit(&dataset.source).expect("well-formed dataset")
        })
    });

    // PR 5: alternate ONE COLUMN of that table between two variants — the
    // column-granular keys rebuild exactly one column's artifacts per
    // iteration while every sibling stays warm.
    let column_service = MatchService::with_config(rerun_config);
    column_service.register_target(&dataset.target);
    column_service.submit(&dataset.source).expect("well-formed dataset");
    let edited = with_column_edited(&original, &some_text_column(&original));
    let mut flip = false;
    group.bench_function("replace_one_column_then_match", |b| {
        b.iter(|| {
            flip = !flip;
            let table = if flip { edited.clone() } else { original.clone() };
            column_service.replace_table(table).expect("table is registered");
            column_service.submit(&dataset.source).expect("well-formed dataset")
        })
    });
    group.finish();
}

/// The wide-catalog matching unit of work: the probe source's columns and
/// the full warm target batch, interned against one shared interner (as the
/// service arranges), with every profile memoized outside the measured loop.
struct WideBenchInput {
    dataset: WideCatalogDataset,
    matcher: StandardMatcher,
    source_cols: Vec<ColumnData<'static>>,
    target_cols: Vec<ColumnData<'static>>,
}

fn wide_bench_input(config: &WideCatalogConfig) -> WideBenchInput {
    let dataset = generate_wide_catalog(config);
    let interner = Arc::new(GramInterner::new());
    let columns_of = |db: &Database| -> Vec<ColumnData<'static>> {
        db.tables()
            .flat_map(|t| {
                t.schema()
                    .attributes()
                    .iter()
                    .map(|a| {
                        let fp = t.column_fingerprint(&a.name).expect("attribute exists");
                        ColumnData::shared_from_table(t, &a.name)
                            .expect("attribute comes from the table's own schema")
                            .with_interner(Arc::clone(&interner))
                            .with_fingerprint(fp)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let source_cols = columns_of(&dataset.source);
    let target_cols = columns_of(&dataset.target);
    for col in source_cols.iter().chain(&target_cols) {
        let _ = col.qgram3_ids();
        let _ = col.value_ids();
    }
    let matcher = StandardMatcher::new(ContextMatchConfig::default().matching);
    WideBenchInput { dataset, matcher, source_cols, target_cols }
}

/// Brute-force vs index-pruned candidate generation on the wide catalog:
/// the same warm column batch, matched with `match_columns` (every pair pays
/// two merge-joins) and with `match_columns_indexed` (the inverted gram
/// index proves most pairs share nothing before any kernel runs). The
/// `index_build_warm` series prices the artifact itself — posting-list
/// assembly over memoized profiles.
fn bench_wide_catalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("wide_catalog");
    group.sample_size(10);
    for tables in [50usize, 100] {
        let input = wide_bench_input(&WideCatalogConfig { tables, ..WideCatalogConfig::default() });
        let index = GramIndex::build(&input.target_cols);
        group.bench_with_input(BenchmarkId::new("brute_force", tables), &tables, |b, _| {
            b.iter(|| input.matcher.match_columns(&input.source_cols, &input.target_cols))
        });
        group.bench_with_input(BenchmarkId::new("indexed", tables), &tables, |b, _| {
            b.iter(|| {
                input.matcher.match_columns_indexed(
                    &input.source_cols,
                    &input.target_cols,
                    Some(&index),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("index_build_warm", tables), &tables, |b, _| {
            b.iter(|| GramIndex::build(&input.target_cols))
        });
    }
    group.finish();
}

/// Median wall-clock seconds of `runs` executions of `f` (after one warm-up).
fn median_secs<O>(runs: usize, mut f: impl FnMut() -> O) -> f64 {
    let _ = std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Re-measure the PR 4 comparisons with plain wall clocks and write the
/// machine-readable summary `BENCH_PR4.json` at the repository root. Runs in
/// `--test` smoke mode too (the measurements are deliberately small), so CI
/// always produces the artifact — but honors the CLI substring filter like
/// any other benchmark, so iterating on one group does not re-measure (or
/// rewrite) the report.
fn bench_pr4_report(c: &mut Criterion) {
    if !c.filter_matches("pr4_report") {
        return;
    }
    const RUNS: usize = 5;
    let mut kernels = String::new();
    for items in [200usize, 400] {
        let legacy_input = kernel_bench_input(items, true);
        let interned_input = kernel_bench_input(items, false);
        let legacy_kernel = median_secs(RUNS, || run_rescore_kernel(&legacy_input));
        let interned_kernel = median_secs(RUNS, || run_rescore_kernel(&interned_input));
        let legacy_full = median_secs(RUNS, || run_kernel_input(&legacy_input));
        let interned_full = median_secs(RUNS, || run_kernel_input(&interned_input));
        kernels.push_str(&format!(
            "    \"kernel_{items}\": {{\"legacy_ms\": {:.3}, \"interned_ms\": {:.3}, \
             \"speedup\": {:.2}}},\n    \"score_candidates_{items}\": {{\"legacy_ms\": {:.3}, \
             \"interned_ms\": {:.3}, \"speedup\": {:.2}}},\n",
            legacy_kernel * 1e3,
            interned_kernel * 1e3,
            legacy_kernel / interned_kernel,
            legacy_full * 1e3,
            interned_full * 1e3,
            legacy_full / interned_full,
        ));
    }
    let kernels = kernels.trim_end_matches(",\n").to_string();

    let dataset = generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 600,
        ..RetailConfig::default()
    });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);
    let cold = median_secs(RUNS, || {
        let service = MatchService::new(config);
        service.register_target(&dataset.target);
        service.submit(&dataset.source).expect("well-formed dataset")
    });
    // Result memoization off: the PR 4 numbers measure real warm re-runs.
    let warm_service = MatchService::with_config(ServiceConfig {
        context: config,
        match_result_entries: 0,
        ..ServiceConfig::default()
    });
    warm_service.register_target(&dataset.target);
    warm_service.submit(&dataset.source).expect("well-formed dataset");
    let warm = median_secs(RUNS, || warm_service.submit(&dataset.source).expect("dataset"));
    let uncached_service = MatchService::with_config(ServiceConfig {
        context: config,
        restricted_profile_entries: 0,
        match_result_entries: 0,
        ..ServiceConfig::default()
    });
    uncached_service.register_target(&dataset.target);
    uncached_service.submit(&dataset.source).expect("well-formed dataset");
    let warm_uncached =
        median_secs(RUNS, || uncached_service.submit(&dataset.source).expect("dataset"));

    let json = format!(
        "{{\n  \"pr\": 4,\n  \"description\": \"Interned flat-profile scoring kernels and \
         cross-request warm-profile reuse: legacy vs interned ScoreMatch kernels on the retail \
         scenario, and the match service's warm repeat with and without the restricted-profile \
         cache (medians of {RUNS} runs)\",\n  \"interned_kernels\": {{\n{kernels}\n  }},\n  \
         \"service_warm_vs_cold\": {{\n    \"cold_register_and_match_ms\": {:.3},\n    \
         \"warm_repeat_ms\": {:.3},\n    \"warm_repeat_no_restricted_cache_ms\": {:.3}\n  }}\n}}\n",
        cold * 1e3,
        warm * 1e3,
        warm_uncached * 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR4.json");
    std::fs::write(path, &json).expect("BENCH_PR4.json is writable");
    println!("pr4_report: wrote {path}");
}

/// Measure the PR 5 reuse ladder with plain wall clocks and write the
/// machine-readable summary `BENCH_PR5.json` at the repository root: a cold
/// register+match, a full re-register (every column of every table changed),
/// a full single-table replace (every column of one table changed), a
/// single-**column** replace (exactly one column changed — the
/// column-granular warm keys' target case), a warm repeat (result
/// memoization off), and a whole-match result-cache hit. Runs in `--test`
/// smoke mode too, so CI always produces the artifact, and honors the CLI
/// substring filter like any other benchmark.
fn bench_pr5_report(c: &mut Criterion) {
    if !c.filter_matches("pr5_report") {
        return;
    }
    const RUNS: usize = 5;
    let dataset = generate_retail(&RetailConfig {
        source_items: 100,
        target_rows: 600,
        ..RetailConfig::default()
    });
    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);
    let rerun_config =
        ServiceConfig { context: config, match_result_entries: 0, ..ServiceConfig::default() };

    let cold = median_secs(RUNS, || {
        let service = MatchService::new(config);
        service.register_target(&dataset.target);
        service.submit(&dataset.source).expect("well-formed dataset")
    });

    // Full re-register: alternate the whole target between the original and
    // an everything-changed variant, so every table (and column) re-keys.
    let all_changed = {
        let mut db = Database::new(dataset.target.name());
        for table in dataset.target.tables() {
            db.replace_table(with_all_columns_edited(table));
        }
        db
    };
    let reregister_service = MatchService::with_config(rerun_config);
    reregister_service.register_target(&dataset.target);
    reregister_service.submit(&dataset.source).expect("well-formed dataset");
    let mut flip = false;
    let full_reregister = median_secs(RUNS, || {
        flip = !flip;
        reregister_service.register_target(if flip { &all_changed } else { &dataset.target });
        reregister_service.submit(&dataset.source).expect("well-formed dataset")
    });

    // Full single-table replace: every column of one table changes.
    let original = dataset.target.tables().next().expect("retail target has tables").clone();
    let table_service = MatchService::with_config(rerun_config);
    table_service.register_target(&dataset.target);
    table_service.submit(&dataset.source).expect("well-formed dataset");
    let table_variant = with_all_columns_edited(&original);
    let mut flip = false;
    let table_replace = median_secs(RUNS, || {
        flip = !flip;
        table_service
            .replace_table(if flip { table_variant.clone() } else { original.clone() })
            .expect("table is registered");
        table_service.submit(&dataset.source).expect("well-formed dataset")
    });

    // Single-column replace: exactly one column of that table changes — the
    // drift case the column-granular keys make cheap.
    let column_service = MatchService::with_config(rerun_config);
    column_service.register_target(&dataset.target);
    column_service.submit(&dataset.source).expect("well-formed dataset");
    let column_variant = with_column_edited(&original, &some_text_column(&original));
    let mut flip = false;
    let column_replace = median_secs(RUNS, || {
        flip = !flip;
        let update = column_service
            .replace_table(if flip { column_variant.clone() } else { original.clone() })
            .expect("table is registered");
        assert_eq!(update.columns_rebuilt, 1, "exactly one column re-keys per flip");
        column_service.submit(&dataset.source).expect("well-formed dataset")
    });

    // Warm repeat (no content change, result memoization off) and the
    // result-cache hit (default configuration).
    let warm_service = MatchService::with_config(rerun_config);
    warm_service.register_target(&dataset.target);
    warm_service.submit(&dataset.source).expect("well-formed dataset");
    let warm = median_secs(RUNS, || warm_service.submit(&dataset.source).expect("dataset"));

    let memoized = MatchService::new(config);
    memoized.register_target(&dataset.target);
    memoized.submit(&dataset.source).expect("well-formed dataset");
    let hit = median_secs(RUNS, || {
        let response = memoized.submit(&dataset.source).expect("dataset");
        assert!(response.telemetry.result_cache_hit);
        response
    });

    let json = format!(
        "{{\n  \"pr\": 5,\n  \"description\": \"Column-granular warm-artifact keys and the \
         whole-match result cache on the retail service scenario (100x600 rows, Naive \
         inference, medians of {RUNS} runs): the reuse ladder from a cold register+match \
         down to a pure result-cache hit\",\n  \"service_reuse_ladder\": {{\n    \
         \"cold_register_and_match_ms\": {:.3},\n    \
         \"full_reregister_then_match_ms\": {:.3},\n    \
         \"replace_one_table_then_match_ms\": {:.3},\n    \
         \"replace_one_column_then_match_ms\": {:.3},\n    \
         \"warm_repeat_ms\": {:.3},\n    \
         \"result_cache_hit_ms\": {:.4}\n  }}\n}}\n",
        cold * 1e3,
        full_reregister * 1e3,
        table_replace * 1e3,
        column_replace * 1e3,
        warm * 1e3,
        hit * 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR5.json");
    std::fs::write(path, &json).expect("BENCH_PR5.json is writable");
    println!("pr5_report: wrote {path}");
}

/// Measure the PR 6 inverted-gram-index comparisons with plain wall clocks
/// and write the machine-readable summary `BENCH_PR6.json` at the repository
/// root. Covers (a) brute-force vs index-pruned matching on the
/// default wide catalog (≥ 1000 target columns) plus the index's own build
/// cost and pruning statistics, and (b) the service-level crossover: a cold
/// register+submit (which pays the lazy index build), a warm repeat, and a
/// single-column replace whose next request derives the index incrementally
/// — every unchanged column's posting lists carried `Arc`-shared. Runs in
/// `--test` smoke mode too, so CI always produces the artifact, and honors
/// the CLI substring filter like any other benchmark.
fn bench_pr6_report(c: &mut Criterion) {
    if !c.filter_matches("pr6_report") {
        return;
    }
    const RUNS: usize = 5;
    let config = WideCatalogConfig::default();
    let input = wide_bench_input(&config);
    let total_columns = input.target_cols.len();
    assert!(total_columns >= 1000, "the report must cover a catalog-scale target");

    // Matching-level comparison on the same warm batch.
    let brute =
        median_secs(RUNS, || input.matcher.match_columns(&input.source_cols, &input.target_cols));
    let index = GramIndex::build(&input.target_cols);
    let indexed = median_secs(RUNS, || {
        input.matcher.match_columns_indexed(&input.source_cols, &input.target_cols, Some(&index))
    });
    let build = median_secs(RUNS, || GramIndex::build(&input.target_cols));

    // Pruning statistics of one indexed run.
    let kernels = KernelCounters::snapshot();
    let scanned_before = index_telemetry::candidate_pairs_scanned();
    let surviving_before = index_telemetry::candidate_pairs_surviving();
    let _ =
        input.matcher.match_columns_indexed(&input.source_cols, &input.target_cols, Some(&index));
    let scanned = index_telemetry::candidate_pairs_scanned() - scanned_before;
    let surviving = index_telemetry::candidate_pairs_surviving() - surviving_before;
    let pruned_scores = kernels.delta().pruned;
    let pruning_rate = if scanned > 0 { 1.0 - surviving as f64 / scanned as f64 } else { 0.0 };

    // Service-level crossover: cold register+submit pays the lazy build.
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);
    let rerun_config =
        ServiceConfig { context, match_result_entries: 0, ..ServiceConfig::default() };
    let cold = median_secs(RUNS, || {
        let service = MatchService::with_config(rerun_config);
        service.register_target(&input.dataset.target);
        let response = service.submit(&input.dataset.source).expect("well-formed dataset");
        assert!(response.telemetry.index_built, "a cold submit must pay the index build");
        response
    });

    let warm_service = MatchService::with_config(rerun_config);
    warm_service.register_target(&input.dataset.target);
    warm_service.submit(&input.dataset.source).expect("well-formed dataset");
    let warm = median_secs(RUNS, || {
        let response = warm_service.submit(&input.dataset.source).expect("dataset");
        assert!(!response.telemetry.index_built, "warm repeats reuse the index");
        response
    });

    // Single-column replace: the next request derives the index
    // incrementally, carrying every unchanged column's posting lists.
    let column_service = MatchService::with_config(rerun_config);
    column_service.register_target(&input.dataset.target);
    column_service.submit(&input.dataset.source).expect("well-formed dataset");
    let original = input.dataset.target.tables().next().expect("wide target has tables").clone();
    let edited = with_column_edited(&original, &some_text_column(&original));
    let mut flip = false;
    let mut postings = (0usize, 0usize);
    let column_replace = median_secs(RUNS, || {
        flip = !flip;
        let update = column_service
            .replace_table(if flip { edited.clone() } else { original.clone() })
            .expect("table is registered");
        assert_eq!(
            (update.postings_reused, update.postings_rebuilt),
            (total_columns - 1, 1),
            "every unchanged column's postings must be predicted as carried"
        );
        let response = column_service.submit(&input.dataset.source).expect("dataset");
        assert!(response.telemetry.index_built, "a new snapshot re-derives the index");
        postings =
            (response.telemetry.index_postings_reused, response.telemetry.index_postings_rebuilt);
        response
    });

    let json = format!(
        "{{\n  \"pr\": 6,\n  \"description\": \"Inverted gram index with admissible \
         cosine upper-bound pruning on the wide-catalog scenario ({} tables x {} columns = \
         {total_columns} target columns, {} rows each, medians of {RUNS} runs): brute-force vs \
         index-pruned matching over one warm batch, the index build cost, and the service-level \
         cold/warm/replace-one-column crossover\",\n  \"wide_catalog_matching\": {{\n    \
         \"target_columns\": {total_columns},\n    \
         \"brute_force_ms\": {:.3},\n    \
         \"indexed_ms\": {:.3},\n    \
         \"speedup\": {:.2},\n    \
         \"index_build_warm_ms\": {:.3},\n    \
         \"candidate_pairs_scanned\": {scanned},\n    \
         \"candidate_pairs_surviving\": {surviving},\n    \
         \"pruning_rate\": {:.4},\n    \
         \"kernel_scores_pruned\": {pruned_scores}\n  }},\n  \
         \"service_crossover\": {{\n    \
         \"cold_register_and_submit_ms\": {:.3},\n    \
         \"warm_repeat_ms\": {:.3},\n    \
         \"replace_one_column_then_match_ms\": {:.3},\n    \
         \"incremental_index_postings_reused\": {},\n    \
         \"incremental_index_postings_rebuilt\": {}\n  }}\n}}\n",
        config.tables,
        config.columns_per_table,
        config.rows_per_table,
        brute * 1e3,
        indexed * 1e3,
        brute / indexed,
        build * 1e3,
        pruning_rate,
        cold * 1e3,
        warm * 1e3,
        column_replace * 1e3,
        postings.0,
        postings.1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR6.json");
    std::fs::write(path, &json).expect("BENCH_PR6.json is writable");
    println!("pr6_report: wrote {path}");
}

criterion_group!(
    benches,
    bench_scaling,
    bench_zero_copy_scoring,
    bench_interned_kernels,
    bench_sharded_standard_match,
    bench_service_warm_vs_cold,
    bench_wide_catalog,
    bench_pr4_report,
    bench_pr5_report,
    bench_pr6_report
);
criterion_main!(benches);
