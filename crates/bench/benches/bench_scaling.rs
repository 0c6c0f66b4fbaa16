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
//! single-table replace). `service_tgtclass` times the service's
//! result-cache misses under the default TgtClass inference, under SrcClass
//! and under the repository benchmark's Naive inference at τ = 0.4, one
//! never-seen retail source per iteration.
//!
//! The `wide_catalog` group compares brute-force `match_columns` against the
//! inverted-gram-index-pruned `match_columns_indexed` (plus the index's own
//! build cost) on the catalog-scale `wide_catalog` datagen scenario, and
//! times the match service on the default wide catalog: a cold
//! register+submit (which pays the lazy index build), a warm repeat, and a
//! single-column replace whose next request derives the index incrementally;
//! `index_update_sixth` times the incremental index update alone at the
//! repository benchmark's `wide_refresh` scale.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cxm_core::{
    candidate_views::{flatten_views, infer_candidate_views},
    score_candidates, ContextMatchConfig, ContextualMatcher, ViewInferenceStrategy,
};
use cxm_datagen::{
    generate_multi_table_retail, generate_retail, generate_wide_catalog, RetailConfig,
    WideCatalogConfig,
};
use cxm_matching::{ColumnData, GramIndex, GramInterner, StandardMatcher};
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
/// restricted columns are rebuilt (and so re-profiled, assembling from
/// per-row runs of the base columns, built once per iteration as
/// `ScoreMatch` builds them once per call) from pre-resolved selections and
/// every prototype match is rescored against its warm target column —
/// profile builds + similarity inner loops, none of the selection-scan /
/// match-assembly machinery around them.
fn run_rescore_kernel(input: &KernelBenchInput) -> f64 {
    let table = input.dataset.source.tables().next().expect("retail source has a table");
    let mut base_runs: std::collections::BTreeMap<&str, cxm_matching::ColumnRuns> =
        std::collections::BTreeMap::new();
    for (m, target_col) in input.prototype.iter().zip(&input.target_cols) {
        base_runs.entry(m.source.attribute.as_str()).or_insert_with(|| {
            let interner = Arc::clone(target_col.interner());
            cxm_matching::ColumnRuns::new(table, &m.source.attribute, interner)
                .expect("attribute exists")
        });
    }
    let mut acc = 0.0;
    for (view, selection) in input.views.iter().zip(&input.resolved) {
        let mut restricted: std::collections::BTreeMap<&str, cxm_matching::ColumnData> =
            std::collections::BTreeMap::new();
        for (m, target_col) in input.prototype.iter().zip(&input.target_cols) {
            let column = restricted.entry(m.source.attribute.as_str()).or_insert_with(|| {
                let runs = &base_runs[m.source.attribute.as_str()];
                cxm_matching::ColumnData::restricted(runs, selection, view.name.clone())
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

/// The library's default inference on the service's miss path: a warm
/// 600-row retail target (loadbench's retail size) is sent never-seen
/// 100-item retail sources under `ContextMatchConfig::default()` (TgtClass,
/// as `MatchService::with_defaults()` and `ServerConfig::default()` run it),
/// under its SrcClass sibling, and under the repository benchmark's Naive
/// inference at τ = 0.4 (`naive_miss`). Every iteration submits a source the
/// service has not seen, so each is a result-cache miss that re-runs view
/// inference. Before timing, a miss is asserted equal to a cold
/// `ContextualMatcher::run`.
fn bench_service_tgtclass(c: &mut Criterion) {
    const SAMPLES: usize = 20;
    let mut group = c.benchmark_group("service_tgtclass");
    group.sample_size(SAMPLES);
    let retail = |seed, target_rows| {
        generate_retail(&RetailConfig {
            seed,
            source_items: 100,
            target_rows,
            ..RetailConfig::default()
        })
    };
    let target = retail(RetailConfig::default().seed, 600).target;
    // The probe, then one source for the warm-up and each timed iteration.
    let sources: Vec<Database> =
        (0..SAMPLES as u64 + 2).map(|i| retail(1000 + i, 1).source).collect();
    let default = ContextMatchConfig::default();
    for config in [
        default,
        default.with_inference(ViewInferenceStrategy::SrcClass),
        // The repository benchmark's inference (loadbench's `context()`).
        default.with_inference(ViewInferenceStrategy::Naive).with_tau(0.4),
    ] {
        let strategy = config.inference;
        let service = MatchService::new(config);
        service.register_target(&target);
        let (probe, fresh) = sources.split_first().expect("sources were generated");
        let response = service.submit(probe).expect("well-formed dataset");
        assert!(!response.telemetry.result_cache_hit, "a never-seen source misses");
        let cold = ContextualMatcher::new(config).run(probe, &target).expect("well-formed dataset");
        assert_eq!(format!("{:?}", response.result), format!("{cold:?}"), "miss equals cold");
        let mut fresh = fresh.iter();
        group.bench_function(format!("{}_miss", strategy.name().to_lowercase()), |b| {
            b.iter(|| {
                let source = fresh.next().expect("one never-seen source per iteration");
                let response = service.submit(source).expect("well-formed dataset");
                assert!(!response.telemetry.result_cache_hit, "a never-seen source misses");
                response
            })
        });
    }
    group.finish();
}

/// The wide-catalog matching unit of work: the probe source's columns and
/// the full warm target batch, interned against one shared interner (as the
/// service arranges), with every profile memoized outside the measured loop.
struct WideBenchInput {
    matcher: StandardMatcher,
    source_cols: Vec<ColumnData<'static>>,
    target_cols: Vec<ColumnData<'static>>,
}

fn wide_bench_input(config: &WideCatalogConfig) -> WideBenchInput {
    let dataset = generate_wide_catalog(config);
    let interner = Arc::new(GramInterner::new());
    let source_cols = warm_columns(&dataset.source, &interner);
    let target_cols = warm_columns(&dataset.target, &interner);
    let matcher = StandardMatcher::new(ContextMatchConfig::default().matching);
    WideBenchInput { matcher, source_cols, target_cols }
}

/// Every column of `db`, in table order, bound to `interner` and carrying
/// its content fingerprint, with its profile and value set memoized.
fn warm_columns(db: &Database, interner: &Arc<GramInterner>) -> Vec<ColumnData<'static>> {
    let columns: Vec<ColumnData<'static>> = db
        .tables()
        .flat_map(|t| {
            t.schema()
                .attributes()
                .iter()
                .map(|a| {
                    let fp = t.column_fingerprint(&a.name).expect("attribute exists");
                    ColumnData::shared_from_table(t, &a.name)
                        .expect("attribute comes from the table's own schema")
                        .with_interner(Arc::clone(interner))
                        .with_fingerprint(fp)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for col in &columns {
        let _ = col.qgram3_ids();
        let _ = col.value_ids();
    }
    columns
}

/// The two states of `target` a wide refresh alternates between: every
/// sixth table of the second holds the rows of the table one round of
/// `families` further on (same family, same shape), as in the repository
/// benchmark's `wide_refresh`.
fn wide_refresh_states(target: &Database, families: usize) -> [Database; 2] {
    let tables = target.len();
    let mut second = target.clone();
    for i in (0..tables).step_by(6) {
        let table = target.table(&format!("wide_{i}")).expect("generated table");
        let donor = target.table(&format!("wide_{}", (i + families) % tables)).expect("generated");
        second.replace_table(
            Table::with_rows(table.schema().clone(), donor.rows().to_vec()).expect("same shape"),
        );
    }
    [target.clone(), second]
}

/// Brute-force vs index-pruned candidate generation on the wide catalog:
/// the same warm column batch, matched with `match_columns` (every pair pays
/// two merge-joins) and with `match_columns_indexed` (the inverted gram
/// index proves most pairs share nothing before any kernel runs). The
/// `index_build_warm` series prices the artifact itself — posting-list
/// assembly over memoized profiles.
///
/// `index_update_sixth` times one incremental index update at the
/// repository benchmark's `wide_refresh` scale (60 tables × 8 columns × 40
/// rows): every sixth table flips between two contents, and each iteration
/// derives the next generation with `GramIndex::update_from` and drops the
/// generation it replaces.
///
/// The `service_*` benches run the match service on the default wide catalog
/// (≥ 1000 target columns, result memoization off): a cold register+submit
/// pays the index build, a warm repeat reuses it, and a single-column
/// replace carries every unchanged column's posting lists into the index
/// the next request derives.
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

    let refresh = WideCatalogConfig { tables: 60, ..WideCatalogConfig::default() };
    let interner = Arc::new(GramInterner::new());
    let batches = wide_refresh_states(&generate_wide_catalog(&refresh).target, refresh.families)
        .map(|db| warm_columns(&db, &interner));
    let mut current = GramIndex::build(&batches[0]);
    let next = GramIndex::update_from(&current, &batches[1]);
    assert!(next.postings_rebuilt() > 0, "the flipped tables' lists must re-merge");
    assert_eq!(next.postings_reused() + next.postings_rebuilt(), next.posting_lists());
    let mut state = 0;
    group.bench_function("index_update_sixth", |b| {
        b.iter(|| {
            state = 1 - state;
            current = GramIndex::update_from(&current, &batches[state]);
            current.posting_lists()
        })
    });

    let dataset = generate_wide_catalog(&WideCatalogConfig::default());
    let total_columns: usize = dataset.target.tables().map(|t| t.schema().arity()).sum();
    assert!(total_columns >= 1000, "the service benches must cover a catalog-scale target");
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4);
    let rerun_config =
        ServiceConfig { context, match_result_entries: 0, ..ServiceConfig::default() };
    group.bench_function("service_cold_register_and_submit", |b| {
        b.iter(|| {
            let service = MatchService::with_config(rerun_config);
            service.register_target(&dataset.target);
            let response = service.submit(&dataset.source).expect("well-formed dataset");
            assert!(response.telemetry.index_built, "a cold submit must pay the index build");
            response
        })
    });

    let service = MatchService::with_config(rerun_config);
    service.register_target(&dataset.target);
    service.submit(&dataset.source).expect("well-formed dataset");
    group.bench_function("service_warm_repeat", |b| {
        b.iter(|| {
            let response = service.submit(&dataset.source).expect("well-formed dataset");
            assert!(!response.telemetry.index_built, "warm repeats reuse the index");
            response
        })
    });

    let original = dataset.target.tables().next().expect("wide target has tables").clone();
    let edited = with_column_edited(&original, &some_text_column(&original));
    let mut flip = false;
    group.bench_function("service_replace_one_column_then_match", |b| {
        b.iter(|| {
            flip = !flip;
            let update = service
                .replace_table(if flip { edited.clone() } else { original.clone() })
                .expect("table is registered");
            assert_eq!(
                (update.columns_reused, update.columns_rebuilt),
                (total_columns - 1, 1),
                "every unchanged column must be carried"
            );
            let response = service.submit(&dataset.source).expect("well-formed dataset");
            assert!(response.telemetry.index_built, "a new snapshot re-derives the index");
            assert!(
                response.telemetry.index_postings_reused > 0
                    && response.telemetry.index_postings_rebuilt > 0,
                "the new index carries untouched lists and re-merges the edited column's"
            );
            response
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling,
    bench_zero_copy_scoring,
    bench_interned_kernels,
    bench_sharded_standard_match,
    bench_service_warm_vs_cold,
    bench_service_tgtclass,
    bench_wide_catalog
);
criterion_main!(benches);
