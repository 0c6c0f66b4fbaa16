//! In-process replay of the server's stages for the traced run.
//!
//! The server is a black box while it serves, so the traced run times its
//! layers from outside: after the timed window it feeds the request bytes
//! the traced clients captured, in the order they were sent, to a replica
//! tenant built the way `cxm-server` builds one (same registry type, same
//! configuration, same quota ceilings), and wraps a span around each call
//! into a layer's public functions — `json::parse`, `Request::from_json`,
//! `decode_database`, `Database::table_fingerprints`, the catalog updates,
//! `MatchService::submit`, `encode_result`.
//!
//! For every submit the server answered with a match (a result-cache
//! miss), the replay also runs Figure 5 stage by stage on the replica's
//! snapshot — `match_columns_indexed`, `infer_candidate_views` plus
//! `flatten_views`, `score_candidates_prepared`, `select_contextual_matches`
//! — against private copies of the snapshot's selection and
//! restricted-profile caches, so the stages see the caches as the server's
//! request did. Its result must be byte-identical to `run_prepared` on the
//! same snapshot, or the traced run fails: the per-stage times come from
//! the real computation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cxm_classify::telemetry::work_units;
use cxm_core::candidate_views::flatten_views;
use cxm_core::{
    infer_candidate_views, score_candidates_prepared, select_contextual_matches, BoundedCache,
    ContextMatchConfig, ContextMatchResult, ContextualMatcher, PreparedSourceColumns,
    PreparedTargets, SharedSelections,
};
use cxm_matching::column::telemetry::qgram_profile_builds;
use cxm_matching::index::telemetry::{candidate_pairs_scanned, candidate_pairs_surviving};
use cxm_matching::{ColumnData, GramIndex, KernelCounters};
use cxm_relational::Database;
use cxm_server::json::parse;
use cxm_server::protocol::{decode_database, encode_update, ok_frame};
use cxm_server::{encode_result, Json, QuotaCeilings, Request, TenantPolicy, TenantRegistry};
use cxm_service::{CatalogSnapshot, MutexExt};

use crate::inputs::TENANT;
use crate::spans::{Recorder, SpanId};
use crate::wire::TracedCall;
use crate::workload::context;

/// What the replayed `MatchService::submit` calls reported.
#[derive(Debug, Default)]
pub struct ServiceTally {
    pub misses: usize,
    pub source_hits: usize,
    pub restricted_hits: usize,
    pub restricted_misses: usize,
    pub selection_hits: usize,
    pub selection_misses: usize,
}

/// A replica tenant plus the replay's own bookkeeping.
pub struct Replica {
    registry: TenantRegistry,
    matcher: ContextualMatcher,
    config: ContextMatchConfig,
    /// The replay's mirror of the service's warm source-column cache, keyed
    /// by per-table source fingerprints, with the same bound.
    sources: BoundedCache<BTreeMap<String, u64>, Arc<PreparedSourceColumns<'static>>>,
    /// Stage replays run, and how many were not byte-identical to
    /// `run_prepared`.
    pub stage_replays: usize,
    pub stage_mismatches: usize,
    pub tally: ServiceTally,
    /// Requests whose every call was replayed.
    pub replayed: Vec<u64>,
}

impl Replica {
    pub fn new() -> Replica {
        let ceilings = QuotaCeilings::default();
        Replica {
            registry: TenantRegistry::new(context(), ceilings),
            matcher: ContextualMatcher::new(context()),
            config: context(),
            sources: BoundedCache::with_capacity(ceilings.source_cache_capacity),
            stage_replays: 0,
            stage_mismatches: 0,
            tally: ServiceTally::default(),
            replayed: Vec::new(),
        }
    }

    /// Entries of the interner the replica's catalog shares.
    pub fn interner_len(&self) -> usize {
        self.registry.interner().len()
    }

    /// Bring the replica to the server's post-set-up state by replaying
    /// the set-up requests (request ids `1..=frames.len()`). Their spans
    /// are recorded; the service tally covers the timed window only.
    pub fn mirror_setup(&mut self, rec: &mut Recorder, frames: &[Json]) -> Result<(), String> {
        for (request, frame) in (1..).zip(frames) {
            // Every set-up submit was a first sight of its source: a match.
            self.call(rec, request, None, &frame.to_bytes(), Some(false))?;
        }
        self.tally = ServiceTally::default();
        Ok(())
    }

    /// Replay the captured calls in send order, whole requests at a time,
    /// until `budget` is spent (but at least `min_requests` requests). A
    /// request's calls are consecutive in send order because every client
    /// is a closed loop. Traced calls graft their server spans under their
    /// round trip; the untraced ones in between keep the replica's state
    /// in step with the server's.
    pub fn replay(
        &mut self,
        rec: &mut Recorder,
        calls: &[TracedCall],
        budget: Duration,
        min_requests: usize,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut i = 0;
        while i < calls.len() {
            if self.replayed.len() >= min_requests && start.elapsed() >= budget {
                break;
            }
            let request = calls[i].request;
            while let Some(call) = calls.get(i).filter(|c| c.request == request) {
                self.call(rec, request, call.rtt, &call.payload, call.server_hit)?;
                i += 1;
            }
            self.replayed.push(request);
        }
        Ok(())
    }

    /// One request payload through the server's stages. `server_hit` is
    /// what the server's reply said about its result cache (`None` for
    /// non-submits).
    fn call(
        &mut self,
        rec: &mut Recorder,
        request: u64,
        graft: Option<SpanId>,
        payload: &[u8],
        server_hit: Option<bool>,
    ) -> Result<(), String> {
        let server = rec.open("server", graft, request);
        let frame = rec
            .time("json.request_parse", Some(server), request, || parse(payload))
            .map_err(|e| format!("replayed payload does not parse: {e}"))?;
        let decode = rec.open("protocol.request_decode", Some(server), request);
        let decoded = Request::from_json(&frame)?;
        match decoded {
            Request::Submit { source, .. } => {
                let db = decode_database(&source)?;
                rec.close(decode);
                return self.submit(rec, request, (graft, server), &db, server_hit);
            }
            Request::Register { tenant, tables, policy, quotas } => {
                rec.close(decode);
                let (name, update) = rec.time("catalog.update", Some(server), request, || {
                    let tenant = self.registry.register(&tenant, policy, &quotas);
                    let mut target = Database::new("target");
                    for table in tables {
                        target.replace_table(table);
                    }
                    (tenant.name.clone(), tenant.service.register_target(&target))
                });
                self.ack(rec, request, server, "register", &name, &update);
            }
            Request::Replace { tenant, table } => {
                rec.close(decode);
                let tenant = self.registry.get(&tenant).ok_or("replace of an unknown tenant")?;
                let update = rec
                    .time("catalog.update", Some(server), request, || {
                        tenant.service.replace_table(table)
                    })
                    .map_err(|e| e.to_string())?;
                self.ack(rec, request, server, "replace", &tenant.name, &update);
            }
            _ => return Err("the benchmark sends only register, replace and submit".into()),
        }
        rec.close(server);
        Ok(())
    }

    fn ack(
        &self,
        rec: &mut Recorder,
        request: u64,
        server: SpanId,
        op: &str,
        tenant: &str,
        update: &cxm_service::CatalogUpdate,
    ) {
        rec.count("catalog.columns_reused", request, update.columns_reused as f64);
        rec.count("catalog.columns_rebuilt", request, update.columns_rebuilt as f64);
        rec.time("protocol.response_encode", Some(server), request, || {
            let mut members = vec![("tenant".into(), Json::str(tenant))];
            members.extend(encode_update(update));
            ok_frame(op, members).to_bytes()
        });
    }

    /// The submit stages under the open `server` span (grafted at
    /// `graft`), which this closes. The Figure 5 stage replay and the
    /// byte-identity check run outside the server spans: they are the
    /// benchmark's work, not the server's.
    fn submit(
        &mut self,
        rec: &mut Recorder,
        request: u64,
        (graft, server): (Option<SpanId>, SpanId),
        db: &Database,
        server_hit: Option<bool>,
    ) -> Result<(), String> {
        let tenant = self.registry.get(TENANT).ok_or("submit before register")?;
        let fingerprints =
            rec.time("service.fingerprint", Some(server), request, || db.table_fingerprints());
        let snapshot = tenant.service.catalog().snapshot();
        let replay_stages = server_hit == Some(false);
        if replay_stages && snapshot.gram_index_if_built().is_none() {
            // The request that first scores against a snapshot pays for its
            // target-side profiles and its index (inside
            // `MatchService::submit` on the server).
            let builds = qgram_profile_builds();
            rec.time("matching.profile", Some(server), request, || {
                force_profiles(snapshot.columns())
            });
            rec.count(
                "matching.qgram_profile_builds",
                request,
                (qgram_profile_builds() - builds) as f64,
            );
            let index = rec.time("matching.index", Some(server), request, || snapshot.gram_index());
            rec.count("matching.postings_reused", request, index.postings_reused() as f64);
            rec.count("matching.postings_rebuilt", request, index.postings_rebuilt() as f64);
        }
        rec.close(server);
        let index = snapshot.gram_index();
        let staged = if replay_stages {
            Some(self.stages(rec, request, db, &fingerprints, &snapshot, &index)?)
        } else {
            None
        };

        let server = rec.open("server", graft, request);
        let response = rec
            .time("service.submit", Some(server), request, || tenant.service.submit(db))
            .map_err(|e| e.to_string())?;
        let t = &response.telemetry;
        let policy = tenant.policy();
        rec.time("protocol.response_encode", Some(server), request, || {
            ok_frame(
                "submit",
                vec![
                    ("tenant".into(), Json::str(tenant.name.clone())),
                    ("catalog_version".into(), Json::Int(t.catalog_version as i64)),
                    ("result_cache_hit".into(), Json::Bool(t.result_cache_hit)),
                    ("result".into(), encode_result(&response.result, &policy)),
                ],
            )
            .to_bytes()
        });
        rec.close(server);

        if !t.result_cache_hit {
            self.tally.misses += 1;
            self.tally.source_hits += usize::from(t.source_cache_hit);
            self.tally.restricted_hits += t.restricted_profile_hits;
            self.tally.restricted_misses += t.restricted_profile_misses;
            self.tally.selection_hits += t.selection_cache_hits;
            self.tally.selection_misses += t.selection_cache_misses;
        }
        if let Some(staged) = staged {
            // `MatchService::submit` on a miss is `run_prepared` on this
            // snapshot; on a replica hit, run it directly, with source
            // columns prepared the way the service prepares them.
            let reference = if t.result_cache_hit {
                let columns = prepare_source_columns(db, &snapshot);
                let targets = PreparedTargets {
                    database: snapshot.database(),
                    columns: snapshot.columns(),
                    shared_selections: None,
                    index: Some(&index),
                };
                Arc::new(
                    self.matcher
                        .run_prepared(db, Some(&columns), targets)
                        .map_err(|e| e.to_string())?,
                )
            } else {
                Arc::clone(&response.result)
            };
            let policy = TenantPolicy::default();
            self.stage_replays += 1;
            if encode_result(&staged, &policy).to_bytes()
                != encode_result(&reference, &policy).to_bytes()
            {
                self.stage_mismatches += 1;
            }
        }
        Ok(())
    }

    /// Figure 5 for one source database, one stage call at a time.
    fn stages(
        &mut self,
        rec: &mut Recorder,
        request: u64,
        db: &Database,
        fingerprints: &BTreeMap<String, u64>,
        snapshot: &CatalogSnapshot,
        index: &GramIndex,
    ) -> Result<ContextMatchResult, String> {
        let root = rec.open("core.replay", None, request);
        let builds = qgram_profile_builds();
        let columns = match self.sources.get(fingerprints).cloned() {
            Some(columns) => columns,
            None => {
                let columns = Arc::new(prepare_source_columns(db, snapshot));
                rec.time("matching.profile", Some(root), request, || {
                    columns.values().for_each(|cols| force_profiles(cols))
                });
                self.sources.insert(fingerprints.clone(), Arc::clone(&columns));
                columns
            }
        };
        let selections = Mutex::new(snapshot.selections().lock_or_recover().clone());
        let restricted = {
            let cache = snapshot.restricted_profiles().lock_or_recover();
            (cache.capacity() > 0).then(|| Mutex::new(cache.clone()))
        };
        let shared = SharedSelections {
            cache: &selections,
            source_fingerprints: fingerprints,
            restricted_profiles: restricted.as_ref(),
            catalog_version: snapshot.version(),
        };
        let work = work_units();
        let kernels = KernelCounters::snapshot();
        let (scanned, surviving) = (candidate_pairs_scanned(), candidate_pairs_surviving());

        let standard = self.matcher.standard_matcher();
        let config = &self.config;
        let mut result = ContextMatchResult::default();
        for table in db.tables() {
            let cols = columns.get(table.name()).map_or(&[][..], Vec::as_slice);
            let outcome = rec.time("core.standard", Some(root), request, || {
                standard.match_columns_indexed(cols, snapshot.columns(), Some(index))
            });
            let prototype = outcome.accepted.clone();
            let (families, views) = rec.time("core.infer", Some(root), request, || {
                let families =
                    infer_candidate_views(table, &prototype, snapshot.database(), config);
                let views = flatten_views(&families, config);
                (families, views)
            });
            let candidates = rec
                .time("core.score", Some(root), request, || {
                    score_candidates_prepared(
                        db,
                        snapshot.database(),
                        snapshot.columns(),
                        standard,
                        &outcome,
                        table,
                        &views,
                        &prototype,
                        Some(shared),
                        Some(index),
                    )
                })
                .map_err(|e| e.to_string())?;
            result.standard.extend(prototype);
            result.candidates.extend(candidates);
            result.candidate_views.extend(views);
            result.families.extend(families);
        }
        result.selected = rec.time("core.select", Some(root), request, || {
            select_contextual_matches(&result.standard, &result.candidates, config)
        });
        rec.close(root);

        let scanned = candidate_pairs_scanned() - scanned;
        rec.count(
            "matching.qgram_profile_builds",
            request,
            (qgram_profile_builds() - builds) as f64,
        );
        rec.count("matching.pairs_scanned", request, scanned as f64);
        rec.count(
            "matching.pairs_surviving",
            request,
            (candidate_pairs_surviving() - surviving) as f64,
        );
        rec.count("matching.kernel_scores_pruned", request, kernels.delta().pruned as f64);
        rec.count("core.classifier_work_units", request, (work_units() - work) as f64);
        rec.count("core.candidate_views", request, result.candidate_views.len() as f64);
        rec.count("core.candidates", request, result.candidates.len() as f64);
        Ok(result)
    }
}

/// Every source column in `Arc`-shared storage, interned against the
/// snapshot's interner — the layout `MatchService` prepares.
fn prepare_source_columns(
    db: &Database,
    snapshot: &CatalogSnapshot,
) -> PreparedSourceColumns<'static> {
    db.tables()
        .map(|table| {
            let columns = table
                .schema()
                .attributes()
                .iter()
                .map(|a| {
                    ColumnData::shared_from_table(table, &a.name)
                        .expect("attribute comes from the table's own schema")
                        .with_interner(Arc::clone(snapshot.interner()))
                })
                .collect();
            (table.name().to_string(), columns)
        })
        .collect()
}

/// Force the interned q-gram profile and value set of every non-empty
/// column — what an index build or a scan forces on first use.
fn force_profiles(columns: &[ColumnData<'_>]) {
    for column in columns.iter().filter(|c| !c.is_empty()) {
        std::hint::black_box((column.qgram3_ids(), column.value_ids()));
    }
}
