//! Workloads: server set-up and the timed closed loops.
//!
//! Every client is a closed loop — it sends its next request only after
//! the previous reply has been parsed and checked — over its own
//! connection, one client per thread, at most two at a time.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cxm_core::{ContextMatchConfig, ViewInferenceStrategy};
use cxm_relational::Fnv64;
use cxm_server::client::is_ok;
use cxm_server::{serve, Client, Json, ServerConfig, ServerHandle};

use crate::inputs::{RetailInputs, SourceRef, WideInputs, WARM_SOURCES};
use crate::spans::Recorder;
use crate::stats::ms;
use crate::wire::{register_frame, submit_frame, Conn, TracedCall, TracedConn};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client re-submitting pre-warmed retail sources: every reply is a
    /// result-cache hit, so the wire path is all there is.
    RetailHit,
    /// A writer submitting never-seen retail sources (full warm re-matches)
    /// with a one-column `replace` every tenth op, beside a reader
    /// re-submitting one pre-warmed source.
    RetailChurn,
    /// One client alternating a wide catalog between two states and
    /// submitting the probe after each `register`.
    WideRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::RetailHit, Workload::RetailChurn, Workload::WideRefresh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RetailHit => "retail_hit",
            Workload::RetailChurn => "retail_churn",
            Workload::WideRefresh => "wide_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op class whose median is the workload's `op_p50_ms`.
    pub fn defining_class(self) -> Class {
        match self {
            Workload::RetailHit => Class::Hit,
            Workload::RetailChurn => Class::Match,
            Workload::WideRefresh => Class::Refresh,
        }
    }
}

/// Every tenant runs Naive view inference at τ = 0.4.
pub fn context() -> ContextMatchConfig {
    ContextMatchConfig::default().with_inference(ViewInferenceStrategy::Naive).with_tau(0.4)
}

/// The server configuration: the serving defaults (two workers) with the
/// benchmark's matching configuration.
pub fn server_config() -> ServerConfig {
    ServerConfig { context: context(), ..ServerConfig::default() }
}

/// A workload's generated inputs.
pub enum Inputs {
    Retail(RetailInputs),
    Wide(WideInputs),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::RetailHit | Workload::RetailChurn => {
                Inputs::Retail(RetailInputs::generate(seed))
            }
            Workload::WideRefresh => Inputs::Wide(WideInputs::generate(seed)),
        }
    }

    /// The source a reply key names.
    pub fn source(&self, source: SourceRef) -> cxm_relational::Database {
        match (self, source) {
            (Inputs::Wide(w), SourceRef::Probe) => w.probe.clone(),
            (Inputs::Retail(r), source) => r.source(source),
            (Inputs::Wide(_), _) => panic!("the wide workload submits only its probe"),
        }
    }

    /// The target catalog in state `state`.
    pub fn target(&self, state: usize) -> &cxm_relational::Database {
        match self {
            Inputs::Retail(r) => &r.targets[state],
            Inputs::Wide(w) => &w.catalogs[state],
        }
    }

    /// The set-up requests, in order: register the state-0 catalog, then
    /// warm every source the timed phase expects to find warm.
    pub fn setup_frames(&self) -> Vec<Json> {
        let mut frames = vec![register_frame(self.target(0))];
        match self {
            Inputs::Retail(r) => frames.extend(r.warm.iter().map(submit_frame)),
            Inputs::Wide(w) => frames.push(submit_frame(&w.probe)),
        }
        frames
    }
}

/// What a timed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A submit answered from the result cache.
    Hit,
    /// A submit that ran the matcher.
    Match,
    /// A one-table `replace`.
    Edit,
    /// A wide `register` plus the first submit answered after it.
    Refresh,
}

/// Identity of a distinct reply: which source, against which catalog state.
pub type ReplyKey = (SourceRef, usize);

/// Every reply seen for one key must carry the same result digest.
#[derive(Debug, Clone, Copy)]
pub struct ReplyEntry {
    pub digest: u64,
    pub replies: usize,
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// `(class, latency ms, traced)` of every successful sample.
    pub samples: Vec<(Class, f64, bool)>,
    pub replies: BTreeMap<ReplyKey, ReplyEntry>,
    pub attempted: usize,
    pub failed: usize,
    /// Submits, and how many of them the server answered from its result
    /// cache.
    pub submits: usize,
    pub submit_hits: usize,
    pub first_error: Option<String>,
    /// Completion time of the thread's last op.
    pub finished: Option<Instant>,
}

impl ThreadLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }

    /// Fold another thread's log into this one.
    pub fn merge(&mut self, other: ThreadLog) {
        self.samples.extend(other.samples);
        for (key, entry) in other.replies {
            match self.replies.get_mut(&key) {
                Some(mine) if mine.digest != entry.digest => {
                    self.failed += entry.replies;
                    self.first_error.get_or_insert_with(|| format!("{key:?}: replies differ"));
                }
                Some(mine) => mine.replies += entry.replies,
                None => {
                    self.replies.insert(key, entry);
                }
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.submits += other.submits;
        self.submit_hits += other.submit_hits;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.finished = self.finished.max(other.finished);
    }

    /// Latencies of one class, in ms (`traced` selects the traced or the
    /// untraced samples; `None` takes both).
    pub fn latencies(&self, class: Class, traced: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(c, _, t)| *c == class && traced.is_none_or(|want| *t == want))
            .map(|(_, latency, _)| *latency)
            .collect()
    }
}

/// A digest of the `selected`, `standard` and `candidates` sections of a
/// match result object. Numbers hash by value, so an integral float that
/// went over the wire as an integer literal digests like the float.
pub fn result_digest(result: &Json) -> Option<u64> {
    let mut h = Fnv64::new();
    for section in ["selected", "standard", "candidates"] {
        h.write_str(section);
        hash_json(result.get(section)?, &mut h);
    }
    Some(h.finish())
}

fn hash_json(value: &Json, h: &mut Fnv64) {
    let number = |h: &mut Fnv64, v: f64| {
        h.write_u64(2);
        h.write_u64(if v == 0.0 { 0 } else { v.to_bits() });
    };
    match value {
        Json::Null => h.write_u64(0),
        Json::Bool(b) => h.write_u64(if *b { 11 } else { 10 }),
        Json::Int(i) => number(h, *i as f64),
        Json::Float(f) => number(h, *f),
        Json::Str(s) => {
            h.write_u64(3);
            h.write_str(s);
        }
        Json::Array(items) => {
            h.write_u64(4);
            h.write_u64(items.len() as u64);
            items.iter().for_each(|item| hash_json(item, h));
        }
        Json::Object(pairs) => {
            h.write_u64(5);
            h.write_u64(pairs.len() as u64);
            for (key, item) in pairs {
                h.write_str(key);
                hash_json(item, h);
            }
        }
    }
}

/// A running server with its set-up done.
pub struct Started {
    pub handle: ServerHandle,
    pub addr: SocketAddr,
    /// Server start, register and warm-up, excluding input generation.
    pub setup: Duration,
}

/// Start a server and send the set-up requests through a [`Client`].
pub fn start(inputs: &Inputs) -> io::Result<Started> {
    let t0 = Instant::now();
    let handle = serve(server_config())?;
    let addr = handle.local_addr();
    let mut client = Client::connect(addr)?;
    for frame in inputs.setup_frames() {
        client.request(&frame).and_then(expect_ok)?;
    }
    Ok(Started { handle, addr, setup: t0.elapsed() })
}

fn expect_ok(reply: Json) -> io::Result<Json> {
    if is_ok(&reply) {
        Ok(reply)
    } else {
        Err(io::Error::other(format!("set-up request failed: {}", reply.to_text())))
    }
}

/// Ask the server for its counters, then drain it.
pub fn stop(started: Started) -> io::Result<Json> {
    let mut client = Client::connect(started.addr)?;
    let stats = client.stats(None)?;
    client.shutdown()?;
    drop(client);
    started.handle.join();
    Ok(stats)
}

/// A client thread's position in its op sequence.
#[derive(Default)]
struct ClientState {
    /// Ops sent so far (the round-robin / edit cadence counter).
    sent: u64,
    /// Fresh sources submitted so far.
    fresh: u64,
    /// Catalog updates sent so far (the current catalog state is their
    /// parity).
    updates: usize,
}

/// The roles a client thread can play.
#[derive(Clone, Copy)]
enum Role {
    /// Cycles the warm sources (`retail_hit`).
    Cycler,
    /// Re-submits warm source 0 (`retail_churn` reader).
    Reader,
    /// Fresh sources plus an edit every tenth op (`retail_churn` writer).
    Writer,
    /// Register-then-probe refreshes (`wide_refresh`).
    Refresher,
}

/// The client roles of a workload, one thread each.
fn roles(workload: Workload) -> &'static [Role] {
    match workload {
        Workload::RetailHit => &[Role::Cycler],
        Workload::RetailChurn => &[Role::Reader, Role::Writer],
        Workload::WideRefresh => &[Role::Refresher],
    }
}

/// How the timed window's clients talk to the server.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The repository's `Client`.
    Untraced,
    /// [`TracedConn`], tracing every other op.
    Traced,
}

/// One traced connection's spans and captured calls.
pub type TracedLog = (Recorder, Vec<TracedCall>);

/// The timed window's output.
pub struct Window {
    pub log: ThreadLog,
    pub start: Instant,
    /// One entry per traced client thread.
    pub traced: Vec<TracedLog>,
}

/// Run the timed window: every client role of the workload on its own
/// thread and connection, for `length`. Request ids count up from
/// `first_request`.
pub fn run_window(
    workload: Workload,
    inputs: &Inputs,
    addr: SocketAddr,
    epoch: Instant,
    length: Duration,
    mode: Mode,
    first_request: u64,
) -> Window {
    let next_request = AtomicU64::new(first_request);
    let start = Instant::now();
    let until = start + length;
    let results: Vec<(ThreadLog, Option<TracedLog>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = roles(workload)
            .iter()
            .map(|&role| {
                let next_request = &next_request;
                scope.spawn(move || {
                    let mut log = ThreadLog::default();
                    let mut traced = None;
                    let outcome = match mode {
                        Mode::Untraced => Client::connect(addr).map(|mut client| {
                            client_loop(role, inputs, &mut client, &mut log, until, next_request)
                        }),
                        Mode::Traced => {
                            TracedConn::connect(addr, Recorder::new(epoch)).map(|mut conn| {
                                client_loop(role, inputs, &mut conn, &mut log, until, next_request);
                                traced = Some((conn.recorder, conn.calls));
                            })
                        }
                    };
                    if let Err(e) = outcome {
                        log.attempted += 1;
                        log.fail(format!("connect: {e}"));
                    }
                    (log, traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let mut log = ThreadLog::default();
    let mut traced = Vec::new();
    for (thread_log, thread_traced) in results {
        log.merge(thread_log);
        traced.extend(thread_traced);
    }
    Window { log, start, traced }
}

fn client_loop(
    role: Role,
    inputs: &Inputs,
    conn: &mut impl Conn,
    log: &mut ThreadLog,
    until: Instant,
    next_request: &AtomicU64,
) {
    let mut state = ClientState::default();
    while Instant::now() < until {
        let request = next_request.fetch_add(1, Ordering::Relaxed);
        log.attempted += 1;
        state.sent += 1;
        let traced = conn.trace_next(state.sent % 2 == 1);
        match (role, inputs) {
            (Role::Cycler, Inputs::Retail(r)) => {
                let i = (state.sent as usize - 1) % WARM_SOURCES;
                submit(conn, request, SourceRef::Warm(i), &r.warm[i], log, traced);
            }
            (Role::Reader, Inputs::Retail(r)) => {
                submit(conn, request, SourceRef::Warm(0), &r.warm[0], log, traced);
            }
            (Role::Writer, Inputs::Retail(r)) if state.sent % 10 == 0 => {
                state.updates += 1;
                let table = &r.edited[state.updates % 2];
                let t = Instant::now();
                let reply = conn.replace(request, table);
                let latency = ms(t.elapsed());
                match reply {
                    Ok(reply) if is_ok(&reply) && columns_rebuilt(&reply) == Some(1) => {
                        log.samples.push((Class::Edit, latency, traced));
                    }
                    Ok(reply) => log.fail(format!("replace: {}", brief(&reply))),
                    Err(e) => log.fail(format!("replace: {e}")),
                }
            }
            (Role::Writer, Inputs::Retail(_)) => {
                let source = SourceRef::Fresh(state.fresh);
                state.fresh += 1;
                // Generated outside the timed call: the writer's inputs are
                // never-before-sent sources, derived from the seed.
                let db = inputs.source(source);
                submit(conn, request, source, &db, log, traced);
            }
            (Role::Refresher, Inputs::Wide(w)) => {
                state.updates += 1;
                let t = Instant::now();
                let registered = conn.register(request, &w.catalogs[state.updates % 2]);
                match registered {
                    Ok(reply)
                        if is_ok(&reply) && columns_rebuilt(&reply) == Some(w.changed_columns) =>
                    {
                        if submit(conn, request, SourceRef::Probe, &w.probe, log, traced) {
                            log.samples.push((Class::Refresh, ms(t.elapsed()), traced));
                        }
                    }
                    Ok(reply) => log.fail(format!("register: {}", brief(&reply))),
                    Err(e) => log.fail(format!("register: {e}")),
                }
            }
            _ => unreachable!("roles are only assigned to their workload's inputs"),
        }
        log.finished = Some(Instant::now());
    }
}

/// One checked submit. Records a `Hit`/`Match` sample and the reply digest
/// under its key; returns whether the reply was a correct success.
fn submit(
    conn: &mut impl Conn,
    request: u64,
    source: SourceRef,
    db: &cxm_relational::Database,
    log: &mut ThreadLog,
    traced: bool,
) -> bool {
    let t = Instant::now();
    let reply = conn.submit(request, db);
    let latency = ms(t.elapsed());
    let reply = match reply {
        Ok(reply) if is_ok(&reply) => reply,
        Ok(reply) => {
            log.fail(format!("submit: {}", brief(&reply)));
            return false;
        }
        Err(e) => {
            log.fail(format!("submit: {e}"));
            return false;
        }
    };
    let hit = reply.get("result_cache_hit").and_then(Json::as_bool);
    let version = reply.get("catalog_version").and_then(Json::as_u64);
    let digest = reply.get("result").and_then(result_digest);
    let (Some(hit), Some(version), Some(digest)) = (hit, version, digest) else {
        log.fail(format!("submit: malformed reply {}", brief(&reply)));
        return false;
    };
    let key = (source, ((version.max(1) - 1) % 2) as usize);
    let entry = log.replies.entry(key).or_insert(ReplyEntry { digest, replies: 0 });
    if entry.digest != digest {
        log.fail(format!("submit {key:?}: reply differs from an earlier one"));
        return false;
    }
    entry.replies += 1;
    log.submits += 1;
    log.submit_hits += usize::from(hit);
    log.samples.push((if hit { Class::Hit } else { Class::Match }, latency, traced));
    true
}

fn columns_rebuilt(reply: &Json) -> Option<usize> {
    reply.get("columns_rebuilt").and_then(Json::as_u64).map(|n| n as usize)
}

fn brief(reply: &Json) -> String {
    let text = reply.to_text();
    text.chars().take(200).collect()
}
