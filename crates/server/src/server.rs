//! The serving front-end: a readiness-driven connection reactor feeding a
//! sized worker pool through the bounded admission queue.
//!
//! Concurrency model (no async runtime — the workspace vendors none):
//!
//! * one **reactor thread** ([`crate::reactor`]) owns the listener and every
//!   connection: non-blocking sockets, per-connection frame state machines,
//!   write backpressure. Cheap control ops (`register`/`replace`/`drop`/
//!   `stats`/`persist`/`shutdown`) are answered inline on this thread;
//!   `submit`s are *admitted* here — through the bounded [`AdmissionQueue`],
//!   never blocking, so a full queue is an instant explicit reject — and
//!   answered later by a worker's completion. Resident threads are
//!   `workers + 1`, independent of connection count.
//! * a sized **worker pool** pops submissions and runs the match pipeline,
//!   checking the request's [`Deadline`] at dequeue, after source decoding,
//!   and after matching. A request that expires before the match phase does
//!   zero classifier work. Finished responses go back to the reactor as
//!   completions and are streamed out by the event loop.
//!
//! Connection governance rides on the same explicit-reject discipline as
//! admission: a **global connection limit** (refused connections get an
//! `overloaded` error frame, best-effort, then a close), a **per-tenant
//! in-flight cap** (checked race-free on the reactor thread), and an
//! optional **idle timeout** (progress-based, so slow-loris dribblers are
//! reclaimed). Never a hang: every refusal is a frame or a close, never
//! silence on an open socket.
//!
//! Shutdown is a graceful drain: the `shutdown` op (or
//! [`ServerHandle::shutdown`]) closes admission, already-queued submissions
//! still complete and get their replies, new ones get `shutting_down`, and
//! [`ServerHandle::join`] waits for the workers, then tells the reactor to
//! flush pending responses and exit.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cxm_core::ContextMatchConfig;
use cxm_service::MutexExt;

use crate::admission::{AdmissionQueue, AdmitError};
use crate::frame::{frame_bytes, DEFAULT_MAX_FRAME_BYTES};
use crate::json::{parse, write_int, write_str, Json};
use crate::protocol::{
    decode_database, decode_register, encode_server_stats, encode_tenant_stats, encode_update,
    error_frame, ok_frame, ErrorCode, RegisterFrame, Request,
};
use crate::reactor::{Action, Completion, ConnId, Handler, Reactor, ReactorConfig, ReactorShared};
use crate::telemetry::{
    bump, retry_hint_ms, Deadline, ServerCounters, ServerStats, Stopwatch, TenantStats,
};
use crate::tenant::{QuotaCeilings, Tenant, TenantRegistry};

/// Construction parameters of a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free loopback port.
    pub addr: String,
    /// Worker threads draining the admission queue (min 1).
    pub workers: usize,
    /// Admission-queue bound: submissions beyond this many pending are
    /// rejected with `overloaded` (min 1).
    pub queue_capacity: usize,
    /// Per-frame payload bound.
    pub max_frame_bytes: usize,
    /// Global bound on concurrently open connections; one over the limit is
    /// answered with an `overloaded` error frame and closed.
    pub max_connections: usize,
    /// Per-tenant bound on in-flight (admitted, unanswered) submissions;
    /// one over the cap is rejected `overloaded`. `None` disables the cap.
    pub max_inflight_per_tenant: Option<usize>,
    /// Close connections that complete no frame and receive no response for
    /// this long. Progress-based: dribbled partial frames do not count, so
    /// a slow-loris peer is reclaimed. `None` (default) disables the sweep.
    pub idle_timeout_ms: Option<u64>,
    /// The `ContextMatch` configuration every tenant's service runs.
    pub context: ContextMatchConfig,
    /// Ceilings on per-tenant warm-state quotas.
    pub quota_ceilings: QuotaCeilings,
    /// Deadline budget applied to submissions that carry none
    /// (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Floor on the `retry_after_ms` hint sent with `overloaded` rejects.
    /// The hint itself scales with observed queue depth and service time
    /// (see [`retry_hint_ms`]); before any submission completes it is
    /// exactly this value.
    pub retry_after_ms: u64,
    /// Warm-state snapshot file. When set, [`serve`] restores every tenant
    /// from it on start (validation-first — anything stale or corrupt
    /// degrades to a cold rebuild), [`ServerHandle::join`] snapshots on
    /// drain, and the `persist` op snapshots on demand. `None` disables
    /// persistence entirely.
    pub persist_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: 8192,
            max_inflight_per_tenant: None,
            idle_timeout_ms: None,
            context: ContextMatchConfig::default(),
            quota_ceilings: QuotaCeilings::default(),
            default_deadline_ms: None,
            retry_after_ms: 25,
            persist_path: None,
        }
    }
}

/// One queued submission: everything the worker needs, plus the connection
/// identity its completion is addressed to.
struct SubmitJob {
    conn: ConnId,
    tenant: Arc<Tenant>,
    source: Json,
    deadline: Deadline,
}

/// What dispatch decided about one request.
enum Dispatch {
    /// Answer now.
    Reply(Json),
    /// Admitted to the worker pool; the completion answers.
    Pending,
}

/// State shared by the reactor thread and the workers.
struct Shared {
    registry: TenantRegistry,
    queue: AdmissionQueue<SubmitJob>,
    counters: Arc<ServerCounters>,
    draining: AtomicBool,
    local_addr: SocketAddr,
    workers: usize,
    default_deadline_ms: Option<u64>,
    retry_after_ms: u64,
    max_inflight_per_tenant: Option<usize>,
    persist_path: Option<PathBuf>,
    /// Serializes snapshot writes: concurrent `persist` ops (or a `persist`
    /// racing the drain snapshot) must not interleave their temp files.
    persist_lock: Mutex<()>,
    reactor: Arc<ReactorShared>,
}

impl Shared {
    /// Snapshot every tenant's warm state to the configured path.
    fn persist(&self) -> io::Result<crate::persist::SaveOutcome> {
        let Some(path) = &self.persist_path else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "no persist path configured"));
        };
        let _guard = self.persist_lock.lock_or_recover();
        crate::persist::save_registry(&self.registry, path)
    }

    fn stats(&self) -> ServerStats {
        let mut stats = self.counters.snapshot();
        stats.workers = self.workers;
        stats.queue_depth = self.queue.depth();
        stats.queue_capacity = self.queue.capacity();
        stats.tenants = self.registry.len();
        stats.draining = self.draining.load(Ordering::Relaxed);
        stats
    }

    /// The current `retry_after_ms` hint: estimated queue drain time over
    /// the observed service-time average, floored at the configured value.
    fn retry_hint(&self) -> u64 {
        retry_hint_ms(
            self.retry_after_ms,
            self.queue.depth(),
            self.counters.service_time.service_ms(),
            self.workers,
        )
    }

    /// Begin the graceful drain. Idempotent: closes admission, wakes the
    /// reactor so it observes the drain promptly, lets queued work finish.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.reactor.wake();
    }
}

impl Handler for Shared {
    fn accepting(&self) -> bool {
        !self.draining.load(Ordering::SeqCst)
    }

    fn handle(&self, conn: ConnId, payload: &[u8]) -> Action {
        match self.dispatch(conn, payload) {
            Dispatch::Reply(frame) => Action::Reply(frame_bytes(&frame.to_bytes())),
            Dispatch::Pending => Action::Pending,
        }
    }

    fn limit_reject_frame(&self) -> Vec<u8> {
        let frame =
            error_frame(ErrorCode::Overloaded, "connection limit reached", Some(self.retry_hint()));
        frame_bytes(&frame.to_bytes())
    }
}

/// A running server: the bound address, the reactor thread, and the worker
/// pool. Dropping the handle begins a graceful background drain (queued
/// work still gets its replies); call [`ServerHandle::join`] after a
/// shutdown to wait for it instead.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Bind and start serving. Returns once the listener is live — requests can
/// be sent the moment this returns.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    // Restore-on-start: tenants come back warm before the first connection
    // is accepted, so a restarted server's first submit already reuses every
    // artifact that survived validation.
    let registry = match &config.persist_path {
        Some(path) => {
            crate::persist::restore_registry(config.context, config.quota_ceilings, path)?
        }
        None => TenantRegistry::new(config.context, config.quota_ceilings),
    };
    let reactor_shared = Arc::new(ReactorShared::new()?);
    let shared = Arc::new(Shared {
        registry,
        queue: AdmissionQueue::with_capacity(config.queue_capacity),
        counters: Arc::new(ServerCounters::default()),
        draining: AtomicBool::new(false),
        local_addr,
        workers: config.workers.max(1),
        default_deadline_ms: config.default_deadline_ms,
        retry_after_ms: config.retry_after_ms,
        max_inflight_per_tenant: config.max_inflight_per_tenant,
        persist_path: config.persist_path,
        persist_lock: Mutex::new(()),
        reactor: Arc::clone(&reactor_shared),
    });

    let workers = (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cxm-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let reactor = Reactor::new(
        listener,
        Arc::clone(&shared),
        reactor_shared,
        Arc::clone(&shared.counters),
        ReactorConfig {
            max_frame_bytes: config.max_frame_bytes,
            max_connections: config.max_connections.max(1),
            idle_timeout_ms: config.idle_timeout_ms,
        },
    )?;
    let reactor =
        std::thread::Builder::new().name("cxm-reactor".to_string()).spawn(move || reactor.run())?;

    Ok(ServerHandle { shared, reactor: Some(reactor), workers })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Server-level stats snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Per-tenant stats snapshots, in tenant-name order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.registry.stats(None)
    }

    /// The registered tenant of that name: its service (and through it the
    /// catalog), policy and counters.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.shared.registry.get(name)
    }

    /// Begin the graceful drain (same effect as a `shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Snapshot every tenant's warm state to the configured persist path
    /// (same effect as a `persist` frame). Errors with
    /// [`io::ErrorKind::Unsupported`] when no path is configured.
    pub fn persist(&self) -> io::Result<crate::persist::SaveOutcome> {
        self.shared.persist()
    }

    /// Wait for the drain to complete: the workers exit once admission is
    /// closed and the queue is empty, then the reactor flushes every
    /// pending response and exits. Call [`ServerHandle::shutdown`] (or send
    /// a `shutdown` frame) first — joining a server nobody shut down blocks
    /// until somebody does.
    ///
    /// With a persist path configured, the drained state is snapshotted
    /// after the last worker exits — snapshot-on-drain is what makes a
    /// rolling restart start warm. Best-effort: a failed write leaves the
    /// previous snapshot in place (the write is atomic), never blocks the
    /// shutdown.
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only after the workers are gone: no more completions can arrive,
        // so the reactor's exit flush delivers every queued reply.
        self.shared.reactor.signal_exit();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        if self.shared.persist_path.is_some() {
            let _ = self.shared.persist();
        }
    }
}

impl Drop for ServerHandle {
    /// Dropping without [`ServerHandle::join`] still drains gracefully: a
    /// detached shutdown thread joins the workers and then retires the
    /// reactor, so admitted submissions get their replies and the listener
    /// port is released — the drop is just not waited on.
    fn drop(&mut self) {
        self.shared.begin_drain();
        if let Some(reactor) = self.reactor.take() {
            let workers: Vec<_> = self.workers.drain(..).collect();
            let shared = Arc::clone(&self.shared);
            let _ = std::thread::Builder::new().name("cxm-shutdown".to_string()).spawn(move || {
                for worker in workers {
                    let _ = worker.join();
                }
                shared.reactor.signal_exit();
                let _ = reactor.join();
            });
        }
    }
}

impl Shared {
    /// Produce the outcome for one request payload, on the reactor thread.
    /// For `shutdown` the drain only closes *admission*, so the reply below
    /// is still delivered — in-flight responses are never cut off.
    ///
    /// A `register` is first offered to [`decode_register`], which reuses
    /// every table whose element bytes equal the tenant's remembered text
    /// at the same position; a frame it declines is parsed and decoded
    /// whole, like every other request.
    fn dispatch(&self, conn: ConnId, payload: &[u8]) -> Dispatch {
        let remembered = |tenant: &str| {
            self.registry.get(tenant).map(|t| t.remembered_tables()).unwrap_or_default()
        };
        if let Some(register) = decode_register(payload, remembered) {
            bump(&self.counters.requests);
            return Dispatch::Reply(self.register(register));
        }
        let frame = match parse(payload) {
            Ok(frame) => frame,
            Err(e) => {
                return Dispatch::Reply(error_frame(
                    ErrorCode::BadRequest,
                    &format!("invalid JSON: {e}"),
                    None,
                ))
            }
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(message) => {
                return Dispatch::Reply(error_frame(ErrorCode::BadRequest, &message, None))
            }
        };
        bump(&self.counters.requests);
        let draining = self.draining.load(Ordering::SeqCst);
        let reply = match request {
            Request::Register { tenant, tables, policy, quotas } => self.register(RegisterFrame {
                tenant,
                tables: tables.into_iter().map(Arc::new).collect(),
                texts: Vec::new(),
                reused: 0,
                policy,
                quotas,
            }),
            Request::Replace { tenant, table } => {
                let Some(tenant) = self.registry.get(&tenant) else {
                    return Dispatch::Reply(error_frame(ErrorCode::UnknownTenant, &tenant, None));
                };
                tenant.forget_register();
                match tenant.service.replace_table(table) {
                    Ok(update) => {
                        let mut members = vec![("tenant".into(), Json::str(tenant.name.clone()))];
                        members.extend(encode_update(&update));
                        ok_frame("replace", members)
                    }
                    Err(e) => error_frame(ErrorCode::UnknownTable, &e.to_string(), None),
                }
            }
            Request::Drop { tenant, table } => {
                let Some(tenant) = self.registry.get(&tenant) else {
                    return Dispatch::Reply(error_frame(ErrorCode::UnknownTenant, &tenant, None));
                };
                tenant.forget_register();
                match tenant.service.drop_table(&table) {
                    Some(update) => {
                        let mut members = vec![("tenant".into(), Json::str(tenant.name.clone()))];
                        members.extend(encode_update(&update));
                        ok_frame("drop", members)
                    }
                    None => error_frame(ErrorCode::UnknownTable, &table, None),
                }
            }
            Request::Stats { tenant } => {
                let tenants = self.registry.stats(tenant.as_deref());
                if tenant.is_some() && tenants.is_empty() {
                    return Dispatch::Reply(error_frame(
                        ErrorCode::UnknownTenant,
                        "no such tenant",
                        None,
                    ));
                }
                ok_frame(
                    "stats",
                    vec![
                        ("server".into(), encode_server_stats(&self.stats())),
                        (
                            "tenants".into(),
                            Json::Array(tenants.iter().map(encode_tenant_stats).collect()),
                        ),
                    ],
                )
            }
            Request::Persist => match self.persist() {
                Ok(outcome) => ok_frame(
                    "persist",
                    vec![
                        ("tenants".into(), Json::Int(outcome.tenants as i64)),
                        ("bytes".into(), Json::Int(outcome.bytes as i64)),
                    ],
                ),
                Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                    error_frame(ErrorCode::BadRequest, "no persist path configured", None)
                }
                Err(e) => error_frame(ErrorCode::Internal, &format!("persist failed: {e}"), None),
            },
            Request::Shutdown => {
                self.begin_drain();
                ok_frame("shutdown", vec![("draining".into(), Json::Bool(true))])
            }
            Request::Submit { tenant, source, deadline_ms } => {
                return self.submit(conn, &tenant, source, deadline_ms, draining)
            }
        };
        Dispatch::Reply(reply)
    }

    /// Apply a decoded `register`: create the tenant on first use, swap its
    /// policy and its whole catalog, and remember the frame's element texts
    /// for the next `register`.
    fn register(&self, register: RegisterFrame) -> Json {
        if self.draining.load(Ordering::SeqCst) {
            return error_frame(ErrorCode::ShuttingDown, "server is draining", None);
        }
        let RegisterFrame { tenant, tables, texts, reused, policy, quotas } = register;
        let tenant = self.registry.register(&tenant, policy, &quotas);
        let mut target = cxm_relational::Database::new("target");
        for table in &tables {
            target.replace_shared_table(Arc::clone(table));
        }
        let update = tenant.service.register_target(&target);
        tenant.remember_register(&tables, texts, reused, update.version);
        let mut members = vec![("tenant".into(), Json::str(tenant.name.clone()))];
        members.extend(encode_update(&update));
        ok_frame("register", members)
    }

    /// Admission, on the reactor thread: per-tenant in-flight cap, then the
    /// bounded queue. Single-threaded admission makes the cap check
    /// race-free — the gauge cannot be concurrently incremented between the
    /// check and [`crate::telemetry::TenantCounters::inflight_admitted`].
    fn submit(
        &self,
        conn: ConnId,
        tenant: &str,
        source: Json,
        deadline_ms: Option<u64>,
        draining: bool,
    ) -> Dispatch {
        let Some(tenant) = self.registry.get(tenant) else {
            return Dispatch::Reply(error_frame(ErrorCode::UnknownTenant, tenant, None));
        };
        bump(&tenant.counters.submits);
        if draining {
            return Dispatch::Reply(error_frame(
                ErrorCode::ShuttingDown,
                "server is draining",
                None,
            ));
        }
        if let Some(cap) = self.max_inflight_per_tenant {
            if tenant.counters.inflight.load(Ordering::Relaxed) >= cap {
                bump(&self.counters.admission_rejects);
                bump(&tenant.counters.admission_rejects);
                bump(&tenant.counters.inflight_rejects);
                return Dispatch::Reply(error_frame(
                    ErrorCode::Overloaded,
                    "tenant in-flight cap reached",
                    Some(self.retry_hint()),
                ));
            }
        }
        // The budget starts at admission, so queueing time counts against
        // it — that is what makes a deadline a *latency* promise, not a
        // compute one.
        let deadline = Deadline::after_ms(deadline_ms.or(self.default_deadline_ms));
        tenant.counters.inflight_admitted();
        let job = SubmitJob { conn, tenant: Arc::clone(&tenant), source, deadline };
        match self.queue.try_push(job) {
            Ok(()) => {
                bump(&self.counters.submits);
                Dispatch::Pending
            }
            Err((job, AdmitError::Full)) => {
                job.tenant.counters.inflight_finished();
                bump(&self.counters.admission_rejects);
                bump(&tenant.counters.admission_rejects);
                Dispatch::Reply(error_frame(
                    ErrorCode::Overloaded,
                    "admission queue is full",
                    Some(self.retry_hint()),
                ))
            }
            Err((job, AdmitError::Closed)) => {
                job.tenant.counters.inflight_finished();
                Dispatch::Reply(error_frame(ErrorCode::ShuttingDown, "server is draining", None))
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let SubmitJob { conn, tenant, source, deadline } = job;
        let watch = Stopwatch::start();
        // Encoding runs inside the unwind guard too: a panic anywhere up to
        // the finished frame answers `internal`.
        let frame =
            catch_unwind(AssertUnwindSafe(|| process_submit(shared, &tenant, &source, deadline)))
                .unwrap_or_else(|_| {
                    let frame =
                        error_frame(ErrorCode::Internal, "request panicked in the pipeline", None);
                    frame_bytes(&frame.to_bytes())
                });
        // Every dequeued job feeds the estimator — expired ones drain the
        // queue too, and the retry hint estimates drain time, not compute.
        shared.counters.service_time.record(watch.elapsed());
        tenant.counters.inflight_finished();
        shared.reactor.complete(Completion { conn, frame });
    }
}

/// The worker-side pipeline: deadline gate → decode → deadline gate →
/// match → deadline gate → encode. Returns the framed reply.
fn process_submit(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
    source: &Json,
    deadline: Deadline,
) -> Vec<u8> {
    let error =
        |code: ErrorCode, message: &str| frame_bytes(&error_frame(code, message, None).to_bytes());
    let expired = |stage: &str| {
        bump(&shared.counters.deadline_expiries);
        bump(&tenant.counters.deadline_expiries);
        error(ErrorCode::DeadlineExceeded, &format!("deadline expired {stage}"))
    };
    if deadline.expired() {
        // Checked before any decoding or matching: an expired request does
        // zero classifier work — the acceptance criterion the deadline
        // tests pin.
        return expired("while queued");
    }
    let db = match decode_database(source) {
        Ok(db) => db,
        Err(message) => return error(ErrorCode::BadRequest, &message),
    };
    if deadline.expired() {
        return expired("after source decoding");
    }
    let response = match tenant.service.submit(&db) {
        Ok(response) => response,
        Err(e) => return error(ErrorCode::BadRequest, &e.to_string()),
    };
    if deadline.expired() {
        return expired("during matching");
    }
    let hit = response.telemetry.result_cache_hit;
    if hit {
        bump(&tenant.counters.result_cache_hits);
    }
    bump(&shared.counters.completed);
    let policy = tenant.policy();
    // The bytes of `frame_bytes(&ok_frame("submit", [tenant,
    // catalog_version, result_cache_hit, result]).to_bytes())`, written
    // straight into the frame: a length placeholder, the members, then the
    // length patched in.
    let mut frame = vec![0; 4];
    frame.extend_from_slice(br#"{"ok":true,"op":"submit","tenant":"#);
    write_str(&mut frame, &tenant.name);
    frame.extend_from_slice(br#","catalog_version":"#);
    write_int(&mut frame, response.telemetry.catalog_version as i64);
    frame.extend_from_slice(br#","result_cache_hit":"#);
    frame.extend_from_slice(if hit { b"true" } else { b"false" });
    frame.extend_from_slice(br#","result":"#);
    tenant.write_result(&mut frame, &response.result, &policy, hit);
    frame.push(b'}');
    let len = u32::try_from(frame.len() - 4).expect("frame exceeds u32 length");
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}
