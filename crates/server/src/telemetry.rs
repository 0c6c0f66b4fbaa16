//! Server timing and counters. **Every wall-clock read of `cxm-server`
//! lives in this module** — deadlines are inherently about real time, and
//! keeping `Instant` confined here keeps the rest of the crate inside the
//! workspace's D002 invariant (wall-clock reads only in harness/bench code
//! and telemetry modules). Nothing here feeds match *results*: deadlines
//! decide whether a request runs at all, never what it computes.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cxm_service::WarmStats;

/// Milliseconds since the first call in this process, on the monotonic
/// clock. The reactor's idle-connection accounting runs on these values —
/// it compares and subtracts them, but the `Instant` read itself stays
/// confined here (D002). Never feeds a match result.
pub fn monotonic_ms() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    Instant::now().duration_since(anchor).as_millis() as u64
}

/// A started wall-clock measurement (the worker wraps each submission in
/// one to feed [`ServiceTimeEstimator`]). Constructed and read only here,
/// so the rest of the crate handles durations, never clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// An exponentially-weighted moving average of observed submission service
/// times, in microseconds. Feeds the `overloaded` reject's `retry_after_ms`
/// hint: instead of a static config value, the hint estimates how long the
/// queue ahead of the client will take to drain. Updated with relaxed
/// atomics — a lost update under contention skews the estimate by one
/// sample, which telemetry tolerates by construction.
#[derive(Debug, Default)]
pub struct ServiceTimeEstimator {
    ewma_us: AtomicU64,
    samples: AtomicUsize,
}

impl ServiceTimeEstimator {
    /// Fold one completed submission's service time into the average
    /// (weight 1/4 — responsive to load shifts, calm under jitter).
    pub fn record(&self, elapsed: Duration) {
        let sample = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let n = self.samples.fetch_add(1, Ordering::Relaxed);
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new =
            if n == 0 { sample } else { (old.saturating_mul(3) / 4).saturating_add(sample / 4) };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    /// The current estimate in milliseconds (0 before any sample).
    pub fn service_ms(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed) / 1000
    }

    /// Completed samples folded in so far.
    pub fn samples(&self) -> usize {
        self.samples.load(Ordering::Relaxed)
    }
}

/// Ceiling on any computed `retry_after_ms` hint — an estimate gone wild
/// (one pathological slow request) must not tell clients to go away for
/// minutes.
const MAX_RETRY_HINT_MS: u64 = 10_000;

/// The `overloaded` reject's `retry_after_ms` hint: the estimated time for
/// `queue_depth` requests averaging `service_ms` each to drain across
/// `workers`, floored at the configured static hint (which also covers the
/// cold start, before any sample exists). Pure arithmetic over observed
/// inputs — deterministic given the same depth/estimate/worker count.
pub fn retry_hint_ms(floor_ms: u64, queue_depth: usize, service_ms: u64, workers: usize) -> u64 {
    let drain_ms = (queue_depth as u64)
        .saturating_mul(service_ms)
        .checked_div(workers.max(1) as u64)
        .unwrap_or(0);
    drain_ms.max(floor_ms).min(MAX_RETRY_HINT_MS)
}

/// A per-request time budget, captured when the request is admitted.
///
/// `cxm-server` checks it at every pipeline boundary — at dequeue, after
/// source decoding, and after the match — so an expired request is abandoned
/// at the next boundary instead of holding a worker. A request whose budget
/// expires before the match phase performs **zero** classifier work.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget_ms` from now; `None` means unbounded.
    pub fn after_ms(budget_ms: Option<u64>) -> Deadline {
        Deadline { at: budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms)) }
    }

    /// No deadline: never expires.
    pub fn unbounded() -> Deadline {
        Deadline { at: None }
    }

    /// Whether the budget is spent. A zero-millisecond budget is expired
    /// from the first check on — deterministically, which is what the
    /// deadline-expiry tests lean on.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// Process-lifetime counters of the serving layer, updated with relaxed
/// atomics from connection handlers and workers.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted.
    pub connections: AtomicUsize,
    /// Connections currently open (gauge: accept increments, close
    /// decrements).
    pub open_connections: AtomicUsize,
    /// High-water mark of [`ServerCounters::open_connections`].
    pub peak_connections: AtomicUsize,
    /// Connections refused at accept by the global connection limit.
    pub connection_limit_rejects: AtomicUsize,
    /// Connections closed by the idle timeout.
    pub idle_timeout_closes: AtomicUsize,
    /// Frames parsed into requests (all ops).
    pub requests: AtomicUsize,
    /// `submit` requests admitted into the queue.
    pub submits: AtomicUsize,
    /// `submit` requests answered with a result.
    pub completed: AtomicUsize,
    /// `submit` requests rejected by admission control (queue full or a
    /// per-tenant in-flight cap).
    pub admission_rejects: AtomicUsize,
    /// `submit` requests answered `deadline_exceeded`.
    pub deadline_expiries: AtomicUsize,
    /// Observed submission service times, feeding the retry hint.
    pub service_time: ServiceTimeEstimator,
}

impl ServerCounters {
    /// Record one accepted connection, maintaining the open gauge and peak.
    pub fn connection_opened(&self) {
        bump(&self.connections);
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(open, Ordering::Relaxed);
    }

    /// Record one closed connection.
    pub fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Relaxed increment — the counters are monotonic tallies, never
/// synchronization.
pub fn bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn read(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::Relaxed)
}

/// Per-tenant counters, held by the tenant registry entry.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// `submit` requests for this tenant (admitted or rejected).
    pub submits: AtomicUsize,
    /// Responses served from the tenant's whole-match result cache.
    pub result_cache_hits: AtomicUsize,
    /// Submissions answered `deadline_exceeded`.
    pub deadline_expiries: AtomicUsize,
    /// Submissions rejected by admission control (queue full or the
    /// tenant's in-flight cap).
    pub admission_rejects: AtomicUsize,
    /// Submissions rejected specifically by the tenant's in-flight cap
    /// (also counted in [`TenantCounters::admission_rejects`]).
    pub inflight_rejects: AtomicUsize,
    /// Requests currently admitted-but-unanswered for this tenant (gauge).
    pub inflight: AtomicUsize,
    /// High-water mark of [`TenantCounters::inflight`].
    pub inflight_peak: AtomicUsize,
    /// Tables of accepted `register`s taken from the tenant's register
    /// memo: their bytes equalled the element the tenant sent at the same
    /// position last time, so they were neither parsed nor decoded.
    pub register_tables_reused: AtomicUsize,
    /// Tables of accepted `register`s that were parsed and decoded.
    pub register_tables_decoded: AtomicUsize,
}

impl TenantCounters {
    /// Record one admitted submission, maintaining the in-flight gauge and
    /// its high-water mark. Called only by the reactor thread (admission is
    /// single-threaded), so gauge+peak cannot race upward.
    pub fn inflight_admitted(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record one finished submission (answered, expired, or panicked).
    pub fn inflight_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the server-level serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Submissions currently queued.
    pub queue_depth: usize,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Connections accepted so far.
    pub connections: usize,
    /// Connections open right now.
    pub open_connections: usize,
    /// Most connections ever open at once.
    pub peak_connections: usize,
    /// Connections refused at accept by the global connection limit.
    pub connection_limit_rejects: usize,
    /// Connections closed by the idle timeout.
    pub idle_timeout_closes: usize,
    /// Requests of any op parsed so far.
    pub requests: usize,
    /// Submissions admitted so far.
    pub submits: usize,
    /// Submissions completed with a result so far.
    pub completed: usize,
    /// Submissions rejected by admission control so far.
    pub admission_rejects: usize,
    /// Submissions expired by their deadline so far.
    pub deadline_expiries: usize,
    /// The EWMA of observed submission service times, in milliseconds.
    pub service_time_ms: u64,
    /// Registered tenants.
    pub tenants: usize,
    /// Whether a graceful shutdown is in progress.
    pub draining: bool,
}

impl ServerCounters {
    /// Snapshot the counters into a [`ServerStats`] (the caller fills in the
    /// queue/worker/tenant fields it owns).
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: read(&self.connections),
            open_connections: read(&self.open_connections),
            peak_connections: read(&self.peak_connections),
            connection_limit_rejects: read(&self.connection_limit_rejects),
            idle_timeout_closes: read(&self.idle_timeout_closes),
            requests: read(&self.requests),
            submits: read(&self.submits),
            completed: read(&self.completed),
            admission_rejects: read(&self.admission_rejects),
            deadline_expiries: read(&self.deadline_expiries),
            service_time_ms: self.service_time.service_ms(),
            ..ServerStats::default()
        }
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, queue {}/{}, {} connections ({} open, {} peak, \
             {} limit rejects, {} idle closes), {} requests \
             ({} submits, {} completed), {} admission rejects, \
             {} deadline expiries, ~{} ms service time, {} tenants",
            self.workers,
            self.queue_depth,
            self.queue_capacity,
            self.connections,
            self.open_connections,
            self.peak_connections,
            self.connection_limit_rejects,
            self.idle_timeout_closes,
            self.requests,
            self.submits,
            self.completed,
            self.admission_rejects,
            self.deadline_expiries,
            self.service_time_ms,
            self.tenants,
        )?;
        if self.draining {
            write!(f, ", draining")?;
        }
        Ok(())
    }
}

/// A point-in-time snapshot of one tenant's serving counters plus the
/// absolute warm-artifact totals of its `MatchService`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Submissions addressed to this tenant so far.
    pub submits: usize,
    /// Responses served from the tenant's whole-match result cache.
    pub result_cache_hits: usize,
    /// Submissions expired by their deadline.
    pub deadline_expiries: usize,
    /// Submissions rejected by admission control.
    pub admission_rejects: usize,
    /// Submissions rejected specifically by the tenant's in-flight cap.
    pub inflight_rejects: usize,
    /// Requests currently admitted-but-unanswered for this tenant.
    pub inflight: usize,
    /// Most requests ever in flight at once for this tenant.
    pub inflight_peak: usize,
    /// Tables of accepted `register`s reused from the register memo.
    pub register_tables_reused: usize,
    /// Tables of accepted `register`s parsed and decoded.
    pub register_tables_decoded: usize,
    /// Warm-artifact store totals ([`cxm_service::MatchService::warm_stats`]).
    pub warm: WarmStats,
}

impl TenantStats {
    /// Warm artifacts this tenant's bounded caches evicted — the tenant's
    /// quota pressure (see [`WarmStats::quota_evictions`]).
    pub fn quota_evictions(&self) -> usize {
        self.warm.quota_evictions()
    }
}

impl fmt::Display for TenantStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant {}: {} submits ({} result-cache hits), {} deadline expiries, \
             {} admission rejects ({} in-flight cap), {} in flight ({} peak), \
             {} quota evictions, {} register tables reused ({} decoded); {}",
            self.tenant,
            self.submits,
            self.result_cache_hits,
            self.deadline_expiries,
            self.admission_rejects,
            self.inflight_rejects,
            self.inflight,
            self.inflight_peak,
            self.quota_evictions(),
            self.register_tables_reused,
            self.register_tables_decoded,
            self.warm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_expires_immediately_and_unbounded_never() {
        assert!(Deadline::after_ms(Some(0)).expired());
        assert!(!Deadline::unbounded().expired());
        assert!(!Deadline::after_ms(Some(60_000)).expired());
        assert!(!Deadline::after_ms(None).expired());
    }

    #[test]
    fn stats_display_reports_every_signal() {
        let s = ServerStats {
            workers: 4,
            queue_depth: 2,
            queue_capacity: 8,
            connections: 3,
            requests: 10,
            submits: 7,
            completed: 5,
            admission_rejects: 1,
            deadline_expiries: 2,
            tenants: 2,
            draining: true,
            open_connections: 2,
            peak_connections: 3,
            connection_limit_rejects: 4,
            idle_timeout_closes: 5,
            service_time_ms: 6,
        };
        let text = s.to_string();
        assert!(text.contains("queue 2/8"), "{text}");
        assert!(text.contains("1 admission rejects"), "{text}");
        assert!(text.contains("2 deadline expiries"), "{text}");
        assert!(text.contains("2 open, 3 peak"), "{text}");
        assert!(text.contains("4 limit rejects, 5 idle closes"), "{text}");
        assert!(text.contains("~6 ms service time"), "{text}");
        assert!(text.contains("draining"), "{text}");

        let t = TenantStats {
            tenant: "acme".into(),
            submits: 9,
            result_cache_hits: 4,
            deadline_expiries: 1,
            admission_rejects: 2,
            inflight_rejects: 1,
            inflight: 1,
            inflight_peak: 3,
            register_tables_reused: 50,
            register_tables_decoded: 70,
            warm: WarmStats { source_evictions: 1, result_evictions: 2, ..WarmStats::default() },
        };
        let text = t.to_string();
        assert!(text.contains("tenant acme"), "{text}");
        assert!(text.contains("9 submits (4 result-cache hits)"), "{text}");
        assert!(text.contains("2 admission rejects (1 in-flight cap)"), "{text}");
        assert!(text.contains("1 in flight (3 peak)"), "{text}");
        assert!(text.contains("3 quota evictions"), "{text}");
        assert!(text.contains("50 register tables reused (70 decoded)"), "{text}");
    }

    #[test]
    fn retry_hint_scales_with_queue_and_floors_at_config() {
        // Cold start: no samples means service_ms == 0, so the hint is the floor.
        assert_eq!(retry_hint_ms(7, 5, 0, 2), 7);
        // Scaled: 6 queued * 10 ms each / 2 workers = 30 ms drain estimate.
        assert_eq!(retry_hint_ms(7, 6, 10, 2), 30);
        // Floor wins when the queue would drain faster than the floor.
        assert_eq!(retry_hint_ms(50, 2, 10, 2), 50);
        // Ceiling caps pathological estimates.
        assert_eq!(retry_hint_ms(7, 100_000, 1_000, 1), 10_000);
        // Zero workers must not divide by zero.
        assert_eq!(retry_hint_ms(7, 4, 10, 0), 40);
    }

    #[test]
    fn service_time_estimator_tracks_an_ewma() {
        let est = ServiceTimeEstimator::default();
        assert_eq!(est.service_ms(), 0);
        assert_eq!(est.samples(), 0);
        est.record(Duration::from_millis(8));
        // First sample seeds the average directly.
        assert_eq!(est.service_ms(), 8);
        est.record(Duration::from_millis(8));
        assert_eq!(est.service_ms(), 8);
        // A burst of slow requests pulls the average up, but not instantly.
        est.record(Duration::from_millis(80));
        assert!(est.service_ms() > 8 && est.service_ms() < 80, "{}", est.service_ms());
        assert_eq!(est.samples(), 3);
    }

    #[test]
    fn connection_gauges_track_open_and_peak() {
        let c = ServerCounters::default();
        c.connection_opened();
        c.connection_opened();
        c.connection_opened();
        c.connection_closed();
        let s = c.snapshot();
        assert_eq!(s.connections, 3);
        assert_eq!(s.open_connections, 2);
        assert_eq!(s.peak_connections, 3);

        let t = TenantCounters::default();
        t.inflight_admitted();
        t.inflight_admitted();
        t.inflight_finished();
        t.inflight_admitted();
        assert_eq!(t.inflight.load(Ordering::Relaxed), 2);
        assert_eq!(t.inflight_peak.load(Ordering::Relaxed), 2);
    }
}
