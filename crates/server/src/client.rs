//! A small blocking client for the framed protocol — used by the examples,
//! the integration tests, and the serving benchmarks. One [`Client`] wraps
//! one connection; requests are strictly sequential (send a frame, read the
//! reply), which is all the protocol needs since every request gets exactly
//! one response frame.
//!
//! [`RetryingClient`] layers bounded retry with exponential backoff and
//! deterministic jitter on top: explicit `overloaded` rejects (honoring the
//! server's `retry_after_ms` hint), `shutting_down` rejects, and transport
//! failures (reset, refused, mid-frame EOF) all reconnect-and-retry up to
//! the policy's bound. Every request in this protocol is idempotent —
//! matching is pure, registration converges — which is what makes blanket
//! retry safe. Time never enters the decision logic: sleeping goes through
//! an injected [`Sleeper`], and jitter comes from a seeded LCG, so tests
//! drive the whole retry schedule deterministically with no wall-clock.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cxm_relational::{Database, Table};

use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use crate::json::{parse, Json};
use crate::protocol::{encode_database, encode_table, TenantPolicy, TenantQuotas};

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_bytes: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Send one request frame and read its response frame.
    pub fn request(&mut self, frame: &Json) -> io::Result<Json> {
        write_frame(&mut self.writer, &frame.to_bytes())?;
        self.writer.flush()?;
        let payload = read_frame(&mut self.reader, self.max_frame_bytes)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        parse(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Register (or re-register) a tenant with its full target table set and
    /// optional policy/quota knobs.
    pub fn register(
        &mut self,
        tenant: &str,
        target: &Database,
        policy: &TenantPolicy,
        quotas: &TenantQuotas,
    ) -> io::Result<Json> {
        self.request(&register_request(tenant, target, policy, quotas))
    }

    /// Replace one registered target table.
    pub fn replace_table(&mut self, tenant: &str, table: &Table) -> io::Result<Json> {
        self.request(&Json::Object(vec![
            ("op".into(), Json::str("replace")),
            ("tenant".into(), Json::str(tenant)),
            ("table".into(), encode_table(table)),
        ]))
    }

    /// Drop one registered target table.
    pub fn drop_table(&mut self, tenant: &str, table: &str) -> io::Result<Json> {
        self.request(&Json::Object(vec![
            ("op".into(), Json::str("drop")),
            ("tenant".into(), Json::str(tenant)),
            ("table".into(), Json::str(table)),
        ]))
    }

    /// Submit a source database for matching, optionally under a deadline
    /// budget in milliseconds.
    pub fn submit(
        &mut self,
        tenant: &str,
        source: &Database,
        deadline_ms: Option<u64>,
    ) -> io::Result<Json> {
        self.request(&submit_request(tenant, source, deadline_ms))
    }

    /// Fetch the server stats snapshot, optionally restricted to one tenant.
    pub fn stats(&mut self, tenant: Option<&str>) -> io::Result<Json> {
        self.request(&stats_request(tenant))
    }

    /// Ask the server to snapshot every tenant's warm state to its persist
    /// path. Fails with `bad_request` when the server has no persist path.
    pub fn persist(&mut self) -> io::Result<Json> {
        self.request(&persist_request())
    }

    /// Ask the server to drain gracefully. The acknowledgement arrives
    /// before the drain completes.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Json::Object(vec![("op".into(), Json::str("shutdown"))]))
    }
}

// The request builders both clients send through, so a call sends the same
// frame whichever client makes it.

fn register_request(
    tenant: &str,
    target: &Database,
    policy: &TenantPolicy,
    quotas: &TenantQuotas,
) -> Json {
    let mut members = vec![
        ("op".into(), Json::str("register")),
        ("tenant".into(), Json::str(tenant)),
        ("tables".into(), Json::Array(target.tables().map(encode_table).collect())),
    ];
    let policy_members = encode_policy(policy, quotas);
    if !policy_members.is_empty() {
        members.push(("policy".into(), Json::Object(policy_members)));
    }
    Json::Object(members)
}

fn submit_request(tenant: &str, source: &Database, deadline_ms: Option<u64>) -> Json {
    let mut members = vec![
        ("op".into(), Json::str("submit")),
        ("tenant".into(), Json::str(tenant)),
        ("source".into(), encode_database(source)),
    ];
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".into(), Json::Int(ms as i64)));
    }
    Json::Object(members)
}

fn stats_request(tenant: Option<&str>) -> Json {
    let mut members = vec![("op".into(), Json::str("stats"))];
    if let Some(tenant) = tenant {
        members.push(("tenant".into(), Json::str(tenant)));
    }
    Json::Object(members)
}

fn persist_request() -> Json {
    Json::Object(vec![("op".into(), Json::str("persist"))])
}

fn encode_policy(policy: &TenantPolicy, quotas: &TenantQuotas) -> Vec<(String, Json)> {
    let mut members = Vec::new();
    if let Some(t) = policy.score_threshold {
        members.push(("score_threshold".into(), Json::Float(t)));
    }
    if let Some(k) = policy.top_k {
        members.push(("top_k".into(), Json::Int(k as i64)));
    }
    for (key, value) in [
        ("source_cache_capacity", quotas.source_cache_capacity),
        ("selection_cache_tables", quotas.selection_cache_tables),
        ("restricted_profile_entries", quotas.restricted_profile_entries),
        ("match_result_entries", quotas.match_result_entries),
    ] {
        if let Some(v) = value {
            members.push((key.into(), Json::Int(v as i64)));
        }
    }
    members
}

/// True when a response frame is `{ok: true, …}`.
pub fn is_ok(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The `error.code` of a `{ok: false}` frame, if any.
pub fn error_code(frame: &Json) -> Option<&str> {
    frame.get("error")?.get("code")?.as_str()
}

/// The `error.retry_after_ms` hint of a `{ok: false}` frame, if any.
pub fn retry_after_ms(frame: &Json) -> Option<u64> {
    match frame.get("error")?.get("retry_after_ms")? {
        Json::Int(ms) if *ms >= 0 => Some(*ms as u64),
        _ => None,
    }
}

/// How a [`RetryingClient`] waits between attempts. Injected so tests can
/// record the schedule instead of actually sleeping.
pub trait Sleeper {
    /// Block the caller for `d`.
    fn sleep(&mut self, d: Duration);
}

/// The production sleeper: `std::thread::sleep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Bounds and pacing for [`RetryingClient`]. Backoff for attempt `n` is
/// `base_backoff_ms · 2ⁿ` capped at `max_backoff_ms`, plus up to 50%
/// seeded-LCG jitter; an `overloaded` reject's `retry_after_ms` hint acts
/// as a floor on the wait, never shortened by jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; 4 means at most 5 attempts total.
    pub max_retries: u32,
    /// First backoff step in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff wait (before the server's
    /// `retry_after_ms` floor is applied).
    pub max_backoff_ms: u64,
    /// Seed for the jitter LCG — same seed, same schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), advancing the
    /// jitter state. Pure arithmetic — no clock reads.
    fn backoff(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        let exp = self.base_backoff_ms.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.max_backoff_ms);
        *jitter_state =
            jitter_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let jitter = if capped == 0 { 0 } else { (*jitter_state >> 33) % (capped / 2 + 1) };
        Duration::from_millis(capped.saturating_add(jitter))
    }
}

/// Why a [`RetryingClient`] decided to retry — recorded in telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryCause {
    /// Server answered `overloaded` (admission queue full).
    Overloaded,
    /// Server answered `shutting_down` (drain in progress; a restart may
    /// bring it back).
    ShuttingDown,
    /// The transport failed: reset, refused, aborted, broken pipe, or the
    /// connection closed mid-exchange.
    Transport,
}

/// A [`Client`] wrapper that retries transient failures with bounded
/// exponential backoff. Connects lazily and reconnects after transport
/// errors, so it also rides out a server restart (connection refused while
/// the new process comes up is just another transient).
///
/// Non-transient protocol errors (`bad_request`, `unknown_tenant`,
/// `deadline_exceeded`, …) are returned to the caller unchanged on the
/// first attempt — retrying cannot fix them.
#[derive(Debug)]
pub struct RetryingClient<S: Sleeper = ThreadSleeper> {
    addr: String,
    client: Option<Client>,
    policy: RetryPolicy,
    sleeper: S,
    jitter_state: u64,
    ever_connected: bool,
    retries: u64,
    reconnects: u64,
}

impl RetryingClient<ThreadSleeper> {
    /// A retrying client over real sleeps. Does not connect yet — the
    /// first request does, under the retry policy.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryingClient<ThreadSleeper> {
        RetryingClient::with_sleeper(addr, policy, ThreadSleeper)
    }
}

impl<S: Sleeper> RetryingClient<S> {
    /// A retrying client with an injected sleeper (tests record the
    /// schedule instead of blocking).
    pub fn with_sleeper(addr: impl Into<String>, policy: RetryPolicy, sleeper: S) -> Self {
        RetryingClient {
            addr: addr.into(),
            client: None,
            jitter_state: policy.jitter_seed,
            policy,
            sleeper,
            ever_connected: false,
            retries: 0,
            reconnects: 0,
        }
    }

    /// Total retries performed (sleep-then-reattempt cycles).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful connections made after the first one.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// True when `kind` indicates the connection (not the request) failed,
    /// so reconnect-and-retry can help.
    fn transport_error(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::NotConnected
        )
    }

    /// One attempt: connect if needed, send, read. A failed attempt drops
    /// the connection so the next one starts clean.
    fn attempt(&mut self, frame: &Json) -> io::Result<Json> {
        if self.client.is_none() {
            let client = Client::connect(self.addr.as_str())?;
            if self.ever_connected {
                self.reconnects += 1;
            }
            self.ever_connected = true;
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connection established above");
        let outcome = client.request(frame);
        if outcome.is_err() {
            self.client = None;
        }
        outcome
    }

    /// Send one request, retrying transient failures under the policy.
    /// Returns the final response frame (which may still be an error frame
    /// if retries ran out or the error is not transient), or the final
    /// transport error once `max_retries` reconnect attempts are spent.
    pub fn request(&mut self, frame: &Json) -> io::Result<Json> {
        let mut attempt = 0u32;
        loop {
            match self.attempt(frame) {
                Ok(response) => {
                    if is_ok(&response) {
                        return Ok(response);
                    }
                    let cause = match error_code(&response) {
                        Some("overloaded") => RetryCause::Overloaded,
                        Some("shutting_down") => RetryCause::ShuttingDown,
                        _ => return Ok(response),
                    };
                    if attempt >= self.policy.max_retries {
                        return Ok(response);
                    }
                    let hint = retry_after_ms(&response);
                    self.wait(attempt, cause, hint);
                }
                Err(e) => {
                    if !Self::transport_error(e.kind()) || attempt >= self.policy.max_retries {
                        return Err(e);
                    }
                    self.wait(attempt, RetryCause::Transport, None);
                }
            }
            attempt += 1;
        }
    }

    /// Sleep before retry number `attempt`, honoring the server's
    /// `retry_after_ms` hint as a floor on the backoff wait.
    fn wait(&mut self, attempt: u32, cause: RetryCause, hint_ms: Option<u64>) {
        let mut wait = self.policy.backoff(attempt, &mut self.jitter_state);
        if cause == RetryCause::Overloaded {
            if let Some(hint) = hint_ms {
                wait = wait.max(Duration::from_millis(hint));
            }
        }
        self.retries += 1;
        self.sleeper.sleep(wait);
    }

    /// [`Client::register`] with retries.
    pub fn register(
        &mut self,
        tenant: &str,
        target: &Database,
        policy: &TenantPolicy,
        quotas: &TenantQuotas,
    ) -> io::Result<Json> {
        self.request(&register_request(tenant, target, policy, quotas))
    }

    /// [`Client::submit`] with retries.
    pub fn submit(
        &mut self,
        tenant: &str,
        source: &Database,
        deadline_ms: Option<u64>,
    ) -> io::Result<Json> {
        self.request(&submit_request(tenant, source, deadline_ms))
    }

    /// [`Client::stats`] with retries.
    pub fn stats(&mut self, tenant: Option<&str>) -> io::Result<Json> {
        self.request(&stats_request(tenant))
    }

    /// [`Client::persist`] with retries.
    pub fn persist(&mut self) -> io::Result<Json> {
        self.request(&persist_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    use cxm_relational::{tuple, Attribute, TableSchema};

    /// A server that takes `connections` connections one after another and
    /// answers every frame `{"ok":true}`; joining it yields every request
    /// payload it read, in order.
    fn capture(connections: usize) -> (String, JoinHandle<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = std::thread::spawn(move || {
            let mut frames = Vec::new();
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().expect("accept");
                while let Some(payload) =
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("read a frame")
                {
                    frames.push(payload);
                    write_frame(&mut stream, br#"{"ok":true}"#).expect("reply");
                }
            }
            frames
        });
        (addr, server)
    }

    #[test]
    fn both_clients_send_the_same_frames() {
        let db = Database::new("db").with_table(
            Table::with_rows(
                TableSchema::new("book", vec![Attribute::text("title")]),
                vec![tuple!["x"]],
            )
            .expect("one-column table"),
        );
        let policy = TenantPolicy { score_threshold: Some(0.5), top_k: Some(3) };
        let quotas = TenantQuotas { match_result_entries: Some(8), ..TenantQuotas::default() };
        let none = (TenantPolicy::default(), TenantQuotas::default());
        let (addr, server) = capture(2);
        {
            let mut client = Client::connect(addr.as_str()).expect("connect");
            client.register("t", &db, &policy, &quotas).expect("register");
            client.register("t", &db, &none.0, &none.1).expect("register");
            client.submit("t", &db, Some(250)).expect("submit");
            client.submit("t", &db, None).expect("submit");
            client.stats(Some("t")).expect("stats");
            client.stats(None).expect("stats");
            client.persist().expect("persist");
        }
        {
            let mut client = RetryingClient::new(addr.as_str(), RetryPolicy::default());
            client.register("t", &db, &policy, &quotas).expect("register");
            client.register("t", &db, &none.0, &none.1).expect("register");
            client.submit("t", &db, Some(250)).expect("submit");
            client.submit("t", &db, None).expect("submit");
            client.stats(Some("t")).expect("stats");
            client.stats(None).expect("stats");
            client.persist().expect("persist");
        }
        let frames = server.join().expect("capture server");
        let (plain, retrying) = frames.split_at(frames.len() / 2);
        assert_eq!(plain, retrying);

        let table =
            r#"{"name":"book","attributes":[{"name":"title","type":"string"}],"rows":[["x"]]}"#;
        let source = format!(r#"{{"name":"db","tables":[{table}]}}"#);
        let expected = [
            format!(
                r#"{{"op":"register","tenant":"t","tables":[{table}],"policy":{{"score_threshold":0.5,"top_k":3,"match_result_entries":8}}}}"#
            ),
            format!(r#"{{"op":"register","tenant":"t","tables":[{table}]}}"#),
            format!(r#"{{"op":"submit","tenant":"t","source":{source},"deadline_ms":250}}"#),
            format!(r#"{{"op":"submit","tenant":"t","source":{source}}}"#),
            r#"{"op":"stats","tenant":"t"}"#.to_string(),
            r#"{"op":"stats"}"#.to_string(),
            r#"{"op":"persist"}"#.to_string(),
        ];
        let plain: Vec<String> =
            plain.iter().map(|f| String::from_utf8(f.clone()).expect("UTF-8")).collect();
        assert_eq!(plain, expected);
    }
}
