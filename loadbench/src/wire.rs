//! The benchmark's two connection kinds behind one [`Conn`] trait.
//!
//! Untraced runs drive the repository's own [`cxm_server::Client`], so the
//! end-to-end latency is exactly what a caller of that client sees. The
//! traced run uses [`TracedConn`], which performs the same steps as
//! `Client::request` — build the request object, `to_bytes`, `write_frame`
//! plus flush, `read_frame`, `parse` — and keeps every request's bytes, so
//! the server stages can be replayed on them later. It wraps the steps in
//! spans on every other op only: the ops in between are the untraced
//! baseline the tracing overhead is measured against, interleaved so that
//! slow drift over a run cancels out.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use cxm_relational::{Database, Table};
use cxm_server::json::parse;
use cxm_server::protocol::{encode_database, encode_table};
use cxm_server::{
    read_frame, write_frame, Client, Json, TenantPolicy, TenantQuotas, DEFAULT_MAX_FRAME_BYTES,
};

use crate::inputs::TENANT;
use crate::spans::{Recorder, SpanId};

/// The `submit` request object, as [`Client::submit`] builds it.
pub fn submit_frame(source: &Database) -> Json {
    Json::Object(vec![
        ("op".into(), Json::str("submit")),
        ("tenant".into(), Json::str(TENANT)),
        ("source".into(), encode_database(source)),
    ])
}

/// The `register` request object, as [`Client::register`] builds it under
/// the default policy and quotas.
pub fn register_frame(target: &Database) -> Json {
    let tables = encode_database(target).get("tables").cloned().unwrap_or(Json::Array(Vec::new()));
    Json::Object(vec![
        ("op".into(), Json::str("register")),
        ("tenant".into(), Json::str(TENANT)),
        ("tables".into(), tables),
    ])
}

/// The `replace` request object, as [`Client::replace_table`] builds it.
pub fn replace_frame(table: &Table) -> Json {
    Json::Object(vec![
        ("op".into(), Json::str("replace")),
        ("tenant".into(), Json::str(TENANT)),
        ("table".into(), encode_table(table)),
    ])
}

/// One benchmark connection. `request` is the benchmark request id the
/// call belongs to (a wide refresh is two calls of one request).
pub trait Conn {
    /// Ask for the next op to be traced; returns whether it will be.
    fn trace_next(&mut self, _on: bool) -> bool {
        false
    }
    fn submit(&mut self, request: u64, source: &Database) -> io::Result<Json>;
    fn replace(&mut self, request: u64, table: &Table) -> io::Result<Json>;
    fn register(&mut self, request: u64, target: &Database) -> io::Result<Json>;
}

impl Conn for Client {
    fn submit(&mut self, _: u64, source: &Database) -> io::Result<Json> {
        Client::submit(self, TENANT, source, None)
    }

    fn replace(&mut self, _: u64, table: &Table) -> io::Result<Json> {
        self.replace_table(TENANT, table)
    }

    fn register(&mut self, _: u64, target: &Database) -> io::Result<Json> {
        Client::register(self, TENANT, target, &TenantPolicy::default(), &TenantQuotas::default())
    }
}

/// What the traced connection kept of one call.
pub struct TracedCall {
    pub request: u64,
    /// When the call started, on the recorder's clock.
    pub sent_ns: u64,
    /// The reply's `result_cache_hit` (submits only).
    pub server_hit: Option<bool>,
    /// The exact request payload that went on the wire.
    pub payload: Vec<u8>,
    /// The call's `wire.rtt` span (traced calls only), the graft point of
    /// its replayed server stages.
    pub rtt: Option<SpanId>,
}

/// A connection that times each client step in a span.
pub struct TracedConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pub recorder: Recorder,
    pub calls: Vec<TracedCall>,
    tracing: bool,
}

impl TracedConn {
    /// Connect the way [`Client::connect`] does.
    pub fn connect(addr: SocketAddr, recorder: Recorder) -> io::Result<TracedConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TracedConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            recorder,
            calls: Vec::new(),
            tracing: false,
        })
    }

    fn call(&mut self, request: u64, build: impl FnOnce() -> Json) -> io::Result<Json> {
        let tracing = self.tracing;
        let open = |rec: &mut Recorder, name| tracing.then(|| rec.open(name, None, request));
        let close = |rec: &mut Recorder, span: Option<SpanId>| span.map(|id| rec.close(id));
        let rec = &mut self.recorder;
        let sent_ns = rec.now_ns();

        let span = open(rec, "client.request_encode");
        let payload = build().to_bytes();
        close(rec, span);
        let rtt = open(rec, "wire.rtt");
        write_frame(&mut self.writer, &payload)?;
        self.writer.flush()?;
        let reply = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        close(rec, rtt);
        let span = open(rec, "client.response_parse");
        let parsed = parse(&reply);
        close(rec, span);
        if tracing {
            rec.count("protocol.request_bytes", request, payload.len() as f64);
            rec.count("protocol.response_bytes", request, reply.len() as f64);
        }

        let parsed = parsed.map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}"))
        })?;
        let server_hit = parsed.get("result_cache_hit").and_then(Json::as_bool);
        self.calls.push(TracedCall { request, sent_ns, server_hit, payload, rtt });
        Ok(parsed)
    }
}

impl Conn for TracedConn {
    fn trace_next(&mut self, on: bool) -> bool {
        self.tracing = on;
        on
    }

    fn submit(&mut self, request: u64, source: &Database) -> io::Result<Json> {
        self.call(request, || submit_frame(source))
    }

    fn replace(&mut self, request: u64, table: &Table) -> io::Result<Json> {
        self.call(request, || replace_frame(table))
    }

    fn register(&mut self, request: u64, target: &Database) -> io::Result<Json> {
        self.call(request, || register_frame(target))
    }
}
