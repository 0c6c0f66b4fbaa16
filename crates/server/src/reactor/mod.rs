//! The readiness-driven connection reactor.
//!
//! One thread owns the listener and **every** connection: non-blocking
//! sockets registered with the [`sys::Poller`], a per-connection state
//! machine assembling frames through [`FrameDecoder`] and draining a write
//! buffer under backpressure. Resident threads are `workers + 1` — this
//! thread — independent of connection count, which is the whole point:
//! ten thousand mostly-idle tenant connections cost file descriptors and
//! buffers, not stacks.
//!
//! Division of labor with the worker pool:
//!
//! * **cheap, ordering-sensitive work runs here** — frame assembly, request
//!   parsing, control ops (`register`/`stats`/`shutdown`/…), and *admission*
//!   of submissions. Single-threaded admission is what makes the per-tenant
//!   in-flight cap race-free: the check and the increment happen on one
//!   thread.
//! * **expensive work runs on the workers** — a [`Handler::handle`] that
//!   returns [`Action::Pending`] has handed the request to the pool; the
//!   worker answers later by pushing a [`Completion`] through
//!   [`ReactorShared::complete`], which wakes this thread to stream the
//!   response back out.
//!
//! One request is in flight per connection at a time (the protocol promises
//! strictly ordered replies); while a submission is at the workers the
//! connection's read interest is parked, so a client pipelining requests
//! applies backpressure to itself, never to the reactor. A byte-dribbling
//! (slow-loris) peer costs one parked connection and nothing else — no
//! worker, no thread — and the idle sweep reclaims it: **only complete
//! frames and flushed responses count as progress**, so dribbled partial
//! frames do not keep a connection alive past the idle timeout.
//!
//! Connection governance — the global connection limit, the idle timeout —
//! lives here too, both rejecting/closing explicitly (an error frame where
//! a peer is still listening, a close where it is gone), never hanging.

pub mod sys;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cxm_service::MutexExt;

use crate::frame::FrameDecoder;
use crate::telemetry::{bump, monotonic_ms, ServerCounters};
use sys::{Event, Interest, Poller};

/// Poller token of the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the waker's read end.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Identifies a live connection across the worker round-trip. The slot
/// indexes the reactor's connection table; the generation fences stale
/// completions — a slot reused by a new connection has a new generation, so
/// a response to a connection that died mid-flight is dropped, never
/// delivered to the wrong peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId {
    slot: u32,
    generation: u32,
}

impl ConnId {
    fn token(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.slot)
    }

    fn from_token(token: u64) -> ConnId {
        ConnId { slot: token as u32, generation: (token >> 32) as u32 }
    }
}

/// What [`Handler::handle`] decided about one complete request frame.
#[derive(Debug)]
pub enum Action {
    /// Answer now with these pre-framed wire bytes.
    Reply(Vec<u8>),
    /// The request went to the worker pool; a [`Completion`] will arrive.
    Pending,
}

/// A worker's finished response, addressed by connection identity.
#[derive(Debug)]
pub struct Completion {
    /// The connection the response belongs to.
    pub conn: ConnId,
    /// Pre-framed wire bytes.
    pub frame: Vec<u8>,
}

/// The server logic the reactor drives. Implemented by the serving layer's
/// shared state; kept as a trait so the reactor's own tests can drive it
/// with a trivial echo handler (which is also what the ThreadSanitizer job
/// runs).
pub trait Handler: Send + Sync + 'static {
    /// Whether new connections are still admitted (false once draining).
    fn accepting(&self) -> bool;
    /// Handle one complete request payload from `conn`.
    fn handle(&self, conn: ConnId, payload: &[u8]) -> Action;
    /// The pre-framed error frame sent (best-effort) to a connection
    /// refused by the global connection limit.
    fn limit_reject_frame(&self) -> Vec<u8>;
}

/// The cross-thread half of the reactor: workers push completions and wake
/// it; the owner signals exit. Wrapped in an `Arc` shared between the
/// reactor thread, the worker pool, and the server handle.
#[derive(Debug)]
pub struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    exit: AtomicBool,
}

impl ReactorShared {
    /// A fresh shared half (creates the waker pipe).
    pub fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            exit: AtomicBool::new(false),
        })
    }

    /// Deliver a worker's finished response and wake the reactor.
    pub fn complete(&self, completion: Completion) {
        self.completions.lock_or_recover().push(completion);
        self.waker.wake();
    }

    /// Wake the reactor without a completion (drain notification).
    pub fn wake(&self) {
        self.waker.wake();
    }

    /// Tell the reactor to flush what it can and exit. Call only after the
    /// workers have been joined — completions pushed after the reactor
    /// exits are dropped.
    pub fn signal_exit(&self) {
        self.exit.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// Self-pipe waker: one byte down a non-blocking socketpair makes the
/// poller's wait return. A full pipe means a wake is already pending, so a
/// `WouldBlock` on write is success.
#[derive(Debug)]
struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Reactor construction parameters (the serving layer's connection
/// governance knobs).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Per-frame payload bound, enforced by each connection's decoder.
    pub max_frame_bytes: usize,
    /// Global cap on concurrently open connections; one over the cap is
    /// answered with [`Handler::limit_reject_frame`] and closed.
    pub max_connections: usize,
    /// Close connections that made no progress (no complete frame in, no
    /// response flushed out) for this long. `None` disables the sweep.
    pub idle_timeout_ms: Option<u64>,
}

/// Why a connection was closed (drives which counter the close bumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up or the transport failed.
    Peer,
    /// Protocol violation (oversized frame header).
    Protocol,
    /// Idle-timeout sweep.
    Idle,
    /// Reactor exit.
    Drain,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    id: ConnId,
    decoder: FrameDecoder,
    write_buf: Vec<u8>,
    written: usize,
    /// A request is at the workers; reads are parked until its completion.
    in_flight: bool,
    interest: Interest,
    /// [`monotonic_ms`] of the last complete frame or flushed response.
    /// Deliberately **not** updated by partial reads or partial writes, so
    /// a byte-dribbling peer looks idle to the sweep.
    last_progress_ms: u64,
}

impl Conn {
    fn wants(&self) -> Interest {
        Interest { read: !self.in_flight, write: self.written < self.write_buf.len() }
    }
}

/// The reactor: listener + connection table + poller, consumed by
/// [`Reactor::run`] on its own thread.
pub struct Reactor<H: Handler> {
    poller: Poller,
    listener: TcpListener,
    handler: Arc<H>,
    shared: Arc<ReactorShared>,
    counters: Arc<ServerCounters>,
    config: ReactorConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    generation: u32,
}

impl<H: Handler> Reactor<H> {
    /// Build a reactor over an already-bound listener. The listener is
    /// switched to non-blocking and registered; errors here surface before
    /// the serving thread spawns.
    pub fn new(
        listener: TcpListener,
        handler: Arc<H>,
        shared: Arc<ReactorShared>,
        counters: Arc<ServerCounters>,
        config: ReactorConfig,
    ) -> io::Result<Reactor<H>> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(shared.waker.rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            poller,
            listener,
            handler,
            shared,
            counters,
            config,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            generation: 0,
        })
    }

    /// The event loop. Returns after [`ReactorShared::signal_exit`]: final
    /// completions are delivered, pending responses get a bounded blocking
    /// flush, every connection is closed.
    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = match self.config.idle_timeout_ms {
                // Sweep granularity: a fraction of the timeout, floored so
                // tiny timeouts don't busy-spin.
                Some(ms) => (ms / 4).clamp(5, 500) as i32,
                None => -1,
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot be recovered from here; back off so
                // a transient error (EINTR storms aside) cannot spin a core.
                std::thread::sleep(Duration::from_millis(5));
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    _ => self.conn_ready(ev),
                }
            }
            self.process_completions();
            if let Some(timeout_ms) = self.config.idle_timeout_ms {
                self.sweep_idle(timeout_ms);
            }
            if self.shared.exit.load(Ordering::Acquire) {
                self.shutdown_flush();
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !self.handler.accepting() {
                        // Draining: late connections are closed unserved,
                        // exactly like the threaded accept loop before.
                        drop(stream);
                        continue;
                    }
                    if self.open >= self.config.max_connections {
                        self.reject_over_limit(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.install(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted handshake):
                    // yield briefly, let the next readiness event retry.
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Explicit refusal at the connection limit: best-effort error frame
    /// (a tiny frame fits the socket send buffer, so a single non-blocking
    /// write delivers it to any live peer), then close. Never a hang.
    fn reject_over_limit(&mut self, stream: TcpStream) {
        bump(&self.counters.connection_limit_rejects);
        let frame = self.handler.limit_reject_frame();
        if stream.set_nonblocking(true).is_ok() {
            let _ = (&stream).write(&frame);
        }
    }

    fn install(&mut self, stream: TcpStream) {
        self.generation = self.generation.wrapping_add(1);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let id = ConnId { slot: slot as u32, generation: self.generation };
        if self.poller.add(stream.as_raw_fd(), id.token(), Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.counters.connection_opened();
        self.open += 1;
        self.conns[slot] = Some(Conn {
            stream,
            id,
            decoder: FrameDecoder::new(self.config.max_frame_bytes),
            write_buf: Vec::new(),
            written: 0,
            in_flight: false,
            interest: Interest::READ,
            last_progress_ms: monotonic_ms(),
        });
    }

    fn conn_ready(&mut self, ev: Event) {
        let id = ConnId::from_token(ev.token);
        let slot = id.slot as usize;
        match self.conns.get(slot) {
            Some(Some(conn)) if conn.id == id => {}
            // Stale event for a closed or reused slot.
            _ => return,
        }
        if ev.closed {
            self.close_conn(slot, CloseReason::Peer);
            return;
        }
        if ev.writable && !self.flush(slot) {
            return;
        }
        if ev.readable {
            self.read_ready(slot);
        }
    }

    /// Read until `WouldBlock` (or a park/close), feeding the decoder and
    /// dispatching complete frames.
    fn read_ready(&mut self, slot: usize) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let outcome = {
                let Some(conn) = self.conns[slot].as_mut() else { return };
                if conn.in_flight {
                    // Parked: the pending request's completion will unpark.
                    break;
                }
                (&conn.stream).read(&mut buf)
            };
            match outcome {
                Ok(0) => {
                    self.close_conn(slot, CloseReason::Peer);
                    return;
                }
                Ok(n) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.decoder.extend(&buf[..n]);
                    }
                    if !self.drain_frames(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, CloseReason::Peer);
                    return;
                }
            }
        }
        self.update_interest(slot);
    }

    /// Dispatch every complete buffered frame until the decoder runs dry or
    /// a request goes in flight. Returns false when the connection closed.
    fn drain_frames(&mut self, slot: usize) -> bool {
        let handler = Arc::clone(&self.handler);
        loop {
            let (id, payload) = {
                let Some(conn) = self.conns[slot].as_mut() else { return false };
                if conn.in_flight {
                    return true;
                }
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => {
                        conn.last_progress_ms = monotonic_ms();
                        (conn.id, payload)
                    }
                    Ok(None) => return true,
                    Err(_) => {
                        // Oversized header: the stream position is inside a
                        // frame we refuse to buffer — close, like the
                        // blocking server did.
                        self.close_conn(slot, CloseReason::Protocol);
                        return false;
                    }
                }
            };
            match handler.handle(id, &payload) {
                Action::Reply(frame) => {
                    if !self.queue_write(slot, frame) {
                        return false;
                    }
                }
                Action::Pending => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.in_flight = true;
                    }
                    self.update_interest(slot);
                }
            }
        }
    }

    /// Queue a response frame and flush what the socket will take now. An
    /// idle connection takes the frame itself as its write buffer, with no
    /// copy; only a frame queued behind unflushed bytes is appended.
    /// Returns false when the connection closed.
    fn queue_write(&mut self, slot: usize, frame: Vec<u8>) -> bool {
        if let Some(conn) = self.conns[slot].as_mut() {
            if conn.write_buf.is_empty() {
                conn.write_buf = frame;
            } else {
                conn.write_buf.extend_from_slice(&frame);
            }
        }
        self.flush(slot)
    }

    /// Write until the buffer empties or the socket blocks. A fully
    /// flushed response counts as progress, and frees the buffer: an idle
    /// connection keeps no reply-sized allocation. Returns false when
    /// closed.
    fn flush(&mut self, slot: usize) -> bool {
        loop {
            let outcome = {
                let Some(conn) = self.conns[slot].as_mut() else { return false };
                if conn.written == conn.write_buf.len() {
                    if !conn.write_buf.is_empty() {
                        conn.write_buf = Vec::new();
                        conn.written = 0;
                        conn.last_progress_ms = monotonic_ms();
                    }
                    break;
                }
                let range = conn.written..;
                let buf = &conn.write_buf[range];
                (&conn.stream).write(buf)
            };
            match outcome {
                Ok(0) => {
                    self.close_conn(slot, CloseReason::Peer);
                    return false;
                }
                Ok(n) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.written += n;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, CloseReason::Peer);
                    return false;
                }
            }
        }
        self.update_interest(slot);
        true
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let wants = conn.wants();
        if wants == conn.interest {
            return;
        }
        conn.interest = wants;
        let _ = self.poller.modify(conn.stream.as_raw_fd(), conn.id.token(), wants);
    }

    /// Deliver worker completions: unpark the connection, stream the
    /// response, then dispatch any requests the client pipelined behind the
    /// one that was in flight.
    fn process_completions(&mut self) {
        let batch = std::mem::take(&mut *self.shared.completions.lock_or_recover());
        for Completion { conn: id, frame } in batch {
            let slot = id.slot as usize;
            match self.conns.get_mut(slot) {
                Some(Some(conn)) if conn.id == id => conn.in_flight = false,
                // The connection died while its request was at the workers;
                // the response has nowhere to go.
                _ => continue,
            }
            if self.queue_write(slot, frame) {
                self.drain_frames(slot);
                self.update_interest(slot);
            }
        }
    }

    /// Close connections that made no progress for `timeout_ms`. A parked
    /// in-flight connection is waiting on *us*, not on the peer, so it is
    /// exempt; a dribbled partial frame is not progress (see [`Conn`]).
    fn sweep_idle(&mut self, timeout_ms: u64) {
        let now = monotonic_ms();
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let idle =
                    !conn.in_flight && now.saturating_sub(conn.last_progress_ms) >= timeout_ms;
                idle.then_some(slot)
            })
            .collect();
        for slot in stale {
            self.close_conn(slot, CloseReason::Idle);
        }
    }

    fn close_conn(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns[slot].take() else { return };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if reason == CloseReason::Idle {
            bump(&self.counters.idle_timeout_closes);
        }
        self.counters.connection_closed();
        self.open -= 1;
        self.free.push(slot);
        drop(conn);
        let _ = reason;
    }

    /// Exit path: deliver the final completions (the workers are already
    /// joined, so no more can arrive), give each pending response a bounded
    /// blocking flush, and close everything.
    fn shutdown_flush(&mut self) {
        self.process_completions();
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if conn.written < conn.write_buf.len() {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let pending = conn.write_buf[conn.written..].to_vec();
                    let _ = conn.stream.write_all(&pending);
                }
            }
            self.close_conn(slot, CloseReason::Drain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame_bytes, read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    use std::net::TcpListener;

    /// Echoes frames back; payloads starting with `+` go through a fake
    /// worker thread (the [`Action::Pending`] path).
    struct Echo {
        shared: Arc<ReactorShared>,
        accepting: AtomicBool,
    }

    impl Handler for Echo {
        fn accepting(&self) -> bool {
            self.accepting.load(Ordering::Relaxed)
        }

        fn handle(&self, conn: ConnId, payload: &[u8]) -> Action {
            if payload.first() == Some(&b'+') {
                let shared = Arc::clone(&self.shared);
                let response = payload.to_vec();
                std::thread::spawn(move || {
                    shared.complete(Completion { conn, frame: frame_bytes(&response) });
                });
                Action::Pending
            } else {
                Action::Reply(frame_bytes(payload))
            }
        }

        fn limit_reject_frame(&self) -> Vec<u8> {
            frame_bytes(b"limit")
        }
    }

    struct Rig {
        addr: std::net::SocketAddr,
        shared: Arc<ReactorShared>,
        thread: std::thread::JoinHandle<()>,
        counters: Arc<ServerCounters>,
    }

    fn rig(config: ReactorConfig) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = Arc::new(ReactorShared::new().expect("shared"));
        let counters = Arc::new(ServerCounters::default());
        let handler =
            Arc::new(Echo { shared: Arc::clone(&shared), accepting: AtomicBool::new(true) });
        let reactor =
            Reactor::new(listener, handler, Arc::clone(&shared), Arc::clone(&counters), config)
                .expect("reactor");
        let thread = std::thread::spawn(move || reactor.run());
        Rig { addr, shared, thread, counters }
    }

    fn default_config() -> ReactorConfig {
        ReactorConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: 64,
            idle_timeout_ms: None,
        }
    }

    #[test]
    fn echoes_inline_and_pending_replies_in_order() {
        let rig = rig(default_config());
        let mut stream = TcpStream::connect(rig.addr).expect("connect");
        // Mix inline echoes and worker-routed (+) requests; replies must
        // come back strictly in order.
        for round in 0..8 {
            let payload: Vec<u8> = if round % 2 == 0 {
                format!("inline-{round}").into_bytes()
            } else {
                format!("+worker-{round}").into_bytes()
            };
            write_frame(&mut stream, &payload).expect("write");
            let reply = read_frame(&mut stream, 1 << 20).expect("read").expect("frame");
            assert_eq!(reply, payload, "round {round}");
        }
        // Pipelined burst: three requests in one write, three ordered
        // replies (the middle one routed through the fake worker).
        let mut burst = Vec::new();
        burst.extend_from_slice(&frame_bytes(b"a"));
        burst.extend_from_slice(&frame_bytes(b"+b"));
        burst.extend_from_slice(&frame_bytes(b"c"));
        (&stream).write_all(&burst).expect("burst");
        for expected in [b"a".to_vec(), b"+b".to_vec(), b"c".to_vec()] {
            let reply = read_frame(&mut stream, 1 << 20).expect("read").expect("frame");
            assert_eq!(reply, expected);
        }
        drop(stream);
        rig.shared.signal_exit();
        rig.thread.join().expect("reactor thread");
        assert_eq!(rig.counters.open_connections.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_flushed_reply_leaves_no_reply_sized_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = Arc::new(ReactorShared::new().expect("shared"));
        let handler =
            Arc::new(Echo { shared: Arc::clone(&shared), accepting: AtomicBool::new(true) });
        let counters = Arc::new(ServerCounters::default());
        let mut reactor =
            Reactor::new(listener, handler, shared, counters, default_config()).expect("reactor");
        let mut client = TcpStream::connect(addr).expect("connect");
        while reactor.open == 0 {
            reactor.accept_ready();
            std::thread::yield_now();
        }
        let slot = reactor.conns.iter().position(Option::is_some).expect("installed");
        // Past any socket send buffer, so the frame is flushed in pieces.
        let payload = vec![b'r'; 8 << 20];
        let reply = frame_bytes(&payload);
        let (address, len) = (reply.as_ptr(), reply.len());
        let reader = std::thread::spawn(move || read_frame(&mut client, 16 << 20));
        assert!(reactor.queue_write(slot, reply));
        {
            let conn = reactor.conns[slot].as_ref().expect("open");
            assert!(conn.written < len, "the socket took part of the frame");
            assert_eq!(conn.write_buf.as_ptr(), address, "the frame moved in, uncopied");
        }
        while !reactor.conns[slot].as_ref().expect("open").write_buf.is_empty() {
            assert!(reactor.flush(slot));
            std::thread::yield_now();
        }
        let conn = reactor.conns[slot].as_ref().expect("open");
        assert_eq!((conn.write_buf.capacity(), conn.written), (0, 0), "the buffer was freed");
        let echoed = reader.join().expect("reader").expect("read").expect("frame");
        assert!(echoed == payload, "the reply arrives whole");
    }

    #[test]
    fn connection_limit_rejects_with_a_frame_and_closes() {
        let rig = rig(ReactorConfig { max_connections: 1, ..default_config() });
        let mut first = TcpStream::connect(rig.addr).expect("connect");
        write_frame(&mut first, b"hold").expect("write");
        assert_eq!(read_frame(&mut first, 1 << 20).expect("read").expect("frame"), b"hold");

        let mut second = TcpStream::connect(rig.addr).expect("connect");
        let reply = read_frame(&mut second, 1 << 20).expect("read").expect("reject frame");
        assert_eq!(reply, b"limit");
        assert!(
            read_frame(&mut second, 1 << 20).expect("eof after reject").is_none(),
            "rejected connection is closed after the frame"
        );
        assert_eq!(rig.counters.connection_limit_rejects.load(Ordering::Relaxed), 1);

        // The held connection still works; closing it frees the slot.
        write_frame(&mut first, b"still").expect("write");
        assert_eq!(read_frame(&mut first, 1 << 20).expect("read").expect("frame"), b"still");
        drop(first);
        let mut third = loop {
            let mut candidate = TcpStream::connect(rig.addr).expect("connect");
            write_frame(&mut candidate, b"again").expect("write");
            match read_frame(&mut candidate, 1 << 20).expect("read") {
                Some(reply) if reply == b"again" => break candidate,
                // The reactor has not yet reaped the dropped connection (or
                // rejected us); retry until the slot frees.
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        write_frame(&mut third, b"bye").expect("write");
        assert_eq!(read_frame(&mut third, 1 << 20).expect("read").expect("frame"), b"bye");

        rig.shared.signal_exit();
        rig.thread.join().expect("reactor thread");
    }

    #[test]
    fn idle_sweep_reclaims_dribblers_but_not_inflight_requests() {
        // The timeout sits far above the active client's pacing (one frame
        // and its echo every ~20 ms) plus scheduler delay on a loaded host,
        // so only a peer that really stalls can reach it.
        let rig = rig(ReactorConfig { idle_timeout_ms: Some(400), ..default_config() });
        // A dribbler: writes a frame header and stops. Partial frames are
        // not progress, so the sweep closes it.
        let mut loris = TcpStream::connect(rig.addr).expect("connect");
        loris.write_all(&[0, 0]).expect("dribble");
        // An active client completing frames stays alive through several
        // sweep periods (100 ms each at this timeout) and two full timeouts.
        let mut active = TcpStream::connect(rig.addr).expect("connect");
        for i in 0..40 {
            write_frame(&mut active, format!("tick-{i}").as_bytes()).expect("write");
            let reply = read_frame(&mut active, 1 << 20).expect("read").expect("frame");
            assert_eq!(reply, format!("tick-{i}").as_bytes());
            std::thread::sleep(Duration::from_millis(20));
        }
        // The dribbler is gone: its socket reports EOF (or reset).
        loris.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = [0u8; 8];
        match (&loris).read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("dribbler got {n} unexpected bytes"),
        }
        assert!(
            rig.counters.idle_timeout_closes.load(Ordering::Relaxed) >= 1,
            "the sweep counted the close"
        );
        rig.shared.signal_exit();
        rig.thread.join().expect("reactor thread");
    }
}
