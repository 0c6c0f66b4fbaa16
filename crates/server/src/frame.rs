//! Length-prefixed frame codec: `u32` big-endian payload length, then the
//! payload bytes (a JSON document). One frame per request, one per response.
//!
//! The length prefix is what makes the protocol trivially delimitable over a
//! blocking stream — no in-band scanning, no chunked parser state — and the
//! explicit `max_frame_bytes` bound is the first line of admission control:
//! a hostile or corrupt length is rejected *before* any allocation.
//!
//! Two consumption styles share the format: [`read_frame`]/[`write_frame`]
//! for blocking streams (the client), and [`FrameDecoder`] — an incremental
//! push parser — for the reactor's non-blocking connections, where bytes
//! arrive in arbitrary fragments and a frame may take many readiness events
//! to complete.

use std::io::{self, Read, Write};

/// Default bound on a single frame's payload (32 MiB) — far above any sane
/// catalog registration, far below an `u32::MAX` allocation.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload, then flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Frame a payload into owned wire bytes: 4-byte big-endian length, then
/// the payload. The buffered-write counterpart of [`write_frame`] — the
/// reactor appends these to a connection's write buffer and flushes as the
/// socket allows.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame exceeds u32 length");
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_be_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// Read one frame's payload.
///
/// Returns `Ok(None)` on a *clean* EOF (the peer closed between frames —
/// the normal end of a connection); a close mid-frame is an
/// [`io::ErrorKind::UnexpectedEof`] error. A length above `max_bytes` is an
/// [`io::ErrorKind::InvalidData`] error, detected before allocating.
pub fn read_frame<R: Read>(r: &mut R, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            // `read_exact` retries Interrupted; the header loop must too, or
            // a signal landing between frames tears down a healthy connection.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// An incremental frame parser for non-blocking reads: bytes go in via
/// [`FrameDecoder::extend`] whenever the socket is readable, complete
/// payloads come out of [`FrameDecoder::next_frame`]. The state machine is
/// exactly the blocking [`read_frame`]'s, cut at every byte boundary:
/// the 4-byte header is validated against `max_bytes` the moment it is
/// complete — **before** the payload is allocated — so a hostile length
/// costs 4 buffered bytes, never an allocation.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted lazily
    /// so back-to-back small frames don't memmove per frame.
    consumed: usize,
    max_bytes: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max_bytes` per frame payload.
    pub fn new(max_bytes: usize) -> FrameDecoder {
        FrameDecoder { buf: Vec::new(), consumed: 0, max_bytes }
    }

    /// Buffer freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && (self.consumed >= 4096 || self.consumed == self.buf.len()) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one is buffered. An
    /// over-`max_bytes` header is an [`io::ErrorKind::InvalidData`] error,
    /// and the connection owning this decoder must be closed: the stream
    /// position is inside a frame we refuse to buffer, so no later bytes
    /// can be trusted.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > self.max_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {}-byte bound", self.max_bytes),
            ));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.consumed += 4 + len;
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"a\":1}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn oversized_length_is_rejected_before_reading() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(1_000_000u32).to_be_bytes());
        let err = read_frame(&mut Cursor::new(wire), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        // Header cut short.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Payload cut short.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(8u32).to_be_bytes());
        wire.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(wire), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A stream that serves one byte per `read` call and injects an
    /// `Interrupted` error before each — the worst-behaved short-read peer
    /// a real socket can legally be.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl Dribble {
        fn new(bytes: Vec<u8>) -> Dribble {
            Dribble { bytes, pos: 0, interrupt_next: true }
        }
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.interrupt_next = true;
            if self.pos >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn one_byte_reads_with_interrupts_still_deliver_whole_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"stats\"}").unwrap();
        write_frame(&mut wire, b"x").unwrap();
        let mut r = Dribble::new(wire);
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"{\"op\":\"stats\"}");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"x");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn dribbled_truncation_at_every_byte_boundary_is_an_error_never_a_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Cut the wire at every interior byte: each prefix must end in a
        // clean mid-frame error, never a short or phantom frame.
        for cut in 1..wire.len() {
            let err = read_frame(&mut Dribble::new(wire[..cut].to_vec()), 64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at byte {cut}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_even_when_dribbled() {
        let mut wire = (u32::MAX).to_be_bytes().to_vec();
        wire.extend_from_slice(b"garbage that must never be allocated for");
        let err = read_frame(&mut Dribble::new(wire), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_assembles_frames_from_one_byte_fragments() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"stats\"}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut decoder = FrameDecoder::new(64);
        let mut frames = Vec::new();
        for byte in &wire {
            decoder.extend(&[*byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames, vec![b"{\"op\":\"stats\"}".to_vec(), Vec::new(), b"second".to_vec()]);
    }

    #[test]
    fn decoder_reports_partial_frames_and_pops_pipelined_ones() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut decoder = FrameDecoder::new(64);
        // Both frames plus the header of a third arrive in one readiness
        // event — the pipelined case the reactor must drain frame by frame.
        decoder.extend(&wire);
        decoder.extend(&3u32.to_be_bytes());
        decoder.extend(b"ab");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"second");
        assert_eq!(decoder.next_frame().unwrap(), None, "third frame incomplete");
        decoder.extend(b"c");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"abc");
    }

    #[test]
    fn decoder_rejects_oversized_headers_before_buffering_payloads() {
        let mut decoder = FrameDecoder::new(1024);
        decoder.extend(&(u32::MAX).to_be_bytes());
        let err = decoder.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_compacts_consumed_bytes_across_many_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7u8; 100]).unwrap();
        let mut decoder = FrameDecoder::new(1024);
        for _ in 0..200 {
            decoder.extend(&wire);
            assert_eq!(decoder.next_frame().unwrap().unwrap(), vec![7u8; 100]);
        }
        assert!(decoder.buf.capacity() < 64 * 1024, "buffer stays small under reuse");
    }
}
