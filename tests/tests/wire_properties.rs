//! Property-based tests for the wire codec (`cxm_server::json`), pinned to
//! the character-at-a-time reference codec of `cxm_tests::reference`:
//!
//! * on arbitrary value trees, `to_bytes` writes exactly the reference
//!   writer's bytes, and `parse` of those bytes equals the reference parse;
//!   an object that repeats a key is rejected, whatever its size;
//! * on arbitrary bytes, and on every truncation and single-byte mutation
//!   of encoded retail `submit`, `register` and reply frames, `parse` never
//!   panics and accepts exactly the inputs the reference accepts, with
//!   equal values (no truncation is accepted); `Request::from_json` and
//!   `decode_database` never panic on whatever parses;
//! * on streams of frames, oversized headers and arbitrary bytes, fed in
//!   fragments of random size, `FrameDecoder` never panics and yields
//!   exactly the payloads the blocking `read_frame` reads, failing at the
//!   same frame;
//! * on arbitrary match results and policies, the streaming `write_result`
//!   appends exactly `encode_result(..).to_bytes()`, which are the
//!   reference writer's bytes of the same tree.
//!
//! Inputs are generated from a seeded LCG, as in `persist_properties.rs`:
//! one `u64` seed fans out into trees, byte strings and mutations.

use std::io::{self, Cursor};
use std::sync::OnceLock;

use proptest::prelude::*;

use cxm_core::{ContextMatchConfig, ContextMatchResult, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_matching::Match;
use cxm_relational::{AttrRef, Condition, Value, ViewDef};
use cxm_server::json::{parse, Json};
use cxm_server::protocol::{
    decode_database, encode_database, encode_result, ok_frame, write_result,
};
use cxm_server::{frame_bytes, read_frame, FrameDecoder, Request, TenantPolicy};
use cxm_service::{MatchService, ServiceConfig};
use cxm_tests::reference::{json_parse, json_to_bytes};

/// Deterministic generator for codec inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bits(&mut self) -> u64 {
        (self.next() << 11) ^ self.next()
    }

    /// A string mixing every byte the writer escapes with 1- to 4-byte
    /// scalars, so multibyte sequences sit right next to escapes.
    fn string(&mut self) -> String {
        const ALPHABET: &[char] =
            &['a', 'Z', ' ', '"', '\\', '/', '\u{7F}', 'é', 'ß', '€', '中', '\u{FFFF}', '😀'];
        (0..self.below(10))
            .map(|_| match self.below(4) {
                0 => char::from(self.below(0x20) as u8),
                _ => ALPHABET[self.below(ALPHABET.len() as u64) as usize],
            })
            .collect()
    }

    fn int(&mut self) -> i64 {
        match self.below(4) {
            0 => [i64::MIN, i64::MAX, 0, -1][self.below(4) as usize],
            1 => self.below(1000) as i64 - 500,
            _ => self.bits() as i64,
        }
    }

    /// A finite float: integral, tiny, huge, signed zero, or any finite
    /// bit pattern.
    fn float(&mut self) -> f64 {
        const SPECIAL: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.1,
            1e15,
            -2.5e16,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            -1e-300,
        ];
        match self.below(3) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => (self.bits() as i64 >> self.below(64)) as f64,
            _ => loop {
                let f = f64::from_bits(self.bits());
                if f.is_finite() {
                    break f;
                }
            },
        }
    }

    fn value(&mut self, depth: u32) -> Json {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 0),
            2 => Json::Int(self.int()),
            3 => Json::Float(self.float()),
            4 => Json::Str(self.string()),
            5 => Json::Array((0..self.below(6)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Object(self.members(depth - 1)),
        }
    }

    /// Object members with distinct keys, from none up to 40. A key is a
    /// digit-free string followed by its index, so no two keys of one
    /// object are equal.
    fn members(&mut self, depth: u32) -> Vec<(String, Json)> {
        let len = if self.below(4) == 0 { 10 + self.below(31) } else { self.below(6) };
        (0..len).map(|i| (format!("{}{i}", self.string()), self.value(depth))).collect()
    }

    /// A score: any finite float (signed zero, tiny and huge included),
    /// and now and then NaN or an infinity, which the writers degrade to
    /// `null`.
    fn score(&mut self) -> f64 {
        match self.below(6) {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize],
            _ => self.float(),
        }
    }

    fn cell(&mut self) -> Value {
        match self.below(4) {
            0 => Value::Null,
            1 => Value::Int(self.int()),
            2 => Value::Float(self.float()),
            _ => Value::Str(self.string()),
        }
    }

    /// A condition of every shape, its attributes and values drawn from
    /// the escape-heavy alphabet of [`Lcg::string`].
    fn condition(&mut self, depth: u32) -> Condition {
        match self.below(if depth == 0 { 3 } else { 5 }) {
            0 => Condition::True,
            1 => Condition::Eq(self.string(), self.cell()),
            2 => Condition::In(self.string(), (0..self.below(4)).map(|_| self.cell()).collect()),
            3 => Condition::And((0..self.below(3)).map(|_| self.condition(depth - 1)).collect()),
            _ => Condition::Or((0..self.below(3)).map(|_| self.condition(depth - 1)).collect()),
        }
    }

    /// A match list: empty, short, or up to 24 matches.
    fn matches(&mut self) -> Vec<Match> {
        let len = match self.below(3) {
            0 => 0,
            1 => self.below(4),
            _ => self.below(25),
        };
        (0..len)
            .map(|_| Match {
                source: AttrRef::new(self.string(), self.string()),
                base_table: self.string(),
                target: AttrRef::new(self.string(), self.string()),
                condition: self.condition(2),
                score: self.score(),
                confidence: self.score(),
            })
            .collect()
    }

    fn result(&mut self) -> ContextMatchResult {
        let candidate_views = (0..self.below(5))
            .map(|_| match self.below(2) {
                0 => ViewDef::select_only(self.string(), self.string(), self.condition(2)),
                _ => ViewDef::select_project(
                    self.string(),
                    self.string(),
                    self.condition(2),
                    (0..self.below(3)).map(|_| self.string()).collect(),
                ),
            })
            .collect();
        ContextMatchResult {
            selected: self.matches(),
            standard: self.matches(),
            candidates: self.matches(),
            candidate_views,
            families: Vec::new(),
        }
    }

    /// A policy: no threshold or any score as one (NaN included), and no
    /// `top_k`, or 0, 1, a few or `usize::MAX`.
    fn policy(&mut self) -> TenantPolicy {
        TenantPolicy {
            score_threshold: (self.below(3) > 0).then(|| self.score()),
            top_k: match self.below(5) {
                0 => None,
                n => Some([0, 1, 3, usize::MAX][n as usize - 1]),
            },
        }
    }

    /// Bytes drawn mostly from JSON's own alphabet, with controls and
    /// non-ASCII bytes mixed in.
    fn json_ish_bytes(&mut self) -> Vec<u8> {
        const ALPHABET: &[u8] = b"{}[]\":,\\ /0123456789-+.eEtruefalsnbu\
            \x00\x1f\x7f\x80\xbf\xc3\xa9\xe2\x82\xac\xf0\x9f\xed\xff";
        (0..self.below(64)).map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize]).collect()
    }

    fn bytes(&mut self, len: u64) -> Vec<u8> {
        (0..len).map(|_| self.below(256) as u8).collect()
    }

    /// A wire stream for the frame layer: whole frames with empty, small
    /// and mid-size payloads (up to `max_bytes`), headers over `max_bytes`,
    /// and arbitrary bytes, sometimes cut short inside a frame.
    fn frame_stream(&mut self, max_bytes: u64) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..self.below(6) {
            match self.below(8) {
                0 => {
                    let len = match self.below(3) {
                        0 => max_bytes + 1,
                        1 => u64::from(u32::MAX),
                        _ => max_bytes + 1 + self.below(1 << 20),
                    };
                    wire.extend_from_slice(&(len as u32).to_be_bytes());
                    let tail = self.below(32);
                    wire.extend(self.bytes(tail));
                }
                1 => {
                    let len = self.below(16);
                    wire.extend(self.bytes(len));
                }
                _ => {
                    let len = match self.below(4) {
                        0 => 0,
                        1 => 1 + self.below(16),
                        2 => 100 + self.below(max_bytes - 99),
                        _ => max_bytes,
                    };
                    wire.extend(frame_bytes(&self.bytes(len)));
                }
            }
        }
        if self.below(3) == 0 {
            let cut = self.below(wire.len() as u64) as usize;
            wire.truncate(cut);
        }
        wire
    }
}

/// Every frame `read_frame` reads from `wire`, and how the stream ended: a
/// clean end between frames, a trailing partial frame
/// ([`io::ErrorKind::UnexpectedEof`]) or an oversized header
/// ([`io::ErrorKind::InvalidData`]).
fn read_frames(wire: &[u8], max_bytes: usize) -> (Vec<Vec<u8>>, Option<io::ErrorKind>) {
    let mut reader = Cursor::new(wire);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut reader, max_bytes) {
            Ok(Some(payload)) => frames.push(payload),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.kind())),
        }
    }
}

/// Every frame a [`FrameDecoder`] pops from `wire` delivered in fragments
/// of random size, and the error that stopped it, if any. Without an error,
/// the decoder's last answer was `Ok(None)`: it waits for more bytes.
fn decode_frames(
    lcg: &mut Lcg,
    wire: &[u8],
    max_bytes: usize,
) -> (Vec<Vec<u8>>, Option<io::ErrorKind>) {
    let mut decoder = FrameDecoder::new(max_bytes);
    let mut frames = Vec::new();
    let mut rest = wire;
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) => break,
                Err(e) => return (frames, Some(e.kind())),
            }
        }
        if rest.is_empty() {
            return (frames, None);
        }
        let limit = if lcg.below(2) == 0 { 8 } else { rest.len() as u64 };
        let (fragment, tail) = rest.split_at(1 + lcg.below(limit.min(rest.len() as u64)) as usize);
        decoder.extend(fragment);
        rest = tail;
    }
}

/// `parse` accepts `bytes` exactly when the reference does, with an equal
/// value, and the request decoders survive whatever it accepts.
fn assert_parses_like_reference(bytes: &[u8]) {
    let parsed = parse(bytes).ok();
    assert_eq!(parsed, json_parse(bytes).ok(), "input {:?}", String::from_utf8_lossy(bytes));
    if let Some(value) = parsed {
        let _ = decode_database(&value);
        if let Ok(Request::Submit { source, .. }) = Request::from_json(&value) {
            let _ = decode_database(&source);
        }
    }
}

/// Encoded small retail frames: a `submit`, a `register` with every policy
/// member, and the `submit` reply the server sends for them.
fn frames() -> &'static [Vec<u8>] {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let retail = generate_retail(&RetailConfig {
            source_items: 6,
            target_rows: 5,
            ..Default::default()
        });
        let submit = Json::Object(vec![
            ("op".into(), Json::str("submit")),
            ("tenant".into(), Json::str("t")),
            ("source".into(), encode_database(&retail.source)),
            ("deadline_ms".into(), Json::Int(500)),
        ]);
        let tables = encode_database(&retail.target).get("tables").cloned().expect("tables");
        let register = Json::Object(vec![
            ("op".into(), Json::str("register")),
            ("tenant".into(), Json::str("t")),
            ("tables".into(), tables),
            (
                "policy".into(),
                Json::Object(vec![
                    ("score_threshold".into(), Json::Float(0.05)),
                    ("top_k".into(), Json::Int(3)),
                    ("source_cache_capacity".into(), Json::Int(4)),
                    ("selection_cache_tables".into(), Json::Int(2)),
                    ("restricted_profile_entries".into(), Json::Int(64)),
                    ("match_result_entries".into(), Json::Int(8)),
                ]),
            ),
        ]);
        let context = ContextMatchConfig::default()
            .with_inference(ViewInferenceStrategy::SrcClass)
            .with_tau(0.4);
        let service = MatchService::with_config(ServiceConfig { context, ..Default::default() });
        service.register_target(&retail.target);
        let response = service.submit(&retail.source).expect("submit");
        let policy = TenantPolicy { score_threshold: Some(0.05), top_k: Some(3) };
        let reply = ok_frame(
            "submit",
            vec![
                ("tenant".into(), Json::str("t")),
                ("catalog_version".into(), Json::Int(1)),
                ("result_cache_hit".into(), Json::Bool(false)),
                ("result".into(), encode_result(&response.result, &policy)),
            ],
        );
        [submit, register, reply].iter().map(Json::to_bytes).collect()
    })
}

#[test]
fn real_frames_round_trip_through_the_reference() {
    for frame in frames() {
        let parsed = parse(frame).expect("an encoded frame parses");
        assert_eq!(Some(&parsed), json_parse(frame).ok().as_ref());
        assert_eq!(&json_to_bytes(&parsed), frame);
    }
}

/// `write_result` appends `encode_result(..).to_bytes()` to whatever the
/// buffer already holds, and those are the reference writer's bytes.
fn assert_streams_like_the_tree(result: &ContextMatchResult, policy: &TenantPolicy) {
    let tree = encode_result(result, policy);
    let mut streamed = b"frame head".to_vec();
    write_result(&mut streamed, result, policy);
    assert_eq!(&streamed[..10], b"frame head");
    let streamed = &streamed[10..];
    assert!(
        streamed == tree.to_bytes(),
        "policy {policy:?}: streamed {:?}, tree {:?}",
        String::from_utf8_lossy(streamed),
        tree.to_text()
    );
    assert_eq!(streamed, json_to_bytes(&tree));
}

#[test]
fn write_result_streams_a_real_retail_result_under_every_policy() {
    let retail =
        generate_retail(&RetailConfig { source_items: 12, target_rows: 8, ..Default::default() });
    let context =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let service = MatchService::with_config(ServiceConfig { context, ..Default::default() });
    service.register_target(&retail.target);
    let result = service.submit(&retail.source).expect("submit").result;
    assert!(!result.selected.is_empty() && !result.candidates.is_empty());
    for score_threshold in [None, Some(0.05), Some(0.5), Some(f64::NAN)] {
        for top_k in [None, Some(0), Some(1), Some(3), Some(usize::MAX)] {
            assert_streams_like_the_tree(&result, &TenantPolicy { score_threshold, top_k });
        }
    }
}

/// A strict prefix of an object is never a whole document, so the
/// reference rejects every truncation; `parse` must too, without panicking.
#[test]
fn every_truncation_of_a_real_frame_is_rejected() {
    for frame in frames() {
        for cut in 0..frame.len() {
            assert!(parse(&frame[..cut]).is_err(), "truncation at {cut} parsed");
        }
    }
}

proptest! {
    /// The writer emits the reference writer's bytes, and the parser reads
    /// them back exactly as the reference parser does.
    #[test]
    fn trees_write_and_parse_like_the_reference(seed in any::<u64>()) {
        let tree = Lcg(seed).value(4);
        let bytes = tree.to_bytes();
        prop_assert_eq!(&bytes, &json_to_bytes(&tree));
        prop_assert!(parse(&bytes).is_ok());
        assert_parses_like_reference(&bytes);
    }

    /// An object that repeats one of its keys, at any position and at any
    /// size, is rejected as the reference rejects it.
    #[test]
    fn repeated_keys_are_rejected_like_the_reference(seed in any::<u64>()) {
        let mut lcg = Lcg(seed);
        let mut members = lcg.members(1);
        if members.is_empty() {
            members.push(("k".into(), Json::Null));
        }
        let key = members[lcg.below(members.len() as u64) as usize].0.clone();
        let at = lcg.below(members.len() as u64 + 1) as usize;
        members.insert(at, (key, lcg.value(1)));
        let bytes = Json::Array(vec![Json::Object(members)]).to_bytes();
        prop_assert_eq!(
            parse(&bytes).map_err(|e| e.message),
            Err("duplicate object key".to_string())
        );
        assert_parses_like_reference(&bytes);
    }

    /// Arbitrary JSON-ish bytes never panic the parser, which accepts them
    /// exactly when the reference does.
    #[test]
    fn arbitrary_bytes_parse_like_the_reference(seed in any::<u64>()) {
        assert_parses_like_reference(&Lcg(seed).json_ish_bytes());
    }

    /// Fed in fragments of random size, the frame decoder yields exactly
    /// the payloads `read_frame` reads and fails with `InvalidData` at the
    /// same frame; where `read_frame` hits `UnexpectedEof` inside a trailing
    /// frame, the decoder answers `Ok(None)` and waits for more bytes.
    #[test]
    fn frame_decoder_reads_fragmented_streams_like_read_frame(seed in any::<u64>()) {
        let mut lcg = Lcg(seed);
        let max_bytes = 256 + lcg.below(4096);
        let wire = lcg.frame_stream(max_bytes);
        let max_bytes = max_bytes as usize;
        let (expected, end) = read_frames(&wire, max_bytes);
        let (frames, error) = decode_frames(&mut lcg, &wire, max_bytes);
        let lens = |frames: &[Vec<u8>]| frames.iter().map(Vec::len).collect::<Vec<_>>();
        prop_assert!(
            frames == expected,
            "seed {seed}: decoder frame lengths {:?}, read_frame {:?}",
            lens(&frames),
            lens(&expected)
        );
        match end {
            Some(io::ErrorKind::InvalidData) => {
                prop_assert_eq!(error, Some(io::ErrorKind::InvalidData))
            }
            None | Some(io::ErrorKind::UnexpectedEof) => prop_assert_eq!(error, None),
            Some(other) => panic!("read_frame failed with {other:?}"),
        }
    }

    /// The streaming result writer is the tree writer: on results whose
    /// every string mixes escapes, controls, DEL and 2- to 4-byte scalars,
    /// with signed-zero, tiny, huge and non-finite scores, empty sections,
    /// and every shape of policy.
    #[test]
    fn write_result_streams_the_tree_writers_bytes(seed in any::<u64>()) {
        let mut lcg = Lcg(seed);
        let result = lcg.result();
        for _ in 0..4 {
            assert_streams_like_the_tree(&result, &lcg.policy());
        }
    }

    /// Replacing any one byte of a real frame never panics the parser,
    /// which accepts the result exactly when the reference does.
    #[test]
    fn single_byte_mutations_of_real_frames_parse_like_the_reference(seed in any::<u64>()) {
        const INTERESTING: &[u8] = b"\"\\{}[],:0-.e \x00\x1f\x80\xc3\xe2\xf0\xff";
        let mut lcg = Lcg(seed);
        for frame in frames() {
            for _ in 0..4 {
                let mut bytes = frame.clone();
                let position = lcg.below(bytes.len() as u64) as usize;
                bytes[position] = match lcg.below(2) {
                    0 => INTERESTING[lcg.below(INTERESTING.len() as u64) as usize],
                    _ => lcg.below(256) as u8,
                };
                assert_parses_like_reference(&bytes);
            }
        }
    }
}
