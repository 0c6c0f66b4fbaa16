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
//!   reference writer's bytes of the same tree;
//! * on random sequences of `register`, `replace`, `drop` and `submit`
//!   frames for one or two tenants, a server whose register memo reuses
//!   remembered tables sends exactly the reply bytes of a server whose memo
//!   is empty at every frame, and ends with equal catalogs; a re-register
//!   decodes only the tables whose bytes changed.
//!
//! Inputs are generated from a seeded LCG, as in `persist_properties.rs`:
//! one `u64` seed fans out into trees, byte strings and mutations.

use std::io::{self, Cursor};
use std::net::TcpStream;
use std::sync::OnceLock;

use proptest::prelude::*;

use cxm_core::{ContextMatchConfig, ContextMatchResult, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, generate_wide_catalog, RetailConfig, WideCatalogConfig};
use cxm_matching::Match;
use cxm_relational::{
    AttrRef, Attribute, Condition, DataType, Database, Table, TableSchema, Tuple, Value, ViewDef,
};
use cxm_server::client::is_ok;
use cxm_server::json::{parse, Json};
use cxm_server::protocol::{
    decode_database, encode_database, encode_result, encode_table, ok_frame, write_database,
    write_result, write_table,
};
use cxm_server::{
    frame_bytes, read_frame, serve, write_frame, Client, FrameDecoder, Request, ServerConfig,
    ServerHandle, TenantPolicy, TenantQuotas, DEFAULT_MAX_FRAME_BYTES,
};
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

    /// A cell of any variant: NULL, both booleans, any integer, any float
    /// (signed zero, tiny and huge, and now and then NaN or an infinity,
    /// which the writers degrade to `null`) and escape-heavy strings.
    fn any_cell(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 => Value::Int(self.int()),
            3 => Value::Float(self.score()),
            _ => Value::Str(self.string()),
        }
    }

    /// A table of up to four attributes of any declared type and up to six
    /// rows of [`Lcg::any_cell`]s; its name and attribute names are drawn
    /// from the escape-heavy alphabet.
    fn table(&mut self) -> Table {
        let attributes: Vec<Attribute> = (0..self.below(5))
            .map(|i| {
                let data_type = match self.below(6) {
                    5 => DataType::Unknown,
                    n => DataType::ALL[n as usize],
                };
                Attribute::new(format!("{}{i}", self.string()), data_type)
            })
            .collect();
        let arity = attributes.len();
        let rows = (0..self.below(7))
            .map(|_| Tuple::new((0..arity).map(|_| self.any_cell()).collect()))
            .collect();
        Table::with_rows(TableSchema::new(self.string(), attributes), rows)
            .expect("every row has the schema's arity")
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

    /// One of `items`.
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// A target table named `name`, encoded as clients encode it: one to
    /// three columns of text, integers or floats (or of no declared type),
    /// and up to three rows of words, escape-heavy strings, numbers and
    /// nulls.
    fn table_text(&mut self, name: &str) -> Vec<u8> {
        let types: Vec<Option<&str>> = (0..1 + self.below(3))
            .map(|_| self.pick(&[Some("text"), Some("int"), Some("float"), None]))
            .collect();
        let attributes = types
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                let mut members = vec![("name".into(), Json::str(format!("c{i}")))];
                members.extend(ty.map(|ty| ("type".into(), Json::str(ty))));
                Json::Object(members)
            })
            .collect();
        let rows = (0..self.below(4))
            .map(|_| Json::Array(types.iter().map(|&ty| self.typed_cell(ty)).collect()))
            .collect();
        Json::Object(vec![
            ("name".into(), Json::str(name)),
            ("attributes".into(), Json::Array(attributes)),
            ("rows".into(), Json::Array(rows)),
        ])
        .to_bytes()
    }

    fn typed_cell(&mut self, ty: Option<&str>) -> Json {
        const WORDS: &[&str] = &["war and peace", "middlemarch", "paperback", "hardcover", "cd"];
        match (self.below(6), ty) {
            (0, _) => Json::Null,
            (_, Some("int")) => Json::Int(self.below(100) as i64),
            (_, Some("float")) => Json::Float(self.below(1000) as f64 / 8.0),
            (1 | 2, _) => Json::str(self.string()),
            _ => Json::str(self.pick(WORDS)),
        }
    }

    /// The table list a tenant sends next: the last one kept, or one
    /// element edited by one byte, replaced by a fresh table, reordered,
    /// removed, cut short, re-spaced (other bytes, the same table) or
    /// inserted (possibly under a name already present).
    fn next_tables(&mut self, tables: &[Vec<u8>]) -> Vec<Vec<u8>> {
        const EDITS: &[u8] = b"\"\\{}[],:09-.eE ax\x00\x1f\x80\xc3\xff";
        let mut next = tables.to_vec();
        let i = self.below(next.len() as u64) as usize;
        match self.below(9) {
            0 | 1 => {}
            2 if !next.is_empty() => {
                let at = self.below(next[i].len() as u64) as usize;
                next[i][at] = self.pick(EDITS);
            }
            3 if !next.is_empty() => {
                let name = format!("t{}", self.below(6));
                next[i] = self.table_text(&name);
            }
            4 if next.len() > 1 => match self.below(2) {
                0 => next.reverse(),
                _ => {
                    let j = self.below(next.len() as u64) as usize;
                    next.swap(i, j);
                }
            },
            5 if !next.is_empty() => {
                next.remove(i);
            }
            6 if !next.is_empty() => {
                let cut = self.below(next[i].len() as u64) as usize;
                next[i].truncate(cut);
            }
            7 if !next.is_empty() => {
                if let Some(colon) = next[i].iter().position(|&b| b == b':') {
                    next[i].insert(colon + 1, b' ');
                }
            }
            _ => {
                let name = format!("t{}", self.below(6));
                let at = self.below(next.len() as u64 + 1) as usize;
                next.insert(at, self.table_text(&name));
            }
        }
        next
    }

    /// A `register` frame over the element texts `tables`: mostly in the
    /// clients' compact layout, otherwise with whitespace between members
    /// or elements, `tenant` after `tables`, `op` not first, or a repeated
    /// member; its `policy` absent, `null`, an object or not an object; now
    /// and then cut short.
    fn register_frame(&mut self, tenant: &str, tables: &[Vec<u8>]) -> Vec<u8> {
        let elements = |separator: &[u8]| [&b"["[..], &tables.join(separator), b"]"].concat();
        let mut members: Vec<(&str, Vec<u8>)> = vec![
            ("op", b"\"register\"".to_vec()),
            ("tenant", format!("\"{tenant}\"").into_bytes()),
            ("tables", elements(b",")),
        ];
        match self.below(8) {
            0 => members.push(("policy", b"null".to_vec())),
            1 => members.push(("policy", br#"{"top_k":2,"match_result_entries":4}"#.to_vec())),
            2 => {
                let policy = self.pick(&[&b"7"[..], b"\"strict\"", b"[]", b"{}"]);
                members.push(("policy", policy.to_vec()));
            }
            _ => {}
        }
        let mut separator = &b","[..];
        match self.below(12) {
            0 => separator = b", ",
            1 => members[2].1 = elements(b", "),
            2 => members.swap(1, 2),
            3 => members.rotate_left(1),
            4 => {
                let repeated = members[self.below(members.len() as u64) as usize].clone();
                members.push(repeated);
            }
            _ => {}
        }
        let members: Vec<Vec<u8>> = members
            .iter()
            .map(|(key, value)| [format!("\"{key}\":").as_bytes(), value].concat())
            .collect();
        let mut frame = [&b"{"[..], &members.join(separator), b"}"].concat();
        if self.below(16) == 0 {
            let cut = self.below(frame.len() as u64) as usize;
            frame.truncate(cut);
        }
        frame
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

    /// The streaming table writers are the tree writers: `write_table` and
    /// `write_database` append exactly `encode_table(..).to_bytes()` and
    /// `encode_database(..).to_bytes()` — the reference writer's bytes — on
    /// tables of every declared type whose names and cells mix escapes,
    /// controls, DEL and 2- to 4-byte scalars, with every `Value` variant,
    /// signed zero and non-finite floats (written `null`), and empty
    /// schemas, rows and databases.
    #[test]
    fn write_table_streams_the_tree_writers_bytes(seed in any::<u64>()) {
        let mut lcg = Lcg(seed);
        let mut db = Database::new(lcg.string());
        for i in 0..lcg.below(4) {
            let table = lcg.table();
            let tree = encode_table(&table);
            let mut streamed = b"frame head".to_vec();
            write_table(&mut streamed, &table);
            prop_assert_eq!(&streamed[..10], b"frame head");
            prop_assert_eq!(&streamed[10..], &tree.to_bytes()[..]);
            prop_assert_eq!(&streamed[10..], &json_to_bytes(&tree)[..]);
            let name = format!("{}{i}", table.name());
            db.replace_table(Table::with_rows(table.schema().with_name(name), table.rows().to_vec())
                .expect("same arity"));
        }
        let tree = encode_database(&db);
        let mut streamed = b"frame head".to_vec();
        write_database(&mut streamed, &db);
        prop_assert_eq!(&streamed[..10], b"frame head");
        prop_assert_eq!(&streamed[10..], &tree.to_bytes()[..]);
        prop_assert_eq!(&streamed[10..], &json_to_bytes(&tree)[..]);
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

/// A connection that sends raw payloads, malformed ones included, and
/// returns the raw reply payloads.
struct RawConn(TcpStream);

impl RawConn {
    fn connect(server: &ServerHandle) -> RawConn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawConn(stream)
    }

    fn send(&mut self, payload: &[u8]) -> Vec<u8> {
        write_frame(&mut self.0, payload).expect("send a frame");
        read_frame(&mut self.0, DEFAULT_MAX_FRAME_BYTES).expect("read a reply").expect("a reply")
    }
}

fn memo_test_server() -> ServerHandle {
    serve(ServerConfig {
        workers: 1,
        context: ContextMatchConfig::default()
            .with_inference(ViewInferenceStrategy::Naive)
            .with_tau(0.4),
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

/// One random step's frame for `tenant`, whose last accepted table list is
/// `tables`: mostly a `register` of the next list, otherwise a `replace`, a
/// `drop` or a `submit`. Returns the frame and the list it registers.
fn step_frame(lcg: &mut Lcg, tenant: &str, tables: &[Vec<u8>]) -> (Vec<u8>, Option<Vec<Vec<u8>>>) {
    let name = format!("t{}", lcg.below(6));
    match lcg.below(20) {
        0..=2 => {
            let table = String::from_utf8(lcg.table_text(&name)).expect("encoded UTF-8");
            let frame = format!(r#"{{"op":"replace","tenant":"{tenant}","table":{table}}}"#);
            (frame.into_bytes(), None)
        }
        3..=5 => {
            let frame = format!(r#"{{"op":"drop","tenant":"{tenant}","table":"{name}"}}"#);
            (frame.into_bytes(), None)
        }
        6..=7 => {
            let table = String::from_utf8(lcg.table_text("src")).expect("encoded UTF-8");
            let frame = format!(
                r#"{{"op":"submit","tenant":"{tenant}","source":{{"name":"s","tables":[{table}]}}}}"#
            );
            (frame.into_bytes(), None)
        }
        _ => {
            let next = lcg.next_tables(tables);
            (lcg.register_frame(tenant, &next), Some(next))
        }
    }
}

/// Whether `tenant` has the same catalog on both servers: the same
/// version, table fingerprints and tables (or no tenant on either).
fn same_catalog(a: &ServerHandle, b: &ServerHandle, tenant: &str) -> bool {
    let snapshot =
        |server: &ServerHandle| server.tenant(tenant).map(|t| t.service.catalog().snapshot());
    match (snapshot(a), snapshot(b)) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.version() == b.version()
                && a.fingerprints() == b.fingerprints()
                && a.database() == b.database()
        }
        _ => false,
    }
}

proptest! {
    /// The register memo changes no reply byte and no catalog: a server
    /// runs a random sequence of frames for one or two tenants, and a
    /// reference server runs the same frames with its memo emptied before
    /// each one (a `drop` of a never-registered table empties it). Every
    /// reply — acks with their versions and column reuse counts, errors,
    /// match results — is byte-identical, and each tenant ends with the
    /// same catalog version, table fingerprints and tables. The reference
    /// reused nothing; the memo server reused every table of the opening
    /// re-register at least.
    #[test]
    fn register_memo_replies_like_an_empty_memo(seed in any::<u64>()) {
        let mut lcg = Lcg(seed);
        let tenants: &[&str] = if lcg.below(3) == 0 { &["a"] } else { &["a", "b"] };
        let (memo, reference) = (memo_test_server(), memo_test_server());
        let (mut with_memo, mut without) = (RawConn::connect(&memo), RawConn::connect(&reference));
        let mut frames = Vec::new();
        let mut lists = Vec::new();
        for (i, &tenant) in tenants.iter().enumerate() {
            let count = 1 + lcg.below(4) as usize;
            let tables: Vec<Vec<u8>> =
                (0..count).map(|k| lcg.table_text(&format!("t{}", (i + k) % 6))).collect();
            let frame = [
                br#"{"op":"register","tenant":""#,
                tenant.as_bytes(),
                br#"","tables":["#,
                &tables.join(&b","[..]),
                b"]}",
            ]
            .concat();
            // Sent twice: the second register meets a warm memo.
            frames.push((i, frame.clone(), Some(tables.clone())));
            frames.push((i, frame, Some(tables.clone())));
            lists.push(tables);
        }
        let mut sent = 0;
        while sent < frames.len() + 12 {
            let (t, frame, next) = match frames.get(sent) {
                Some(step) => step.clone(),
                None => {
                    let t = lcg.below(tenants.len() as u64) as usize;
                    let (frame, next) = step_frame(&mut lcg, tenants[t], &lists[t]);
                    (t, frame, next)
                }
            };
            sent += 1;
            for tenant in tenants {
                let forget = format!(r#"{{"op":"drop","tenant":"{tenant}","table":""}}"#);
                without.send(forget.as_bytes());
            }
            let (ours, theirs) = (with_memo.send(&frame), without.send(&frame));
            prop_assert!(
                ours == theirs,
                "seed {seed}, frame {:?}: reply {:?}, reference {:?}",
                String::from_utf8_lossy(&frame),
                String::from_utf8_lossy(&ours),
                String::from_utf8_lossy(&theirs)
            );
            if let (Some(next), Ok(reply)) = (next, parse(&ours)) {
                if is_ok(&reply) {
                    lists[t] = next;
                }
            }
        }
        for tenant in tenants {
            prop_assert!(
                same_catalog(&memo, &reference, tenant),
                "seed {seed}: tenant {tenant} ends with another catalog"
            );
            let reused = |server: &ServerHandle| {
                server.tenant(tenant).map_or(0, |t| t.stats().register_tables_reused)
            };
            prop_assert_eq!(reused(&reference), 0, "the reference must run with an empty memo");
            prop_assert!(reused(&memo) > 0, "seed {seed}: the opening re-register reused nothing");
        }
        for server in [memo, reference] {
            server.shutdown();
            server.join();
        }
    }
}

/// The benchmark's wide catalog at a twelfth of its width (12 tables × 4
/// columns × 10 rows) in two states that differ in every sixth table, as
/// `wide_refresh` builds them.
fn wide_states() -> [Database; 2] {
    let wide = generate_wide_catalog(&WideCatalogConfig {
        tables: 12,
        columns_per_table: 4,
        rows_per_table: 10,
        families: 3,
        ..WideCatalogConfig::default()
    });
    let mut second = wide.target.clone();
    for i in (0..12).step_by(6) {
        let table = wide.target.table(&format!("wide_{i}")).expect("generated table");
        let donor = wide.target.table(&format!("wide_{}", (i + 3) % 12)).expect("generated");
        let rows = donor.rows().to_vec();
        second.replace_table(Table::with_rows(table.schema().clone(), rows).expect("same shape"));
    }
    [wide.target, second]
}

#[test]
fn a_re_register_decodes_only_the_tables_whose_bytes_changed() {
    let server = memo_test_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let states = wide_states();
    let none = (TenantPolicy::default(), TenantQuotas::default());
    let counts = |client: &mut Client| {
        let stats = client.stats(Some("w")).expect("stats");
        let tenant = &stats.get("tenants").and_then(Json::as_array).expect("tenants")[0];
        let count = |key| tenant.get(key).and_then(Json::as_u64).expect("a count");
        (count("register_tables_reused"), count("register_tables_decoded"))
    };
    let register = |client: &mut Client, state: usize| {
        let ack = client.register("w", &states[state], &none.0, &none.1).expect("register");
        assert!(is_ok(&ack), "{ack:?}");
        ack.get("columns_rebuilt").and_then(Json::as_u64).expect("columns_rebuilt")
    };
    assert_eq!(register(&mut client, 0), 48);
    assert_eq!(counts(&mut client), (0, 12));
    // Each refresh decodes the two changed tables and rebuilds their
    // columns; the ten others are reused as remembered.
    for (round, state) in [1, 0, 1].into_iter().enumerate() {
        assert_eq!(register(&mut client, state), 8);
        let round = round as u64 + 1;
        assert_eq!(counts(&mut client), (10 * round, 12 + 2 * round));
    }
    // A `replace` empties the memo: the next register decodes everything,
    // and changes nothing the catalog holds.
    let table = states[1].table("wide_1").expect("table").clone();
    assert!(is_ok(&client.replace_table("w", &table).expect("replace")));
    assert_eq!(register(&mut client, 1), 0);
    assert_eq!(counts(&mut client), (30, 30));
    client.shutdown().expect("shutdown");
    server.join();
}
