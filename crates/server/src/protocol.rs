//! Protocol types: request decoding, response encoding, and the per-tenant
//! serving policy.
//!
//! One frame carries one JSON object. Requests name their operation in an
//! `"op"` member; responses always carry `"ok"` — `true` with op-specific
//! members, or `false` with an `"error"` object (`code`, `message`, and for
//! `overloaded` a `retry_after_ms` hint, the `Retry-After` of this
//! protocol). The full frame grammar is documented in `docs/SERVING.md`.
//!
//! Encoding is deliberately canonical (see [`crate::json`]): the match-list
//! encoder [`encode_result`] is `pub` precisely so tests can render a serial
//! in-process [`cxm_service::MatchService`] reference through the *same*
//! canonical writer and compare wire bytes for equality. The server itself
//! streams the same bytes with [`write_result`], which builds no value
//! tree.
//!
//! Member types are checked, not guessed: an optional member that is present
//! and not `null` must have its documented type (`policy` an object, an
//! attribute's `type` and a source's `name` strings, counts non-negative
//! integers), or the request is rejected with `bad_request`. An omitted or
//! `null` member takes its default.
//!
//! A `register` usually re-sends a catalog whose tables mostly did not
//! change, so the server first offers every payload to `decode_register`,
//! which reads the clients' compact register layout element by element and
//! reuses each table whose exact bytes the tenant sent at the same position
//! last time (`RememberedTable`), parsing and decoding only the others. It
//! declines every frame it does not fully accept, and a declined frame goes
//! through [`crate::json::parse`] and [`Request::from_json`], the only
//! producers of `bad_request` replies.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::json::{write_display_str, write_float, write_int, write_str, Json, Parser};
use cxm_core::ContextMatchResult;
use cxm_matching::Match;
use cxm_relational::{Attribute, DataType, Database, Table, TableSchema, Tuple, Value};
use cxm_service::CatalogUpdate;

use crate::telemetry::{ServerStats, TenantStats};

/// Machine-readable error codes of the `"error"` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request; retry after `retry_after_ms`.
    Overloaded,
    /// The request's deadline budget expired before a result was produced.
    DeadlineExceeded,
    /// The named tenant is not registered.
    UnknownTenant,
    /// The named table is not registered for the tenant.
    UnknownTable,
    /// The frame was not a well-formed request (JSON, schema, or type error).
    BadRequest,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request panicked or failed unexpectedly inside the pipeline.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Per-tenant serving policy, applied **post-match** to the `selected` list
/// of a response. The underlying match runs (and its result is cached)
/// unfiltered, so every tenant policy — and every policy change — leaves
/// the byte-identical result-cache entries untouched; the policy is a pure
/// projection at encode time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantPolicy {
    /// Drop selected matches scoring below this threshold.
    pub score_threshold: Option<f64>,
    /// Keep at most this many selected matches (after thresholding).
    pub top_k: Option<usize>,
}

impl TenantPolicy {
    /// The policy's view of a selected-match list: threshold, then truncate.
    /// Order is preserved, so the projection is deterministic.
    pub fn apply<'m>(&self, matches: &'m [Match]) -> Vec<&'m Match> {
        let mut kept: Vec<&Match> =
            matches.iter().filter(|m| self.score_threshold.is_none_or(|t| m.score >= t)).collect();
        if let Some(k) = self.top_k {
            kept.truncate(k);
        }
        kept
    }
}

/// Per-tenant warm-state quota requests, clamped by the server's ceilings
/// when the tenant is created (see `crate::tenant::QuotaCeilings`). `None`
/// takes the server's ceiling itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Bound on warm source column batches.
    pub source_cache_capacity: Option<usize>,
    /// Bound on selection-cache table buckets.
    pub selection_cache_tables: Option<usize>,
    /// Bound on cached view-restricted profiles.
    pub restricted_profile_entries: Option<usize>,
    /// Bound on memoized whole-match results.
    pub match_result_entries: Option<usize>,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or wholly replace) a tenant's target database, creating
    /// the tenant on first use. Policy knobs may ride along.
    Register {
        /// Tenant name.
        tenant: String,
        /// Full target table set.
        tables: Vec<Table>,
        /// Post-match policy knobs.
        policy: TenantPolicy,
        /// Warm-state quota requests (fixed at tenant creation).
        quotas: TenantQuotas,
    },
    /// Replace one registered target table (error if unknown).
    Replace {
        /// Tenant name.
        tenant: String,
        /// The replacement instance.
        table: Table,
    },
    /// Drop one registered target table.
    Drop {
        /// Tenant name.
        tenant: String,
        /// Table name.
        table: String,
    },
    /// Match a source database against the tenant's catalog. The source
    /// stays *undecoded* JSON here: decoding is a worker-side pipeline
    /// phase, so an expired deadline skips it entirely.
    Submit {
        /// Tenant name.
        tenant: String,
        /// The source database, still encoded.
        source: Json,
        /// Deadline budget in milliseconds (`None` = server default).
        deadline_ms: Option<u64>,
    },
    /// Server + tenant telemetry snapshot.
    Stats {
        /// Restrict to one tenant.
        tenant: Option<String>,
    },
    /// Snapshot every tenant's warm state to the server's persist path.
    Persist,
    /// Graceful drain: stop admitting, finish queued work, exit workers.
    Shutdown,
}

impl Request {
    /// Decode a parsed frame. Errors are human-readable and map to
    /// [`ErrorCode::BadRequest`].
    pub fn from_json(frame: &Json) -> Result<Request, String> {
        let op = frame
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string member `op`".to_string())?;
        match op {
            "register" => {
                let tenant = required_str(frame, "tenant")?;
                let tables = decode_tables(frame.get("tables"))?;
                let mut names = BTreeSet::new();
                if let Some(table) = tables.iter().find(|t| !names.insert(t.name())) {
                    return Err(format!("duplicate target table `{}`", table.name()));
                }
                Ok(Request::Register {
                    tenant,
                    tables,
                    policy: decode_policy(frame.get("policy"))?,
                    quotas: decode_quotas(frame.get("policy"))?,
                })
            }
            "replace" => {
                let table = frame
                    .get("table")
                    .ok_or_else(|| "missing member `table`".to_string())
                    .and_then(decode_table)?;
                Ok(Request::Replace { tenant: required_str(frame, "tenant")?, table })
            }
            "drop" => Ok(Request::Drop {
                tenant: required_str(frame, "tenant")?,
                table: required_str(frame, "table")?,
            }),
            "submit" => {
                let source = frame
                    .get("source")
                    .cloned()
                    .ok_or_else(|| "missing member `source`".to_string())?;
                let deadline_ms = match frame.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64().ok_or_else(|| "`deadline_ms` must be a count".to_string())?,
                    ),
                };
                Ok(Request::Submit { tenant: required_str(frame, "tenant")?, source, deadline_ms })
            }
            "stats" => Ok(Request::Stats {
                tenant: match frame.get("tenant") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "`tenant` must be a string".to_string())?,
                    ),
                },
            }),
            "persist" => Ok(Request::Persist),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// One element of a tenant's last accepted `register`: its exact bytes in
/// the frame and the catalog's instance of the table they decode to.
#[derive(Debug)]
pub(crate) struct RememberedTable {
    pub(crate) text: Arc<[u8]>,
    pub(crate) table: Arc<Table>,
}

/// A `register` request as the server applies it: the members of
/// [`Request::Register`] with shared table instances, plus the exact text
/// of each element of `tables` when [`decode_register`] read the frame.
pub(crate) struct RegisterFrame {
    pub(crate) tenant: String,
    pub(crate) tables: Vec<Arc<Table>>,
    /// Element texts in frame order, one per table; empty for a frame
    /// decoded by [`Request::from_json`].
    pub(crate) texts: Vec<Arc<[u8]>>,
    /// Tables taken from the tenant's memo rather than decoded.
    pub(crate) reused: usize,
    pub(crate) policy: TenantPolicy,
    pub(crate) quotas: TenantQuotas,
}

/// Decode `payload` as a `register` in the clients' compact layout,
/// `{"op":"register","tenant":…,"tables":[…]}` with an optional
/// `"policy":{…}` member last. `remembered(tenant)` is the tenant's memo:
/// an element whose bytes equal the text remembered at its position is that
/// remembered table, and is neither parsed nor decoded again. Every other
/// element is read by the value parser at the depth a whole-frame
/// [`crate::json::parse`] reads it at (2), then by [`decode_table`].
///
/// Reuse is sound because a remembered text is a whole JSON object that
/// once parsed and decoded at that same depth: the same bytes parse to the
/// same value, end at the same `}`, and decode to the same table.
///
/// Returns `None` to decline: any other member layout or whitespace, a
/// parse or decode failure, a repeated table name. A declined frame takes
/// the [`crate::json::parse`] + [`Request::from_json`] path, which accepts
/// exactly what this decode accepts and produces every error reply.
pub(crate) fn decode_register(
    payload: &[u8],
    remembered: impl FnOnce(&str) -> Arc<[RememberedTable]>,
) -> Option<RegisterFrame> {
    let mut cursor = Parser::new(payload);
    if !cursor.eat(br#"{"op":"register","tenant":"#) {
        return None;
    }
    let tenant = cursor.string().ok()?;
    if !cursor.eat(br#","tables":["#) {
        return None;
    }
    let memo = remembered(&tenant);
    let (mut tables, mut texts, mut reused) = (Vec::new(), Vec::new(), 0);
    if !cursor.eat(b"]") {
        loop {
            match memo.get(tables.len()).filter(|m| cursor.eat(&m.text)) {
                Some(m) => {
                    tables.push(Arc::clone(&m.table));
                    texts.push(Arc::clone(&m.text));
                    reused += 1;
                }
                None => {
                    let start = cursor.pos();
                    let table = decode_table(&cursor.value(2).ok()?).ok()?;
                    tables.push(Arc::new(table));
                    texts.push(Arc::from(&payload[start..cursor.pos()]));
                }
            }
            if cursor.eat(b"]") {
                break;
            }
            if !cursor.eat(b",") {
                return None;
            }
        }
    }
    let (policy, quotas) = if cursor.eat(br#","policy":"#) {
        let policy = cursor.value(1).ok()?;
        (decode_policy(Some(&policy)).ok()?, decode_quotas(Some(&policy)).ok()?)
    } else {
        Default::default()
    };
    if !cursor.eat(b"}") || !cursor.at_end() {
        return None;
    }
    let mut names = BTreeSet::new();
    if !tables.iter().all(|t| names.insert(t.name())) {
        return None;
    }
    Some(RegisterFrame { tenant, tables, texts, reused, policy, quotas })
}

fn required_str(frame: &Json, key: &str) -> Result<String, String> {
    frame
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string member `{key}`"))
}

/// The `policy` member: `None` when omitted or `null`, an error when it
/// holds anything but an object.
fn policy_object(policy: Option<&Json>) -> Result<Option<&Json>, String> {
    match policy {
        None | Some(Json::Null) => Ok(None),
        Some(object @ Json::Object(_)) => Ok(Some(object)),
        Some(_) => Err("`policy` must be an object".to_string()),
    }
}

fn decode_policy(policy: Option<&Json>) -> Result<TenantPolicy, String> {
    let Some(policy) = policy_object(policy)? else { return Ok(TenantPolicy::default()) };
    let score_threshold = match policy.get("score_threshold") {
        None | Some(Json::Null) => None,
        Some(v) => {
            Some(v.as_f64().ok_or_else(|| "`score_threshold` must be a number".to_string())?)
        }
    };
    let top_k = match policy.get("top_k") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| "`top_k` must be a count".to_string())? as usize),
    };
    Ok(TenantPolicy { score_threshold, top_k })
}

fn decode_quotas(policy: Option<&Json>) -> Result<TenantQuotas, String> {
    let mut quotas = TenantQuotas::default();
    let Some(policy) = policy_object(policy)? else { return Ok(quotas) };
    for (key, slot) in [
        ("source_cache_capacity", &mut quotas.source_cache_capacity),
        ("selection_cache_tables", &mut quotas.selection_cache_tables),
        ("restricted_profile_entries", &mut quotas.restricted_profile_entries),
        ("match_result_entries", &mut quotas.match_result_entries),
    ] {
        *slot = match policy.get(key) {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| format!("`{key}` must be a count"))? as usize),
        };
    }
    Ok(quotas)
}

fn decode_tables(tables: Option<&Json>) -> Result<Vec<Table>, String> {
    let Some(items) = tables.and_then(Json::as_array) else {
        return Err("missing array member `tables`".to_string());
    };
    items.iter().map(decode_table).collect()
}

/// Decode one `{name, attributes, rows}` table object.
pub fn decode_table(table: &Json) -> Result<Table, String> {
    let name =
        table.get("name").and_then(Json::as_str).ok_or("table is missing a `name` string")?;
    let attrs: Vec<Attribute> = table
        .get("attributes")
        .and_then(Json::as_array)
        .ok_or("table is missing an `attributes` array")?
        .iter()
        .map(|a| {
            let attr_name =
                a.get("name").and_then(Json::as_str).ok_or("attribute is missing `name`")?;
            let data_type = match a.get("type") {
                None | Some(Json::Null) => DataType::Text,
                // `unknown` is a legal schema state ([`DataType::Unknown`])
                // but not a `FromStr` spelling; accept it for round trips.
                Some(Json::Str(text)) if text == "unknown" => DataType::Unknown,
                Some(Json::Str(text)) => text
                    .parse::<DataType>()
                    .map_err(|_| format!("unknown attribute type `{text}`"))?,
                Some(_) => return Err("attribute `type` must be a string".to_string()),
            };
            Ok(Attribute::new(attr_name, data_type))
        })
        .collect::<Result<_, String>>()?;
    let rows: Vec<Tuple> = table
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("table is missing a `rows` array")?
        .iter()
        .map(|row| {
            let cells = row.as_array().ok_or("row is not an array")?;
            if cells.len() != attrs.len() {
                return Err(format!(
                    "row arity {} does not match the {} declared attributes",
                    cells.len(),
                    attrs.len()
                ));
            }
            let values = cells
                .iter()
                .zip(&attrs)
                .map(|(cell, attr)| decode_value(cell, attr.data_type))
                .collect::<Result<Vec<Value>, String>>()?;
            Ok(Tuple::new(values))
        })
        .collect::<Result<_, String>>()?;
    Table::with_rows(TableSchema::new(name, attrs), rows).map_err(|e| e.to_string())
}

/// JSON cell → [`Value`], guided by the declared attribute type (a JSON
/// integer in a float column is a float value, so `[1, 2.5]` columns stay
/// homogeneous).
fn decode_value(cell: &Json, data_type: DataType) -> Result<Value, String> {
    Ok(match cell {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(i) if data_type == DataType::Float => Value::Float(*i as f64),
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Array(_) | Json::Object(_) => {
            return Err("row cells must be JSON scalars".to_string())
        }
    })
}

/// Decode a `{name?, tables}` source-database object (a `submit`'s
/// `source` member).
pub fn decode_database(source: &Json) -> Result<Database, String> {
    let name = match source.get("name") {
        None | Some(Json::Null) => "source",
        Some(Json::Str(name)) => name,
        Some(_) => return Err("source `name` must be a string".to_string()),
    };
    let mut db = Database::new(name);
    for table in decode_tables(source.get("tables"))? {
        if db.table(table.name()).is_some() {
            return Err(format!("duplicate source table `{}`", table.name()));
        }
        db.replace_table(table);
    }
    Ok(db)
}

/// Encode a [`Database`] as the `{name, tables}` wire object (the client
/// half of [`decode_database`]).
pub fn encode_database(db: &Database) -> Json {
    Json::Object(vec![
        ("name".into(), Json::str(db.name())),
        ("tables".into(), Json::Array(db.tables().map(encode_table).collect())),
    ])
}

/// Encode one [`Table`] as the `{name, attributes, rows}` wire object.
pub fn encode_table(table: &Table) -> Json {
    let attributes = table
        .schema()
        .attributes()
        .iter()
        .map(|a| {
            Json::Object(vec![
                ("name".into(), Json::str(&a.name)),
                ("type".into(), Json::str(a.data_type.name())),
            ])
        })
        .collect();
    let rows = table
        .rows()
        .iter()
        .map(|tuple| Json::Array(tuple.values().iter().map(encode_value).collect()))
        .collect();
    Json::Object(vec![
        ("name".into(), Json::str(table.name())),
        ("attributes".into(), Json::Array(attributes)),
        ("rows".into(), Json::Array(rows)),
    ])
}

fn encode_value(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::str(s.clone()),
    }
}

/// Append `encode_database(db).to_bytes()` to `out` without building the
/// value tree: the client's request writer ([`write_table`] per table).
pub fn write_database(out: &mut Vec<u8>, db: &Database) {
    out.extend_from_slice(b"{\"name\":");
    write_str(out, db.name());
    out.extend_from_slice(b",\"tables\":");
    write_tables(out, db.tables());
    out.push(b'}');
}

/// Append `encode_table(table).to_bytes()` to `out` without building the
/// value tree: the same members in the same order, every string escaped by
/// the same routine and every number rendered by the same writer as
/// [`Json::to_bytes`] (a non-finite float writes `null`).
pub fn write_table(out: &mut Vec<u8>, table: &Table) {
    out.extend_from_slice(b"{\"name\":");
    write_str(out, table.name());
    out.extend_from_slice(b",\"attributes\":[");
    for (i, attribute) in table.schema().attributes().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"name\":");
        write_str(out, &attribute.name);
        out.extend_from_slice(b",\"type\":");
        write_str(out, attribute.data_type.name());
        out.push(b'}');
    }
    out.extend_from_slice(b"],\"rows\":[");
    for (i, tuple) in table.rows().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for (j, value) in tuple.values().iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            write_value(out, value);
        }
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
}

/// Append a JSON array of tables, each by [`write_table`].
pub(crate) fn write_tables<'t>(out: &mut Vec<u8>, tables: impl Iterator<Item = &'t Table>) {
    out.push(b'[');
    for (i, table) in tables.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_table(out, table);
    }
    out.push(b']');
}

/// The streamed form of `encode_value`.
fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Int(i) => write_int(out, *i),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_str(out, s),
    }
}

/// Encode a match result under a tenant policy. The policy projects the
/// `selected` list only; `standard` and `candidates` report the full
/// deterministic pipeline output. This is the value-tree form of the
/// **byte-identity surface**: its `to_bytes` are exactly the bytes
/// [`write_result`] streams into every `submit` reply, and the
/// concurrent-equivalence tests encode a serial in-process reference
/// through it and compare bytes.
pub fn encode_result(result: &ContextMatchResult, policy: &TenantPolicy) -> Json {
    Json::Object(vec![
        ("selected".into(), encode_matches(&policy.apply(&result.selected))),
        ("standard".into(), encode_matches(&result.standard.iter().collect::<Vec<_>>())),
        ("candidates".into(), encode_matches(&result.candidates.iter().collect::<Vec<_>>())),
        (
            "candidate_views".into(),
            Json::Array(result.candidate_views.iter().map(|v| Json::str(v.to_string())).collect()),
        ),
    ])
}

fn encode_matches(matches: &[&Match]) -> Json {
    Json::Array(
        matches
            .iter()
            .map(|m| {
                Json::Object(vec![
                    ("source".into(), Json::str(m.source.to_string())),
                    ("target".into(), Json::str(m.target.to_string())),
                    ("base_table".into(), Json::str(m.base_table.clone())),
                    ("condition".into(), Json::str(m.condition.to_sql())),
                    ("score".into(), Json::Float(m.score)),
                    ("confidence".into(), Json::Float(m.confidence)),
                ])
            })
            .collect(),
    )
}

/// Append `encode_result(result, policy).to_bytes()` to `out` without
/// building the value tree: the same members in the same order, the policy
/// projecting `selected` only, and every string rendered by the same
/// `to_string` / `to_sql` and escaped by the same routine as
/// [`Json::to_bytes`].
pub fn write_result(out: &mut Vec<u8>, result: &ContextMatchResult, policy: &TenantPolicy) {
    out.extend_from_slice(b"{\"selected\":");
    write_matches(out, policy.apply(&result.selected));
    out.extend_from_slice(b",\"standard\":");
    write_matches(out, &result.standard);
    out.extend_from_slice(b",\"candidates\":");
    write_matches(out, &result.candidates);
    out.extend_from_slice(b",\"candidate_views\":[");
    for (i, view) in result.candidate_views.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_display_str(out, view);
    }
    out.extend_from_slice(b"]}");
}

/// The streamed form of `encode_matches`.
fn write_matches<'m>(out: &mut Vec<u8>, matches: impl IntoIterator<Item = &'m Match>) {
    out.push(b'[');
    for (i, m) in matches.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"source\":");
        write_display_str(out, &m.source);
        out.extend_from_slice(b",\"target\":");
        write_display_str(out, &m.target);
        out.extend_from_slice(b",\"base_table\":");
        write_str(out, &m.base_table);
        out.extend_from_slice(b",\"condition\":");
        write_str(out, &m.condition.to_sql());
        out.extend_from_slice(b",\"score\":");
        write_float(out, m.score);
        out.extend_from_slice(b",\"confidence\":");
        write_float(out, m.confidence);
        out.push(b'}');
    }
    out.push(b']');
}

/// An `{ok: true, op, …}` response skeleton.
pub fn ok_frame(op: &str, mut members: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("ok".into(), Json::Bool(true)), ("op".into(), Json::str(op))];
    pairs.append(&mut members);
    Json::Object(pairs)
}

/// An `{ok: false, error: {code, message[, retry_after_ms]}}` frame.
pub fn error_frame(code: ErrorCode, message: &str, retry_after_ms: Option<u64>) -> Json {
    let mut error =
        vec![("code".into(), Json::str(code.as_str())), ("message".into(), Json::str(message))];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms".into(), Json::Int(ms as i64)));
    }
    Json::Object(vec![("ok".into(), Json::Bool(false)), ("error".into(), Json::Object(error))])
}

/// Encode a catalog update's observable half for register/replace/drop acks.
pub fn encode_update(update: &CatalogUpdate) -> Vec<(String, Json)> {
    vec![
        ("version".into(), Json::Int(update.version as i64)),
        ("tables".into(), Json::Int(update.tables as i64)),
        ("reused".into(), Json::Int(update.reused as i64)),
        ("rebuilt".into(), Json::Int(update.rebuilt as i64)),
        ("columns_reused".into(), Json::Int(update.columns_reused as i64)),
        ("columns_rebuilt".into(), Json::Int(update.columns_rebuilt as i64)),
    ]
}

/// Encode the server half of a `stats` response.
pub fn encode_server_stats(stats: &ServerStats) -> Json {
    Json::Object(vec![
        ("workers".into(), Json::Int(stats.workers as i64)),
        ("queue_depth".into(), Json::Int(stats.queue_depth as i64)),
        ("queue_capacity".into(), Json::Int(stats.queue_capacity as i64)),
        ("connections".into(), Json::Int(stats.connections as i64)),
        ("open_connections".into(), Json::Int(stats.open_connections as i64)),
        ("peak_connections".into(), Json::Int(stats.peak_connections as i64)),
        ("connection_limit_rejects".into(), Json::Int(stats.connection_limit_rejects as i64)),
        ("idle_timeout_closes".into(), Json::Int(stats.idle_timeout_closes as i64)),
        ("requests".into(), Json::Int(stats.requests as i64)),
        ("submits".into(), Json::Int(stats.submits as i64)),
        ("completed".into(), Json::Int(stats.completed as i64)),
        ("admission_rejects".into(), Json::Int(stats.admission_rejects as i64)),
        ("deadline_expiries".into(), Json::Int(stats.deadline_expiries as i64)),
        ("service_time_ms".into(), Json::Int(stats.service_time_ms as i64)),
        ("tenants".into(), Json::Int(stats.tenants as i64)),
        ("draining".into(), Json::Bool(stats.draining)),
        ("display".into(), Json::str(stats.to_string())),
    ])
}

/// Encode one tenant's half of a `stats` response.
pub fn encode_tenant_stats(stats: &TenantStats) -> Json {
    let warm = &stats.warm;
    Json::Object(vec![
        ("tenant".into(), Json::str(stats.tenant.clone())),
        ("submits".into(), Json::Int(stats.submits as i64)),
        ("result_cache_hits".into(), Json::Int(stats.result_cache_hits as i64)),
        ("deadline_expiries".into(), Json::Int(stats.deadline_expiries as i64)),
        ("admission_rejects".into(), Json::Int(stats.admission_rejects as i64)),
        ("inflight_rejects".into(), Json::Int(stats.inflight_rejects as i64)),
        ("inflight".into(), Json::Int(stats.inflight as i64)),
        ("inflight_peak".into(), Json::Int(stats.inflight_peak as i64)),
        ("quota_evictions".into(), Json::Int(stats.quota_evictions() as i64)),
        ("register_tables_reused".into(), Json::Int(stats.register_tables_reused as i64)),
        ("register_tables_decoded".into(), Json::Int(stats.register_tables_decoded as i64)),
        ("catalog_version".into(), Json::Int(warm.catalog_version as i64)),
        ("catalog_tables".into(), Json::Int(warm.catalog_tables as i64)),
        ("result_cache_len".into(), Json::Int(warm.result_len as i64)),
        ("result_cache_capacity".into(), Json::Int(warm.result_capacity as i64)),
        ("source_cache_len".into(), Json::Int(warm.source_len as i64)),
        ("source_cache_capacity".into(), Json::Int(warm.source_capacity as i64)),
        ("restored_columns".into(), Json::Int(warm.restored_columns as i64)),
        ("rebuilt_columns".into(), Json::Int(warm.rebuilt_columns as i64)),
        ("restored_restricted".into(), Json::Int(warm.restored_restricted as i64)),
        ("dropped_restricted".into(), Json::Int(warm.dropped_restricted as i64)),
        ("degraded_sections".into(), Json::Int(warm.degraded_sections as i64)),
        ("display".into(), Json::str(stats.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use cxm_relational::{AttrRef, Condition};

    fn book_table_json() -> &'static str {
        r#"{"name":"book","attributes":[{"name":"title","type":"text"},{"name":"price","type":"float"}],"rows":[["war and peace",10],["middlemarch",12.5]]}"#
    }

    #[test]
    fn tables_round_trip_through_the_wire_encoding() {
        let decoded = decode_table(&parse(book_table_json().as_bytes()).unwrap()).unwrap();
        assert_eq!(decoded.name(), "book");
        assert_eq!(decoded.len(), 2);
        // The int-in-float-column cell landed as a float.
        let reencoded = encode_table(&decoded);
        let again = decode_table(&reencoded).unwrap();
        assert_eq!(again.fingerprint(), decoded.fingerprint());
    }

    #[test]
    fn requests_decode_and_reject_malformed_frames() {
        let frame = parse(
            format!(
                r#"{{"op":"register","tenant":"acme","tables":[{}],"policy":{{"score_threshold":0.5,"top_k":3,"match_result_entries":8}}}}"#,
                book_table_json()
            )
            .as_bytes(),
        )
        .unwrap();
        let req = Request::from_json(&frame).unwrap();
        match req {
            Request::Register { tenant, tables, policy, quotas } => {
                assert_eq!(tenant, "acme");
                assert_eq!(tables.len(), 1);
                assert_eq!(policy, TenantPolicy { score_threshold: Some(0.5), top_k: Some(3) });
                assert_eq!(quotas.match_result_entries, Some(8));
                assert_eq!(quotas.source_cache_capacity, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        for bad in [
            r#"{"tenant":"t"}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"submit","tenant":"t"}"#,
            r#"{"op":"submit","tenant":"t","source":{},"deadline_ms":"soon"}"#,
            r#"{"op":"drop","tenant":"t"}"#,
        ] {
            let frame = parse(bad.as_bytes()).unwrap();
            assert!(Request::from_json(&frame).is_err(), "{bad}");
        }

        // A member of the wrong type is rejected, never read as its default.
        let attribute = |ty: &str| {
            format!(r#"{{"name":"b","attributes":[{{"name":"x","type":{ty}}}],"rows":[[1]]}}"#)
        };
        let decode = |text: &str| Request::from_json(&parse(text.as_bytes()).unwrap());
        for (bad, message) in [
            (r#"{"op":"register","tenant":"t","tables":[],"policy":7}"#.to_string(), "`policy`"),
            (r#"{"op":"register","tenant":"t","tables":[],"policy":"x"}"#.to_string(), "`policy`"),
            (r#"{"op":"register","tenant":"t","tables":[],"policy":[]}"#.to_string(), "`policy`"),
            (
                format!(r#"{{"op":"register","tenant":"t","tables":[{}]}}"#, attribute("5")),
                "attribute `type`",
            ),
            (
                format!(r#"{{"op":"replace","tenant":"t","table":{}}}"#, attribute("true")),
                "attribute `type`",
            ),
        ] {
            let err = decode(&bad).expect_err(&bad);
            assert!(err.starts_with(message), "{bad}: {err}");
        }
        let source = |name: &str| parse(format!(r#"{{"name":{name},"tables":[]}}"#).as_bytes());
        let err = decode_database(&source("5").unwrap()).unwrap_err();
        assert_eq!(err, "source `name` must be a string");
        // Omitted or `null` members keep their defaults.
        assert_eq!(decode_database(&source("null").unwrap()).unwrap().name(), "source");
        match decode(&format!(
            r#"{{"op":"register","tenant":"t","tables":[{}],"policy":null}}"#,
            attribute("null")
        )) {
            Ok(Request::Register { tables, policy, quotas, .. }) => {
                assert_eq!(tables[0].schema().attributes()[0].data_type, DataType::Text);
                assert_eq!((policy, quotas), Default::default());
            }
            other => panic!("null members must decode to their defaults: {other:?}"),
        }
    }

    /// The memo a register decoded by `decode_register` leaves behind (the
    /// server pairs each text with the catalog's instance instead).
    fn memo_of(frame: &RegisterFrame) -> Arc<[RememberedTable]> {
        frame
            .texts
            .iter()
            .zip(&frame.tables)
            .map(|(text, table)| RememberedTable {
                text: Arc::clone(text),
                table: Arc::clone(table),
            })
            .collect()
    }

    #[test]
    fn register_decode_reuses_remembered_bytes_and_matches_from_json() {
        let book = book_table_json();
        let shelf = book.replacen("\"book\"", "\"shelf\"", 1);
        let frame = |tables: &str, tail: &str| {
            format!(r#"{{"op":"register","tenant":"acme","tables":[{tables}]{tail}}}"#)
        };
        // With an empty memo every element is decoded, to exactly what the
        // whole-frame path decodes.
        let first =
            frame(&format!("{book},{shelf}"), r#","policy":{"top_k":3,"source_cache_capacity":2}"#);
        let decoded = decode_register(first.as_bytes(), |_| Arc::default()).expect("compact");
        match Request::from_json(&parse(first.as_bytes()).unwrap()) {
            Ok(Request::Register { tenant, tables, policy, quotas }) => {
                assert_eq!(decoded.tenant, tenant);
                let ours: Vec<Table> = decoded.tables.iter().map(|t| Table::clone(t)).collect();
                assert_eq!(ours, tables);
                assert_eq!((decoded.policy, decoded.quotas), (policy, quotas));
            }
            other => panic!("the frame must decode: {other:?}"),
        }
        assert_eq!(decoded.reused, 0);
        let texts: Vec<&[u8]> = decoded.texts.iter().map(|t| &t[..]).collect();
        assert_eq!(texts, [book.as_bytes(), shelf.as_bytes()]);

        // Equal bytes at the same position are the remembered table; an
        // edited element is decoded.
        let memo = memo_of(&decoded);
        let edited = shelf.replacen("12.5", "13.5", 1);
        let again = decode_register(frame(&format!("{book},{edited}"), "").as_bytes(), |tenant| {
            assert_eq!(tenant, "acme");
            Arc::clone(&memo)
        })
        .expect("compact");
        assert_eq!((again.reused, again.tables.len()), (1, 2));
        assert!(Arc::ptr_eq(&again.tables[0], &memo[0].table));
        assert!(Arc::ptr_eq(&again.texts[0], &memo[0].text));
        assert_ne!(again.tables[1].fingerprint(), memo[1].table.fingerprint());
        assert_eq!((again.policy, again.quotas), Default::default());
        // Reuse is by position, never by name: swapped elements are decoded.
        let swapped = decode_register(frame(&format!("{shelf},{book}"), "").as_bytes(), |_| {
            Arc::clone(&memo)
        })
        .expect("compact");
        assert_eq!(swapped.reused, 0);
        assert_eq!(swapped.tables[1].fingerprint(), memo[0].table.fingerprint());

        // Everything else is declined, to the whole-frame path.
        let one = frame(book, "");
        for declined in [
            frame(&format!("{book}, {shelf}"), ""),
            frame(&format!("{book}x"), ""),
            frame(&format!("{book},{book}"), ""),
            frame(&book[..book.len() - 1], ""),
            frame("[1]", ""),
            frame(book, r#","policy":7"#),
            frame(book, r#","policy":{},"policy":{}"#),
            frame(book, r#","extra":1"#),
            format!(r#"{{"tenant":"acme","op":"register","tables":[{book}]}}"#),
            format!(r#"{{"op":"register","tables":[{book}],"tenant":"acme"}}"#),
            format!(r#"{{"op":"register","tenant":7,"tables":[{book}]}}"#),
            format!("{one} "),
            format!(" {one}"),
            one[..one.len() - 1].to_string(),
        ] {
            let memo = Arc::clone(&memo);
            assert!(decode_register(declined.as_bytes(), |_| memo).is_none(), "{declined}");
        }
    }

    #[test]
    fn register_rejects_a_repeated_table_name() {
        let book = book_table_json();
        let other = book.replacen("\"book\"", "\"shelf\"", 1);
        let frame = |tables: &str| {
            parse(format!(r#"{{"op":"register","tenant":"acme","tables":[{tables}]}}"#).as_bytes())
                .unwrap()
        };
        assert_eq!(
            Request::from_json(&frame(&format!("{book},{other},{book}"))),
            Err("duplicate target table `book`".to_string())
        );
        match Request::from_json(&frame(&format!("{book},{other}"))) {
            Ok(Request::Register { tables, .. }) => assert_eq!(tables.len(), 2),
            other => panic!("distinct names must decode: {other:?}"),
        }
    }

    #[test]
    fn policy_projects_selected_post_match() {
        let m = |score: f64| Match {
            source: AttrRef::new("inv", "name"),
            base_table: "book".into(),
            target: AttrRef::new("book", "title"),
            condition: Condition::True,
            score,
            confidence: score,
        };
        let matches = vec![m(0.9), m(0.6), m(0.3)];
        let none = TenantPolicy::default();
        assert_eq!(none.apply(&matches).len(), 3);
        let thresholded = TenantPolicy { score_threshold: Some(0.5), top_k: None };
        assert_eq!(thresholded.apply(&matches).len(), 2);
        let top1 = TenantPolicy { score_threshold: Some(0.5), top_k: Some(1) };
        let kept = top1.apply(&matches);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn error_frames_carry_code_and_retry_hint() {
        let frame = error_frame(ErrorCode::Overloaded, "queue full", Some(25));
        let text = frame.to_text();
        assert!(text.contains(r#""code":"overloaded""#), "{text}");
        assert!(text.contains(r#""retry_after_ms":25"#), "{text}");
        assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
        let plain = error_frame(ErrorCode::BadRequest, "nope", None);
        assert!(!plain.to_text().contains("retry_after_ms"));
    }
}
