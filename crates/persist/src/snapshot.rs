//! The snapshot data model and its payload codecs.
//!
//! A [`Snapshot`] is the *derived* warm state of one match service — or of a
//! whole multi-tenant server, whose tenants share one interner id space: the
//! interner dump, and per tenant the target catalog, the fingerprints
//! recorded at save time, the harvested per-column artifacts, and the
//! restricted-profile cache contents. The whole-match result cache is
//! deliberately **not** persisted: its keys embed the catalog snapshot
//! version, which restarts from zero in a restored service, so entries could
//! never be addressed again — the first repeat submission rebuilds them.
//!
//! Decoding is validation-first (see [`decode`]): a section that fails its
//! checksum, fails to parse, or depends on a section that did (interned
//! artifacts without a valid interner dump) comes back as `None` with an
//! entry in the [`LoadReport`], and the loader rebuilds that part cold.
//! Content-level validation — *does this artifact still describe this
//! column?* — happens one layer up in `cxm-service`, by comparing each
//! record's stored fingerprint against a freshly computed one.

use std::collections::BTreeSet;

use cxm_matching::{ColumnArtifacts, InternedProfile, InternedValueSet};
use cxm_relational::{Attribute, Condition, DataType, Database, Table, TableSchema, Tuple, Value};
use std::sync::Arc;

use crate::format::{
    parse_file, put_f64, put_i64, put_str, put_u32, put_u64, put_u8, tag_name, tags, Cursor,
    DecodeError, FileBuilder, ManifestEntry, SnapshotError,
};

/// Deepest condition nesting the decoder will follow; beyond it the payload
/// is rejected (a hostile byte stream must not recurse the stack away).
const MAX_CONDITION_DEPTH: usize = 32;

/// A whole snapshot file's content: the shared interner dump plus one
/// [`TenantEntry`] per tenant. A single-service snapshot is the degenerate
/// case — one tenant with the empty label and no [`TenantMeta`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every interned string in dense id order (`None` = section degraded).
    pub interner: Option<Vec<String>>,
    /// Per-tenant warm state, in file order.
    pub tenants: Vec<TenantEntry>,
}

impl Snapshot {
    /// The entry of one tenant label, if present.
    pub fn tenant(&self, label: &str) -> Option<&TenantEntry> {
        self.tenants.iter().find(|t| t.label == label)
    }
}

/// One tenant's slice of a snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantEntry {
    /// Tenant name (empty for a single-service snapshot).
    pub label: String,
    /// Registration metadata (policy + quota requests); `None` when absent
    /// or degraded — a multi-tenant restore then skips the tenant entirely.
    pub meta: Option<TenantMeta>,
    /// The tenant's warm state, section by section.
    pub warm: WarmState,
}

/// Tenant registration metadata, mirrored from the serving layer's policy and
/// quota types without depending on them (the dependency points the other
/// way).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantMeta {
    /// Post-match score threshold.
    pub score_threshold: Option<f64>,
    /// Post-match top-k truncation.
    pub top_k: Option<usize>,
    /// Requested warm-state quotas, in the serving layer's knob order:
    /// source cache, selection tables, restricted profiles, match results.
    pub quotas: [Option<usize>; 4],
}

/// One service's warm state. Every field is a section: `None` means the
/// section was absent from the file or degraded by validation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmState {
    /// The full target database.
    pub catalog: Option<Database>,
    /// Table and column fingerprints recorded at save time — the restore-time
    /// cross-check that the decoded catalog is byte-for-byte the one saved.
    pub fingerprints: Option<Vec<TableFingerprints>>,
    /// Harvested per-column artifacts of the target batch.
    pub profiles: Option<Vec<ColumnProfileRecord>>,
    /// Restricted-profile cache contents, in insertion order.
    pub restricted: Option<Vec<RestrictedRecord>>,
}

/// Fingerprints of one table as recorded at save time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableFingerprints {
    /// Table name.
    pub table: String,
    /// [`Table::fingerprint`] at save time.
    pub table_fingerprint: u64,
    /// Per-attribute `(name, column fingerprint)` in schema order.
    pub columns: Vec<(String, u64)>,
}

/// One target column's harvested artifacts plus the identity they belong to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnProfileRecord {
    /// Owning table name.
    pub table: String,
    /// Attribute name.
    pub attribute: String,
    /// The column's content fingerprint at save time. Restore seeds the
    /// artifacts **only** into a column whose freshly computed fingerprint
    /// equals this — the warm-soundness gate across the process boundary.
    pub fingerprint: u64,
    /// The artifacts themselves.
    pub artifacts: ArtifactsRecord,
}

/// One restricted-profile cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RestrictedRecord {
    /// Base-column content fingerprint half of the cache key.
    pub column_fingerprint: u64,
    /// The view's selection condition.
    pub condition: Condition,
    /// Condition-column fingerprint half of the cache key.
    pub condition_fingerprint: u64,
    /// Catalog version that published the entry (diagnostic only).
    pub version: u64,
    /// The cached artifacts. The interner *token* half of the live cache key
    /// is deliberately not persisted — it is process-unique by design; the
    /// restorer keys the entry under the restored interner's token.
    pub artifacts: ArtifactsRecord,
}

/// The portable form of [`ColumnArtifacts`]: only artifacts that are
/// expensive to rebuild and safe to validate travel — interned profiles and
/// value sets (meaningful under the snapshot's own interner dump), and the
/// numeric summaries. The name key is a cheap lazy rebuild and stays
/// behind.
///
/// Catalog columns are complete: every string has an id. A restricted
/// (source-side) column's artifacts may be resolved, and then carry what
/// the vocabulary lacked in `qgram3_unknown` / `value_unknown`; a record in
/// the parent layout has neither, and decodes as complete.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactsRecord {
    /// Interned 3-gram profile entries (id-sorted `(id, count)`).
    pub qgram3_ids: Option<Vec<(u32, f64)>>,
    /// For a resolved profile: the vocabulary length it was resolved at and
    /// the code-sorted `(packed code, count)` of the grams the vocabulary
    /// lacked. `None` for a complete profile.
    pub qgram3_unknown: Option<(u64, Vec<(u64, f64)>)>,
    /// Interned distinct-value ids (sorted, unique).
    pub value_ids: Option<Vec<u32>>,
    /// For a resolved value set: the vocabulary length it was resolved at
    /// and how many distinct values the vocabulary lacked. `None` for a
    /// complete set.
    pub value_unknown: Option<(u64, u64)>,
    /// Numeric summary (outer `None` = never built; inner `None` = built,
    /// not numeric).
    pub numeric_summary: Option<Option<(f64, f64, f64, f64)>>,
    /// Count of numeric-parsing values.
    pub numeric_count: Option<u64>,
}

impl ArtifactsRecord {
    /// Capture the portable artifacts of one live column.
    pub fn harvest(artifacts: &ColumnArtifacts) -> Self {
        let profile = artifacts.qgram3_ids.as_deref();
        let values = artifacts.value_ids.as_deref();
        ArtifactsRecord {
            qgram3_ids: profile.map(|p| p.entries().to_vec()),
            qgram3_unknown: profile
                .filter(|p| !p.is_complete())
                .map(|p| (p.resolved_len() as u64, p.unknown().to_vec())),
            value_ids: values.map(|v| v.ids().to_vec()),
            value_unknown: values
                .filter(|v| !v.is_complete())
                .map(|v| (v.resolved_len() as u64, v.unknown() as u64)),
            numeric_summary: artifacts.numeric_summary,
            numeric_count: artifacts.numeric_count.map(|c| c as u64),
        }
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.qgram3_ids.is_none()
            && self.value_ids.is_none()
            && self.numeric_summary.is_none()
            && self.numeric_count.is_none()
    }

    /// Rebuild live [`ColumnArtifacts`], validating every structural
    /// invariant the kernels rely on: ids strictly increasing and inside the
    /// restored interner's id space (`interned` ids exist), counts finite
    /// and positive, and for a resolved artifact a resolved length within
    /// that id space, ids below it and unknown grams that are three-scalar
    /// codes in strictly increasing order. Returns `None` — degrade,
    /// rebuild cold — on any violation.
    pub fn seed(&self, interned: usize) -> Option<ColumnArtifacts> {
        let positive = |c: f64| c.is_finite() && c > 0.0;
        let resolved_len = |len: u64| usize::try_from(len).ok().filter(|&len| len <= interned);
        let qgram3_ids = match &self.qgram3_ids {
            None => None,
            Some(entries) => {
                let sorted = entries.windows(2).all(|w| w[0].0 < w[1].0);
                let in_space = entries.iter().all(|&(id, _)| (id as usize) < interned);
                if !(sorted && in_space && entries.iter().all(|&(_, c)| positive(c))) {
                    return None;
                }
                Some(Arc::new(match &self.qgram3_unknown {
                    None => InternedProfile::from_counts(entries.clone()),
                    Some((len, unknown)) => {
                        if !unknown.iter().all(|&(_, c)| positive(c)) {
                            return None;
                        }
                        InternedProfile::resolved(
                            entries.clone(),
                            unknown.clone(),
                            resolved_len(*len)?,
                        )?
                    }
                }))
            }
        };
        let value_ids = match &self.value_ids {
            None => None,
            Some(ids) => {
                if !ids.iter().all(|&id| (id as usize) < interned) {
                    return None;
                }
                Some(Arc::new(match self.value_unknown {
                    None => InternedValueSet::from_sorted_ids(ids.clone())?,
                    Some((len, unknown)) => InternedValueSet::resolved(
                        ids.clone(),
                        usize::try_from(unknown).ok()?,
                        resolved_len(len)?,
                    )?,
                }))
            }
        };
        Some(ColumnArtifacts {
            qgram3_ids,
            value_ids,
            numeric_summary: self.numeric_summary,
            numeric_count: self.numeric_count.map(|c| c as usize),
            name_key: None,
        })
    }
}

/// What a [`decode`] degraded, section by section — the restore layer folds
/// these into its restored-vs-rebuilt accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Degraded sections as `name` or `name:tenant` strings, in detection
    /// order.
    pub degraded: Vec<String>,
}

impl LoadReport {
    fn degrade(&mut self, tag: u8, label: &str) {
        self.degraded.push(section_name(tag, label));
    }

    /// True when every section loaded intact.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// `"profiles"` / `"profiles:acme"`-style section naming for reports.
pub fn section_name(tag: u8, label: &str) -> String {
    if label.is_empty() {
        tag_name(tag).to_string()
    } else {
        format!("{}:{label}", tag_name(tag))
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Encode a snapshot into its container bytes.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    encode_with_layout(snapshot).0
}

/// [`encode`], also returning the manifest rows (section offsets/lengths) —
/// what the fault-injection tests use to truncate and flip at every section
/// boundary.
pub fn encode_with_layout(snapshot: &Snapshot) -> (Vec<u8>, Vec<ManifestEntry>) {
    let mut builder = FileBuilder::new();
    if let Some(dump) = &snapshot.interner {
        let mut payload = Vec::new();
        put_u64(&mut payload, dump.len() as u64);
        for text in dump {
            put_str(&mut payload, text);
        }
        builder.section(tags::INTERNER, "", &payload);
    }
    for tenant in &snapshot.tenants {
        let label = tenant.label.as_str();
        if let Some(meta) = &tenant.meta {
            builder.section(tags::TENANT, label, &encode_meta(meta));
        }
        if let Some(db) = &tenant.warm.catalog {
            builder.section(tags::CATALOG, label, &encode_database(db));
        }
        if let Some(fps) = &tenant.warm.fingerprints {
            builder.section(tags::FINGERPRINTS, label, &encode_fingerprints(fps));
        }
        if let Some(profiles) = &tenant.warm.profiles {
            builder.section(tags::PROFILES, label, &encode_profiles(profiles));
        }
        if let Some(restricted) = &tenant.warm.restricted {
            builder.section(tags::RESTRICTED, label, &encode_restricted(restricted));
        }
    }
    builder.finish()
}

fn encode_meta(meta: &TenantMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    match meta.score_threshold {
        Some(t) => {
            put_u8(&mut buf, 1);
            put_f64(&mut buf, t);
        }
        None => put_u8(&mut buf, 0),
    }
    put_opt_u64(&mut buf, meta.top_k.map(|k| k as u64));
    for quota in meta.quotas {
        put_opt_u64(&mut buf, quota.map(|q| q as u64));
    }
    buf
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

fn encode_database(db: &Database) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, db.name());
    put_u64(&mut buf, db.len() as u64);
    for table in db.tables() {
        put_str(&mut buf, table.name());
        let attrs = table.schema().attributes();
        put_u64(&mut buf, attrs.len() as u64);
        for attr in attrs {
            put_str(&mut buf, &attr.name);
            put_str(
                &mut buf,
                if attr.data_type == DataType::Unknown { "unknown" } else { attr.data_type.name() },
            );
        }
        put_u64(&mut buf, table.len() as u64);
        for row in table.rows() {
            for value in row.values() {
                encode_value(&mut buf, value);
            }
        }
    }
    buf
}

fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, 0),
        Value::Int(i) => {
            put_u8(buf, 1);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            put_u8(buf, 2);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, 4);
            put_u8(buf, u8::from(*b));
        }
    }
}

fn encode_fingerprints(tables: &[TableFingerprints]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, tables.len() as u64);
    for t in tables {
        put_str(&mut buf, &t.table);
        put_u64(&mut buf, t.table_fingerprint);
        put_u64(&mut buf, t.columns.len() as u64);
        for (name, fp) in &t.columns {
            put_str(&mut buf, name);
            put_u64(&mut buf, *fp);
        }
    }
    buf
}

fn encode_profiles(profiles: &[ColumnProfileRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, profiles.len() as u64);
    for p in profiles {
        put_str(&mut buf, &p.table);
        put_str(&mut buf, &p.attribute);
        put_u64(&mut buf, p.fingerprint);
        encode_artifacts(&mut buf, &p.artifacts);
    }
    buf
}

fn encode_restricted(records: &[RestrictedRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, records.len() as u64);
    for r in records {
        put_u64(&mut buf, r.column_fingerprint);
        encode_condition(&mut buf, &r.condition);
        put_u64(&mut buf, r.condition_fingerprint);
        put_u64(&mut buf, r.version);
        encode_artifacts(&mut buf, &r.artifacts);
    }
    buf
}

/// An artifact's presence flag: `0` absent, `1` complete (the parent
/// layout), `2` resolved, followed by what the vocabulary lacked.
fn artifact_flag<T, U>(artifact: &Option<T>, unknown: &Option<U>) -> u8 {
    match (artifact, unknown) {
        (None, _) => 0,
        (Some(_), None) => 1,
        (Some(_), Some(_)) => 2,
    }
}

fn encode_artifacts(buf: &mut Vec<u8>, a: &ArtifactsRecord) {
    put_u8(buf, artifact_flag(&a.qgram3_ids, &a.qgram3_unknown));
    if let Some(entries) = &a.qgram3_ids {
        put_u64(buf, entries.len() as u64);
        for &(id, count) in entries {
            put_u32(buf, id);
            put_f64(buf, count);
        }
        if let Some((len, unknown)) = &a.qgram3_unknown {
            put_u64(buf, *len);
            put_u64(buf, unknown.len() as u64);
            for &(code, count) in unknown {
                put_u64(buf, code);
                put_f64(buf, count);
            }
        }
    }
    put_u8(buf, artifact_flag(&a.value_ids, &a.value_unknown));
    if let Some(ids) = &a.value_ids {
        put_u64(buf, ids.len() as u64);
        for &id in ids {
            put_u32(buf, id);
        }
        if let Some((len, unknown)) = a.value_unknown {
            put_u64(buf, len);
            put_u64(buf, unknown);
        }
    }
    match a.numeric_summary {
        Some(inner) => {
            put_u8(buf, 1);
            match inner {
                Some((a1, a2, a3, a4)) => {
                    put_u8(buf, 1);
                    for v in [a1, a2, a3, a4] {
                        put_f64(buf, v);
                    }
                }
                None => put_u8(buf, 0),
            }
        }
        None => put_u8(buf, 0),
    }
    put_opt_u64(buf, a.numeric_count);
}

fn encode_condition(buf: &mut Vec<u8>, condition: &Condition) {
    match condition {
        Condition::True => put_u8(buf, 0),
        Condition::Eq(attr, value) => {
            put_u8(buf, 1);
            put_str(buf, attr);
            encode_value(buf, value);
        }
        Condition::In(attr, values) => {
            put_u8(buf, 2);
            put_str(buf, attr);
            put_u64(buf, values.len() as u64);
            for value in values {
                encode_value(buf, value);
            }
        }
        Condition::And(parts) => {
            put_u8(buf, 3);
            put_u64(buf, parts.len() as u64);
            for part in parts {
                encode_condition(buf, part);
            }
        }
        Condition::Or(parts) => {
            put_u8(buf, 4);
            put_u64(buf, parts.len() as u64);
            for part in parts {
                encode_condition(buf, part);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Decode a snapshot's bytes, degrading invalid sections.
///
/// Whole-file rejection ([`SnapshotError`]) means nothing is usable — the
/// caller rebuilds everything cold. Otherwise every degraded (or
/// dependency-degraded) section is `None` in the returned [`Snapshot`] and
/// named in the [`LoadReport`]. Interned artifacts are only meaningful under
/// the snapshot's own interner dump, so a degraded interner section degrades
/// every profiles/restricted section with it.
pub fn decode(bytes: &[u8]) -> Result<(Snapshot, LoadReport), SnapshotError> {
    let sections = parse_file(bytes)?;
    let mut report = LoadReport::default();
    let mut snapshot = Snapshot::default();
    let mut interner_valid = false;
    for section in &sections {
        let payload = match &section.payload {
            Some(payload) => payload.as_slice(),
            None => {
                report.degrade(section.tag, &section.label);
                if !section.label.is_empty() || section.tag != tags::INTERNER {
                    tenant_entry(&mut snapshot.tenants, &section.label);
                }
                continue;
            }
        };
        let mut cur = Cursor::new(payload);
        let parsed: Result<(), DecodeError> = match section.tag {
            tags::INTERNER => decode_interner(&mut cur).map(|dump| {
                snapshot.interner = Some(dump);
                interner_valid = true;
            }),
            tags::TENANT => decode_meta(&mut cur).map(|meta| {
                tenant_entry(&mut snapshot.tenants, &section.label).meta = Some(meta);
            }),
            tags::CATALOG => decode_database(&mut cur).map(|db| {
                tenant_entry(&mut snapshot.tenants, &section.label).warm.catalog = Some(db);
            }),
            tags::FINGERPRINTS => decode_fingerprints(&mut cur).map(|fps| {
                tenant_entry(&mut snapshot.tenants, &section.label).warm.fingerprints = Some(fps);
            }),
            tags::PROFILES => decode_profiles(&mut cur).map(|profiles| {
                tenant_entry(&mut snapshot.tenants, &section.label).warm.profiles = Some(profiles);
            }),
            tags::RESTRICTED => decode_restricted(&mut cur).map(|records| {
                tenant_entry(&mut snapshot.tenants, &section.label).warm.restricted = Some(records);
            }),
            _ => Err(DecodeError("unknown section tag")),
        };
        if parsed.is_err() {
            report.degrade(section.tag, &section.label);
            tenant_entry(&mut snapshot.tenants, &section.label);
        }
    }

    // Dependency degradation: interned artifacts reference ids of the
    // snapshot's own interner dump; without a valid dump they are noise.
    if !interner_valid {
        snapshot.interner = None;
        for tenant in &mut snapshot.tenants {
            if tenant.warm.profiles.take().is_some() {
                report.degraded.push(section_name(tags::PROFILES, &tenant.label));
            }
            if tenant.warm.restricted.take().is_some() {
                report.degraded.push(section_name(tags::RESTRICTED, &tenant.label));
            }
        }
    }
    Ok((snapshot, report))
}

fn tenant_entry<'a>(tenants: &'a mut Vec<TenantEntry>, label: &str) -> &'a mut TenantEntry {
    if let Some(at) = tenants.iter().position(|t| t.label == label) {
        return &mut tenants[at];
    }
    tenants.push(TenantEntry { label: label.to_string(), ..TenantEntry::default() });
    tenants.last_mut().expect("just pushed")
}

fn decode_interner(cur: &mut Cursor<'_>) -> Result<Vec<String>, DecodeError> {
    let count = cur.count(8)?;
    let mut dump = Vec::with_capacity(count);
    for _ in 0..count {
        dump.push(cur.str()?);
    }
    Ok(dump)
}

fn decode_meta(cur: &mut Cursor<'_>) -> Result<TenantMeta, DecodeError> {
    let score_threshold = match cur.u8()? {
        0 => None,
        1 => Some(cur.f64()?),
        _ => return Err(DecodeError("bad option flag")),
    };
    let top_k = decode_opt_u64(cur)?.map(|k| k as usize);
    let mut quotas = [None; 4];
    for quota in &mut quotas {
        *quota = decode_opt_u64(cur)?.map(|q| q as usize);
    }
    Ok(TenantMeta { score_threshold, top_k, quotas })
}

fn decode_opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>, DecodeError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.u64()?)),
        _ => Err(DecodeError("bad option flag")),
    }
}

fn decode_database(cur: &mut Cursor<'_>) -> Result<Database, DecodeError> {
    let name = cur.str()?;
    let mut db = Database::new(name);
    let tables = cur.count(1)?;
    for _ in 0..tables {
        let table_name = cur.str()?;
        let attr_count = cur.count(2)?;
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            let attr_name = cur.str()?;
            let type_name = cur.str()?;
            let data_type = match type_name.as_str() {
                "unknown" => DataType::Unknown,
                other => other.parse::<DataType>().map_err(|_| DecodeError("unknown data type"))?,
            };
            attrs.push(Attribute::new(attr_name, data_type));
        }
        let row_count = cur.count(attrs.len().max(1))?;
        let mut rows = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            let mut values = Vec::with_capacity(attrs.len());
            for _ in 0..attrs.len() {
                values.push(decode_value(cur)?);
            }
            rows.push(Tuple::new(values));
        }
        let table = Table::with_rows(TableSchema::new(table_name.as_str(), attrs), rows)
            .map_err(|_| DecodeError("table rejected its rows"))?;
        if db.table(table.name()).is_some() {
            return Err(DecodeError("duplicate table name"));
        }
        db.replace_table(table);
    }
    Ok(db)
}

fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, DecodeError> {
    Ok(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Int(cur.i64()?),
        2 => Value::Float(cur.f64()?),
        3 => Value::Str(cur.str()?),
        4 => Value::Bool(cur.u8()? != 0),
        _ => return Err(DecodeError("bad value tag")),
    })
}

fn decode_fingerprints(cur: &mut Cursor<'_>) -> Result<Vec<TableFingerprints>, DecodeError> {
    let tables = cur.count(8)?;
    let mut out = Vec::with_capacity(tables);
    for _ in 0..tables {
        let table = cur.str()?;
        let table_fingerprint = cur.u64()?;
        let cols = cur.count(8)?;
        let mut columns = Vec::with_capacity(cols);
        for _ in 0..cols {
            let name = cur.str()?;
            let fp = cur.u64()?;
            columns.push((name, fp));
        }
        out.push(TableFingerprints { table, table_fingerprint, columns });
    }
    Ok(out)
}

fn decode_profiles(cur: &mut Cursor<'_>) -> Result<Vec<ColumnProfileRecord>, DecodeError> {
    let count = cur.count(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let table = cur.str()?;
        let attribute = cur.str()?;
        let fingerprint = cur.u64()?;
        let artifacts = decode_artifacts(cur)?;
        out.push(ColumnProfileRecord { table, attribute, fingerprint, artifacts });
    }
    Ok(out)
}

fn decode_restricted(cur: &mut Cursor<'_>) -> Result<Vec<RestrictedRecord>, DecodeError> {
    let count = cur.count(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let column_fingerprint = cur.u64()?;
        let condition = decode_condition(cur, 0)?;
        let condition_fingerprint = cur.u64()?;
        let version = cur.u64()?;
        let artifacts = decode_artifacts(cur)?;
        out.push(RestrictedRecord {
            column_fingerprint,
            condition,
            condition_fingerprint,
            version,
            artifacts,
        });
    }
    Ok(out)
}

fn decode_artifacts(cur: &mut Cursor<'_>) -> Result<ArtifactsRecord, DecodeError> {
    let flag = cur.u8()?;
    let (qgram3_ids, qgram3_unknown) = match flag {
        0 => (None, None),
        1 | 2 => {
            let count = cur.count(12)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let id = cur.u32()?;
                let value = cur.f64()?;
                entries.push((id, value));
            }
            let unknown = if flag == 2 {
                let len = cur.u64()?;
                let count = cur.count(16)?;
                let mut unknown = Vec::with_capacity(count);
                for _ in 0..count {
                    let code = cur.u64()?;
                    let value = cur.f64()?;
                    unknown.push((code, value));
                }
                Some((len, unknown))
            } else {
                None
            };
            (Some(entries), unknown)
        }
        _ => return Err(DecodeError("bad option flag")),
    };
    let flag = cur.u8()?;
    let (value_ids, value_unknown) = match flag {
        0 => (None, None),
        1 | 2 => {
            let count = cur.count(4)?;
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(cur.u32()?);
            }
            let unknown = if flag == 2 { Some((cur.u64()?, cur.u64()?)) } else { None };
            (Some(ids), unknown)
        }
        _ => return Err(DecodeError("bad option flag")),
    };
    let numeric_summary = match cur.u8()? {
        0 => None,
        1 => Some(match cur.u8()? {
            0 => None,
            1 => Some((cur.f64()?, cur.f64()?, cur.f64()?, cur.f64()?)),
            _ => return Err(DecodeError("bad option flag")),
        }),
        _ => return Err(DecodeError("bad option flag")),
    };
    let numeric_count = decode_opt_u64(cur)?;
    Ok(ArtifactsRecord {
        qgram3_ids,
        qgram3_unknown,
        value_ids,
        value_unknown,
        numeric_summary,
        numeric_count,
    })
}

fn decode_condition(cur: &mut Cursor<'_>, depth: usize) -> Result<Condition, DecodeError> {
    if depth > MAX_CONDITION_DEPTH {
        return Err(DecodeError("condition nests too deep"));
    }
    Ok(match cur.u8()? {
        0 => Condition::True,
        1 => {
            let attr = cur.str()?;
            Condition::Eq(attr, decode_value(cur)?)
        }
        2 => {
            let attr = cur.str()?;
            let count = cur.count(1)?;
            let mut values = BTreeSet::new();
            for _ in 0..count {
                values.insert(decode_value(cur)?);
            }
            Condition::In(attr, values)
        }
        3 => {
            let count = cur.count(1)?;
            let mut parts = Vec::with_capacity(count);
            for _ in 0..count {
                parts.push(decode_condition(cur, depth + 1)?);
            }
            Condition::And(parts)
        }
        4 => {
            let count = cur.count(1)?;
            let mut parts = Vec::with_capacity(count);
            for _ in 0..count {
                parts.push(decode_condition(cur, depth + 1)?);
            }
            Condition::Or(parts)
        }
        _ => return Err(DecodeError("bad condition tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::tuple;

    /// The packed code of a three-scalar gram, as the interner keys it.
    fn code(gram: &str) -> u64 {
        gram.chars().fold(0, |code, c| (code << 21) | u64::from(c))
    }

    fn sample_snapshot() -> Snapshot {
        let db = Database::new("RT").with_table(
            Table::with_rows(
                TableSchema::new(
                    "book",
                    vec![
                        Attribute::text("title"),
                        Attribute::new("price", DataType::Float),
                        Attribute::new("stock", DataType::Bool),
                    ],
                ),
                vec![
                    tuple!["war and peace", 10.5, true],
                    Tuple::new(vec![Value::Null, Value::Float(-0.0), Value::Bool(false)]),
                ],
            )
            .unwrap(),
        );
        let fingerprints = vec![TableFingerprints {
            table: "book".into(),
            table_fingerprint: db.table("book").unwrap().fingerprint(),
            columns: vec![("title".into(), 11), ("price".into(), 22), ("stock".into(), 33)],
        }];
        let artifacts = ArtifactsRecord {
            qgram3_ids: Some(vec![(0, 2.0), (3, 1.0)]),
            qgram3_unknown: None,
            value_ids: Some(vec![1, 4]),
            value_unknown: None,
            numeric_summary: Some(Some((1.0, 2.0, 1.5, 0.5))),
            numeric_count: Some(2),
        };
        // A restricted column's artifacts resolved without inserting.
        let resolved = ArtifactsRecord {
            qgram3_unknown: Some((4, vec![(code("xyz"), 2.0), (code("zz#"), 1.0)])),
            value_unknown: Some((5, 3)),
            ..artifacts.clone()
        };
        Snapshot {
            interner: Some(vec![
                "war".into(),
                "ar ".into(),
                "r a".into(),
                "pea".into(),
                "ace".into(),
            ]),
            tenants: vec![TenantEntry {
                label: "acme".into(),
                meta: Some(TenantMeta {
                    score_threshold: Some(0.25),
                    top_k: Some(3),
                    quotas: [Some(4), None, Some(128), None],
                }),
                warm: WarmState {
                    catalog: Some(db),
                    fingerprints: Some(fingerprints),
                    profiles: Some(vec![ColumnProfileRecord {
                        table: "book".into(),
                        attribute: "title".into(),
                        fingerprint: 11,
                        artifacts: artifacts.clone(),
                    }]),
                    restricted: Some(vec![RestrictedRecord {
                        column_fingerprint: 77,
                        condition: Condition::eq("stock", true)
                            .and(Condition::is_in("title", ["a", "b"])),
                        condition_fingerprint: 88,
                        version: 2,
                        artifacts: resolved,
                    }]),
                },
            }],
        }
    }

    #[test]
    fn snapshots_round_trip_bit_exactly() {
        let snapshot = sample_snapshot();
        let bytes = encode(&snapshot);
        let (decoded, report) = decode(&bytes).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(decoded, snapshot);
        // Catalog content round-trips at fingerprint granularity too.
        let original = snapshot.tenants[0].warm.catalog.as_ref().unwrap();
        let restored = decoded.tenants[0].warm.catalog.as_ref().unwrap();
        assert_eq!(
            original.table("book").unwrap().fingerprint(),
            restored.table("book").unwrap().fingerprint()
        );
    }

    #[test]
    fn degraded_interner_takes_interned_artifacts_with_it() {
        let snapshot = sample_snapshot();
        let (bytes, layout) = encode_with_layout(&snapshot);
        let interner = layout.iter().find(|e| e.tag == tags::INTERNER).unwrap();
        let mut corrupt = bytes.clone();
        // Flip a payload byte of the interner section.
        let flip = interner.offset as usize + 3 + 8 + 2;
        corrupt[flip] ^= 0x10;
        let (decoded, report) = decode(&corrupt).unwrap();
        assert!(decoded.interner.is_none());
        assert!(decoded.tenants[0].warm.profiles.is_none(), "dependency degraded");
        assert!(decoded.tenants[0].warm.restricted.is_none(), "dependency degraded");
        assert!(decoded.tenants[0].warm.catalog.is_some(), "catalog is independent");
        assert!(report.degraded.contains(&"interner".to_string()));
        assert!(report.degraded.contains(&"profiles:acme".to_string()));
        assert!(report.degraded.contains(&"restricted:acme".to_string()));
    }

    #[test]
    fn seed_validates_structure_against_the_id_space() {
        let good = ArtifactsRecord {
            qgram3_ids: Some(vec![(0, 1.0), (2, 3.0)]),
            qgram3_unknown: None,
            value_ids: Some(vec![1, 2]),
            value_unknown: None,
            numeric_summary: Some(None),
            numeric_count: Some(0),
        };
        let seeded = good.seed(3).unwrap();
        assert_eq!(seeded.qgram3_ids.as_ref().unwrap().entries(), &[(0, 1.0), (2, 3.0)]);
        assert_eq!(seeded.value_ids.as_ref().unwrap().ids(), &[1, 2]);
        assert!(seeded.qgram3_ids.as_ref().unwrap().is_complete(), "the parent layout");
        assert_eq!(seeded.value_ids.as_ref().unwrap().resolved_len(), usize::MAX);

        // Resolved artifacts keep what the vocabulary lacked, and their norm
        // and distinct count cover it.
        let resolved = ArtifactsRecord {
            qgram3_unknown: Some((3, vec![(code("abc"), 2.0)])),
            value_unknown: Some((3, 4)),
            ..good.clone()
        };
        let seeded = resolved.seed(3).unwrap();
        let profile = seeded.qgram3_ids.as_ref().unwrap();
        assert_eq!((profile.resolved_len(), profile.unknown()), (3, &[(code("abc"), 2.0)][..]));
        assert_eq!(profile.norm().to_bits(), 14f64.sqrt().to_bits());
        let values = seeded.value_ids.as_ref().unwrap();
        assert_eq!((values.resolved_len(), values.len()), (3, 6));
        // Resolved past the restored id space, an id at or past the
        // resolved length, a code that is not three scalars, unsorted codes:
        // each degrades.
        assert!(resolved.seed(2).is_none());
        let past =
            ArtifactsRecord { qgram3_unknown: Some((2, vec![(code("abc"), 1.0)])), ..good.clone() };
        assert!(past.seed(3).is_none());
        let garbage =
            ArtifactsRecord { qgram3_unknown: Some((3, vec![(u64::MAX, 1.0)])), ..good.clone() };
        assert!(garbage.seed(3).is_none());
        let unsorted_codes = ArtifactsRecord {
            qgram3_unknown: Some((3, vec![(code("abd"), 1.0), (code("abc"), 1.0)])),
            ..good.clone()
        };
        assert!(unsorted_codes.seed(3).is_none());
        let values_past = ArtifactsRecord { value_unknown: Some((2, 1)), ..good.clone() };
        assert!(values_past.seed(3).is_none());
        assert!(good.seed(2).is_none(), "id 2 outside a 2-id space");
        let unsorted = ArtifactsRecord {
            qgram3_ids: Some(vec![(2, 1.0), (0, 3.0)]),
            ..ArtifactsRecord::default()
        };
        assert!(unsorted.seed(10).is_none());
        let dup_values =
            ArtifactsRecord { value_ids: Some(vec![1, 1]), ..ArtifactsRecord::default() };
        assert!(dup_values.seed(10).is_none());
        let negative =
            ArtifactsRecord { qgram3_ids: Some(vec![(0, -1.0)]), ..ArtifactsRecord::default() };
        assert!(negative.seed(10).is_none());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = Snapshot { interner: Some(Vec::new()), tenants: Vec::new() };
        let (decoded, report) = decode(&encode(&snapshot)).unwrap();
        assert!(report.is_clean());
        assert_eq!(decoded, snapshot);
    }
}
