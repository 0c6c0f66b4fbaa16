//! Property-based tests for the snapshot codec: `decode ∘ encode` is the
//! identity on arbitrary well-formed snapshots, and `decode` never panics —
//! and never *silently* returns wrong data — on arbitrarily truncated or
//! bit-flipped inputs.
//!
//! Snapshots are generated from a seeded LCG rather than per-field
//! strategies: one `u64` seed fans out into interner dumps, catalogs,
//! profile records and restricted entries of varying shapes, which keeps the
//! generator within the vendored shim's strategy vocabulary while still
//! covering every section kind and every optional field.

use proptest::prelude::*;

use cxm_persist::{
    decode, encode, ArtifactsRecord, ColumnProfileRecord, RestrictedRecord, Snapshot,
    TableFingerprints, TenantEntry, TenantMeta, WarmState,
};
use cxm_relational::{Attribute, Condition, Database, Table, TableSchema, Tuple, Value};

/// Deterministic generator for snapshot structure.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn word(&mut self) -> String {
        const ALPHABET: &[char] = &['a', 'b', 'c', ' ', 'x', '7', 'é'];
        let len = self.below(7) as usize;
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize]).collect()
    }

    fn finite_f64(&mut self) -> f64 {
        (self.below(2_000_001) as f64 - 1_000_000.0) / 97.0
    }

    fn value(&mut self) -> Value {
        match self.below(5) {
            0 => Value::Null,
            1 => Value::Int(self.next() as i64),
            2 => Value::Float(self.finite_f64()),
            3 => Value::Bool(self.below(2) == 0),
            _ => Value::str(self.word()),
        }
    }

    /// Sorted, strictly increasing ids.
    fn sorted_ids(&mut self, max_len: u64) -> Vec<u32> {
        let len = self.below(max_len) as usize;
        let mut id = 0u32;
        (0..len)
            .map(|_| {
                id = id.saturating_add(self.below(9) as u32 + 1);
                id
            })
            .collect()
    }

    fn artifacts(&mut self) -> ArtifactsRecord {
        let qgram3_ids: Option<Vec<(u32, f64)>> = (self.below(2) == 0).then(|| {
            self.sorted_ids(12).into_iter().map(|id| (id, self.below(99) as f64 + 1.0)).collect()
        });
        let value_ids = (self.below(2) == 0).then(|| self.sorted_ids(12));
        // Resolved (source-side) artifacts carry what the vocabulary lacked:
        // a resolved length and unknown gram codes or a distinct count.
        let qgram3_unknown = (qgram3_ids.is_some() && self.below(2) == 0).then(|| {
            let codes = self.sorted_ids(6).into_iter().map(|c| u64::from(c) << 21 | 0x23);
            (self.below(200), codes.map(|code| (code, self.below(9) as f64 + 1.0)).collect())
        });
        let value_unknown =
            (value_ids.is_some() && self.below(2) == 0).then(|| (self.below(200), self.below(9)));
        ArtifactsRecord {
            qgram3_ids,
            qgram3_unknown,
            value_ids,
            value_unknown,
            numeric_summary: match self.below(3) {
                0 => None,
                1 => Some(None),
                _ => Some(Some((
                    self.finite_f64(),
                    self.finite_f64(),
                    self.finite_f64(),
                    self.finite_f64(),
                ))),
            },
            numeric_count: (self.below(2) == 0).then(|| self.below(1000)),
        }
    }

    fn condition(&mut self, depth: u64) -> Condition {
        match if depth == 0 { self.below(2) } else { self.below(4) } {
            0 => Condition::eq(self.word(), self.value()),
            1 => {
                let values: Vec<Value> = (0..self.below(4)).map(|_| self.value()).collect();
                Condition::is_in(self.word(), values)
            }
            2 => self.condition(depth - 1).and(self.condition(depth - 1)),
            _ => self.condition(depth - 1).or(self.condition(depth - 1)),
        }
    }

    fn table(&mut self, index: usize) -> Table {
        let attrs = 1 + self.below(3) as usize;
        let schema = TableSchema::new(
            format!("t{index}"),
            (0..attrs).map(|a| Attribute::text(format!("c{a}"))).collect::<Vec<_>>(),
        );
        let rows = (0..self.below(6))
            .map(|_| Tuple::new((0..attrs).map(|_| self.value()).collect()))
            .collect();
        Table::with_rows(schema, rows).expect("generated arity always matches")
    }

    fn warm_state(&mut self) -> WarmState {
        let catalog = (self.below(4) != 0).then(|| {
            let tables = self.below(3) as usize;
            (0..tables).fold(Database::new(self.word()), |db, i| db.with_table(self.table(i)))
        });
        WarmState {
            catalog,
            fingerprints: (self.below(4) != 0).then(|| {
                (0..self.below(3))
                    .map(|i| TableFingerprints {
                        table: format!("t{i}"),
                        table_fingerprint: self.next(),
                        columns: (0..self.below(4))
                            .map(|c| (format!("c{c}"), self.next()))
                            .collect(),
                    })
                    .collect()
            }),
            profiles: (self.below(4) != 0).then(|| {
                (0..self.below(4))
                    .map(|i| ColumnProfileRecord {
                        table: format!("t{}", i % 2),
                        attribute: format!("c{i}"),
                        fingerprint: self.next(),
                        artifacts: self.artifacts(),
                    })
                    .collect()
            }),
            restricted: (self.below(4) != 0).then(|| {
                (0..self.below(3))
                    .map(|_| RestrictedRecord {
                        column_fingerprint: self.next(),
                        condition: self.condition(2),
                        condition_fingerprint: self.next(),
                        version: self.below(9),
                        artifacts: self.artifacts(),
                    })
                    .collect()
            }),
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        // Always include the interner dump: without it the decoder
        // (correctly) degrades the interner-dependent sections, which is
        // its own test, not a round-trip.
        let interner = Some((0..self.below(20)).map(|_| self.word()).collect());
        let tenants = (0..self.below(3))
            .map(|i| TenantEntry {
                label: if i == 0 { String::new() } else { format!("tenant-{i}") },
                meta: (self.below(2) == 0).then(|| TenantMeta {
                    score_threshold: (self.below(2) == 0).then(|| self.finite_f64()),
                    top_k: (self.below(2) == 0).then(|| self.below(50) as usize),
                    quotas: [
                        (self.below(2) == 0).then(|| self.below(100) as usize),
                        (self.below(2) == 0).then(|| self.below(100) as usize),
                        (self.below(2) == 0).then(|| self.below(100) as usize),
                        (self.below(2) == 0).then(|| self.below(100) as usize),
                    ],
                }),
                warm: self.warm_state(),
            })
            .collect();
        Snapshot { interner, tenants }
    }
}

proptest! {
    /// `decode ∘ encode` is the identity: the decoded snapshot equals the
    /// input field-for-field, the load report is clean, and re-encoding
    /// reproduces the original bytes bit-exactly.
    #[test]
    fn encode_decode_round_trips_identically(seed in any::<u64>()) {
        let snapshot = Lcg(seed).snapshot();
        let bytes = encode(&snapshot);
        let (decoded, report) = decode(&bytes).expect("well-formed snapshot decodes");
        prop_assert!(report.is_clean(), "clean input, degraded: {:?}", report.degraded);
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(encode(&decoded), bytes, "re-encode must be bit-identical");
    }

    /// Truncating a snapshot at *any* byte never panics the decoder, and a
    /// truncated file is never silently accepted as clean and different.
    #[test]
    fn decode_survives_truncation_at_any_byte(seed in any::<u64>(), cut in any::<u64>()) {
        let snapshot = Lcg(seed).snapshot();
        let bytes = encode(&snapshot);
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        match decode(&bytes[..cut]) {
            Err(_) => {}
            Ok((decoded, report)) => {
                prop_assert!(
                    !report.is_clean() || decoded == snapshot,
                    "truncation at {cut} decoded clean but different"
                );
            }
        }
    }

    /// Flipping any single byte never panics the decoder and is never
    /// silently accepted: the result is a whole-file reject, a degraded
    /// section, or (only when the flip is provably immaterial) the original
    /// snapshot back.
    #[test]
    fn decode_survives_any_single_byte_flip(
        seed in any::<u64>(),
        position in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let snapshot = Lcg(seed).snapshot();
        let mut bytes = encode(&snapshot);
        let position = (position % bytes.len() as u64) as usize;
        bytes[position] ^= flip.max(1);
        match decode(&bytes) {
            Err(_) => {}
            Ok((decoded, report)) => {
                prop_assert!(
                    !report.is_clean() || decoded == snapshot,
                    "flip {flip:#04x} at {position} decoded clean but different"
                );
            }
        }
    }

    /// Arbitrary byte soup — with and without a valid-looking magic — never
    /// panics the decoder.
    #[test]
    fn decode_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if with_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"CXMPSNAP");
        }
        let _ = decode(&bytes);
    }
}
