//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use cxm_relational::{
    split_rows, Attribute, Condition, SplitRatio, Table, TableSchema, Tuple, Value, ViewDef,
    ViewFamily,
};
use cxm_stats::{f_measure, normal_cdf, Binomial, MatchSetQuality, Moments};

/// Build a single-column table of integers.
fn int_table(values: &[i64]) -> Table {
    let schema = TableSchema::new("t", vec![Attribute::int("x")]);
    Table::with_rows(schema, values.iter().map(|&v| Tuple::new(vec![Value::Int(v)])).collect())
        .expect("arity matches")
}

/// Build a table of `rows` rows over 2–3 small-domain columns with NULLs:
/// `a` int and `b` text, plus `c` int when `three_columns`. Cell `k` of the
/// row-major `codes` picks a domain value, or NULL for code 3.
fn small_domain_table(codes: &[u32], rows: usize, three_columns: bool) -> Table {
    let mut attributes = vec![Attribute::int("a"), Attribute::text("b")];
    if three_columns {
        attributes.push(Attribute::int("c"));
    }
    let width = attributes.len();
    let cell = |column: usize, code: u32| match (column, code % 4) {
        (_, 3) => Value::Null,
        (1, k) => Value::str(["x", "y", "z"][k as usize]),
        (_, k) => Value::Int(k as i64),
    };
    let tuples = (0..rows)
        .map(|r| Tuple::new((0..width).map(|col| cell(col, codes[r * width + col])).collect()))
        .collect();
    Table::with_rows(TableSchema::new("t", attributes), tuples).expect("arity matches")
}

/// Decode one condition from the front of `codes`. Atoms are `True`, `Eq`
/// and `In` (over a possibly empty set) on `a`, `b`, `c` (unknown on a
/// two-column table) or the always-unknown `zz`. Below `depth` 3 a code may
/// instead open an `And` / `Or` of 0–3 decoded members. Exhausted codes
/// decode as `True`.
fn decode_condition(codes: &mut impl Iterator<Item = u32>, depth: usize) -> Condition {
    let Some(code) = codes.next() else { return Condition::True };
    let attr = ["a", "b", "c", "zz"][(code >> 3) as usize % 4];
    let value = |k: u32| match (attr, k % 4) {
        (_, 3) => Value::Null,
        ("b", k) => Value::str(["x", "y", "z"][k as usize]),
        (_, k) => Value::Int(k as i64),
    };
    match code % 8 {
        0 => Condition::True,
        3 => Condition::In(
            attr.to_string(),
            (0..4).filter(|k| (code >> 5) & (1 << k) != 0).map(value).collect(),
        ),
        4..=7 if depth < 3 => {
            let members =
                (0..(code >> 5) % 4).map(|_| decode_condition(codes, depth + 1)).collect();
            if code % 8 < 6 {
                Condition::And(members)
            } else {
                Condition::Or(members)
            }
        }
        _ => Condition::Eq(attr.to_string(), value(code >> 5)),
    }
}

proptest! {
    /// A view family built from the distinct values of an attribute always
    /// partitions the table: member views are disjoint and cover every row.
    #[test]
    fn view_families_partition_tables(values in prop::collection::vec(0i64..6, 1..120)) {
        let table = int_table(&values);
        let family = ViewFamily::partition_by_values(&table, "x").unwrap();
        prop_assert!(family.is_mutually_exclusive());
        let db = cxm_relational::Database::new("d").with_table(table.clone());
        let parts = family.evaluate(&db).unwrap();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, table.len());
    }

    /// Selection views never return rows that violate their condition, and the
    /// selectivity equals the returned fraction.
    #[test]
    fn selection_views_are_sound(values in prop::collection::vec(0i64..10, 1..100), pivot in 0i64..10) {
        let table = int_table(&values);
        let db = cxm_relational::Database::new("d").with_table(table.clone());
        let view = ViewDef::named_by_condition("t", Condition::eq("x", pivot));
        let out = view.evaluate(&db).unwrap();
        for row in out.rows() {
            prop_assert_eq!(row.at(0), &Value::Int(pivot));
        }
        let expected = values.iter().filter(|&&v| v == pivot).count();
        prop_assert_eq!(out.len(), expected);
        let sel = view.selectivity(&table);
        prop_assert!((sel - expected as f64 / values.len() as f64).abs() < 1e-12);
    }

    /// Train/test splitting is a partition: sizes add up and every row lands in
    /// exactly one side, for any ratio and seed.
    #[test]
    fn split_rows_is_a_partition(
        values in prop::collection::vec(0i64..1000, 2..200),
        ratio in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let table = int_table(&values);
        let (train, test) = split_rows(&table, SplitRatio(ratio), seed);
        prop_assert_eq!(train.len() + test.len(), table.len());
        prop_assert!(!train.is_empty());
        prop_assert!(!test.is_empty());
        let mut combined: Vec<i64> = train
            .column("x").unwrap().iter().chain(test.column("x").unwrap().iter())
            .map(|v| v.as_i64().unwrap())
            .collect();
        combined.sort_unstable();
        let mut original = values.clone();
        original.sort_unstable();
        prop_assert_eq!(combined, original);
    }

    /// Over random selections, every `RowSelection` set operation agrees
    /// with reference set semantics, and a twin built from the same indices
    /// is equal and operates identically. Binary values over a large base
    /// give selections of about half the rows; a strided subset adds sparse
    /// ones.
    #[test]
    fn selections_agree_with_set_semantics(
        values in prop::collection::vec(0i64..2, 1..300),
        pivot in 0i64..2,
        stride in 1usize..7,
    ) {
        use std::collections::BTreeSet;
        use cxm_relational::RowSelection;

        let table = int_table(&values);
        let n = values.len();
        let a = RowSelection::of_condition(&table, &Condition::eq("x", pivot));
        let b = RowSelection::of_condition(&table, &Condition::eq("x", 1 - pivot));
        let sa: BTreeSet<usize> = a.iter().collect();
        let sb: BTreeSet<usize> = b.iter().collect();

        // Set algebra agrees with reference semantics.
        let inter: Vec<usize> = sa.intersection(&sb).copied().collect();
        let uni: Vec<usize> = sa.union(&sb).copied().collect();
        let comp: Vec<usize> = (0..n).filter(|i| !sa.contains(i)).collect();
        prop_assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), inter);
        prop_assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), uni.clone());
        prop_assert_eq!(a.complement(n).iter().collect::<Vec<_>>(), comp);
        prop_assert_eq!(a.union(&b).len(), n, "binary column: union covers the base");

        // A twin of the same content is equal and operates identically.
        let twin = RowSelection::from_sorted(a.iter().collect());
        prop_assert_eq!(&twin, &a);
        prop_assert_eq!(twin.intersect(&b), a.intersect(&b));
        prop_assert_eq!(twin.union(&b), a.union(&b));
        prop_assert_eq!(twin.complement(n), a.complement(n));

        // A strided sparse subset against `a`.
        let strided = RowSelection::from_sorted((0..n).step_by(stride).collect());
        let ss: BTreeSet<usize> = strided.iter().collect();
        let mixed_inter: Vec<usize> = ss.intersection(&sa).copied().collect();
        let mixed_uni: Vec<usize> = ss.union(&sa).copied().collect();
        prop_assert_eq!(strided.intersect(&a).iter().collect::<Vec<_>>(), mixed_inter.clone());
        prop_assert_eq!(a.intersect(&strided).iter().collect::<Vec<_>>(), mixed_inter);
        prop_assert_eq!(strided.union(&a).iter().collect::<Vec<_>>(), mixed_uni.clone());
        prop_assert_eq!(a.union(&strided).iter().collect::<Vec<_>>(), mixed_uni);

        // Membership and length agree with the index list.
        let listed: Vec<usize> = a.indices().to_vec();
        prop_assert_eq!(listed.len(), a.len());
        for &i in &listed {
            prop_assert!(a.contains(i));
        }
    }

    /// The selection layer agrees with `Condition::eval` on arbitrary
    /// composite conditions: a direct scan, a cold cache and the same cache
    /// warm all select exactly the rows the condition holds on, and set
    /// algebra over two conditions' selections is set algebra over those
    /// rows. Bases of 1–300 rows put selections on both sides of any
    /// size- or selectivity-based choice.
    #[test]
    fn selections_match_eval_on_composite_conditions(
        cells in prop::collection::vec(0u32..4, 900..901),
        rows in 1usize..301,
        tiny in 0u32..4,
        three_columns in any::<bool>(),
        codes_a in prop::collection::vec(0u32..512, 1..24),
        codes_b in prop::collection::vec(0u32..512, 1..24),
    ) {
        use std::collections::BTreeSet;
        use cxm_relational::{RowSelection, SelectionCache};

        // A quarter of the cases use 1–8 rows, where single-row
        // intermediate selections are common.
        let rows = if tiny == 0 { rows % 8 + 1 } else { rows };
        let table = small_domain_table(&cells, rows, three_columns);
        let a_cond = decode_condition(&mut codes_a.into_iter(), 1);
        let b_cond = decode_condition(&mut codes_b.into_iter(), 1);
        let holds = |cond: &Condition| -> Vec<usize> {
            (0..rows).filter(|&i| cond.eval(table.schema(), &table.rows()[i])).collect()
        };

        for cond in [&a_cond, &b_cond] {
            let expected = holds(cond);
            let direct = RowSelection::of_condition(&table, cond);
            prop_assert_eq!(direct.iter().collect::<Vec<_>>(), expected.clone(), "{}", cond);
            let mut cache = SelectionCache::new();
            let cold = cache.select(&table, cond);
            prop_assert_eq!(cold.iter().collect::<Vec<_>>(), expected.clone(), "{}", cond);
            let scans = cache.misses();
            let warm = cache.select(&table, cond);
            prop_assert_eq!(warm.iter().collect::<Vec<_>>(), expected, "{}", cond);
            prop_assert_eq!(cache.misses(), scans, "a warm select scans nothing: {}", cond);
        }

        let a = RowSelection::of_condition(&table, &a_cond);
        let b = RowSelection::of_condition(&table, &b_cond);
        let sa: BTreeSet<usize> = holds(&a_cond).into_iter().collect();
        let sb: BTreeSet<usize> = holds(&b_cond).into_iter().collect();
        prop_assert_eq!(
            a.intersect(&b).iter().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.complement(rows).iter().collect::<Vec<_>>(),
            (0..rows).filter(|i| !sa.contains(i)).collect::<Vec<_>>()
        );
    }

    /// Conditions: `and`/`or` composition never mentions attributes that the
    /// operands do not mention, and evaluation is consistent with the boolean
    /// semantics of the composition.
    #[test]
    fn condition_composition_is_consistent(a in 0i64..4, b in 0i64..4, x in 0i64..4) {
        let schema = TableSchema::new("t", vec![Attribute::int("x")]);
        let row = Tuple::new(vec![Value::Int(x)]);
        let ca = Condition::eq("x", a);
        let cb = Condition::eq("x", b);
        let and = ca.clone().and(cb.clone());
        let or = ca.clone().or(cb.clone());
        prop_assert_eq!(and.eval(&schema, &row), ca.eval(&schema, &row) && cb.eval(&schema, &row));
        prop_assert_eq!(or.eval(&schema, &row), ca.eval(&schema, &row) || cb.eval(&schema, &row));
        prop_assert!(and.attributes().len() <= 1 + 1);
        prop_assert!(or.complexity() <= 1);
    }

    /// The normal CDF is monotone and bounded; binomial mean/variance formulas
    /// hold for arbitrary parameters.
    #[test]
    fn stats_invariants(x in -6.0f64..6.0, dx in 0.0f64..3.0, n in 1u64..400, p in 0.0f64..1.0) {
        let c1 = normal_cdf(x);
        let c2 = normal_cdf(x + dx);
        prop_assert!((0.0..=1.0).contains(&c1));
        prop_assert!(c2 + 1e-12 >= c1);
        let b = Binomial::new(n, p);
        prop_assert!((b.mean() - n as f64 * p).abs() < 1e-9);
        prop_assert!(b.variance() >= -1e-12);
        prop_assert!(b.std_dev() <= n as f64 / 2.0 + 1.0);
    }

    /// Welford moments match the direct two-pass computation.
    #[test]
    fn moments_match_two_pass(values in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let m = Moments::from_samples(values.iter().copied());
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        prop_assert!((m.mean() - mean).abs() < 1e-6);
        prop_assert!((m.population_variance() - var).abs() < 1e-6);
    }

    /// Match-set quality: accuracy and precision stay in [0, 1], FMeasure is
    /// bounded by both, and comparing a set against itself is perfect.
    #[test]
    fn match_set_quality_bounds(
        found in prop::collection::btree_set(0u32..50, 0..30),
        truth in prop::collection::btree_set(0u32..50, 0..30),
    ) {
        let found: Vec<u32> = found.into_iter().collect();
        let truth: Vec<u32> = truth.into_iter().collect();
        let q = MatchSetQuality::compare(&found, &truth);
        prop_assert!((0.0..=1.0).contains(&q.accuracy()));
        prop_assert!((0.0..=1.0).contains(&q.precision()));
        let f = q.f_measure();
        prop_assert!(f <= q.accuracy() + 1e-12 || f <= q.precision() + 1e-12);
        let self_q = MatchSetQuality::compare(&truth, &truth);
        prop_assert!((self_q.f_measure() - 1.0).abs() < 1e-12);
        prop_assert!((f_measure(q.accuracy(), q.precision()) - f).abs() < 1e-12);
    }
}

mod interned_kernels {
    use std::sync::Arc;

    use proptest::prelude::*;

    use cxm_matching::instance::{QGramMatcher, ValueOverlapMatcher};
    use cxm_matching::{ColumnData, GramInterner, Matcher};
    use cxm_relational::{AttrRef, DataType};
    use cxm_tests::reference::{StringOverlapMatcher, StringQGramMatcher};

    /// Alphabet the generated values draw from: small, with a space and a
    /// digit, so profiles overlap often (the interesting regime for the
    /// merge-join kernels) and normalization is exercised.
    const ALPHABET: &[char] = &['a', 'b', 'c', ' ', 'x', '7'];

    /// Render index vectors (what the vendored proptest shim can generate)
    /// into value strings over [`ALPHABET`].
    fn texts(raw: Vec<Vec<usize>>) -> Vec<String> {
        raw.into_iter()
            .map(|word| word.into_iter().map(|i| ALPHABET[i % ALPHABET.len()]).collect())
            .collect()
    }

    /// Strategy for a column's raw values: up to 40 strings of up to 12
    /// alphabet characters.
    fn column_values() -> impl Strategy<Value = Vec<Vec<usize>>> {
        prop::collection::vec(prop::collection::vec(0usize..6, 0..12), 0..40)
    }

    fn column(
        name: &str,
        values: Vec<String>,
        interner: &Arc<GramInterner>,
    ) -> ColumnData<'static> {
        ColumnData::owned(
            AttrRef::new("t", name),
            DataType::Text,
            values.into_iter().map(cxm_relational::Value::str).collect(),
        )
        .with_interner(Arc::clone(interner))
    }

    proptest! {
        /// The interned merge-join cosine agrees with the string-keyed
        /// `BTreeMap<String, f64>` reference kernel to within 1e-12 on
        /// arbitrary columns (the two kernels round differently: the
        /// reference normalizes each profile before the dot product, the
        /// interned kernel keeps exact integer counts and divides by the
        /// norms once), and is interner-independent: the pair scored across
        /// two interners is bit-equal to the shared-interner score.
        #[test]
        fn interned_cosine_matches_legacy(a in column_values(), b in column_values()) {
            let (a, b) = (texts(a), texts(b));
            let interner = Arc::new(GramInterner::new());
            let ca = column("a", a.clone(), &interner);
            let cb = column("b", b.clone(), &interner);
            let fast = QGramMatcher::new().score(&ca, &cb);
            let slow = StringQGramMatcher.score(&ca, &cb);
            prop_assert!((fast - slow).abs() <= 1e-12, "interned {fast} vs reference {slow}");
            prop_assert!((0.0..=1.0).contains(&fast));
            // Symmetry holds bit-exactly for the interned kernel.
            prop_assert_eq!(
                QGramMatcher::new().score(&cb, &ca).to_bits(),
                fast.to_bits()
            );
            // Either side in a private id space: scored in the target's.
            let private = Arc::new(GramInterner::new());
            let foreign_a = column("a", a, &private);
            let foreign_b = column("b", b, &private);
            let qgram = QGramMatcher::new();
            prop_assert_eq!(qgram.score(&foreign_a, &cb).to_bits(), fast.to_bits());
            prop_assert_eq!(qgram.score(&ca, &foreign_b).to_bits(), fast.to_bits());
        }

        /// The interned merge-join Jaccard is **bit-identical** to the
        /// string-keyed `BTreeSet<String>` reference kernel (both divide the
        /// same two intersection/union counts), and interner-independent:
        /// the pair scored across two interners is bit-equal to the
        /// shared-interner score.
        #[test]
        fn interned_jaccard_matches_legacy(a in column_values(), b in column_values()) {
            let (a, b) = (texts(a), texts(b));
            let interner = Arc::new(GramInterner::new());
            let ca = column("a", a.clone(), &interner);
            let cb = column("b", b.clone(), &interner);
            let fast = ValueOverlapMatcher::new().score(&ca, &cb);
            let slow = StringOverlapMatcher.score(&ca, &cb);
            prop_assert_eq!(
                fast.to_bits(), slow.to_bits(), "interned {} vs reference {}", fast, slow
            );
            // Either side in a private id space: scored in the target's.
            let private = Arc::new(GramInterner::new());
            let foreign_a = column("a", a, &private);
            let foreign_b = column("b", b, &private);
            let overlap = ValueOverlapMatcher::new();
            prop_assert_eq!(overlap.score(&foreign_a, &cb).to_bits(), fast.to_bits());
            prop_assert_eq!(overlap.score(&ca, &foreign_b).to_bits(), fast.to_bits());
        }

        /// Interner ids round-trip (`resolve(intern(s)) == s`), are stable
        /// on re-intern, and are injective over distinct strings.
        #[test]
        fn interner_ids_round_trip(raw in prop::collection::vec(prop::collection::vec(0usize..6, 0..8), 1..60)) {
            let strings = texts(raw);
            let interner = GramInterner::new();
            let ids: Vec<u32> = strings.iter().map(|s| interner.intern(s)).collect();
            for (s, &id) in strings.iter().zip(&ids) {
                prop_assert_eq!(interner.resolve(id).as_deref(), Some(s.as_str()));
                prop_assert_eq!(interner.intern(s), id, "re-interning must be stable");
                prop_assert_eq!(interner.lookup(s), Some(id));
            }
            let distinct: std::collections::BTreeSet<&String> = strings.iter().collect();
            let distinct_ids: std::collections::BTreeSet<u32> = ids.iter().copied().collect();
            prop_assert_eq!(distinct.len(), distinct_ids.len(), "ids are injective");
            prop_assert_eq!(interner.len(), distinct.len());
        }

        /// The packed-code interner assigns exactly the ids of a naive
        /// string-keyed reference over any interleaving of profile and
        /// value-set builds, builds identical profiles and value sets, and
        /// its `dump` → `preload` round trip reproduces every id. Inputs mix
        /// astral-plane scalars, `İ` (whose lowercase is two scalars), `#`
        /// inside text, texts shorter than three scalars and three-scalar
        /// values.
        #[test]
        fn packed_interner_matches_naive_reference(
            kinds in prop::collection::vec(0usize..2, 12..13),
            ops in prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0usize..RICH.len(), 0..7), 0..6),
                1..12,
            ),
        ) {
            let interner = GramInterner::new();
            let mut reference = NaiveInterner::default();
            let mut builds: Vec<(usize, Vec<String>)> = Vec::new();
            let mut results: Vec<Vec<(u32, f64)>> = Vec::new();
            // `kinds[i]` picks a profile (0) or a value-set (1) build.
            for (kind, raw) in kinds.into_iter().zip(ops) {
                let texts = rich_texts(raw);
                let built = intern_build(&interner, kind, &texts);
                let expected = if kind == 0 {
                    reference.qgram_profile(&texts)
                } else {
                    reference.value_set(&texts)
                };
                prop_assert_eq!(&built, &expected, "texts {:?}", texts);
                builds.push((kind, texts));
                results.push(built);
            }
            prop_assert_eq!(interner.len(), reference.by_id.len());
            prop_assert_eq!(interner.dump(), reference.by_id.clone());
            for (id, text) in reference.by_id.iter().enumerate() {
                prop_assert_eq!(interner.lookup(text), Some(id as u32));
            }

            let restored = GramInterner::new();
            let ids = restored.preload(interner.dump());
            prop_assert_eq!(ids, (0..reference.by_id.len() as u32).collect::<Vec<_>>());
            for ((kind, texts), built) in builds.iter().zip(results) {
                let again = intern_build(&restored, *kind, texts);
                prop_assert_eq!(again, built, "restored ids for {:?}", texts);
            }
            prop_assert_eq!(
                restored.len(),
                reference.by_id.len(),
                "a restored interner issues nothing new"
            );
        }
    }

    /// Scalars for the packed-interner property: ASCII letters and a digit,
    /// an uppercase letter, `İ` (lowercases to `i` + U+0307), the `#`
    /// padding marker, a space, an astral letter (U+1D518) and an astral
    /// symbol (U+1F600, a separator).
    const RICH: &[char] = &['a', 'b', '7', 'B', 'İ', '#', ' ', '\u{1D518}', '\u{1F600}'];

    /// A profile (`kind` 0) or value-set build as `(id, count)` entries
    /// (a value set's counts are 1).
    fn intern_build(interner: &GramInterner, kind: usize, texts: &[String]) -> Vec<(u32, f64)> {
        if kind == 0 {
            interner.qgram_profile(texts.iter()).entries().to_vec()
        } else {
            interner.value_set(texts.iter()).ids().iter().map(|&id| (id, 1.0)).collect()
        }
    }

    fn rich_texts(raw: Vec<Vec<usize>>) -> Vec<String> {
        raw.into_iter().map(|text| text.into_iter().map(|i| RICH[i]).collect()).collect()
    }

    /// The naive reference interner: a string map plus the dense id list,
    /// issuing a build's misses in string order after looking up its hits.
    #[derive(Default)]
    struct NaiveInterner {
        by_text: std::collections::BTreeMap<String, u32>,
        by_id: Vec<String>,
    }

    impl NaiveInterner {
        /// Count `strings`, then issue ids to the unseen ones in string
        /// order; returns id-sorted `(id, count)` entries.
        fn build(&mut self, strings: Vec<String>) -> Vec<(u32, f64)> {
            let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
            for s in strings {
                *counts.entry(s).or_insert(0.0) += 1.0;
            }
            let mut entries: Vec<(u32, f64)> = counts
                .into_iter()
                .map(|(s, count)| {
                    let next = self.by_id.len() as u32;
                    let id = *self.by_text.entry(s.clone()).or_insert_with(|| {
                        self.by_id.push(s);
                        next
                    });
                    (id, count)
                })
                .collect();
            entries.sort_by_key(|&(id, _)| id);
            entries
        }

        fn qgram_profile(&mut self, texts: &[String]) -> Vec<(u32, f64)> {
            self.build(texts.iter().flat_map(|t| cxm_classify::qgrams(t, 3)).collect())
        }

        fn value_set(&mut self, texts: &[String]) -> Vec<(u32, f64)> {
            self.build(texts.to_vec()).into_iter().map(|(id, _)| (id, 1.0)).collect()
        }
    }
}

mod warm_keys {
    use proptest::prelude::*;

    use cxm_relational::{
        combine_column_fingerprints, Attribute, Table, TableSchema, Tuple, Value,
    };

    /// Alphabet the generated values draw from (see `interned_kernels`).
    const ALPHABET: &[char] = &['a', 'b', 'c', ' ', 'x', '7'];

    fn word(raw: &[usize]) -> String {
        raw.iter().map(|&i| ALPHABET[i % ALPHABET.len()]).collect()
    }

    /// A three-text-column table whose cell values are derived from `rows`
    /// (one generated word per row; the three columns see rotated variants,
    /// so columns differ but remain deterministic in the input).
    fn three_column_table(rows: &[Vec<usize>]) -> Table {
        let schema = TableSchema::new(
            "t",
            vec![Attribute::text("a"), Attribute::text("b"), Attribute::text("c")],
        );
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let w = word(raw);
                Tuple::new(vec![
                    Value::str(w.clone()),
                    Value::str(format!("{w}-{i}")),
                    Value::str(format!("{}#{w}", i % 3)),
                ])
            })
            .collect();
        Table::with_rows(schema, tuples).expect("arity matches")
    }

    proptest! {
        /// `Table::fingerprint` is exactly the public combinator over the
        /// per-column fingerprints — the contract that lets table-level and
        /// column-level warm keys coexist without ever disagreeing.
        #[test]
        fn table_fingerprint_is_the_column_combinator(
            rows in prop::collection::vec(prop::collection::vec(0usize..6, 0..8), 1..24),
        ) {
            let table = three_column_table(&rows);
            prop_assert_eq!(table.column_fingerprints().len(), 3);
            prop_assert_eq!(
                combine_column_fingerprints(
                    table.name(),
                    table.len(),
                    table.column_fingerprints(),
                ),
                table.fingerprint()
            );
            // The cached family is stable across reads and across clones.
            prop_assert_eq!(table.fingerprint(), table.clone().fingerprint());
        }

        /// Editing one column's values changes that column's fingerprint and
        /// no sibling's — the invariant column-granular invalidation rests
        /// on. (The table fingerprint changes too, being the combinator.)
        #[test]
        fn editing_one_column_changes_only_its_fingerprint(
            rows in prop::collection::vec(prop::collection::vec(0usize..6, 0..8), 1..24),
            column in 0usize..3,
            row in any::<u64>(),
        ) {
            let table = three_column_table(&rows);
            let row = (row % table.len() as u64) as usize;
            // Append a sentinel to one cell of the chosen column: the edited
            // bag strictly differs.
            let tuples: Vec<Tuple> = table
                .rows()
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    Tuple::new(
                        (0..3)
                            .map(|c| {
                                if i == row && c == column {
                                    Value::str(format!("{}!", r.at(c).as_text()))
                                } else {
                                    r.at(c).clone()
                                }
                            })
                            .collect(),
                    )
                })
                .collect();
            let edited = Table::with_rows(table.schema().clone(), tuples).expect("arity matches");

            let before = table.column_fingerprints();
            let after = edited.column_fingerprints();
            for c in 0..3 {
                let name = ["a", "b", "c"][c];
                if c == column {
                    prop_assert_ne!(before[c], after[c], "edited column {} must re-key", name);
                } else {
                    prop_assert_eq!(before[c], after[c], "sibling column {} must not re-key", name);
                }
                // The slice and the by-name accessor agree.
                prop_assert_eq!(after[c], edited.column_fingerprint(name).unwrap());
            }
            prop_assert_ne!(table.fingerprint(), edited.fingerprint());
        }
    }
}

mod result_cache {
    use proptest::prelude::*;

    use cxm_core::{ContextMatchConfig, ContextualMatcher};
    use cxm_relational::{Attribute, Database, Table, TableSchema, Tuple, Value};
    use cxm_service::MatchService;

    const ALPHABET: &[char] = &['a', 'b', 'c', ' ', 'x', '7'];

    fn db(name: &str, table: &str, attr: &str, raw: &[Vec<usize>]) -> Database {
        let rows = raw
            .iter()
            .map(|w| {
                Tuple::new(vec![Value::str(
                    w.iter().map(|&i| ALPHABET[i % ALPHABET.len()]).collect::<String>(),
                )])
            })
            .collect();
        Database::new(name).with_table(
            Table::with_rows(TableSchema::new(table, vec![Attribute::text(attr)]), rows)
                .expect("arity matches"),
        )
    }

    proptest! {
        /// A result-cache hit is **bit-identical** to a fresh run: the
        /// second submission of an unchanged source is served from the
        /// cache, and every score and confidence matches a from-scratch
        /// `ContextualMatcher::run` down to the Debug representation (which
        /// round-trips `f64` bits).
        #[test]
        fn result_cache_hits_are_bit_identical_to_fresh_runs(
            source_rows in prop::collection::vec(prop::collection::vec(0usize..6, 0..6), 1..8),
            target_rows in prop::collection::vec(prop::collection::vec(0usize..6, 0..6), 1..8),
        ) {
            let source = db("RS", "inv", "name", &source_rows);
            let target = db("RT", "book", "title", &target_rows);
            let config = ContextMatchConfig::default().with_tau(0.1);

            let service = MatchService::new(config);
            service.register_target(&target);
            let first = service.submit(&source).unwrap();
            prop_assert!(!first.telemetry.result_cache_hit);
            let second = service.submit(&source).unwrap();
            prop_assert!(second.telemetry.result_cache_hit);
            prop_assert_eq!(second.telemetry.classifier_work_units, 0);

            let fresh = ContextualMatcher::new(config).run(&source, &target).unwrap();
            for (label, result) in [("first", &first.result), ("hit", &second.result)] {
                prop_assert_eq!(&result.selected, &fresh.selected, "{} selected", label);
                prop_assert_eq!(&result.standard, &fresh.standard, "{} standard", label);
                prop_assert_eq!(&result.candidates, &fresh.candidates, "{} candidates", label);
                prop_assert_eq!(
                    format!("{:?}", result.selected),
                    format!("{:?}", fresh.selected),
                    "{} selected bits", label
                );
                prop_assert_eq!(
                    format!("{:?}", result.candidates),
                    format!("{:?}", fresh.candidates),
                    "{} candidate bits", label
                );
            }
        }
    }
}

mod index_pruning {
    use std::sync::Arc;

    use proptest::prelude::*;

    use cxm_matching::instance::{QGramMatcher, ValueOverlapMatcher};
    use cxm_matching::{ColumnData, GramIndex, GramInterner, Matcher, StandardMatcher};
    use cxm_relational::{AttrRef, DataType};

    /// Alphabet the generated values draw from (see `interned_kernels`):
    /// small enough that profiles overlap often, so both the surviving and
    /// the pruned regime are exercised.
    const ALPHABET: &[char] = &['a', 'b', 'c', ' ', 'x', '7'];

    fn texts(raw: Vec<Vec<usize>>) -> Vec<String> {
        raw.into_iter()
            .map(|word| word.into_iter().map(|i| ALPHABET[i % ALPHABET.len()]).collect())
            .collect()
    }

    fn column(
        table: &str,
        name: &str,
        values: Vec<String>,
        interner: &Arc<GramInterner>,
    ) -> ColumnData<'static> {
        ColumnData::owned(
            AttrRef::new(table, name),
            DataType::Text,
            values.into_iter().map(cxm_relational::Value::str).collect(),
        )
        .with_interner(Arc::clone(interner))
    }

    /// Strategy for one column's raw values.
    fn column_values() -> impl Strategy<Value = Vec<Vec<usize>>> {
        prop::collection::vec(prop::collection::vec(0usize..6, 0..10), 0..25)
    }

    /// Strategy for a batch of 1–5 columns.
    fn batch_values() -> impl Strategy<Value = Vec<Vec<Vec<usize>>>> {
        prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0usize..6, 0..10), 0..20),
            1..6,
        )
    }

    proptest! {
        /// Admissibility of the index's pruning information on arbitrary
        /// columns: the cosine upper bound dominates the exact kernel score
        /// of every (source, slot) pair, a zero bound pins the exact score
        /// to literal `0.0`, and a zero value intersection pins the exact
        /// Jaccard to `+0.0` — the bit-identity contract the hinted scoring
        /// path rests on.
        #[test]
        fn index_bounds_are_admissible(
            source_raw in column_values(),
            targets_raw in batch_values(),
        ) {
            let interner = Arc::new(GramInterner::new());
            let source = column("s", "probe", texts(source_raw), &interner);
            let targets: Vec<ColumnData> = targets_raw
                .into_iter()
                .enumerate()
                .map(|(i, vals)| column("t", &format!("c{i}"), texts(vals), &interner))
                .collect();
            let index = GramIndex::build(&targets);
            let bounds = index.cosine_upper_bounds(&source.qgram3_ids());
            let scan = index.scan(&source.qgram3_ids(), &source.value_ids());
            for (i, target) in targets.iter().enumerate() {
                let exact = QGramMatcher::new().score(&source, target);
                prop_assert!(
                    exact <= bounds[i] + 1e-12,
                    "slot {}: exact {} exceeds bound {}", i, exact, bounds[i]
                );
                if bounds[i] == 0.0 {
                    prop_assert_eq!(exact.to_bits(), 0.0f64.to_bits(), "zero bound, slot {}", i);
                }
                let hint = scan.hint(i);
                if hint.qgram_zero() {
                    prop_assert_eq!(exact.to_bits(), 0.0f64.to_bits(), "pruned cosine, slot {}", i);
                }
                // The hint-served cosine (zero-skip or dot/(‖a‖·‖b‖) from
                // the scan's exact dot) is bit-identical to the kernel's.
                let served = QGramMatcher::new().score_with_hint(&source, target, hint);
                prop_assert_eq!(served.to_bits(), exact.to_bits(), "served cosine, slot {}", i);
                if hint.overlap_zero {
                    let jaccard = ValueOverlapMatcher::new().score(&source, target);
                    prop_assert_eq!(
                        jaccard.to_bits(), 0.0f64.to_bits(),
                        "pruned overlap, slot {}", i
                    );
                }
            }
        }

        /// An incremental update is indistinguishable from a fresh build:
        /// for any batch and any set of changed slots (new content, new
        /// fingerprint — possibly emptied), `update_from(prev, next)` holds
        /// exactly `build(next)`'s posting lists, list for list, and shares
        /// every list no changed slot touches with `prev`. Chained updates
        /// exercise updates of updated indexes.
        #[test]
        fn update_from_equals_build_list_for_list(
            initial in batch_values(),
            edits in prop::collection::vec(batch_values(), 2..3),
            changed_bits in prop::collection::vec(0usize..32, 2..3),
        ) {
            let interner = Arc::new(GramInterner::new());
            let width = initial.len();
            let fingerprinted = |slot: usize, generation: usize, vals: Vec<Vec<usize>>| {
                column("t", &format!("c{slot}"), texts(vals), &interner)
                    .with_fingerprint(((generation as u64) << 32) | slot as u64)
            };
            let mut columns: Vec<ColumnData> = initial
                .into_iter()
                .enumerate()
                .map(|(slot, vals)| fingerprinted(slot, 0, vals))
                .collect();
            let mut index = GramIndex::build(&columns);
            for (round, (edit, bits)) in edits.into_iter().zip(changed_bits).enumerate() {
                let generation = round + 1;
                let mut edit = edit.into_iter().cycle();
                let next: Vec<ColumnData> = columns
                    .iter()
                    .enumerate()
                    .map(|(slot, column)| {
                        if bits & (1 << slot) != 0 {
                            fingerprinted(slot, generation, edit.next().unwrap_or_default())
                        } else {
                            column.clone()
                        }
                    })
                    .collect();
                let updated = GramIndex::update_from(&index, &next);
                let fresh = GramIndex::build(&next);
                prop_assert_eq!(updated.len(), width);
                prop_assert_eq!(updated.posting_lists(), fresh.posting_lists());
                prop_assert_eq!(
                    updated.postings_reused() + updated.postings_rebuilt(),
                    updated.posting_lists()
                );
                let slot_changed = |slot: u32| bits & (1 << slot) != 0;
                for id in 0..interner.len() as u32 {
                    let (grams, expected) = (updated.gram_posting(id), fresh.gram_posting(id));
                    prop_assert_eq!(grams.map(|l| &**l), expected.map(|l| &**l), "gram {}", id);
                    let (values, expected) = (updated.value_posting(id), fresh.value_posting(id));
                    prop_assert_eq!(values.map(|l| &**l), expected.map(|l| &**l), "value {}", id);
                    // A list no changed slot appears in, before or after,
                    // is carried as the same allocation.
                    if let (Some(old), Some(new)) = (index.gram_posting(id), grams) {
                        let touched = old.iter().chain(new.iter()).any(|&(s, _)| slot_changed(s));
                        prop_assert_eq!(Arc::ptr_eq(old, new), !touched, "gram {} sharing", id);
                    }
                    if let (Some(old), Some(new)) = (index.value_posting(id), values) {
                        let touched = old.iter().chain(new.iter()).any(|&s| slot_changed(s));
                        prop_assert_eq!(Arc::ptr_eq(old, new), !touched, "value {} sharing", id);
                    }
                }
                index = updated;
                columns = next;
            }
        }

        /// Pruned and unpruned matching are **byte-identical** on arbitrary
        /// column batches: same accepted matches, same raw pair scores, same
        /// per-attribute score distributions, down to the Debug rendering
        /// (which round-trips `f64` bits).
        #[test]
        fn indexed_matching_is_byte_identical(
            sources_raw in batch_values(),
            targets_raw in batch_values(),
        ) {
            let interner = Arc::new(GramInterner::new());
            let sources: Vec<ColumnData> = sources_raw
                .into_iter()
                .enumerate()
                .map(|(i, vals)| column("s", &format!("a{i}"), texts(vals), &interner))
                .collect();
            let targets: Vec<ColumnData> = targets_raw
                .into_iter()
                .enumerate()
                .map(|(i, vals)| column("t", &format!("c{i}"), texts(vals), &interner))
                .collect();
            let index = GramIndex::build(&targets);
            let matcher = StandardMatcher::with_defaults();
            let plain = matcher.match_columns(&sources, &targets);
            let indexed = matcher.match_columns_indexed(&sources, &targets, Some(&index));
            prop_assert_eq!(
                format!("{:?}", plain.accepted),
                format!("{:?}", indexed.accepted)
            );
            prop_assert_eq!(
                format!("{:?}", plain.all_pairs),
                format!("{:?}", indexed.all_pairs)
            );
            for source in &sources {
                for matcher_name in ["name", "qgram", "overlap", "numeric"] {
                    prop_assert_eq!(
                        plain.distribution(&source.attr, matcher_name),
                        indexed.distribution(&source.attr, matcher_name),
                        "distribution for {:?}/{}", source.attr, matcher_name
                    );
                }
            }
        }
    }
}

mod par_shim {
    use proptest::prelude::*;
    use rayon::prelude::*;

    proptest! {
        /// The work-stealing parallel map preserves input order for any input
        /// length and any `with_min_len` chunk hint — including hints of 0,
        /// hints larger than the input (serial fallback), and hints that
        /// leave a short trailing task.
        #[test]
        fn par_map_preserves_order_for_any_chunking(
            values in prop::collection::vec(any::<u32>(), 0..400),
            min_len in 0usize..96,
        ) {
            let out: Vec<u64> =
                values.par_iter().with_min_len(min_len).map(|&v| v as u64 + 1).collect();
            let expected: Vec<u64> = values.iter().map(|&v| v as u64 + 1).collect();
            prop_assert_eq!(out, expected);
        }

        /// Task boundaries honor the `with_min_len` contract for any input
        /// size, worker count and hint: tasks tile the input contiguously and
        /// every task except the trailing remainder spans at least the hint.
        #[test]
        fn task_schedule_respects_min_len(
            n in 0usize..5000,
            workers in 1usize..64,
            min_len in 0usize..256,
        ) {
            let len = rayon::scheduler::task_len(n, workers, min_len);
            prop_assert!(len >= min_len.max(1));
            let starts = rayon::scheduler::task_starts(n, workers, min_len);
            let mut covered = 0usize;
            for &s in &starts {
                prop_assert_eq!(s, covered);
                covered = (s + len).min(n);
            }
            prop_assert_eq!(covered, n);
        }
    }
}
