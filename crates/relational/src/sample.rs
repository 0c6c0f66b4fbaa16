//! Deterministic train/test partitioning of sample data.
//!
//! `ClusteredViewGen` (Figure 6 in the paper) takes *mutually exclusive* sets
//! of training and testing tuples from a table, and the experiments average
//! over "between 8 and 200 random partitions of the sample data". This module
//! provides the splitting primitive. Randomness comes from a caller-supplied
//! seed so every experiment run is reproducible.

use crate::selection::RowSelection;
use crate::table::Table;

/// Ratio of rows assigned to the training partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRatio(pub f64);

impl SplitRatio {
    /// The conventional 2/3 train, 1/3 test split used by the harness.
    pub fn two_thirds() -> Self {
        SplitRatio(2.0 / 3.0)
    }

    /// A 50/50 split.
    pub fn half() -> Self {
        SplitRatio(0.5)
    }
}

impl Default for SplitRatio {
    fn default() -> Self {
        SplitRatio::two_thirds()
    }
}

/// A tiny deterministic pseudo-random permutation generator (xorshift64*),
/// kept local so the substrate crate has no external dependency on `rand`.
/// The statistical quality requirements here are minimal: we only need
/// repeatable shuffles of row indices.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Zero would lock the generator at zero; remap it.
        XorShift64 { state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed } }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform index in `[0, bound)`.
    fn next_index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Shuffle `0..n` deterministically with the given seed (Fisher–Yates).
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = XorShift64::new(seed);
    for i in (1..n).rev() {
        let j = rng.next_index(i + 1);
        idx.swap(i, j);
    }
    idx
}

/// Split a table's rows into mutually exclusive (training, testing)
/// [`RowSelection`]s over the input table, both listing rows in base order.
///
/// The split is a random partition under `seed`; the same seed always produces
/// the same partition. Training receives `ratio` of the rows (at least one row
/// when the table is non-empty and at most `len - 1` so that testing is never
/// empty for tables with ≥ 2 rows).
pub fn split_selection(
    table: &Table,
    ratio: SplitRatio,
    seed: u64,
) -> (RowSelection, RowSelection) {
    let n = table.len();
    if n == 0 {
        return (RowSelection::empty(), RowSelection::empty());
    }
    if n == 1 {
        return (RowSelection::full(1), RowSelection::empty());
    }
    let idx = shuffled_indices(n, seed);
    let mut n_train = ((n as f64) * ratio.0).round() as usize;
    n_train = n_train.clamp(1, n - 1);

    let train = RowSelection::from_unsorted(idx[..n_train].to_vec());
    let test = train.complement(n);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::schema::TableSchema;
    use crate::selection::TableSlice;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn numbered_table(n: usize) -> Table {
        let schema = TableSchema::new("t", vec![Attribute::int("id")]);
        Table::with_rows(schema, (0..n).map(|i| Tuple::new(vec![Value::from(i)])).collect())
            .unwrap()
    }

    /// The ids of the rows `selection` picks from `table`, in base order.
    fn ids(table: &Table, selection: &RowSelection) -> Vec<i64> {
        TableSlice::new(table, selection).rows().map(|r| r.at(0).as_i64().unwrap()).collect()
    }

    #[test]
    fn split_partitions_all_rows() {
        let t = numbered_table(100);
        let (train, test) = split_selection(&t, SplitRatio::two_thirds(), 42);
        assert_eq!(train.len() + test.len(), 100);
        assert!(!train.is_empty());
        assert!(!test.is_empty());

        // Partitions are disjoint: the union of ids is exactly 0..100.
        let mut all = ids(&t, &train);
        all.extend(ids(&t, &test));
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i64>>());
        assert_eq!(test, train.complement(100));
    }

    #[test]
    fn split_ratio_is_respected() {
        let t = numbered_table(300);
        let (train, test) = split_selection(&t, SplitRatio::two_thirds(), 7);
        assert_eq!(train.len(), 200);
        assert_eq!(test.len(), 100);
        let (train, test) = split_selection(&t, SplitRatio::half(), 7);
        assert_eq!(train.len(), 150);
        assert_eq!(test.len(), 150);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let t = numbered_table(50);
        let (a1, _) = split_selection(&t, SplitRatio::default(), 123);
        let (a2, _) = split_selection(&t, SplitRatio::default(), 123);
        assert_eq!(a1, a2);
        let (b1, _) = split_selection(&t, SplitRatio::default(), 124);
        assert_ne!(ids(&t, &a1), ids(&t, &b1));
    }

    #[test]
    fn degenerate_sizes() {
        let empty = numbered_table(0);
        let (tr, te) = split_selection(&empty, SplitRatio::default(), 1);
        assert!(tr.is_empty() && te.is_empty());

        let one = numbered_table(1);
        let (tr, te) = split_selection(&one, SplitRatio::default(), 1);
        assert_eq!(tr.len(), 1);
        assert!(te.is_empty());

        let two = numbered_table(2);
        let (tr, te) = split_selection(&two, SplitRatio::default(), 1);
        assert_eq!(tr.len(), 1);
        assert_eq!(te.len(), 1);
    }

    #[test]
    fn extreme_ratios_keep_both_sides_nonempty() {
        let t = numbered_table(10);
        let (tr, te) = split_selection(&t, SplitRatio(0.0), 9);
        assert_eq!(tr.len(), 1);
        assert_eq!(te.len(), 9);
        let (tr, te) = split_selection(&t, SplitRatio(1.0), 9);
        assert_eq!(tr.len(), 9);
        assert_eq!(te.len(), 1);
    }
}
