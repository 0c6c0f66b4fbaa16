//! An incrementally-maintained **inverted gram index** over a target column
//! batch, with admissible zero-overlap pruning for the interned instance
//! kernels.
//!
//! The standard matcher scores every source×target column pair, so a wide
//! catalog pays O(S·T) merge-joins even though most pairs share no gram at
//! all (a merge-join over disjoint sorted vectors still walks both vectors).
//! This module inverts the target side once: for every interned 3-gram id,
//! the **posting list** of target columns containing it (with raw counts),
//! and for every interned distinct-value id, the posting list of target
//! columns holding that value. One term-at-a-time (TAAT) pass over a source
//! column's profile then touches only the postings of grams the source
//! actually has — cost proportional to the number of (source gram, target
//! column) coincidences, not to S·T — and yields, per target column, the
//! **exact** q-gram dot product and distinct-value intersection size.
//!
//! ## Admissibility (why pruning cannot change any output bit)
//!
//! *Cosine.* [`crate::InternedProfile::cosine`] computes
//! `dot(a, b) / (‖a‖·‖b‖)` where every profile entry is a small exact
//! integer count: each product and partial sum is an integer far below 2⁵³,
//! so floating-point addition is **exact and order-independent**. The TAAT
//! accumulation in [`GramIndex::scan`] adds exactly the same set of
//! `count·count` products (grouped by gram instead of by pair), hence
//! reproduces the merge-join dot product *bit for bit*. The derived
//! `dot / (‖a‖·‖b‖)` is therefore not an estimate but the **exact cosine**
//! — trivially an admissible upper bound at any threshold τ. Because the
//! dot is bit-exact, the hint can go beyond pruning: at `dot == 0` the
//! scored pair skips the kernel and substitutes the literal `0.0` of the
//! kernel's early-out (see [`crate::InternedProfile::cosine`]); at
//! `dot > 0` the hinted matcher divides the scan's dot by the same two
//! memoized norms the kernel would use — the identical quotient of
//! identical operands — so *every* covered pair is served from the scan,
//! and no rounding question ever arises.
//!
//! *Jaccard.* The value-id posting pass counts the exact intersection size.
//! [`crate::InternedValueSet::jaccard`] returns `inter / union`; at
//! `inter == 0` that is `0.0 / union == +0.0`, bit-identical to the pruned
//! substitute. Empty columns are never indexed and never pruned (the
//! matchers' applicability gates already skip them).
//!
//! *Ensemble.* The ensemble combines per-matcher raw scores into
//! distributions, confidences and weighted means. Pruning replaces
//! individual raw scores with the bit-identical values the exact kernels
//! would have produced and leaves every applicability decision untouched, so
//! the raw score vectors — and everything derived from them downstream
//! (distribution fits, confidences, combined scores, accepted sets, selected
//! contextual matches) — are byte-identical to the unpruned run. The
//! property tests in `tests/tests/property_based.rs` pin both halves: bound
//! admissibility and whole-output equivalence.
//!
//! ## Incremental maintenance
//!
//! Posting lists are `Arc`-shared between index generations.
//! [`GramIndex::update_from`] compares per-slot column fingerprints (the
//! same column-granular warm key the target catalog uses) and rebuilds only
//! the posting lists that mention a changed column — every untouched list is
//! carried forward as the same allocation, which
//! [`GramIndex::postings_reused`] / [`GramIndex::postings_rebuilt`] make
//! observable.
//!
//! The rebuild is one merge. The changed columns' new entries are collected
//! once and sorted by (id, slot); each touched list is then its surviving
//! entries (those of unchanged slots, a changed-slot bitmap lookup each)
//! merged by slot with the new run for its id. An update therefore costs
//! O(c log c) for the c new entries, plus the length of every touched list,
//! plus one `Arc` clone per carried list — never a search of a changed
//! column per touched gram. [`GramIndex::build`] is the same merge from an
//! index with no postings whose every slot counts as changed, so one routine
//! constructs every generation.
//!
//! A batch whose attribute sequence changed (table added, dropped or
//! reordered) falls back to a full build: slot ids are positional, and
//! remapping every posting would cost as much as building.

use std::collections::HashMap;
use std::sync::Arc;

use cxm_relational::AttrRef;

/// Process-global counters of index-driven candidate generation, following
/// the snapshot/delta pattern of [`crate::intern::telemetry`]: monotonic,
/// never reset; per-run figures are differences of two reads (see
/// [`crate::intern::telemetry::KernelCounters`] for the kernel-side handle).
pub mod telemetry {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PAIRS_SCANNED: AtomicUsize = AtomicUsize::new(0);
    static PAIRS_SURVIVING: AtomicUsize = AtomicUsize::new(0);

    /// Candidate pairs covered by TAAT scans since process start.
    pub fn candidate_pairs_scanned() -> usize {
        PAIRS_SCANNED.load(Ordering::Relaxed)
    }

    /// Scanned pairs that shared at least one gram or value and therefore
    /// required exact re-scoring.
    pub fn candidate_pairs_surviving() -> usize {
        PAIRS_SURVIVING.load(Ordering::Relaxed)
    }

    /// Record one scan's coverage. Public so the scoring layers that apply a
    /// [`super::CandidateScan`] across a pair grid (in this crate and in
    /// `cxm-core`) can attribute the counts; not meant for other callers.
    pub fn record_scan(scanned: usize, surviving: usize) {
        PAIRS_SCANNED.fetch_add(scanned, Ordering::Relaxed);
        PAIRS_SURVIVING.fetch_add(surviving, Ordering::Relaxed);
    }
}

use crate::column::ColumnData;
use crate::intern::{InternedProfile, InternedValueSet};
use crate::matcher::PairHint;

/// One indexed target column: its identity plus the interned artifacts whose
/// entries were posted. Slots are positional — slot `i` describes the `i`-th
/// column of the batch the index was built from.
#[derive(Debug, Clone)]
struct Slot {
    attr: AttrRef,
    fingerprint: Option<u64>,
    /// `None` for empty columns, which are never profiled (forcing a profile
    /// the matchers would never build would skew the build accounting the
    /// equivalence tests pin) and never pruned.
    profile: Option<Arc<InternedProfile>>,
    values: Option<Arc<InternedValueSet>>,
}

/// The inverted index of one target column batch: gram id → id-sorted posting
/// list of `(slot, raw count)`, value id → id-sorted posting list of slots.
///
/// Consumers validate the index against the batch they score
/// ([`GramIndex::matches_batch`]) and against the source column's interner
/// ([`GramIndex::interner_token`]) before trusting any hint; on mismatch they
/// simply score unhinted, which is always correct.
#[derive(Debug)]
pub struct GramIndex {
    /// [`crate::GramInterner::token`] of the interner every indexed column is
    /// bound to; hints only apply to source columns sharing it.
    interner_token: u64,
    slots: Vec<Slot>,
    /// Shared by every generation of one batch shape (updates keep slots
    /// positional).
    slot_by_attr: Arc<HashMap<AttrRef, usize>>,
    /// 3-gram id → `(slot, raw count)` entries, ascending by slot.
    gram_postings: HashMap<u32, Arc<Vec<(u32, f64)>>>,
    /// Distinct-value id → slots containing the value, ascending.
    value_postings: HashMap<u32, Arc<Vec<u32>>>,
    /// Posting lists carried from the previous generation as the same
    /// allocation (0 for a cold build).
    postings_reused: usize,
    /// Posting lists (re)built by this generation.
    postings_rebuilt: usize,
}

impl GramIndex {
    /// Build the index of a column batch from scratch. Forces the interned
    /// q-gram profile and value set of every **non-empty** column (memoized
    /// on the columns, so a warm batch posts without rebuilding anything).
    pub fn build(columns: &[ColumnData]) -> GramIndex {
        let token = columns.first().map(|c| c.interner().token()).unwrap_or(0);
        debug_assert!(
            columns.iter().all(|c| c.interner().token() == token),
            "an index spans exactly one interner id space"
        );
        // No postings, and no fingerprints: the merge treats every slot as
        // changed and posts the whole batch.
        let empty = GramIndex {
            interner_token: token,
            slots: columns
                .iter()
                .map(|c| Slot {
                    attr: c.attr.clone(),
                    fingerprint: None,
                    profile: None,
                    values: None,
                })
                .collect(),
            slot_by_attr: Arc::new(
                columns.iter().enumerate().map(|(i, c)| (c.attr.clone(), i)).collect(),
            ),
            gram_postings: HashMap::new(),
            value_postings: HashMap::new(),
            postings_reused: 0,
            postings_rebuilt: 0,
        };
        GramIndex::merge(&empty, columns)
    }

    /// Derive the index of the next batch generation from `prev`, rebuilding
    /// only the posting lists that mention a column whose fingerprint
    /// changed; every other list is carried forward `Arc`-shared. Falls back
    /// to [`GramIndex::build`] when the attribute sequence or interner
    /// changed (slot ids are positional). Columns without fingerprints are
    /// conservatively treated as changed.
    pub fn update_from(prev: &GramIndex, columns: &[ColumnData]) -> GramIndex {
        if !prev.same_shape(columns) {
            return GramIndex::build(columns);
        }
        GramIndex::merge(prev, columns)
    }

    /// The one construction routine (see the module docs): re-post the
    /// changed slots of a same-shape `prev` and carry every list they do not
    /// touch.
    fn merge(prev: &GramIndex, columns: &[ColumnData]) -> GramIndex {
        let changed: Vec<bool> = prev
            .slots
            .iter()
            .zip(columns)
            .map(|(s, c)| s.fingerprint.is_none() || s.fingerprint != c.fingerprint())
            .collect();
        let mut slots = prev.slots.clone();
        let (mut stale_grams, mut stale_values) = (Vec::new(), Vec::new());
        for (i, column) in columns.iter().enumerate().filter(|&(i, _)| changed[i]) {
            if let Some(profile) = &prev.slots[i].profile {
                stale_grams.extend(profile.entries().iter().map(|&(g, _)| g));
            }
            if let Some(values) = &prev.slots[i].values {
                stale_values.extend_from_slice(values.ids());
            }
            let (profile, values) = if column.is_empty() {
                (None, None)
            } else {
                (Some(column.qgram3_ids()), Some(column.value_ids()))
            };
            slots[i] = Slot {
                attr: column.attr.clone(),
                fingerprint: column.fingerprint(),
                profile,
                values,
            };
        }

        // The changed slots' new entries, in ascending slot order.
        let changed_slots = || slots.iter().enumerate().filter(|&(i, _)| changed[i]);
        let fresh_grams = || {
            changed_slots().flat_map(|(i, s)| {
                let entries = s.profile.as_deref().map_or(&[][..], InternedProfile::entries);
                entries.iter().map(move |&(g, count)| (g, (i as u32, count)))
            })
        };
        let fresh_values = || {
            changed_slots().flat_map(|(i, s)| {
                let ids = s.values.as_deref().map_or(&[][..], InternedValueSet::ids);
                ids.iter().map(move |&id| (id, i as u32))
            })
        };
        let mut gram_postings = prev.gram_postings.clone();
        let mut value_postings = prev.value_postings.clone();
        let rebuilt =
            merge_postings(&mut gram_postings, stale_grams, fresh_grams, &changed, |&(s, _)| s)
                + merge_postings(&mut value_postings, stale_values, fresh_values, &changed, |&s| s);
        GramIndex {
            interner_token: prev.interner_token,
            slot_by_attr: Arc::clone(&prev.slot_by_attr),
            slots,
            postings_reused: gram_postings.len() + value_postings.len() - rebuilt,
            postings_rebuilt: rebuilt,
            gram_postings,
            value_postings,
        }
    }

    /// Identity token of the interner the indexed artifacts live in.
    pub fn interner_token(&self) -> u64 {
        self.interner_token
    }

    /// Number of indexed columns (slots).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no column is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total live posting lists (gram + value).
    pub fn posting_lists(&self) -> usize {
        self.gram_postings.len() + self.value_postings.len()
    }

    /// Posting lists carried `Arc`-shared from the previous generation.
    pub fn postings_reused(&self) -> usize {
        self.postings_reused
    }

    /// Posting lists (re)built by this generation.
    pub fn postings_rebuilt(&self) -> usize {
        self.postings_rebuilt
    }

    /// The slot of a target attribute, if indexed.
    pub fn slot_of(&self, attr: &AttrRef) -> Option<usize> {
        self.slot_by_attr.get(attr).copied()
    }

    /// One gram's posting list (test hook for the `Arc`-sharing contract).
    pub fn gram_posting(&self, gram: u32) -> Option<&Arc<Vec<(u32, f64)>>> {
        self.gram_postings.get(&gram)
    }

    /// One value's posting list (test hook, like [`GramIndex::gram_posting`]).
    pub fn value_posting(&self, value: u32) -> Option<&Arc<Vec<u32>>> {
        self.value_postings.get(&value)
    }

    /// True when this index's slot layout matches `columns` positionally —
    /// same length, same attribute sequence, same interner. This is the
    /// precondition for an incremental [`GramIndex::update_from`] (slot ids
    /// are positional); on a mismatch the update falls back to a full
    /// rebuild.
    pub fn same_shape(&self, columns: &[ColumnData]) -> bool {
        columns.first().map(|c| c.interner().token()).unwrap_or(0) == self.interner_token
            && self.slots.len() == columns.len()
            && self.slots.iter().zip(columns).all(|(s, c)| s.attr == c.attr)
    }

    /// Number of `columns` whose posting contributions an incremental
    /// [`GramIndex::update_from`] would carry forward unchanged (same slot,
    /// same per-column content fingerprint). Callers must have checked
    /// [`GramIndex::same_shape`] first; this is the column-granular reuse
    /// prediction a catalog update can surface *before* any request has
    /// forced the next generation's (lazy) build.
    pub fn columns_carried(&self, columns: &[ColumnData]) -> usize {
        debug_assert!(self.same_shape(columns));
        self.slots
            .iter()
            .zip(columns)
            .filter(|(s, c)| s.fingerprint.is_some() && s.fingerprint == c.fingerprint())
            .count()
    }

    /// True when slot `i` of this index describes `columns[i]` for every `i`
    /// — same attribute, same content fingerprint, same interner. Callers
    /// must still pass the batch the index was actually built over (the
    /// check pins shape and identity, not value bags; fingerprint-less
    /// ad-hoc columns compare equal on `None`).
    pub fn matches_batch(&self, columns: &[ColumnData]) -> bool {
        self.slots.len() == columns.len()
            && self.slots.iter().zip(columns).all(|(s, c)| {
                s.attr == c.attr
                    && s.fingerprint == c.fingerprint()
                    && c.interner().token() == self.interner_token
            })
    }

    /// One TAAT pass of a source column's artifacts over the postings: per
    /// slot, the **exact** q-gram dot product and distinct-value intersection
    /// size (see the module docs for why the dot is bit-exact). Cost is the
    /// number of posting coincidences, independent of how many indexed
    /// columns share nothing with the source.
    pub fn scan(&self, profile: &InternedProfile, values: &InternedValueSet) -> CandidateScan {
        let mut qgram_dots = vec![0.0; self.slots.len()];
        for &(g, count) in profile.entries() {
            if let Some(list) = self.gram_postings.get(&g) {
                for &(slot, target_count) in list.iter() {
                    qgram_dots[slot as usize] += count * target_count;
                }
            }
        }
        let mut value_overlaps = vec![0usize; self.slots.len()];
        for id in values.ids() {
            if let Some(list) = self.value_postings.get(id) {
                for &slot in list.iter() {
                    value_overlaps[slot as usize] += 1;
                }
            }
        }
        CandidateScan { qgram_dots, value_overlaps }
    }

    /// The cosine upper bound of `profile` against every slot — since the
    /// TAAT dot is exact, this *is* the exact cosine (and hence admissible at
    /// any threshold); slots without a profile bound at 0. Exposed for the
    /// admissibility property tests.
    pub fn cosine_upper_bounds(&self, profile: &InternedProfile) -> Vec<f64> {
        let scan = self.scan(profile, &EMPTY_VALUES);
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| match &slot.profile {
                Some(target) if !target.is_empty() && !profile.is_empty() => {
                    let dot = scan.qgram_dots[i];
                    if dot == 0.0 {
                        0.0
                    } else {
                        (dot / (profile.norm() * target.norm())).clamp(0.0, 1.0)
                    }
                }
                _ => 0.0,
            })
            .collect()
    }
}

/// Rebuild every posting list a changed slot touches. `stale` holds the ids
/// of the changed slots' previous entries (repeats allowed), `fresh` yields
/// their new `(id, entry)`s in ascending slot order; `changed` is the
/// changed-slot bitmap. Each touched list becomes its entries of unchanged
/// slots merged by slot with the fresh run for its id (dropped when empty);
/// every other list stays the same allocation. Returns the number of lists
/// (re)built.
fn merge_postings<E: Copy, I: Iterator<Item = (u32, E)>>(
    lists: &mut HashMap<u32, Arc<Vec<E>>>,
    mut stale: Vec<u32>,
    fresh: impl Fn() -> I,
    changed: &[bool],
    slot: impl Fn(&E) -> u32,
) -> usize {
    stale.sort_unstable();
    stale.dedup();
    let fresh = sort_by_id(fresh);
    let mut stale = stale.into_iter().peekable();
    let mut runs = fresh.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut rebuilt = 0;
    loop {
        // The next touched id, in ascending order: the smaller head of the
        // stale ids and the fresh runs.
        let id = match (stale.peek(), runs.peek()) {
            (None, None) => break,
            (Some(&s), None) => s,
            (None, Some(run)) => run[0].0,
            (Some(&s), Some(run)) => s.min(run[0].0),
        };
        stale.next_if_eq(&id);
        let run = runs.next_if(|run| run[0].0 == id).unwrap_or_default();
        let old = lists.remove(&id);
        let kept = old.iter().flat_map(|list| list.iter()).filter(|e| !changed[slot(e) as usize]);
        let mut list = Vec::with_capacity(old.as_ref().map_or(0, |l| l.len()) + run.len());
        let mut new = run.iter().map(|&(_, e)| e).peekable();
        for &e in kept {
            while let Some(n) = new.next_if(|n| slot(n) < slot(&e)) {
                list.push(n);
            }
            list.push(e);
        }
        list.extend(new);
        if !list.is_empty() {
            lists.insert(id, Arc::new(list));
            rebuilt += 1;
        }
    }
    rebuilt
}

/// The entries `fresh` yields, stably sorted by id: a counting sort over two
/// passes of the iterator — O(entries + largest id), since ids are dense
/// interner ids, and no unsorted copy. Entries arrive in ascending slot
/// order, so the result is sorted by (id, slot).
fn sort_by_id<E: Copy, I: Iterator<Item = (u32, E)>>(fresh: impl Fn() -> I) -> Vec<(u32, E)> {
    // Counts land in `next[id + 1]`; after the prefix sum `next[id]` is
    // where the next entry of `id` goes.
    let mut next: Vec<usize> = Vec::new();
    let mut first = None;
    for entry in fresh() {
        let id = entry.0 as usize;
        if next.len() < id + 2 {
            next.resize(id + 2, 0);
        }
        next[id + 1] += 1;
        first.get_or_insert(entry);
    }
    let Some(first) = first else {
        return Vec::new();
    };
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut sorted = vec![first; next[next.len() - 1]];
    for entry in fresh() {
        let at = &mut next[entry.0 as usize];
        sorted[*at] = entry;
        *at += 1;
    }
    sorted
}

static EMPTY_VALUES: InternedValueSet = InternedValueSet::empty();

/// The per-slot result of one [`GramIndex::scan`]: exact dot products and
/// intersection sizes, queried per pair as a [`PairHint`].
#[derive(Debug, Clone)]
pub struct CandidateScan {
    qgram_dots: Vec<f64>,
    value_overlaps: Vec<usize>,
}

impl CandidateScan {
    /// The hint for one slot: the pair's exact TAAT dot product (zero means
    /// prunable) and whether the value sets are proven disjoint.
    pub fn hint(&self, slot: usize) -> PairHint {
        PairHint {
            qgram_dot: Some(self.qgram_dots[slot]),
            overlap_zero: self.value_overlaps[slot] == 0,
        }
    }

    /// Slots sharing at least one gram or one value with the scanned source
    /// column — the candidates an exact re-score cannot skip.
    pub fn surviving(&self) -> usize {
        self.qgram_dots
            .iter()
            .zip(&self.value_overlaps)
            .filter(|&(&dot, &inter)| dot != 0.0 || inter != 0)
            .count()
    }

    /// Number of scanned slots.
    pub fn len(&self) -> usize {
        self.qgram_dots.len()
    }

    /// True when the scan covered no slots.
    pub fn is_empty(&self) -> bool {
        self.qgram_dots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute, Table, TableSchema};

    fn batch(tables: &[(&str, &[&str])]) -> (Vec<Table>, Vec<ColumnData<'static>>) {
        let tables: Vec<Table> = tables
            .iter()
            .map(|(name, values)| {
                Table::with_rows(
                    TableSchema::new(*name, vec![Attribute::text("v")]),
                    values.iter().map(|v| tuple![*v]).collect(),
                )
                .unwrap()
            })
            .collect();
        let columns = tables
            .iter()
            .map(|t| {
                let fp = t.column_fingerprint("v").unwrap();
                ColumnData::shared_from_table(t, "v").unwrap().with_fingerprint(fp)
            })
            .collect();
        (tables, columns)
    }

    #[test]
    fn scan_reproduces_exact_cosine_dots() {
        let (_tables, columns) = batch(&[
            ("a", &["hardcover", "paperback"]),
            ("b", &["hardcover first edition"]),
            ("c", &["0195128881", "0486611817"]),
        ]);
        let index = GramIndex::build(&columns);
        assert_eq!(index.len(), 3);
        let source = ColumnData::owned(
            AttrRef::new("s", "x"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("hardcover reprint")],
        );
        let profile = source.qgram3_ids();
        let bounds = index.cosine_upper_bounds(&profile);
        for (i, column) in columns.iter().enumerate() {
            let exact = profile.cosine(&column.qgram3_ids());
            assert_eq!(bounds[i].to_bits(), exact.to_bits(), "slot {i} bound must BE the cosine");
        }
        let scan = index.scan(&profile, &source.value_ids());
        // "hardcover reprint" shares grams with slots 0 and 1, nothing with
        // the ISBN column.
        assert!(!scan.hint(0).qgram_zero());
        assert!(!scan.hint(1).qgram_zero());
        assert!(scan.hint(2).qgram_zero());
        assert_eq!(scan.surviving(), 2);
        assert_eq!(scan.len(), 3);
        assert!(!scan.is_empty());
    }

    #[test]
    fn value_postings_prove_disjoint_sets() {
        let (_tables, columns) =
            batch(&[("a", &["hardcover", "paperback"]), ("b", &["audio cd", "paperback"])]);
        let index = GramIndex::build(&columns);
        let source = ColumnData::owned(
            AttrRef::new("s", "x"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("Paperback")],
        );
        let scan = index.scan(&source.qgram3_ids(), &source.value_ids());
        // Case-normalized "paperback" is in both columns' value sets.
        assert!(!scan.hint(0).overlap_zero);
        assert!(!scan.hint(1).overlap_zero);
        let other = ColumnData::owned(
            AttrRef::new("s", "y"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("vinyl")],
        );
        let scan = index.scan(&other.qgram3_ids(), &other.value_ids());
        assert!(scan.hint(0).overlap_zero && scan.hint(1).overlap_zero);
    }

    #[test]
    fn update_shares_untouched_posting_lists() {
        let (_tables, columns) = batch(&[
            ("a", &["hardcover", "paperback"]),
            ("b", &["audio cd"]),
            ("c", &["columbia records"]),
        ]);
        let index = GramIndex::build(&columns);
        assert_eq!(index.postings_reused(), 0);
        assert_eq!(index.postings_rebuilt(), index.posting_lists());

        // Replace only column b's content.
        let (_t2, mut next) = batch(&[
            ("a", &["hardcover", "paperback"]),
            ("b", &["remastered audio cd"]),
            ("c", &["columbia records"]),
        ]);
        // Carry a and c (same fingerprints by content), b differs.
        let updated = GramIndex::update_from(&index, &next);
        assert!(updated.postings_reused() > 0, "untouched lists must carry");
        assert!(updated.postings_rebuilt() > 0, "b's lists must rebuild");
        // A gram unique to column a keeps its exact allocation.
        let interner = columns[0].interner();
        let pap = interner.lookup("pap").expect("'pap' was interned by column a");
        let (before, after) =
            (index.gram_posting(pap).unwrap(), updated.gram_posting(pap).unwrap());
        assert!(Arc::ptr_eq(before, after), "posting list of an untouched gram is shared");
        // Scans over the updated index see the new content.
        let probe = ColumnData::owned(
            AttrRef::new("s", "x"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("remastered")],
        );
        let scan = updated.scan(&probe.qgram3_ids(), &probe.value_ids());
        assert!(!scan.hint(1).qgram_zero());
        assert!(scan.hint(2).qgram_zero());

        // An unchanged batch carries everything.
        let again = GramIndex::update_from(&updated, &next);
        assert_eq!(again.postings_rebuilt(), 0);
        assert_eq!(again.postings_reused(), updated.posting_lists());

        // Shape changes (a dropped column) fall back to a full rebuild.
        next.pop();
        let rebuilt = GramIndex::update_from(&updated, &next);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.postings_reused(), 0);
    }

    #[test]
    fn matches_batch_guards_shape_fingerprints_and_interner() {
        let (_tables, columns) = batch(&[("a", &["hardcover"]), ("b", &["audio cd"])]);
        let index = GramIndex::build(&columns);
        assert!(index.matches_batch(&columns));
        assert!(!index.matches_batch(&columns[..1]));
        let (_t2, edited) = batch(&[("a", &["hardcover"]), ("b", &["vinyl"])]);
        assert!(!index.matches_batch(&edited), "changed fingerprint must fail the guard");
        assert_eq!(index.slot_of(&AttrRef::new("b", "v")), Some(1));
        assert_eq!(index.slot_of(&AttrRef::new("zz", "v")), None);
        assert_eq!(index.interner_token(), columns[0].interner().token());
        assert!(!index.is_empty());
    }

    #[test]
    fn empty_columns_are_slotted_but_never_posted() {
        let empty =
            ColumnData::owned(AttrRef::new("e", "v"), cxm_relational::DataType::Text, vec![]);
        let full = ColumnData::owned(
            AttrRef::new("f", "v"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("hardcover")],
        );
        let columns = [empty, full];
        let index = GramIndex::build(&columns);
        assert_eq!(index.len(), 2);
        // Per-column state, not the process-global build counter (sibling
        // tests profile concurrently; `tests/tests/profile_counts.rs` pins
        // the exact count in a binary of its own).
        assert!(
            columns[0].harvest_artifacts().qgram3_ids.is_none(),
            "the empty column is never profiled"
        );
        let posted =
            columns[1].harvest_artifacts().qgram3_ids.expect("the full column is profiled");
        let again = GramIndex::build(&columns);
        assert!(
            Arc::ptr_eq(&posted, &columns[1].qgram3_ids()),
            "a rebuild reuses the memoized profile"
        );
        assert_eq!(again.posting_lists(), index.posting_lists());
        let probe = ColumnData::owned(
            AttrRef::new("s", "x"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("hardcover")],
        );
        let scan = index.scan(&probe.qgram3_ids(), &probe.value_ids());
        assert!(scan.hint(0).qgram_zero() && scan.hint(0).overlap_zero);
        assert!(!scan.hint(1).qgram_zero());
        let bounds = index.cosine_upper_bounds(&probe.qgram3_ids());
        assert_eq!(bounds[0], 0.0);
    }
}
