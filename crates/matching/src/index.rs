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
//! ## Layout and incremental maintenance
//!
//! Each generation stores its gram postings and its value postings in
//! compressed sparse row form, four vectors in all: per kind, one `offsets`
//! vector indexed by the dense interner id and one `entries` vector in
//! (id, slot) order, so the list of id `g` is
//! `entries[offsets[g]..offsets[g + 1]]`. A scan reads a list with two
//! offset loads and no hashing, and retiring a generation frees its four
//! vectors (plus its slot table), whatever the number of lists.
//!
//! [`GramIndex::update_from`] compares per-slot column fingerprints (the
//! same column-granular warm key the target catalog uses) and re-merges
//! only the lists a changed column touches — those holding one of its old
//! entries or receiving one of its new ones. The changed columns' new
//! entries are first counting-sorted into a CSR run of their own.
//! One sequential pass over the ids then builds the next generation:
//! each maximal run of untouched ids is copied with one
//! `extend_from_slice` and its offsets shifted by one delta, and each
//! touched id gets its surviving entries (those of unchanged slots, a
//! changed-slot bitmap lookup each) merged by slot with its new run.
//! [`GramIndex::build`] is the same merge from an index with no postings
//! whose every slot counts as changed; with nothing to survive, the sorted
//! new run is already the result, scattered straight into its final
//! arrays.
//!
//! *Cost.* An update reads the previous generation's arrays once, front to
//! back, and writes the next generation's once: traffic proportional to the
//! size of the index (8 bytes per entry, 4 per id) plus the length of every
//! touched list, and two passes over the changed columns' entries for the
//! counting sort — no hashing and no per-list allocation. A gram entry is
//! `(slot, count)` as two `u32`s: profile counts are exact small integers,
//! so the scan's `f64::from(count)` is the very `f64` the profile holds. On
//! `wide_refresh`'s catalog (480 columns, ~1.08 M gram postings in ~101 k
//! lists plus ~19 k value lists, a sixth of the columns flipped; memoized
//! profiles, 2-core host) an update takes 10–24 ms where per-list `Arc`s in
//! a hash map took 36–43 ms, and freeing the generation it replaces takes
//! 0.1–2.7 ms instead of 16–22 ms. The spread is page faults: whenever the
//! allocator maps fresh pages for the entries vector, its first writes
//! fault. With 16-byte entries (`(u32, f64)`) that vector was ~17 MB and
//! cost ~4,000–5,000 minor faults, about 10 ms; 8-byte entries halve it to
//! ~8.6 MB. `bench_scaling -- index_update_sixth` (one update plus dropping
//! the generation it replaces) went from 11.5–11.9 ms to 8.9–9.7 ms
//! (means of 10 samples, three alternating runs each). A cold build takes
//! 32–38 ms (was ~92 ms).
//!
//! *Reuse counters.* [`GramIndex::postings_reused`] counts the non-empty
//! lists no changed slot touches, which the pass copies unchanged;
//! [`GramIndex::postings_rebuilt`] counts the non-empty lists it
//! re-merged. Their sum is [`GramIndex::posting_lists`].
//!
//! *Range.* `offsets` spans the largest indexed id, at 4 bytes per id.
//! Only target builds issue ids, so that range is the catalog's own
//! vocabulary plus whatever other catalogs sharing the interner added
//! before it. [`GramIndex::id_bound`] is that span: a source artifact that
//! covers it is exact against every indexed column.
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

impl Slot {
    /// The posted `(gram id, raw count)` entries.
    fn gram_entries(&self) -> &[(u32, f64)] {
        self.profile.as_deref().map_or(&[], InternedProfile::entries)
    }

    /// The posted value ids.
    fn value_ids(&self) -> &[u32] {
        self.values.as_deref().map_or(&[], InternedValueSet::ids)
    }
}

/// The slots whose bit is set in `changed`, with their positions, in
/// ascending order.
fn changed_slots<'a>(
    slots: &'a [Slot],
    changed: &'a [bool],
) -> impl Iterator<Item = (u32, &'a Slot)> {
    slots.iter().enumerate().filter(|&(i, _)| changed[i]).map(|(i, s)| (i as u32, s))
}

/// The inverted index of one target column batch: gram id → slot-sorted
/// posting list of `(slot, raw count)`, value id → slot-sorted posting list
/// of slots, each kind in compressed sparse row form (see the module docs).
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
    grams: Postings<(u32, u32)>,
    /// Distinct-value id → slots containing the value, ascending.
    values: Postings<u32>,
    /// Non-empty lists copied unchanged from the previous generation (0 for
    /// a cold build).
    postings_reused: usize,
    /// Non-empty lists (re)built by this generation.
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
            grams: Postings::default(),
            values: Postings::default(),
            postings_reused: 0,
            postings_rebuilt: 0,
        };
        GramIndex::merge(&empty, columns)
    }

    /// Derive the index of the next batch generation from `prev`, re-merging
    /// only the posting lists that mention a column whose fingerprint
    /// changed; every other list is copied unchanged. Falls back to
    /// [`GramIndex::build`] when the attribute sequence or interner changed
    /// (slot ids are positional). Columns without fingerprints are
    /// conservatively treated as changed.
    pub fn update_from(prev: &GramIndex, columns: &[ColumnData]) -> GramIndex {
        if !prev.same_shape(columns) {
            return GramIndex::build(columns);
        }
        GramIndex::merge(prev, columns)
    }

    /// The one construction routine (see the module docs): re-post the
    /// changed slots of a same-shape `prev` and copy every list they do not
    /// touch.
    fn merge(prev: &GramIndex, columns: &[ColumnData]) -> GramIndex {
        let changed: Vec<bool> = prev
            .slots
            .iter()
            .zip(columns)
            .map(|(s, c)| s.fingerprint.is_none() || s.fingerprint != c.fingerprint())
            .collect();
        let mut slots = prev.slots.clone();
        for (i, column) in columns.iter().enumerate().filter(|&(i, _)| changed[i]) {
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

        // The changed slots' old entries (in `prev`) and new ones (in
        // `slots`), in ascending slot order.
        let (grams, gram_lists_rebuilt) = prev.grams.merge(
            changed_slots(&prev.slots, &changed)
                .flat_map(|(_, s)| s.gram_entries().iter().map(|&(g, _)| g)),
            || {
                changed_slots(&slots, &changed).flat_map(|(i, s)| {
                    s.gram_entries().iter().map(move |&(g, count)| (g, (i, posted_count(count))))
                })
            },
            &changed,
            |&(s, _)| s,
        );
        let (values, value_lists_rebuilt) = prev.values.merge(
            changed_slots(&prev.slots, &changed).flat_map(|(_, s)| s.value_ids().iter().copied()),
            || {
                changed_slots(&slots, &changed)
                    .flat_map(|(i, s)| s.value_ids().iter().map(move |&v| (v, i)))
            },
            &changed,
            |&s| s,
        );
        let rebuilt = gram_lists_rebuilt + value_lists_rebuilt;
        GramIndex {
            interner_token: prev.interner_token,
            slot_by_attr: Arc::clone(&prev.slot_by_attr),
            slots,
            postings_reused: grams.lists + values.lists - rebuilt,
            postings_rebuilt: rebuilt,
            grams,
            values,
        }
    }

    /// Identity token of the interner the indexed artifacts live in.
    pub fn interner_token(&self) -> u64 {
        self.interner_token
    }

    /// One past the largest id any indexed artifact holds: a source
    /// artifact that [covers](crate::InternedProfile::covers) it is exact
    /// against every indexed column, so one check serves a whole scan.
    pub fn id_bound(&self) -> usize {
        self.grams.ids().max(self.values.ids())
    }

    /// Number of indexed columns (slots).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no column is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total non-empty posting lists (gram + value).
    pub fn posting_lists(&self) -> usize {
        self.grams.lists + self.values.lists
    }

    /// Non-empty posting lists no changed slot touched, copied unchanged
    /// from the previous generation.
    pub fn postings_reused(&self) -> usize {
        self.postings_reused
    }

    /// Non-empty posting lists (re)built by this generation.
    pub fn postings_rebuilt(&self) -> usize {
        self.postings_rebuilt
    }

    /// The slot of a target attribute, if indexed.
    pub fn slot_of(&self, attr: &AttrRef) -> Option<usize> {
        self.slot_by_attr.get(attr).copied()
    }

    /// One gram's posting list, `None` when empty (test hook).
    pub fn gram_posting(&self, gram: u32) -> Option<&[(u32, u32)]> {
        Some(self.grams.list(gram)).filter(|list| !list.is_empty())
    }

    /// One value's posting list (test hook, like [`GramIndex::gram_posting`]).
    pub fn value_posting(&self, value: u32) -> Option<&[u32]> {
        Some(self.values.list(value)).filter(|list| !list.is_empty())
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
            for &(slot, target_count) in self.grams.list(g) {
                qgram_dots[slot as usize] += count * f64::from(target_count);
            }
        }
        let mut value_overlaps = vec![0usize; self.slots.len()];
        for &id in values.ids() {
            for &slot in self.values.list(id) {
                value_overlaps[slot as usize] += 1;
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

/// A profile's raw gram count as its posting stores it. Profile counts are
/// exact small integers held in `f64`s, so the `u32` is the count itself
/// and `f64::from` gives back the very same `f64`: a scan's dot products
/// are bit-identical to the merge-join's.
fn posted_count(count: f64) -> u32 {
    let posted = count as u32;
    assert!(f64::from(posted) == count, "gram counts outgrow u32 postings");
    posted
}

/// One kind of posting list of one generation, in compressed sparse row
/// form: the list of id `g` is `entries[offsets[g]..offsets[g + 1]]`,
/// ascending by slot. `offsets` ends at the largest id with a non-empty
/// list; every id past it has an empty list.
#[derive(Debug, Default)]
struct Postings<E> {
    offsets: Vec<u32>,
    entries: Vec<E>,
    /// Non-empty lists.
    lists: usize,
}

impl<E: Copy> Postings<E> {
    /// Number of ids `offsets` spans.
    fn ids(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The list of `id`, empty past the spanned range.
    fn list(&self, id: u32) -> &[E] {
        let id = id as usize;
        match self.offsets.get(id..id + 2) {
            Some(&[start, end]) => &self.entries[start as usize..end as usize],
            _ => &[],
        }
    }

    /// The next generation of these lists. `stale` yields the ids of the
    /// changed slots' previous entries, `fresh` (called twice) their new
    /// `(id, entry)`s in ascending slot order; `changed` is the changed-slot
    /// bitmap. Every list a changed slot touches becomes its entries of
    /// unchanged slots merged by slot with the fresh run for its id; every
    /// other list is copied as it is. Returns the lists and the number of
    /// non-empty lists re-merged.
    fn merge<I: Iterator<Item = (u32, E)>>(
        &self,
        stale: impl Iterator<Item = u32>,
        fresh: impl Fn() -> I,
        changed: &[bool],
        slot: impl Fn(&E) -> u32,
    ) -> (Postings<E>, usize) {
        let fresh = Postings::sorted(fresh, self.ids());
        if self.entries.is_empty() {
            // Nothing survives, so the fresh run is the merge.
            let rebuilt = fresh.lists;
            return (fresh.trimmed(), rebuilt);
        }
        let ids = fresh.ids();
        let mut touched: Vec<bool> = fresh.offsets.windows(2).map(|w| w[0] != w[1]).collect();
        let mut stale_entries = 0;
        for id in stale {
            touched[id as usize] = true;
            stale_entries += 1;
        }

        let total = self.entries.len() - stale_entries + fresh.entries.len();
        assert!(u32::try_from(total).is_ok(), "posting entries outgrow u32 offsets");
        let mut offsets = Vec::with_capacity(ids + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0);
        // `dropped`: touched ids whose previous list was non-empty.
        let (mut rebuilt, mut dropped) = (0, 0);
        let mut id = 0;
        while id < ids {
            if touched[id] {
                let old = self.list(id as u32);
                dropped += usize::from(!old.is_empty());
                let start = entries.len();
                let mut new = fresh.list(id as u32).iter().copied().peekable();
                for &e in old.iter().filter(|e| !changed[slot(e) as usize]) {
                    while let Some(n) = new.next_if(|n| slot(n) < slot(&e)) {
                        entries.push(n);
                    }
                    entries.push(e);
                }
                entries.extend(new);
                rebuilt += usize::from(entries.len() > start);
                offsets.push(entries.len() as u32);
                id += 1;
            } else {
                // A maximal run of untouched ids: one copy, one offset shift.
                let end = touched[id..].iter().position(|&t| t).map_or(ids, |run| id + run);
                let copied = id.min(self.ids())..end.min(self.ids());
                if !copied.is_empty() {
                    let (from, to) = (self.offsets[copied.start], self.offsets[copied.end]);
                    let base = entries.len() as u32;
                    entries.extend_from_slice(&self.entries[from as usize..to as usize]);
                    let shifted = &self.offsets[copied.start + 1..=copied.end];
                    offsets.extend(shifted.iter().map(|&o| o - from + base));
                }
                offsets.resize(end + 1, entries.len() as u32);
                id = end;
            }
        }
        let next = Postings { offsets, entries, lists: self.lists - dropped + rebuilt };
        (next.trimmed(), rebuilt)
    }

    /// The lists of the entries `fresh` yields, spanning at least `ids`
    /// ids: a counting sort over two passes of the iterator — O(entries +
    /// largest id), since ids are dense interner ids — that scatters every
    /// entry straight into its final place. Entries arrive in ascending
    /// slot order, so each list is too.
    fn sorted<I: Iterator<Item = (u32, E)>>(fresh: impl Fn() -> I, ids: usize) -> Postings<E> {
        // Counts land in `offsets[id + 2]`; after the prefix sum
        // `offsets[id + 1]` is where the next entry of `id` goes, and after
        // the scatter `offsets[id]..offsets[id + 1]` is the list of `id`.
        let mut offsets = vec![0u32; ids + 2];
        let (mut first, mut total, mut lists) = (None, 0usize, 0);
        for (id, entry) in fresh() {
            let at = id as usize + 2;
            if offsets.len() <= at {
                offsets.resize(at + 1, 0);
            }
            lists += usize::from(offsets[at] == 0);
            offsets[at] += 1;
            total += 1;
            first.get_or_insert(entry);
        }
        let Some(first) = first else {
            offsets.pop();
            return Postings { offsets, entries: Vec::new(), lists: 0 };
        };
        assert!(u32::try_from(total).is_ok(), "posting entries outgrow u32 offsets");
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut entries = vec![first; total];
        for (id, entry) in fresh() {
            let at = &mut offsets[id as usize + 1];
            entries[*at as usize] = entry;
            *at += 1;
        }
        offsets.pop();
        Postings { offsets, entries, lists }
    }

    /// These lists with `offsets` cut back to the largest non-empty id.
    fn trimmed(mut self) -> Postings<E> {
        while let [.., before, last] = self.offsets[..] {
            if before != last {
                break;
            }
            self.offsets.pop();
        }
        self
    }
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

    /// Splits the non-empty lists of `next` into those no `changed` slot
    /// appears in, before (in `prev`) or after, and the rest:
    /// `(copied, re-merged)`.
    fn reuse_counts(
        prev: &GramIndex,
        next: &GramIndex,
        ids: u32,
        changed: &[u32],
    ) -> (usize, usize) {
        let (mut copied, mut merged) = (0, 0);
        for id in 0..ids {
            let grams = |index: &GramIndex| -> Vec<u32> {
                index.gram_posting(id).unwrap_or_default().iter().map(|&(s, _)| s).collect()
            };
            let values = |index: &GramIndex| index.value_posting(id).unwrap_or_default().to_vec();
            for (before, after) in [(grams(prev), grams(next)), (values(prev), values(next))] {
                if after.is_empty() {
                    continue;
                }
                if before.iter().chain(&after).any(|s| changed.contains(s)) {
                    merged += 1;
                } else {
                    copied += 1;
                }
            }
        }
        (copied, merged)
    }

    #[test]
    fn update_copies_untouched_posting_lists_and_remerges_the_rest() {
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
        let interner = columns[0].interner();
        let ids = interner.len() as u32;
        let (copied, merged) = reuse_counts(&index, &updated, ids, &[1]);
        assert!(copied > 0 && merged > 0, "a and c carry lists, b's lists re-merge");
        assert_eq!((updated.postings_reused(), updated.postings_rebuilt()), (copied, merged));
        assert_eq!(updated.posting_lists(), copied + merged);
        // Every list equals the fresh build's; a gram unique to column a
        // keeps its content.
        let fresh = GramIndex::build(&next);
        for id in 0..ids {
            assert_eq!(updated.gram_posting(id), fresh.gram_posting(id), "gram {id}");
            assert_eq!(updated.value_posting(id), fresh.value_posting(id), "value {id}");
        }
        let pap = interner.lookup("pap").expect("'pap' was interned by column a");
        assert_eq!(updated.gram_posting(pap), Some(&[(0, 1)][..]));
        assert_eq!(index.gram_posting(pap), updated.gram_posting(pap));
        // Scans over the updated index see the new content.
        let probe = ColumnData::owned(
            AttrRef::new("s", "x"),
            cxm_relational::DataType::Text,
            vec![cxm_relational::Value::str("remastered")],
        );
        let scan = updated.scan(&probe.qgram3_ids(), &probe.value_ids());
        assert!(!scan.hint(1).qgram_zero());
        assert!(scan.hint(2).qgram_zero());

        // An unchanged batch copies everything.
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
