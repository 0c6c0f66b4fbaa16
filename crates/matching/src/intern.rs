//! Interned, flat-profile scoring kernels — the only q-gram and
//! value-overlap kernels of the instance matchers.
//!
//! Scoring a pair is the single hottest loop of the system (`ScoreMatch`
//! rescoring and `StandardMatch`), so the matchers' derived artifacts are
//! **flat, interned, cache friendly** representations, with no per-gram
//! string comparison or tree walk:
//!
//! * [`GramInterner`] — maps gram / normalized-value strings to dense `u32`
//!   ids. Ids are only comparable within one interner, so a pair is always
//!   scored in **one id space — the target's**: a source column bound to
//!   another interner has its artifact built in the target's interner for
//!   that call. A catalog shares one interner (behind an `Arc`) with every
//!   source it scores, so that rebuild never happens on the served paths.
//!   One `RwLock` guards the vocabulary: a build looks every string up
//!   under one read guard, then issues its misses under one write guard. A
//!   3-gram is looked up by its packed integer code with one hash probe,
//!   never as a string. After warm-up the gram vocabulary stops growing and
//!   builds never take the write guard.
//! * [`InternedProfile`] — a q-gram frequency profile as a sorted
//!   `Vec<(u32, f64)>` sparse vector of **raw counts** plus its L2 norm.
//!   [`InternedProfile::cosine`] is a linear merge-join over the two id
//!   vectors — no string comparison, no tree walk, no hashing in the hot
//!   loop.
//! * [`InternedValueSet`] — a distinct-value set as a sorted `Vec<u32>`;
//!   [`InternedValueSet::jaccard`] is the same merge-join shape.
//! * `RowRuns` — one column's rows, each tokenized and looked up once:
//!   per row, its `(gram, count)` run and its value's id, indexed by
//!   column-local ids that order like the interner's. The profile and value
//!   set of any subset of rows then assemble by summing the selected rows'
//!   counts, and equal, entry for entry and bit for bit, what
//!   [`GramInterner::qgram_profile`] and [`GramInterner::value_set`] build
//!   from those rows' texts. This is how `ScoreMatch` profiles a column
//!   restricted to each candidate view without re-tokenizing a value per
//!   view (through [`crate::ColumnRuns`]).
//!
//! ## Numerical contract
//!
//! Counts are small exact integers, so every partial sum inside the cosine
//! dot product and the squared norm is an integer far below 2⁵³: the
//! additions are **exact** and therefore order-independent. The kernel's
//! result does not depend on which ids the interner happened to assign, so
//! scores are deterministic across runs, threads and interners — **interner
//! independence is the contract**: a pair scored across two interners is
//! bit-equal to the same pair scored in one. The kernel property tests in
//! `tests/tests/property_based.rs` pin it, together with agreement with the
//! string-keyed reference kernels of `cxm_tests::reference`: within 1e-12
//! for the cosine (the reference normalizes each profile before the dot
//! product and accumulates in gram order, which rounds differently in the
//! last ulps) and bit for bit for Jaccard (both divide the same two
//! integers).

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Process-wide instrumentation of the kernels: counts the q-gram cosine /
/// value-overlap Jaccard scores answered from an inverted-index hint instead
/// of the merge-join.
pub mod telemetry {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PRUNED_KERNEL_SCORES: AtomicUsize = AtomicUsize::new(0);

    /// Scores answered from an inverted-index pruning hint (the merge-join
    /// was skipped because the gram index proved the pair shares nothing).
    pub fn pruned_kernel_scores() -> usize {
        PRUNED_KERNEL_SCORES.load(Ordering::Relaxed)
    }

    pub(crate) fn record_pruned_score() {
        PRUNED_KERNEL_SCORES.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the process-global kernel counter, for scoped
    /// before/after accounting. The counter itself is monotonic for the life
    /// of the process (many subsystems diff it concurrently); benchmarks and
    /// tests that need *per-run* numbers take a snapshot before the run and
    /// read [`KernelCounters::delta`] after, instead of resetting state other
    /// measurements may be mid-flight over.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct KernelCounters {
        /// Index-pruned (merge-join skipped) scores at snapshot time.
        pub pruned: usize,
    }

    impl KernelCounters {
        /// The current value of the kernel counter.
        pub fn snapshot() -> Self {
            KernelCounters { pruned: pruned_kernel_scores() }
        }

        /// Counter growth since this snapshot was taken. Meaningful only
        /// while no other thread is scoring (the same sequential-attribution
        /// contract as the service's per-request telemetry).
        pub fn delta(&self) -> Self {
            KernelCounters { pruned: pruned_kernel_scores() - self.pruned }
        }
    }
}

/// The interner's vocabulary, behind its one lock.
///
/// Strings of exactly three Unicode scalars — every 3-gram, and any
/// three-scalar value — are keyed by their packed code ([`pack`]); every
/// other string by its text. `by_id` holds each string once, shared with
/// `by_text`.
#[derive(Debug, Default)]
struct Vocabulary {
    by_code: HashMap<u64, u32, CodeKey>,
    by_text: HashMap<Arc<str>, u32>,
    by_id: Vec<Arc<str>>,
}

impl Vocabulary {
    /// The id of any string, if issued.
    fn get(&self, text: &str) -> Option<u32> {
        match pack_str(text) {
            Some(code) => self.by_code.get(&code).copied(),
            None => self.by_text.get(text).copied(),
        }
    }

    /// Issue the next id to a string that is **not present**.
    fn insert(&mut self, text: String) -> u32 {
        let id = u32::try_from(self.by_id.len()).expect("grow checked the id space");
        let text: Arc<str> = text.into();
        let previous = match pack_str(&text) {
            Some(code) => self.by_code.insert(code, id),
            None => self.by_text.insert(Arc::clone(&text), id),
        };
        debug_assert!(previous.is_none(), "{text:?} was already interned");
        self.by_id.push(text);
        id
    }
}

/// The per-interner key of the packed-code map: an odd multiplier drawn
/// once per interner from std's randomly keyed [`RandomState`], so which
/// codes share probe sequences differs between interners and processes and
/// cannot be chosen by a client. Ids follow first-intern order, never the
/// map's layout, so the key changes no id.
#[derive(Debug)]
struct CodeKey(u64);

impl Default for CodeKey {
    fn default() -> Self {
        CodeKey(RandomState::new().build_hasher().finish() | 1)
    }
}

impl BuildHasher for CodeKey {
    type Hasher = CodeHasher;

    fn build_hasher(&self) -> CodeHasher {
        CodeHasher { multiplier: self.0, code: 0 }
    }
}

/// Hashes a packed code with one widening multiply by the interner's
/// [`CodeKey`], folding the product's two halves together so every code bit
/// reaches the low bits the map indexes by. A known 3-gram therefore costs
/// one integer hash and one probe — no string rendering, byte hashing or
/// string compare.
#[derive(Debug)]
struct CodeHasher {
    multiplier: u64,
    code: u64,
}

impl Hasher for CodeHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only packed u64 codes are hashed");
    }

    fn write_u64(&mut self, code: u64) {
        self.code = code;
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.code) * u128::from(self.multiplier);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

/// The packed code of three Unicode scalars: three 21-bit fields, first
/// scalar highest, so codes fit in 63 bits. Codes order like the scalar
/// sequences — the same order as the rendered strings — which keeps id
/// assignment within a growth batch independent of how its misses were
/// keyed.
fn pack(gram: [char; 3]) -> u64 {
    (u64::from(gram[0]) << 42) | (u64::from(gram[1]) << 21) | u64::from(gram[2])
}

/// The packed code of `text` when it is exactly three Unicode scalars.
fn pack_str(text: &str) -> Option<u64> {
    let mut chars = text.chars();
    let code = pack([chars.next()?, chars.next()?, chars.next()?]);
    chars.next().is_none().then_some(code)
}

/// A string interner scoped to one matching universe (typically a target
/// catalog plus every source scored against it; [`GramInterner::global`] is
/// the process-wide default every [`crate::ColumnData`] starts with).
///
/// Ids are dense, assigned in first-intern order, and stable for the
/// interner's lifetime; the interner never shrinks. Ids from *different*
/// interners are not comparable — the matchers check interner identity
/// (`Arc::ptr_eq`) and build the source side of a mixed pair in the
/// target's interner.
///
/// Cost: a known 3-gram (or any three-scalar string) costs one integer hash
/// and one probe of a map keyed by its packed code; any other string costs
/// one hash of its text.
///
/// Concurrency: one `RwLock` guards the vocabulary. A profile or value-set
/// build holds the read guard for its whole lookup loop, then takes the
/// write guard once to issue its misses, re-checking each one under it, so
/// a string another thread issued in between keeps that id. Growth is rare
/// by construction — the 3-gram vocabulary over normalized text is small and
/// saturates quickly — so warm builds only ever share the read guard. The
/// lock is a leaf: while it is held, nothing outside this module runs but
/// the caller's text iterator and the q-gram tokenizer, and no thread takes
/// it twice.
#[derive(Debug)]
pub struct GramInterner {
    /// Process-unique identity of this interner (see [`GramInterner::token`]).
    token: u64,
    vocabulary: RwLock<Vocabulary>,
}

impl Default for GramInterner {
    fn default() -> Self {
        GramInterner::new()
    }
}

impl GramInterner {
    /// An empty interner.
    pub fn new() -> Self {
        static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        GramInterner {
            token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            vocabulary: RwLock::default(),
        }
    }

    /// A process-unique identity token for this interner instance. Ids are
    /// only comparable within one interner, so caches keying interned
    /// artifacts (e.g. the restricted-profile cache) fold this token into
    /// their keys — artifacts built against one interner can then never be
    /// served to columns bound to another.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The process-wide default interner. Every column that does not opt
    /// into a private interner shares this one, which is what makes the
    /// interned kernels applicable to any (source, target) pair by default.
    pub fn global() -> Arc<GramInterner> {
        static GLOBAL: OnceLock<Arc<GramInterner>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(GramInterner::new())))
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.read().by_id.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // Every update leaves the vocabulary valid (`grow` checks the id space
    // before its first insert), so a poisoned lock is safe to recover.
    fn read(&self) -> RwLockReadGuard<'_, Vocabulary> {
        self.vocabulary.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vocabulary> {
        self.vocabulary.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id of `text`, if it has been interned.
    pub fn lookup(&self, text: &str) -> Option<u32> {
        self.read().get(text)
    }

    /// Intern one string, assigning a fresh id on first sight.
    pub fn intern(&self, text: &str) -> u32 {
        if let Some(id) = self.lookup(text) {
            return id;
        }
        self.grow(vec![text.to_string()])[0]
    }

    /// The string behind an id (`None` for ids this interner never issued).
    /// Ids round-trip: `resolve(intern(s)) == Some(s)`.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.read().by_id.get(id as usize).cloned()
    }

    /// Turn a batch of per-occurrence known ids plus the string-sorted
    /// `(string, count)` misses into the final id-sorted sparse count vector:
    /// run-length encode the sorted hit ids (no hashing anywhere on the hit
    /// path) and merge in the freshly grown miss ids.
    fn finish_counts(
        &self,
        mut known_ids: Vec<u32>,
        unknown: Vec<(String, f64)>,
    ) -> Vec<(u32, f64)> {
        known_ids.sort_unstable();
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for id in known_ids {
            match entries.last_mut() {
                Some((last, count)) if *last == id => *count += 1.0,
                _ => entries.push((id, 1.0)),
            }
        }
        if !unknown.is_empty() {
            // The misses arrive sorted, so id assignment within one batch is
            // deterministic (D001). A hit's id is below the vocabulary's
            // length during the read phase and a miss's id at or above it,
            // so no id appears twice.
            let (texts, counts): (Vec<String>, Vec<f64>) = unknown.into_iter().unzip();
            entries.extend(self.grow(texts).into_iter().zip(counts));
            entries.sort_unstable_by_key(|&(id, _)| id);
        }
        entries
    }

    /// Assign ids to `texts` (in order) under one write guard, reusing the
    /// id of any string another thread interned since the caller looked it
    /// up.
    fn grow(&self, texts: Vec<String>) -> Vec<u32> {
        let mut vocabulary = self.write();
        // Check the id space before the first insert, so a batch never
        // stops half-inserted.
        assert!(
            (vocabulary.by_id.len() + texts.len()) as u64 <= u64::from(u32::MAX) + 1,
            "interner exceeded u32 id space"
        );
        texts
            .into_iter()
            .map(|text| match vocabulary.get(&text) {
                Some(id) => id,
                None => vocabulary.insert(text),
            })
            .collect()
    }

    /// Every interned string in **dense id order** (the string behind id 0
    /// first). Re-interning this dump, in order, into a *fresh* interner via
    /// [`GramInterner::preload`] reproduces the exact same id assignment —
    /// the property warm-state persistence relies on to make persisted
    /// interned artifacts meaningful after a restart.
    pub fn dump(&self) -> Vec<String> {
        self.read().by_id.iter().map(|text| text.to_string()).collect()
    }

    /// Intern a batch of strings in order, returning their ids. On a fresh
    /// interner fed a [`GramInterner::dump`], the returned ids are exactly
    /// `0..texts.len()` — dense first-intern order is reproduced. The whole
    /// batch takes the write lock once.
    pub fn preload(&self, texts: Vec<String>) -> Vec<u32> {
        self.grow(texts)
    }

    /// Build the interned 3-gram count profile of a bag of texts. The
    /// profile keeps raw counts and their norm, so the dot product stays
    /// exact-integer arithmetic.
    ///
    /// Grams arrive as three scalars ([`cxm_classify::for_each_qgram`]) and
    /// a known gram costs one probe by its integer code: a warm vocabulary
    /// builds the whole profile without rendering, hashing or comparing a
    /// single string. Only misses are rendered, once per distinct gram, for
    /// the growth batch.
    ///
    /// `texts` is consumed under the interner's read lock, so it must not
    /// call into this interner.
    pub fn qgram_profile<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedProfile {
        let mut known_ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeMap<[char; 3], f64> = BTreeMap::new();
        {
            let vocabulary = self.read();
            for text in texts {
                cxm_classify::for_each_qgram(text.as_ref(), |gram| {
                    match vocabulary.by_code.get(&pack(gram)) {
                        Some(&id) => known_ids.push(id),
                        None => *unknown.entry(gram).or_insert(0.0) += 1.0,
                    }
                });
            }
        }
        // Scalar-array order is rendered-string order (see `pack`).
        let unknown = unknown.into_iter().map(|(gram, n)| (gram.iter().collect(), n)).collect();
        InternedProfile::from_counts(self.finish_counts(known_ids, unknown))
    }

    /// Build the interned distinct-value set of a bag of already-normalized
    /// texts. `texts` is consumed under the interner's read lock, so it must
    /// not call into this interner.
    pub fn value_set<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedValueSet {
        let mut known_ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeMap<String, f64> = BTreeMap::new();
        {
            let vocabulary = self.read();
            for text in texts {
                let text = text.as_ref();
                match vocabulary.get(text) {
                    Some(id) => known_ids.push(id),
                    None => match unknown.get_mut(text) {
                        Some(count) => *count += 1.0,
                        None => {
                            unknown.insert(text.to_string(), 1.0);
                        }
                    },
                }
            }
        }
        let mut ids: Vec<u32> = self
            .finish_counts(known_ids, unknown.into_iter().collect())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        ids.shrink_to_fit();
        InternedValueSet { ids }
    }

    /// Tokenize and look up every row of a column once: `rows` yields, per
    /// row, `None` for a NULL and otherwise the text to 3-gram (as
    /// [`GramInterner::qgram_profile`] takes it) and the already-normalized
    /// value text (as [`GramInterner::value_set`] takes it).
    ///
    /// Every lookup happens under one read guard; the misses are then
    /// issued in one sorted batch (grams, then values), as a profile or
    /// value-set build issues its own. `rows` is consumed under the read
    /// lock, so it must not call into this interner.
    pub(crate) fn row_runs<T: AsRef<str>, V: AsRef<str>>(
        &self,
        rows: impl Iterator<Item = Option<(T, V)>>,
    ) -> RowRuns {
        // Read phase. Grams and values get column-local ids in first-seen
        // order: an occurrence probes a small map of the column's own grams
        // by packed code, and only a distinct gram probes the vocabulary.
        // A miss's id is filled in once it is issued. Each row's run is
        // run-length encoded as it is read (`last_row` and `run_at` remember
        // where a gram last counted).
        let mut gram_local: HashMap<u64, u32, CodeKey> = HashMap::default();
        let mut gram_ids: Vec<u32> = Vec::new();
        let mut gram_misses: Vec<([char; 3], u32)> = Vec::new();
        let mut last_row: Vec<usize> = Vec::new();
        let mut run_at: Vec<usize> = Vec::new();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut offsets: Vec<usize> = vec![0];
        let mut value_local: HashMap<u32, u32> = HashMap::new();
        let mut value_ids: Vec<u32> = Vec::new();
        let mut value_misses: BTreeMap<String, u32> = BTreeMap::new();
        let mut values: Vec<u32> = Vec::new();
        {
            let vocabulary = self.read();
            for (row, text_and_value) in rows.enumerate() {
                values.push(text_and_value.map_or(RowRuns::NULL, |(text, value)| {
                    cxm_classify::for_each_qgram(text.as_ref(), |gram| {
                        let code = pack(gram);
                        let local = *gram_local.entry(code).or_insert_with(|| {
                            let local = next_local(&gram_ids);
                            let id = vocabulary.by_code.get(&code).copied();
                            if id.is_none() {
                                gram_misses.push((gram, local));
                            }
                            gram_ids.push(id.unwrap_or(0));
                            last_row.push(usize::MAX);
                            run_at.push(0);
                            local
                        });
                        let at = local as usize;
                        if last_row[at] == row {
                            runs[run_at[at]].1 += 1;
                        } else {
                            (last_row[at], run_at[at]) = (row, runs.len());
                            runs.push((local, 1));
                        }
                    });
                    let value = value.as_ref();
                    let next = next_local(&value_ids);
                    let id = vocabulary.get(value);
                    let local = match id {
                        Some(id) => *value_local.entry(id).or_insert(next),
                        None => match value_misses.get(value) {
                            Some(&local) => local,
                            None => *value_misses.entry(value.to_string()).or_insert(next),
                        },
                    };
                    if local == next {
                        value_ids.push(id.unwrap_or(0));
                    }
                    local
                }));
                offsets.push(runs.len());
            }
        }
        // Write phase: issue the misses in one batch, grams then values,
        // each in string order (scalar-array order is rendered-string
        // order, see `pack`).
        gram_misses.sort_unstable_by_key(|&(gram, _)| gram);
        let texts = gram_misses.iter().map(|(gram, _)| gram.iter().collect());
        let texts: Vec<String> = texts.chain(value_misses.keys().cloned()).collect();
        let issued = if texts.is_empty() { Vec::new() } else { self.grow(texts) };
        let (gram_issued, value_issued) = issued.split_at(gram_misses.len());
        for (&(_, local), &id) in gram_misses.iter().zip(gram_issued) {
            gram_ids[local as usize] = id;
        }
        for (&local, &id) in value_misses.values().zip(value_issued) {
            value_ids[local as usize] = id;
        }

        // Renumber both kinds of local id in interner-id order, so an
        // ascending sweep over local ids emits sorted entries.
        let (gram_ids, gram_rank) = rank_by_id(gram_ids);
        for run in &mut runs {
            run.0 = gram_rank[run.0 as usize];
        }
        let (value_ids, value_rank) = rank_by_id(value_ids);
        for value in values.iter_mut().filter(|value| **value != RowRuns::NULL) {
            *value = value_rank[*value as usize];
        }
        RowRuns { offsets, runs, gram_ids, values, value_ids }
    }
}

/// The column-local id the next distinct gram or value gets.
fn next_local(ids: &[u32]) -> u32 {
    u32::try_from(ids.len()).expect("a column's strings fit the interner's id space")
}

/// First-seen local ids renumbered in interner-id order: the interner ids
/// ascending, and each first-seen local id's new id. Distinct strings have
/// distinct interner ids, so the order is strict.
fn rank_by_id(ids: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
    let mut by_id: Vec<u32> = (0..=u32::MAX).take(ids.len()).collect();
    by_id.sort_unstable_by_key(|&local| ids[local as usize]);
    let mut rank = vec![0; ids.len()];
    for (new, &local) in (0..).zip(&by_id) {
        rank[local as usize] = new;
    }
    (by_id.iter().map(|&local| ids[local as usize]).collect(), rank)
}

/// Per-row interned runs of one column, built by `GramInterner::row_runs`:
/// each row tokenized and looked up once, so the q-gram profile and
/// distinct-value set of **any subset of rows** assemble without touching a
/// string.
///
/// Rows keep their position (a NULL row has an empty run and no value), so
/// a base table's row indices — a view's selection — address them
/// directly. Grams and values are stored by **column-local** id, the rank
/// of their interner id among the column's, so assembly is one dense add
/// per run entry and one ascending sweep that emits interner-id-sorted
/// entries at their exact length. Counts stay integers until the sweep, so
/// an assembled profile equals the one [`GramInterner::qgram_profile`]
/// builds from the same rows' texts, entry for entry and norm bit for norm
/// bit; the same holds for value sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowRuns {
    /// Row `r`'s run is `runs[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    /// `(local gram id, count)`, one entry per distinct gram of a row.
    runs: Vec<(u32, u32)>,
    /// Local gram id → interner id, ascending.
    gram_ids: Vec<u32>,
    /// Row `r`'s local value id, or `RowRuns::NULL`.
    values: Vec<u32>,
    /// Local value id → interner id, ascending.
    value_ids: Vec<u32>,
}

impl RowRuns {
    /// The local value id of a NULL row.
    const NULL: u32 = u32::MAX;

    /// The interned 3-gram profile of the given rows (indices of rows the
    /// runs were built from; NULL rows contribute nothing).
    pub(crate) fn qgram_profile(&self, rows: &[usize]) -> InternedProfile {
        let mut counts = vec![0u64; self.gram_ids.len()];
        let mut distinct = 0;
        for &row in rows {
            for &(local, count) in &self.runs[self.offsets[row]..self.offsets[row + 1]] {
                let sum = &mut counts[local as usize];
                distinct += usize::from(*sum == 0);
                *sum += u64::from(count);
            }
        }
        let mut entries = Vec::with_capacity(distinct);
        for (&id, &count) in self.gram_ids.iter().zip(&counts) {
            if count > 0 {
                // Exact: a count is far below 2⁵³.
                entries.push((id, count as f64));
            }
        }
        InternedProfile::from_counts(entries)
    }

    /// The interned distinct-value set of the given rows (indices of rows
    /// the runs were built from; NULL rows contribute nothing).
    pub(crate) fn value_set(&self, rows: &[usize]) -> InternedValueSet {
        let mut seen = vec![false; self.value_ids.len()];
        let mut distinct = 0;
        for &row in rows {
            let local = self.values[row];
            if local != RowRuns::NULL && !seen[local as usize] {
                seen[local as usize] = true;
                distinct += 1;
            }
        }
        let mut ids = Vec::with_capacity(distinct);
        ids.extend(self.value_ids.iter().zip(&seen).filter(|&(_, &seen)| seen).map(|(&id, _)| id));
        InternedValueSet { ids }
    }
}

/// A q-gram frequency profile in interned sparse-vector form: `(gram id, raw
/// count)` sorted by id, plus the L2 norm of the count vector. Counts are
/// exact small integers, which makes [`InternedProfile::cosine`]
/// order-independent and deterministic (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct InternedProfile {
    entries: Vec<(u32, f64)>,
    norm: f64,
}

impl InternedProfile {
    /// Assemble a profile from id-sorted `(id, count)` entries.
    pub fn from_counts(entries: Vec<(u32, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be id-sorted");
        let norm = entries.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
        InternedProfile { entries, norm }
    }

    /// The sorted `(gram id, raw count)` entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// L2 norm of the raw count vector.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Number of distinct grams.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the profile has no grams.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cosine similarity of two profiles — a single linear merge-join over
    /// the sorted id vectors. Both profiles must come from the same
    /// interner; the matchers guarantee that by scoring in the target's.
    pub fn cosine(&self, other: &InternedProfile) -> f64 {
        if self.entries.is_empty() || other.entries.is_empty() {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() && j < b.len() {
            let (ia, ca) = a[i];
            let (ib, cb) = b[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += ca * cb;
                    i += 1;
                    j += 1;
                }
            }
        }
        if dot == 0.0 {
            return 0.0;
        }
        (dot / (self.norm * other.norm)).clamp(0.0, 1.0)
    }
}

/// A distinct-value set in interned form: sorted unique `u32` ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedValueSet {
    ids: Vec<u32>,
}

impl InternedValueSet {
    /// The empty set, usable in `const`/`static` position (no interner
    /// involved — an empty set is valid against any id space).
    pub const fn empty() -> InternedValueSet {
        InternedValueSet { ids: Vec::new() }
    }

    /// Assemble a set from ids that must already be strictly increasing
    /// (sorted, no duplicates) — `None` otherwise. This is the decode-side
    /// constructor used by warm-state persistence; rejecting unsorted input
    /// here keeps the merge-join kernels' precondition intact no matter what
    /// bytes a snapshot file held.
    pub fn from_sorted_ids(ids: Vec<u32>) -> Option<InternedValueSet> {
        if ids.windows(2).all(|w| w[0] < w[1]) {
            Some(InternedValueSet { ids })
        } else {
            None
        }
    }

    /// The sorted distinct value ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Jaccard similarity of two sets — intersection by merge-join, union by
    /// inclusion–exclusion. Divides the same two integers as a string-keyed
    /// `BTreeSet` kernel, so the result is bit-identical to it.
    pub fn jaccard(&self, other: &InternedValueSet) -> f64 {
        if self.ids.is_empty() || other.ids.is_empty() {
            return 0.0;
        }
        let mut inter = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = self.ids.len() + other.ids.len() - inter;
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_round_tripping_ids() {
        let interner = GramInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("har");
        let b = interner.intern("ard");
        assert_ne!(a, b);
        assert_eq!(interner.intern("har"), a, "re-interning is stable");
        assert_eq!(interner.lookup("ard"), Some(b));
        assert_eq!(interner.lookup("xyz"), None);
        assert_eq!(interner.resolve(a).as_deref(), Some("har"));
        assert_eq!(interner.resolve(999), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn qgram_profile_counts_and_normalizes() {
        let interner = GramInterner::new();
        // "ab" → ##a, #ab, ab#, b##; "a" → ##a, #a#, a##.
        let p = interner.qgram_profile(["ab".to_string(), "a".to_string()].into_iter());
        // counts: ##a → 2, five others → 1; norm = sqrt(4 + 5).
        assert_eq!(p.len(), 6);
        assert!((p.norm() - 3.0).abs() < 1e-12);
        let a_id = interner.lookup("##a").unwrap();
        let entry = p.entries().iter().find(|&&(id, _)| id == a_id).unwrap();
        assert_eq!(entry.1, 2.0);
        // The batch's misses were issued ids in gram-string order.
        let grams: Vec<Arc<str>> = (0..6).map(|id| interner.resolve(id).unwrap()).collect();
        assert_eq!(grams.iter().map(|g| &**g).collect::<Vec<_>>(), {
            let mut sorted = vec!["##a", "#ab", "ab#", "b##", "#a#", "a##"];
            sorted.sort_unstable();
            sorted
        });
        // A warm rebuild looks every gram up and issues nothing.
        let again = interner.qgram_profile(["ab", "a"].into_iter());
        assert_eq!(again, p);
        assert_eq!(interner.len(), 6);
    }

    #[test]
    fn cosine_matches_hand_computation() {
        let interner = GramInterner::new();
        let p1 = InternedProfile::from_counts(vec![(0, 1.0), (1, 2.0)]);
        let p2 = InternedProfile::from_counts(vec![(1, 1.0), (2, 3.0)]);
        // dot = 2, norms = sqrt(5), sqrt(10).
        let expected = 2.0 / (5.0f64.sqrt() * 10.0f64.sqrt());
        assert!((p1.cosine(&p2) - expected).abs() < 1e-15);
        assert_eq!(p1.cosine(&InternedProfile::from_counts(vec![])), 0.0);
        assert!((p1.cosine(&p1) - 1.0).abs() < 1e-12, "self-cosine is 1");
        let _ = interner;
    }

    #[test]
    fn cosine_is_order_independent_exact() {
        // Same multiset of shared grams under two different id assignments
        // must give bit-identical cosines (the determinism contract).
        let a1 = InternedProfile::from_counts(vec![(0, 3.0), (1, 5.0), (2, 7.0)]);
        let b1 = InternedProfile::from_counts(vec![(0, 2.0), (1, 11.0), (2, 1.0)]);
        let a2 = InternedProfile::from_counts(vec![(4, 7.0), (9, 3.0), (12, 5.0)]);
        let b2 = InternedProfile::from_counts(vec![(4, 1.0), (9, 2.0), (12, 11.0)]);
        assert_eq!(a1.cosine(&b1).to_bits(), a2.cosine(&b2).to_bits());
    }

    #[test]
    fn value_set_jaccard() {
        let interner = GramInterner::new();
        let a = interner.value_set(["x".to_string(), "y".to_string(), "x".to_string()].into_iter());
        let b = interner.value_set(["y".to_string(), "z".to_string()].into_iter());
        assert_eq!(a.len(), 2);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(a.jaccard(&interner.value_set(std::iter::empty::<&str>())), 0.0);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.ids().len(), 2);
    }

    #[test]
    fn growth_publishes_new_snapshots_under_concurrency() {
        let interner = Arc::new(GramInterner::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let interner = Arc::clone(&interner);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..50 {
                    // Half shared strings, half thread-unique.
                    let s = if i % 2 == 0 { format!("shared-{i}") } else { format!("t{t}-{i}") };
                    ids.push((s.clone(), interner.intern(&s)));
                }
                ids
            }));
        }
        let all: Vec<(String, u32)> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        for (s, id) in &all {
            assert_eq!(interner.lookup(s), Some(*id), "{s} must keep its first id");
            assert_eq!(interner.resolve(*id).as_deref(), Some(s.as_str()));
        }
    }

    #[test]
    fn global_interner_is_shared() {
        assert!(Arc::ptr_eq(&GramInterner::global(), &GramInterner::global()));
    }

    #[test]
    fn ids_stay_stable_across_growth_batches() {
        // Intern strings in many batches; every previously issued id must
        // keep resolving to its string (and every string to its id) after
        // every later batch.
        let interner = GramInterner::new();
        let total = 2 * 1024 + 512;
        let mut issued: Vec<(String, u32)> = Vec::new();
        for batch_start in (0..total).step_by(97) {
            let batch: Vec<String> =
                (batch_start..(batch_start + 97).min(total)).map(|i| format!("s{i:05}")).collect();
            for s in &batch {
                issued.push((s.clone(), interner.intern(s)));
            }
            for (s, id) in &issued {
                assert_eq!(interner.lookup(s), Some(*id), "{s} id stable across growth");
                assert_eq!(interner.resolve(*id).as_deref(), Some(s.as_str()));
            }
        }
        assert_eq!(interner.len(), total);
        // Ids are dense in first-intern order.
        for (i, (_, id)) in issued.iter().enumerate() {
            assert_eq!(*id, i as u32);
        }
    }

    #[test]
    fn three_scalar_strings_are_keyed_by_packed_code() {
        assert_eq!(pack_str("abc"), Some(pack(['a', 'b', 'c'])));
        assert_eq!(pack_str("ab"), None);
        assert_eq!(pack_str("abcd"), None);
        assert_eq!(pack_str("i\u{307}#"), Some(pack(['i', '\u{307}', '#'])));
        let astral = ['\u{10FFFF}', '\u{1F600}', '\u{10000}'];
        assert_eq!(pack_str(&astral.iter().collect::<String>()), Some(pack(astral)));
        assert!(pack(astral) < 1 << 63, "codes use 63 bits");
        // Code order is string order.
        let mut grams = ["zz#", "#ab", "\u{1F600}ab", "a\u{e9}b", "aab", "##a"];
        let mut by_code = grams;
        grams.sort_unstable();
        by_code.sort_unstable_by_key(|g| pack_str(g).unwrap());
        assert_eq!(grams, by_code);

        // Three-scalar values and grams share one id; packed and text-keyed
        // strings both survive many rehashes of their maps.
        let interner = GramInterner::new();
        let value = interner.intern("cd#");
        let profile = interner.qgram_profile(["cd"].into_iter());
        assert!(profile.entries().iter().any(|&(id, _)| id == value));
        let texts: Vec<String> = (0..600u32)
            .map(|i| match i % 3 {
                0 => char::from_u32(0x4E00 + i).into_iter().chain("x#".chars()).collect(),
                1 => format!("v{i}"),
                _ => format!("{i:03}"),
            })
            .collect();
        let ids = interner.preload(texts.clone());
        for (text, &id) in texts.iter().zip(&ids) {
            assert_eq!(interner.lookup(text), Some(id));
            assert_eq!(interner.resolve(id).as_deref(), Some(text.as_str()));
        }
        assert_eq!(interner.lookup("cd#"), Some(value));
    }

    #[test]
    fn differently_keyed_interners_issue_identical_ids() {
        // Each interner draws its own code-map key; ids follow first-intern
        // order, so the same strings in the same order get the same ids.
        let (a, b) = (GramInterner::new(), GramInterner::new());
        assert_eq!(a.read().by_code.hasher().0 % 2, 1, "the multiplier is odd");
        let texts: Vec<String> = (0..2000u32)
            .map(|i| match i % 4 {
                0 => char::from_u32(0x4E00 + i).into_iter().chain("x#".chars()).collect(),
                1 => format!("v{i}"),
                2 => format!("{:03}", i % 1000),
                _ => format!("#{}", char::from_u32(0x100 + i).unwrap()),
            })
            .collect();
        let values = ["hardcover first edition", "cd"];
        for interner in [&a, &b] {
            interner.preload(texts.clone());
            interner.qgram_profile(values.iter().copied());
        }
        assert_eq!(a.len(), b.len());
        for id in 0..a.len() as u32 {
            let text = a.resolve(id).expect("dense ids");
            assert_eq!(b.resolve(id), Some(Arc::clone(&text)));
            assert_eq!(b.lookup(&text), Some(id));
        }
        let profile = |interner: &GramInterner| interner.qgram_profile(values.iter().copied());
        assert_eq!(profile(&a).entries(), profile(&b).entries());
    }

    #[test]
    fn packed_table_concurrent_growth_keeps_first_ids() {
        // Threads look 3-grams up by packed code while others issue new
        // ones, past several rehashes of the code map.
        let interner = Arc::new(GramInterner::new());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let interner = Arc::clone(&interner);
                std::thread::spawn(move || {
                    (0..120u32)
                        .map(|i| {
                            let owner = if i % 2 == 0 { 0 } else { t };
                            let gram: String = [
                                char::from(b'a' + owner as u8),
                                '#',
                                char::from_u32(0x100 + i).unwrap(),
                            ]
                            .iter()
                            .collect();
                            let id = interner.intern(&gram);
                            (gram, id)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<(String, u32)> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        for (gram, id) in &all {
            assert_eq!(interner.lookup(gram), Some(*id), "{gram} keeps its first id");
            assert_eq!(interner.resolve(*id).as_deref(), Some(gram.as_str()));
        }
    }

    #[test]
    fn profile_builds_racing_growth_match_warm_rebuilds() {
        // Builds whose misses another thread issues between their read
        // phase and their write phase: every string must still get one id,
        // so each recorded artifact equals a rebuild on the warm interner.
        let interner = GramInterner::new();
        let shared: Vec<String> = (0..30).map(|i| format!("shared value {i:02}")).collect();
        let start = std::sync::Barrier::new(4);
        let recorded: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (interner, shared, start) = (&interner, &shared, &start);
                    scope.spawn(move || {
                        (0..20)
                            .map(|round| {
                                let mut texts = shared.clone();
                                texts.extend((0..15).map(|i| format!("t{t} r{round} v{i}")));
                                start.wait();
                                let profile = interner.qgram_profile(texts.iter());
                                let values = interner.value_set(texts.iter());
                                let shared_profile = interner.qgram_profile(shared.iter());
                                (texts, profile, values, shared_profile)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let len = interner.len();
        for (texts, profile, values, shared_profile) in &recorded {
            assert_eq!(&interner.qgram_profile(texts.iter()), profile);
            assert_eq!(&interner.value_set(texts.iter()), values);
            assert_eq!(shared_profile, &recorded[0].3);
        }
        assert_eq!(interner.len(), len, "warm rebuilds issue no id");
    }

    #[test]
    fn row_runs_racing_growth_match_warm_rebuilds() {
        // Run passes race profile and value-set builds (and each other)
        // that issue the same strings between a pass's read phase and its
        // write phase: every artifact assembled from the runs must still
        // equal a tokenizing build of the same rows on the warm interner.
        let interner = GramInterner::new();
        let shared: Vec<String> = (0..30).map(|i| format!("Shared Value {i:02} ")).collect();
        let start = std::sync::Barrier::new(4);
        let normalized = |text: &str| text.trim().to_ascii_lowercase();
        type Recorded =
            (Vec<Option<String>>, Vec<Vec<usize>>, Vec<(InternedProfile, InternedValueSet)>);
        let recorded: Vec<Recorded> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (interner, shared, start) = (&interner, &shared, &start);
                    scope.spawn(move || {
                        let mut recorded = Vec::new();
                        for round in 0..20 {
                            let mut texts = shared.clone();
                            texts.extend((0..15).map(|i| format!("T{t} r{round} v{i}")));
                            start.wait();
                            if t % 2 == 1 {
                                interner.qgram_profile(texts.iter());
                                interner.value_set(texts.iter().map(|text| normalized(text)));
                                continue;
                            }
                            let rows: Vec<Option<String>> = texts
                                .into_iter()
                                .enumerate()
                                .map(|(i, text)| (i % 7 != 3).then_some(text))
                                .collect();
                            let runs = interner
                                .row_runs(rows.iter().map(|row| {
                                    row.as_deref().map(|text| (text, normalized(text)))
                                }));
                            assert_eq!(runs.values.len(), rows.len());
                            let selections = vec![
                                (0..rows.len()).collect(),
                                (0..rows.len()).step_by(2).collect(),
                                (rows.len() / 2..rows.len()).collect(),
                                Vec::new(),
                            ];
                            let assembled = selections
                                .iter()
                                .map(|rows: &Vec<usize>| {
                                    (runs.qgram_profile(rows), runs.value_set(rows))
                                })
                                .collect();
                            recorded.push((rows, selections, assembled));
                        }
                        recorded
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert!(!recorded.is_empty());
        let len = interner.len();
        for (rows, selections, assembled) in &recorded {
            for (selection, (profile, values)) in selections.iter().zip(assembled) {
                let texts: Vec<&str> =
                    selection.iter().filter_map(|&r| rows[r].as_deref()).collect();
                assert_eq!(&interner.qgram_profile(texts.iter()), profile);
                assert_eq!(
                    profile.norm().to_bits(),
                    interner.qgram_profile(texts.iter()).norm().to_bits()
                );
                assert_eq!(&interner.value_set(texts.iter().map(|text| normalized(text))), values);
            }
        }
        assert_eq!(interner.len(), len, "warm rebuilds issue no id");
    }
}
