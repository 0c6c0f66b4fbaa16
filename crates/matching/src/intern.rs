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
//!   scored in **one id space — the target's**. One `RwLock` guards the
//!   vocabulary. A 3-gram is looked up by its packed integer code with one
//!   hash probe, never as a string.
//! * [`InternedProfile`] — a q-gram frequency profile as a sorted
//!   `Vec<(u32, f64)>` sparse vector of **raw counts** plus its L2 norm.
//!   [`InternedProfile::cosine`] is a linear merge-join over the two id
//!   vectors — no string comparison, no tree walk, no hashing in the hot
//!   loop.
//! * [`InternedValueSet`] — a distinct-value set as a sorted `Vec<u32>`;
//!   [`InternedValueSet::jaccard`] is the same merge-join shape.
//! * `RowRuns` — one column's rows, each tokenized and looked up once:
//!   per row, its `(gram, count)` run and its value, indexed by
//!   column-local ids. The profile and value set of any subset of rows then
//!   assemble by summing the selected rows' counts, and equal, entry for
//!   entry and bit for bit, what [`GramInterner::resolve_qgram_profile`]
//!   and [`GramInterner::resolve_value_set`] build from those rows' texts.
//!   This is how `ScoreMatch` profiles a column restricted to each
//!   candidate view without re-tokenizing a value per view (through
//!   [`crate::ColumnRuns`]).
//!
//! ## Only target content gets ids
//!
//! Only **target** builds add strings: [`GramInterner::qgram_profile`] and
//! [`GramInterner::value_set`] issue ids to whatever the vocabulary lacks.
//! They build catalog tables and the target side of a cold run. Everything
//! on the source side — a submitted source's columns, a view's restricted
//! columns, their runs — **resolves** against the vocabulary under the read
//! guard and inserts nothing ([`GramInterner::resolve_qgram_profile`],
//! [`GramInterner::resolve_value_set`]). So an open-ended stream of
//! never-seen sources leaves the interner's length where the catalog put
//! it.
//!
//! A string the vocabulary lacks adds nothing to a dot product or an
//! intersection with any target: every target string has an id. It counts
//! only toward the source side's norm or distinct count, so a resolved
//! artifact keeps those over **all** of its strings, known and unknown
//! alike. A resolved profile also keeps the packed code and count of each
//! unknown gram, so it can be resolved again, or interned, without
//! re-tokenizing; a resolved value set keeps only how many values it
//! lacked.
//!
//! *Soundness rule.* A resolved artifact records the vocabulary length it
//! was resolved at ([`InternedProfile::resolved_len`]; unbounded when
//! nothing was unknown). Ids are issued densely and never reused, so every
//! string with an id below that length was in the vocabulary the artifact
//! was resolved against, and is none of its unknown strings. The artifact
//! is therefore exact against any target whose ids all lie below its
//! length ([`InternedProfile::covers`] with the target's
//! [`InternedProfile::id_bound`], or with [`crate::GramIndex::id_bound`] for
//! a whole indexed batch). Against any other target it is resolved again
//! first. Staleness is vocabulary growth, never a catalog version: an edit
//! that adds no string, or another catalog's growth in a shared interner,
//! leaves every resolved artifact valid.
//!
//! ## Numerical contract
//!
//! Counts are small exact integers, so every partial sum inside the cosine
//! dot product and the squared norm is an integer far below 2⁵³: the
//! additions are **exact** and therefore order-independent. A norm summed
//! over known and unknown grams is bit-equal to the norm of the fully
//! interned profile, and a Jaccard union counted over known and unknown
//! values divides the same integers. The kernel's result does not depend on
//! which ids the interner happened to assign, or on which strings it held,
//! so scores are deterministic across runs, threads and interners —
//! **interner independence is the contract**: a pair scored across two
//! interners is bit-equal to the same pair scored in one. The kernel
//! property tests in `tests/tests/property_based.rs` pin it, together with
//! agreement with the string-keyed reference kernels of
//! `cxm_tests::reference`: within 1e-12 for the cosine (the reference
//! normalizes each profile before the dot product and accumulates in gram
//! order, which rounds differently in the last ulps) and bit for bit for
//! Jaccard (both divide the same two integers).

use std::collections::{BTreeMap, BTreeSet, HashMap};
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

    /// Count one text's 3-grams: a known gram's id once per occurrence, an
    /// unknown gram's count by its packed code. The text is tokenized into
    /// `codes` first and looked up in a second loop, which keeps the
    /// tokenizer's state and the map probe out of each other's registers:
    /// fused into one loop, warm builds of the wide catalog's 1,200 target
    /// columns took about 1.5 times as long on the 2-core host.
    fn count_grams(
        &self,
        text: &str,
        codes: &mut Vec<u64>,
        known_ids: &mut Vec<u32>,
        unknown: &mut BTreeMap<u64, f64>,
    ) {
        codes.clear();
        cxm_classify::for_each_qgram(text, |gram| codes.push(pack(gram)));
        for &code in codes.iter() {
            match self.by_code.get(&code) {
                Some(&id) => known_ids.push(id),
                None => *unknown.entry(code).or_insert(0.0) += 1.0,
            }
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

/// The three Unicode scalars behind a packed code, `None` unless every
/// field is a scalar value (so a decoded code cannot render as garbage).
fn unpack(code: u64) -> Option<[char; 3]> {
    let field = |shift: u32| char::from_u32(((code >> shift) & 0x1F_FFFF) as u32);
    (code >> 63 == 0).then_some([field(42)?, field(21)?, field(0)?])
}

/// A string interner scoped to one matching universe (typically a target
/// catalog, shared with every source scored against it;
/// [`GramInterner::global`] is the process-wide default every
/// [`crate::ColumnData`] starts with).
///
/// Ids are dense, assigned in first-intern order, and stable for the
/// interner's lifetime; the interner never shrinks. Only target builds
/// issue ids ([`GramInterner::qgram_profile`], [`GramInterner::value_set`]);
/// source builds resolve without inserting (see the module docs). Ids from
/// *different* interners are not comparable — the matchers check interner
/// identity (`Arc::ptr_eq`) and resolve the source side of a mixed pair in
/// the target's interner.
///
/// Cost: a known 3-gram (or any three-scalar string) costs one integer hash
/// and one probe of a map keyed by its packed code; any other string costs
/// one hash of its text.
///
/// Concurrency: one `RwLock` guards the vocabulary. A build holds the read
/// guard for its whole lookup loop and reads the vocabulary's length under
/// the same guard, so a resolved artifact's length is exactly the
/// vocabulary it was checked against. A target build then takes the write
/// guard once to issue its misses, re-checking each one under it, so a
/// string another thread issued in between keeps that id. Growth is rare by
/// construction — only catalog edits add strings — so request-path builds
/// only ever share the read guard. The lock is a leaf: while it is held,
/// nothing outside this module runs but the caller's text iterator and the
/// q-gram tokenizer, and no thread takes it twice.
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

    /// Build the interned 3-gram count profile of a bag of texts — a
    /// **target** build: every gram the vocabulary lacks is issued an id, so
    /// the profile is complete. The profile keeps raw counts and their
    /// norm, so the dot product stays exact-integer arithmetic.
    ///
    /// The grams are resolved first ([`GramInterner::resolve_qgram_profile`])
    /// and the misses then issued in one batch, in gram-string order.
    ///
    /// `texts` is consumed under the interner's read lock, so it must not
    /// call into this interner.
    pub fn qgram_profile<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedProfile {
        self.resolve_qgram_profile(texts).interned(self)
    }

    /// Resolve the 3-gram count profile of a bag of texts against the
    /// vocabulary **without inserting** — a source build. A gram the
    /// vocabulary lacks keeps its packed code and count and counts toward
    /// the norm; the profile records the vocabulary length it was resolved
    /// at (see the module docs).
    ///
    /// Grams arrive as three scalars ([`cxm_classify::for_each_qgram`]) and
    /// a known gram costs one probe by its integer code, so the whole build
    /// renders, hashes or compares no string.
    ///
    /// `texts` is consumed under the interner's read lock, so it must not
    /// call into this interner.
    pub fn resolve_qgram_profile<T: AsRef<str>>(
        &self,
        texts: impl Iterator<Item = T>,
    ) -> InternedProfile {
        let mut known_ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeMap<u64, f64> = BTreeMap::new();
        let resolved_len = {
            let vocabulary = self.read();
            let mut codes = Vec::new();
            for text in texts {
                vocabulary.count_grams(text.as_ref(), &mut codes, &mut known_ids, &mut unknown);
            }
            vocabulary.by_id.len()
        };
        // Run-length encode the sorted hit ids: no hashing on the hit path.
        known_ids.sort_unstable();
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for id in known_ids {
            match entries.last_mut() {
                Some((last, count)) if *last == id => *count += 1.0,
                _ => entries.push((id, 1.0)),
            }
        }
        InternedProfile::resolved_unchecked(entries, unknown.into_iter().collect(), resolved_len)
    }

    /// Build the interned distinct-value set of a bag of already-normalized
    /// texts — a **target** build: every value the vocabulary lacks is
    /// issued an id, in string order. `texts` is consumed under the
    /// interner's read lock, so it must not call into this interner.
    pub fn value_set<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedValueSet {
        let (mut ids, unknown, _) = self.read_values(texts);
        if !unknown.is_empty() {
            // A hit's id is below the vocabulary's length during the read
            // phase and a miss's id at or above it, so no id appears twice.
            ids.extend(self.grow(unknown.into_iter().collect()));
            ids.sort_unstable();
        }
        ids.shrink_to_fit();
        InternedValueSet { ids, unknown: 0, resolved_len: usize::MAX }
    }

    /// Resolve the distinct-value set of a bag of already-normalized texts
    /// against the vocabulary **without inserting** — a source build. The
    /// set keeps the ids of the values the vocabulary holds, how many
    /// distinct values it lacked, and the vocabulary length it was resolved
    /// at. `texts` is consumed under the interner's read lock, so it must
    /// not call into this interner.
    pub fn resolve_value_set<T: AsRef<str>>(
        &self,
        texts: impl Iterator<Item = T>,
    ) -> InternedValueSet {
        let (mut ids, unknown, resolved_len) = self.read_values(texts);
        ids.shrink_to_fit();
        InternedValueSet::resolved_unchecked(ids, unknown.len(), resolved_len)
    }

    /// The read phase of a value-set build: the sorted distinct ids of the
    /// values the vocabulary holds, the distinct values it lacks (in string
    /// order), and the vocabulary's length under the same guard.
    fn read_values<T: AsRef<str>>(
        &self,
        texts: impl Iterator<Item = T>,
    ) -> (Vec<u32>, BTreeSet<String>, usize) {
        let mut ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeSet<String> = BTreeSet::new();
        let len = {
            let vocabulary = self.read();
            for text in texts {
                let text = text.as_ref();
                match vocabulary.get(text) {
                    Some(id) => ids.push(id),
                    None => {
                        if !unknown.contains(text) {
                            unknown.insert(text.to_string());
                        }
                    }
                }
            }
            vocabulary.by_id.len()
        };
        ids.sort_unstable();
        ids.dedup();
        (ids, unknown, len)
    }

    /// Tokenize and resolve every row of a column once, inserting nothing:
    /// `rows` yields, per row, `None` for a NULL and otherwise the text to
    /// 3-gram (as [`GramInterner::resolve_qgram_profile`] takes it) and the
    /// already-normalized value text (as [`GramInterner::resolve_value_set`]
    /// takes it).
    ///
    /// Every lookup happens under one read guard, and the runs record the
    /// vocabulary length read under it. `rows` is consumed under the read
    /// lock, so it must not call into this interner.
    pub(crate) fn row_runs<T: AsRef<str>, V: AsRef<str>>(
        &self,
        rows: impl Iterator<Item = Option<(T, V)>>,
    ) -> RowRuns {
        // Grams and values get column-local ids in first-seen order: an
        // occurrence probes a small map of the column's own grams by packed
        // code, and only a distinct gram probes the vocabulary. A gram's
        // rank key is `(false, id)` when the vocabulary holds it and
        // `(true, code)` when it does not; a value's is `(false, id)` or
        // `(true, local)`. Each row's run is run-length encoded as it is
        // read (`last_row` and `run_at` remember where a gram last counted).
        let mut gram_local: HashMap<u64, u32, CodeKey> = HashMap::default();
        let mut gram_keys: Vec<(bool, u64)> = Vec::new();
        let mut last_row: Vec<usize> = Vec::new();
        let mut run_at: Vec<usize> = Vec::new();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut offsets: Vec<usize> = vec![0];
        let mut value_local: HashMap<u32, u32> = HashMap::new();
        let mut value_keys: Vec<(bool, u64)> = Vec::new();
        let mut value_misses: BTreeMap<String, u32> = BTreeMap::new();
        let mut values: Vec<u32> = Vec::new();
        let resolved_len = {
            let vocabulary = self.read();
            for (row, text_and_value) in rows.enumerate() {
                values.push(text_and_value.map_or(RowRuns::NULL, |(text, value)| {
                    cxm_classify::for_each_qgram(text.as_ref(), |gram| {
                        let code = pack(gram);
                        let local = *gram_local.entry(code).or_insert_with(|| {
                            let local = next_local(&gram_keys);
                            gram_keys.push(match vocabulary.by_code.get(&code) {
                                Some(&id) => (false, u64::from(id)),
                                None => (true, code),
                            });
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
                    let next = next_local(&value_keys);
                    let id = vocabulary.get(value);
                    let local = match id {
                        Some(id) => *value_local.entry(id).or_insert(next),
                        None => match value_misses.get(value) {
                            Some(&local) => local,
                            None => *value_misses.entry(value.to_string()).or_insert(next),
                        },
                    };
                    if local == next {
                        value_keys
                            .push(id.map_or((true, u64::from(next)), |id| (false, id.into())));
                    }
                    local
                }));
                offsets.push(runs.len());
            }
            vocabulary.by_id.len()
        };

        // Renumber both kinds of local id by rank key: known strings first,
        // in interner-id order, then unknown ones, so an ascending sweep over
        // local ids emits sorted entries and sorted unknown codes.
        let (gram_keys, gram_rank) = rank(gram_keys);
        for run in &mut runs {
            run.0 = gram_rank[run.0 as usize];
        }
        let known_grams = gram_keys.partition_point(|&(unknown, _)| !unknown);
        let gram_ids = gram_keys[..known_grams].iter().map(|&(_, id)| id as u32).collect();
        let gram_codes = gram_keys[known_grams..].iter().map(|&(_, code)| code).collect();
        let (value_keys, value_rank) = rank(value_keys);
        for value in values.iter_mut().filter(|value| **value != RowRuns::NULL) {
            *value = value_rank[*value as usize];
        }
        let known_values = value_keys.partition_point(|&(unknown, _)| !unknown);
        RowRuns {
            offsets,
            runs,
            gram_ids,
            gram_codes,
            values,
            value_ids: value_keys[..known_values].iter().map(|&(_, id)| id as u32).collect(),
            unknown_values: value_keys.len() - known_values,
            resolved_len,
        }
    }
}

/// The column-local id the next distinct gram or value gets.
fn next_local<T>(keys: &[T]) -> u32 {
    u32::try_from(keys.len()).expect("a column's strings fit the interner's id space")
}

/// First-seen local ids renumbered in key order: the keys ascending, and
/// each first-seen local id's new id. Distinct strings have distinct keys,
/// so the order is strict.
fn rank(keys: Vec<(bool, u64)>) -> (Vec<(bool, u64)>, Vec<u32>) {
    let mut by_key: Vec<u32> = (0..=u32::MAX).take(keys.len()).collect();
    by_key.sort_unstable_by_key(|&local| keys[local as usize]);
    let mut rank = vec![0; keys.len()];
    for (new, &local) in (0..).zip(&by_key) {
        rank[local as usize] = new;
    }
    (by_key.iter().map(|&local| keys[local as usize]).collect(), rank)
}

/// Per-row resolved runs of one column, built by `GramInterner::row_runs`:
/// each row tokenized and looked up once, so the q-gram profile and
/// distinct-value set of **any subset of rows** assemble without touching a
/// string.
///
/// Rows keep their position (a NULL row has an empty run and no value), so
/// a base table's row indices — a view's selection — address them
/// directly. Grams and values are stored by **column-local** id: the known
/// ones first, ranked by interner id, then the ones the vocabulary lacked
/// (grams ranked by packed code). Assembly is one dense add per run entry
/// and one ascending sweep that emits id-sorted entries and code-sorted
/// unknown grams at their exact length. Counts stay integers until the
/// sweep, so an assembled profile equals the one
/// [`GramInterner::resolve_qgram_profile`] builds from the same rows' texts
/// at the same vocabulary, entry for entry and norm bit for norm bit; the
/// same holds for value sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowRuns {
    /// Row `r`'s run is `runs[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    /// `(local gram id, count)`, one entry per distinct gram of a row.
    runs: Vec<(u32, u32)>,
    /// Local gram id → interner id for the known grams, ascending.
    gram_ids: Vec<u32>,
    /// Local gram id `gram_ids.len() + i` → packed code of an unknown
    /// gram, ascending.
    gram_codes: Vec<u64>,
    /// Row `r`'s local value id, or `RowRuns::NULL`.
    values: Vec<u32>,
    /// Local value id → interner id for the known values, ascending; local
    /// ids from `value_ids.len()` on are values the vocabulary lacked.
    value_ids: Vec<u32>,
    /// How many distinct values the vocabulary lacked.
    unknown_values: usize,
    /// The vocabulary length the rows were resolved at.
    resolved_len: usize,
}

impl RowRuns {
    /// The local value id of a NULL row.
    const NULL: u32 = u32::MAX;

    /// The resolved 3-gram profile of the given rows (indices of rows the
    /// runs were built from; NULL rows contribute nothing).
    pub(crate) fn qgram_profile(&self, rows: &[usize]) -> InternedProfile {
        let mut counts = vec![0u64; self.gram_ids.len() + self.gram_codes.len()];
        let mut distinct = 0;
        for &row in rows {
            for &(local, count) in &self.runs[self.offsets[row]..self.offsets[row + 1]] {
                let sum = &mut counts[local as usize];
                distinct += usize::from(*sum == 0);
                *sum += u64::from(count);
            }
        }
        let (known, unknown) = counts.split_at(self.gram_ids.len());
        let mut entries = Vec::with_capacity(distinct);
        // Exact: a count is far below 2⁵³.
        for (&id, &count) in self.gram_ids.iter().zip(known) {
            if count > 0 {
                entries.push((id, count as f64));
            }
        }
        let unknown = self
            .gram_codes
            .iter()
            .zip(unknown)
            .filter(|&(_, &count)| count > 0)
            .map(|(&code, &count)| (code, count as f64))
            .collect();
        InternedProfile::resolved_unchecked(entries, unknown, self.resolved_len)
    }

    /// The resolved distinct-value set of the given rows (indices of rows
    /// the runs were built from; NULL rows contribute nothing).
    pub(crate) fn value_set(&self, rows: &[usize]) -> InternedValueSet {
        let mut seen = vec![false; self.value_ids.len() + self.unknown_values];
        let mut distinct = 0;
        for &row in rows {
            let local = self.values[row];
            if local != RowRuns::NULL && !seen[local as usize] {
                seen[local as usize] = true;
                distinct += 1;
            }
        }
        let (known, unknown) = seen.split_at(self.value_ids.len());
        let mut ids = Vec::with_capacity(distinct);
        ids.extend(self.value_ids.iter().zip(known).filter(|&(_, &seen)| seen).map(|(&id, _)| id));
        let unknown = unknown.iter().filter(|&&seen| seen).count();
        InternedValueSet::resolved_unchecked(ids, unknown, self.resolved_len)
    }
}

/// A q-gram frequency profile in interned sparse-vector form: `(gram id, raw
/// count)` sorted by id, plus the L2 norm of the count vector. Counts are
/// exact small integers, which makes [`InternedProfile::cosine`]
/// order-independent and deterministic (see the module docs).
///
/// A **resolved** (source-side) profile also keeps the packed code and
/// count of every gram the vocabulary lacked, sorted by code, and the
/// vocabulary length it was resolved at; its norm counts those grams too.
/// A **complete** profile — every target profile — has none.
#[derive(Debug, Clone, PartialEq)]
pub struct InternedProfile {
    entries: Vec<(u32, f64)>,
    /// `(packed code, raw count)` of the grams the vocabulary lacked.
    unknown: Vec<(u64, f64)>,
    norm: f64,
    /// Vocabulary length at resolution; `usize::MAX` when `unknown` is
    /// empty.
    resolved_len: usize,
}

impl InternedProfile {
    /// Assemble a complete profile from id-sorted `(id, count)` entries.
    pub fn from_counts(entries: Vec<(u32, f64)>) -> Self {
        InternedProfile::resolved_unchecked(entries, Vec::new(), usize::MAX)
    }

    /// Assemble a resolved profile from id-sorted `(id, count)` entries, the
    /// code-sorted `(packed code, count)` of the grams the vocabulary lacked
    /// and the vocabulary length it was resolved at. This is the decode-side
    /// constructor of warm-state persistence: `None` unless both lists are
    /// strictly sorted, every id lies below `resolved_len` and every code is
    /// three Unicode scalars.
    pub fn resolved(
        entries: Vec<(u32, f64)>,
        unknown: Vec<(u64, f64)>,
        resolved_len: usize,
    ) -> Option<Self> {
        let sorted = entries.windows(2).all(|w| w[0].0 < w[1].0)
            && unknown.windows(2).all(|w| w[0].0 < w[1].0);
        let in_space = entries.last().is_none_or(|&(id, _)| (id as usize) < resolved_len);
        let codes = unknown.iter().all(|&(code, _)| unpack(code).is_some());
        (sorted && in_space && codes)
            .then(|| InternedProfile::resolved_unchecked(entries, unknown, resolved_len))
    }

    fn resolved_unchecked(
        entries: Vec<(u32, f64)>,
        unknown: Vec<(u64, f64)>,
        resolved_len: usize,
    ) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be id-sorted");
        debug_assert!(unknown.windows(2).all(|w| w[0].0 < w[1].0), "codes must be sorted");
        // Exact: every square and partial sum is an integer below 2⁵³.
        let counts = entries.iter().map(|&(_, c)| c).chain(unknown.iter().map(|&(_, c)| c));
        let squares = counts.map(|c| c * c);
        let norm = squares.sum::<f64>().sqrt();
        let resolved_len = if unknown.is_empty() { usize::MAX } else { resolved_len };
        InternedProfile { entries, unknown, norm, resolved_len }
    }

    /// The sorted `(gram id, raw count)` entries of the grams the
    /// vocabulary holds.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The code-sorted `(packed code, raw count)` of the grams the
    /// vocabulary lacked at resolution (empty for a complete profile).
    pub fn unknown(&self) -> &[(u64, f64)] {
        &self.unknown
    }

    /// L2 norm of the raw count vector, over known and unknown grams.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Number of distinct grams, known and unknown.
    pub fn len(&self) -> usize {
        self.entries.len() + self.unknown.len()
    }

    /// True when the profile has no grams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vocabulary length the profile was resolved at, `usize::MAX` for
    /// a complete profile (nothing was unknown).
    pub fn resolved_len(&self) -> usize {
        self.resolved_len
    }

    /// True when every gram has an id (a target profile).
    pub fn is_complete(&self) -> bool {
        self.unknown.is_empty()
    }

    /// One past the largest id the profile holds: a source artifact is
    /// exact against this profile when it [`covers`](Self::covers) it.
    pub fn id_bound(&self) -> usize {
        self.entries.last().map_or(0, |&(id, _)| id as usize + 1)
    }

    /// True when this profile is exact against every target whose ids all
    /// lie below `bound`: every such target string was in the vocabulary
    /// when this profile was resolved.
    pub fn covers(&self, bound: usize) -> bool {
        bound <= self.resolved_len
    }

    /// This profile resolved again at `interner`'s current vocabulary: each
    /// unknown gram is looked up by its code, with no re-tokenizing. The
    /// counts, and so the norm, are unchanged.
    pub(crate) fn resolved_again(&self, interner: &GramInterner) -> InternedProfile {
        let mut unknown = Vec::new();
        let mut entries = self.entries.clone();
        let resolved_len = {
            let vocabulary = interner.read();
            for &(code, count) in &self.unknown {
                match vocabulary.by_code.get(&code) {
                    Some(&id) => entries.push((id, count)),
                    None => unknown.push((code, count)),
                }
            }
            vocabulary.by_id.len()
        };
        entries.sort_unstable_by_key(|&(id, _)| id);
        let resolved_len = if unknown.is_empty() { usize::MAX } else { resolved_len };
        InternedProfile { entries, unknown, norm: self.norm, resolved_len }
    }

    /// This profile with every unknown gram issued an id in `interner`, in
    /// code (= gram-string) order: complete, with the same counts and norm.
    pub(crate) fn interned(self, interner: &GramInterner) -> InternedProfile {
        if self.unknown.is_empty() {
            return self;
        }
        let texts = self.unknown.iter().map(|&(code, _)| {
            unpack(code).expect("resolved codes are three scalars").iter().collect()
        });
        let ids = interner.grow(texts.collect());
        let mut entries = self.entries;
        entries.extend(ids.into_iter().zip(self.unknown.iter().map(|&(_, count)| count)));
        entries.sort_unstable_by_key(|&(id, _)| id);
        InternedProfile { entries, unknown: Vec::new(), norm: self.norm, resolved_len: usize::MAX }
    }

    /// Cosine similarity of two profiles — a single linear merge-join over
    /// the sorted id vectors. Both profiles must come from the same
    /// interner, and the source side must cover the target; the matchers
    /// guarantee both by scoring in the target's.
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
///
/// A **resolved** (source-side) set also counts the distinct values the
/// vocabulary lacked, and records the vocabulary length it was resolved at
/// (see [`InternedProfile`]); [`InternedValueSet::len`] counts both kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedValueSet {
    ids: Vec<u32>,
    /// Distinct values the vocabulary lacked.
    unknown: usize,
    /// Vocabulary length at resolution; `usize::MAX` when `unknown` is 0.
    resolved_len: usize,
}

impl InternedValueSet {
    /// The empty set, usable in `const`/`static` position (no interner
    /// involved — an empty set is valid against any id space).
    pub const fn empty() -> InternedValueSet {
        InternedValueSet { ids: Vec::new(), unknown: 0, resolved_len: usize::MAX }
    }

    /// Assemble a complete set from ids that must already be strictly
    /// increasing (sorted, no duplicates) — `None` otherwise. This is the
    /// decode-side constructor used by warm-state persistence; rejecting
    /// unsorted input here keeps the merge-join kernels' precondition intact
    /// no matter what bytes a snapshot file held.
    pub fn from_sorted_ids(ids: Vec<u32>) -> Option<InternedValueSet> {
        InternedValueSet::resolved(ids, 0, usize::MAX)
    }

    /// Assemble a resolved set from strictly increasing ids below
    /// `resolved_len`, the number of distinct values the vocabulary lacked
    /// and the vocabulary length it was resolved at — `None` otherwise (the
    /// decode-side constructor, like [`InternedValueSet::from_sorted_ids`]).
    pub fn resolved(ids: Vec<u32>, unknown: usize, resolved_len: usize) -> Option<Self> {
        let sorted = ids.windows(2).all(|w| w[0] < w[1]);
        let in_space = ids.last().is_none_or(|&id| (id as usize) < resolved_len);
        (sorted && in_space)
            .then(|| InternedValueSet::resolved_unchecked(ids, unknown, resolved_len))
    }

    fn resolved_unchecked(ids: Vec<u32>, unknown: usize, resolved_len: usize) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let resolved_len = if unknown == 0 { usize::MAX } else { resolved_len };
        InternedValueSet { ids, unknown, resolved_len }
    }

    /// The sorted distinct ids of the values the vocabulary holds.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Distinct values the vocabulary lacked at resolution (0 for a
    /// complete set).
    pub fn unknown(&self) -> usize {
        self.unknown
    }

    /// Number of distinct values, known and unknown.
    pub fn len(&self) -> usize {
        self.ids.len() + self.unknown
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vocabulary length the set was resolved at, `usize::MAX` for a
    /// complete set.
    pub fn resolved_len(&self) -> usize {
        self.resolved_len
    }

    /// True when every value has an id (a target set).
    pub fn is_complete(&self) -> bool {
        self.unknown == 0
    }

    /// One past the largest id the set holds (see
    /// [`InternedProfile::id_bound`]).
    pub fn id_bound(&self) -> usize {
        self.ids.last().map_or(0, |&id| id as usize + 1)
    }

    /// True when this set is exact against every target whose ids all lie
    /// below `bound` (see [`InternedProfile::covers`]).
    pub fn covers(&self, bound: usize) -> bool {
        bound <= self.resolved_len
    }

    /// Jaccard similarity of two sets — intersection by merge-join, union by
    /// inclusion–exclusion over the full distinct counts, unknown values
    /// included. Divides the same two integers as a string-keyed `BTreeSet`
    /// kernel, so the result is bit-identical to it.
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
        let union = self.len() + other.len() - inter;
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
        // Run passes race target builds (and each other) that issue some of
        // the same strings while a pass reads: the passes issue nothing, and
        // every artifact assembled from the runs, resolved again where it no
        // longer covers the warm vocabulary, equals a resolving build of the
        // same rows on the warm interner.
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
        assert_eq!(interner.lookup("t0 r0 v0"), None, "a run pass issues no id");
        for (rows, selections, assembled) in &recorded {
            for (selection, (profile, values)) in selections.iter().zip(assembled) {
                let texts: Vec<&str> =
                    selection.iter().filter_map(|&r| rows[r].as_deref()).collect();
                let fresh = interner.resolve_qgram_profile(texts.iter());
                let current = if profile.covers(len) {
                    profile.clone()
                } else {
                    profile.resolved_again(&interner)
                };
                assert_eq!(current, fresh);
                assert_eq!(profile.norm().to_bits(), fresh.norm().to_bits());
                let fresh_values = interner.resolve_value_set(texts.iter().map(|t| normalized(t)));
                assert_eq!(values.len(), fresh_values.len(), "the union counts every value");
                if values.covers(len) {
                    assert_eq!(values, &fresh_values);
                }
            }
        }
        assert_eq!(interner.len(), len, "resolving builds issue no id");
    }

    #[test]
    fn sources_resolving_while_a_target_grows_score_like_fresh_builds() {
        // Threads resolve source columns (plain builds and runs) while
        // another thread builds targets that add strings the sources hold.
        // Every source artifact either covers the target it is scored
        // against or is resolved again first, and then scores bit-equal to
        // a fresh single-threaded build on the warm interner.
        let interner = GramInterner::new();
        let normalized = |text: &str| text.trim().to_ascii_lowercase();
        let source = |t: usize| -> Vec<String> {
            (0..40).map(|i| format!("Item {} of batch {t} ", i % 13 + t)).collect()
        };
        let targets: Vec<Vec<String>> = (0..12)
            .map(|round| (0..10).map(|i| format!("item {} of batch {round}", i + round)).collect())
            .collect();
        let start = std::sync::Barrier::new(4);
        type Resolved = (usize, InternedProfile, InternedValueSet);
        let (built, resolved): (Vec<(InternedProfile, InternedValueSet)>, Vec<Resolved>) =
            std::thread::scope(|scope| {
                let (interner, targets, start) = (&interner, &targets, &start);
                let builder = scope.spawn(move || {
                    start.wait();
                    targets
                        .iter()
                        .map(|texts| {
                            let profile = interner.qgram_profile(texts.iter());
                            (profile, interner.value_set(texts.iter().map(|t| normalized(t))))
                        })
                        .collect::<Vec<_>>()
                });
                let resolvers: Vec<_> = (0..3)
                    .map(|t| {
                        scope.spawn(move || {
                            start.wait();
                            let mut out = Vec::new();
                            for round in 0..12 {
                                let texts = source(t + round);
                                let (profile, values) = if round % 2 == 0 {
                                    let profile = interner.resolve_qgram_profile(texts.iter());
                                    let values = interner
                                        .resolve_value_set(texts.iter().map(|t| normalized(t)));
                                    (profile, values)
                                } else {
                                    let runs = interner.row_runs(
                                        texts.iter().map(|text| Some((text, normalized(text)))),
                                    );
                                    let rows: Vec<usize> = (0..texts.len()).collect();
                                    (runs.qgram_profile(&rows), runs.value_set(&rows))
                                };
                                out.push((t + round, profile, values));
                            }
                            out
                        })
                    })
                    .collect();
                let built = builder.join().unwrap();
                (built, resolvers.into_iter().flat_map(|h| h.join().unwrap()).collect())
            });
        let len = interner.len();
        for (batch, profile, values) in &resolved {
            let texts = source(*batch);
            let fresh = interner.resolve_qgram_profile(texts.iter());
            let fresh_values = interner.resolve_value_set(texts.iter().map(|t| normalized(t)));
            assert_eq!(fresh.resolved_len().min(len), len, "nothing grows after the race");
            for (target, target_values) in &built {
                let profile = if profile.covers(target.id_bound()) {
                    profile.clone()
                } else {
                    profile.resolved_again(&interner)
                };
                assert!(profile.covers(target.id_bound()));
                assert_eq!(profile.cosine(target).to_bits(), fresh.cosine(target).to_bits());
                // A value set that no longer covers is rebuilt, as a column
                // rebuilds it.
                let values = if values.covers(target_values.id_bound()) {
                    values.clone()
                } else {
                    interner.resolve_value_set(texts.iter().map(|t| normalized(t)))
                };
                assert_eq!(
                    values.jaccard(target_values).to_bits(),
                    fresh_values.jaccard(target_values).to_bits()
                );
            }
        }
        assert_eq!(interner.len(), len, "resolving builds issue no id");
    }
}
