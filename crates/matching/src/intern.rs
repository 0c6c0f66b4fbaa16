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
//!   Reads go through a **frozen snapshot** (one brief lock to clone the
//!   `Arc`, then every lookup is lock-free); a 3-gram is looked up by its
//!   packed integer code with one hash probe, never as a string. Growth
//!   appends under a mutex and publishes a new snapshot. After warm-up the
//!   gram vocabulary stops growing and builds never touch the growth lock.
//! * [`InternedProfile`] — a q-gram frequency profile as a sorted
//!   `Vec<(u32, f64)>` sparse vector of **raw counts** plus its L2 norm.
//!   [`InternedProfile::cosine`] is a linear merge-join over the two id
//!   vectors — no string comparison, no tree walk, no hashing in the hot
//!   loop.
//! * [`InternedValueSet`] — a distinct-value set as a sorted `Vec<u32>`;
//!   [`InternedValueSet::jaccard`] is the same merge-join shape.
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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Process-wide instrumentation of the kernels: every q-gram cosine /
/// value-overlap Jaccard evaluation records whether it ran the merge-join or
/// was answered from an inverted-index hint.
pub mod telemetry {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static INTERNED_KERNEL_SCORES: AtomicUsize = AtomicUsize::new(0);
    static PRUNED_KERNEL_SCORES: AtomicUsize = AtomicUsize::new(0);

    /// Scores served by the interned merge-join kernels so far.
    pub fn interned_kernel_scores() -> usize {
        INTERNED_KERNEL_SCORES.load(Ordering::Relaxed)
    }

    /// Scores answered from an inverted-index pruning hint (the merge-join
    /// was skipped because the gram index proved the pair shares nothing).
    pub fn pruned_kernel_scores() -> usize {
        PRUNED_KERNEL_SCORES.load(Ordering::Relaxed)
    }

    pub(crate) fn record_interned_score() {
        INTERNED_KERNEL_SCORES.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_pruned_score() {
        PRUNED_KERNEL_SCORES.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the process-global kernel counters, for scoped
    /// before/after accounting. The counters themselves are monotonic for
    /// the life of the process (many subsystems diff them concurrently);
    /// benchmarks and tests that need *per-run* numbers take a snapshot
    /// before the run and read [`KernelCounters::delta`] after, instead of
    /// resetting state other measurements may be mid-flight over.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct KernelCounters {
        /// Interned merge-join scores at snapshot time.
        pub interned: usize,
        /// Index-pruned (merge-join skipped) scores at snapshot time.
        pub pruned: usize,
    }

    impl KernelCounters {
        /// The current values of both kernel counters.
        pub fn snapshot() -> Self {
            KernelCounters { interned: interned_kernel_scores(), pruned: pruned_kernel_scores() }
        }

        /// Counter growth since this snapshot was taken. Meaningful only
        /// while no other thread is scoring (the same sequential-attribution
        /// contract as the service's per-request telemetry).
        pub fn delta(&self) -> Self {
            let now = KernelCounters::snapshot();
            KernelCounters {
                interned: now.interned - self.interned,
                pruned: now.pruned - self.pruned,
            }
        }
    }
}

/// The lookup state one generation of readers works against, `Arc`-shared
/// so publishing generation *n+1* is one pointer swap.
///
/// Strings of exactly three Unicode scalars — every 3-gram, and any
/// three-scalar value — are keyed by their packed code ([`pack`]) in
/// [`PackedTable`]; every other string in the path-copying hash trie
/// ([`PersistentMap`]); id → string in the chunked append-only store
/// ([`ChunkedIds`]). Publishing costs amortised O(batch), not
/// O(vocabulary): full id chunks and untouched trie subtrees are shared
/// with the previous generation, and the packed table is shared too —
/// growth appends into it, and a generation only sees the ids below its
/// own length — until it must double, which is amortised over the entries
/// that filled it.
#[derive(Debug, Clone)]
struct Frozen {
    packed: Arc<PackedTable>,
    /// Entries of `packed` issued up to this generation (the writer's load
    /// count; the shared table may already hold later generations' ids).
    packed_len: usize,
    by_text: PersistentMap,
    by_id: ChunkedIds,
}

impl Default for Frozen {
    fn default() -> Self {
        Frozen {
            packed: Arc::new(PackedTable::with_capacity(0)),
            packed_len: 0,
            by_text: PersistentMap::default(),
            by_id: ChunkedIds::default(),
        }
    }
}

impl Frozen {
    /// The id of a packed 3-scalar code, if issued in this generation.
    fn get_packed(&self, code: u64) -> Option<u32> {
        self.packed.get(code, self.by_id.len())
    }

    /// The id of any string, if issued in this generation.
    fn get(&self, text: &str) -> Option<u32> {
        match pack_str(text) {
            Some(code) => self.get_packed(code),
            None => self.by_text.get(text),
        }
    }

    /// Issue the next id to a string that is **not present**. Writers only,
    /// under the growth lock: the packed table is shared with published
    /// generations, which ignore the new entry until they are superseded.
    fn insert(&mut self, text: String) -> u32 {
        let id = u32::try_from(self.by_id.len()).expect("grow checked the id space");
        let shared: Arc<str> = text.into();
        match pack_str(&shared) {
            Some(code) => {
                if self.packed.is_full_at(self.packed_len + 1) {
                    self.packed = Arc::new(self.packed.doubled());
                }
                self.packed.insert(code, id);
                self.packed_len += 1;
            }
            None => self.by_text.insert(Arc::clone(&shared), id),
        }
        self.by_id.push(shared);
        id
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

/// Marks an occupied [`PackedTable`] slot (codes use only the low 63 bits).
const OCCUPIED: u64 = 1 << 63;

/// One [`PackedTable`] slot: `key` is `code | OCCUPIED` once filled, 0 while
/// empty. The writer stores `id` before it releases `key`, so a reader that
/// acquires a matching key reads that entry's id.
#[derive(Debug, Default)]
struct PackedSlot {
    key: AtomicU64,
    id: AtomicU32,
}

/// A flat, append-only, open-addressing (linear probing) table from packed
/// 3-scalar code to id. A lookup is one multiplicative hash of the code and
/// a probe run that ends at the key or at an empty slot — no string
/// rendering, byte hashing or string compare.
///
/// The table is shared by consecutive generations: the single writer (the
/// growth lock holder) fills empty slots in place, and a reader accepts an
/// entry only when its id is below its own generation's length, so every
/// generation sees exactly the ids it was published with. Slots are never
/// cleared, so a probe run never skips an entry that was present when the
/// reader's generation was published. At half load the writer moves to a
/// [`PackedTable::doubled`] copy; older generations keep the old table.
#[derive(Debug)]
struct PackedTable {
    slots: Box<[PackedSlot]>,
    /// `64 - log2(slots.len())`: the hash's top bits index the table.
    shift: u32,
}

impl PackedTable {
    /// An empty table with room for `entries` codes at half load.
    fn with_capacity(entries: usize) -> Self {
        let len = (2 * entries).next_power_of_two().max(64);
        PackedTable {
            slots: (0..len).map(|_| PackedSlot::default()).collect(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// True when holding `entries` codes would pass half load.
    fn is_full_at(&self, entries: usize) -> bool {
        2 * entries > self.slots.len()
    }

    fn home(&self, code: u64) -> usize {
        (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The id stored for `code`, if it is below `visible` (the reader's
    /// generation length).
    fn get(&self, code: u64, visible: usize) -> Option<u32> {
        let key = code | OCCUPIED;
        let mask = self.slots.len() - 1;
        let mut i = self.home(code);
        loop {
            let slot = &self.slots[i];
            match slot.key.load(Ordering::Acquire) {
                0 => return None,
                k if k == key => {
                    let id = slot.id.load(Ordering::Relaxed);
                    return ((id as usize) < visible).then_some(id);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Store an absent `code`. Single writer only; the caller keeps the
    /// load at or below half, so an empty slot always exists.
    fn insert(&self, code: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(code);
        while self.slots[i].key.load(Ordering::Relaxed) != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i].id.store(id, Ordering::Relaxed);
        self.slots[i].key.store(code | OCCUPIED, Ordering::Release);
    }

    /// A copy with twice the slots holding every entry of this table.
    fn doubled(&self) -> PackedTable {
        let next = PackedTable::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let key = slot.key.load(Ordering::Relaxed);
            if key != 0 {
                next.insert(key & !OCCUPIED, slot.id.load(Ordering::Relaxed));
            }
        }
        next
    }
}

/// Log₂ of the chunk size of the append-only id store.
const CHUNK_BITS: usize = 10;
/// Strings per chunk (1024): small enough that cloning the trailing partial
/// chunk is cheap, large enough that the chunk directory stays tiny.
const CHUNK: usize = 1 << CHUNK_BITS;

/// Append-only id → string store in fixed-size chunks. Every **full** chunk
/// is frozen behind an `Arc` and shared by all later generations; growth
/// clones only the chunk directory (one pointer per chunk) and the trailing
/// partial chunk, so cloning costs O(batch + vocabulary / CHUNK) instead of
/// O(vocabulary).
#[derive(Debug, Default, Clone)]
struct ChunkedIds {
    /// Completed, immutable chunks of exactly [`CHUNK`] strings each.
    full: Vec<Arc<[Arc<str>]>>,
    /// The growing tail (fewer than [`CHUNK`] strings).
    tail: Vec<Arc<str>>,
}

impl ChunkedIds {
    fn len(&self) -> usize {
        (self.full.len() << CHUNK_BITS) + self.tail.len()
    }

    fn get(&self, id: usize) -> Option<&Arc<str>> {
        let (chunk, offset) = (id >> CHUNK_BITS, id & (CHUNK - 1));
        match chunk.cmp(&self.full.len()) {
            std::cmp::Ordering::Less => self.full[chunk].get(offset),
            std::cmp::Ordering::Equal => self.tail.get(offset),
            std::cmp::Ordering::Greater => None,
        }
    }

    fn push(&mut self, text: Arc<str>) {
        self.tail.push(text);
        if self.tail.len() == CHUNK {
            self.full.push(std::mem::take(&mut self.tail).into());
        }
    }
}

/// Bits of hash consumed per trie level (32-way branching).
const TRIE_BITS: u32 = 5;
const TRIE_MASK: u64 = (1 << TRIE_BITS) - 1;
/// Deepest shift a split can reach: two distinct 64-bit hashes always differ
/// in some 5-bit window at or before this shift, so traversal never shifts a
/// `u64` by its full width.
const TRIE_MAX_SHIFT: u32 = 60;

/// One node of the persistent gram → id trie.
#[derive(Debug)]
enum MapNode {
    /// Interior node: a bitmap-compressed array of up to 32 children,
    /// indexed by the next [`TRIE_BITS`] bits of the key hash.
    Branch { bitmap: u32, children: Vec<Arc<MapNode>> },
    /// Terminal node: the entries whose key hash equals `hash` (normally
    /// exactly one; more only on a full 64-bit hash collision).
    Leaf { hash: u64, entries: Vec<(Arc<str>, u32)> },
}

/// A persistent (immutable, path-copying) hash trie from interned string to
/// id. `clone` is O(1) (one root `Arc`); `insert` copies only the O(log n)
/// nodes on the key's path and shares every other subtree with the previous
/// generation — which is what makes publishing a grown interner snapshot
/// O(batch). Lookups walk at most 13 levels (64 hash bits / 5 per level).
#[derive(Debug, Default, Clone)]
struct PersistentMap {
    root: Option<Arc<MapNode>>,
    len: usize,
}

/// Hash of a trie key — the workspace's deterministic FNV-1a
/// ([`cxm_relational::Fnv64`]), fixed (not `RandomState`) so trie shapes are
/// reproducible within a process; nothing is persisted across processes.
fn trie_hash(key: &str) -> u64 {
    let mut h = cxm_relational::Fnv64::new();
    h.write_bytes(key.as_bytes());
    h.finish()
}

impl PersistentMap {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: &str) -> Option<u32> {
        let hash = trie_hash(key);
        let mut node = self.root.as_deref()?;
        let mut shift = 0u32;
        loop {
            match node {
                MapNode::Leaf { hash: leaf_hash, entries } => {
                    if *leaf_hash != hash {
                        return None;
                    }
                    return entries.iter().find(|(k, _)| &**k == key).map(|&(_, id)| id);
                }
                MapNode::Branch { bitmap, children } => {
                    let bit = 1u32 << ((hash >> shift) & TRIE_MASK);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[(bitmap & (bit - 1)).count_ones() as usize];
                    shift += TRIE_BITS;
                }
            }
        }
    }

    /// Insert a key that is **not present** (the interner always checks
    /// first), path-copying the nodes along its hash.
    fn insert(&mut self, key: Arc<str>, id: u32) {
        let hash = trie_hash(&key);
        self.root = Some(match self.root.take() {
            None => Arc::new(MapNode::Leaf { hash, entries: vec![(key, id)] }),
            Some(root) => insert_node(&root, 0, hash, key, id),
        });
        self.len += 1;
    }
}

fn insert_node(node: &Arc<MapNode>, shift: u32, hash: u64, key: Arc<str>, id: u32) -> Arc<MapNode> {
    match &**node {
        MapNode::Leaf { hash: leaf_hash, entries } => {
            if *leaf_hash == hash {
                // Full 64-bit collision: extend the collision bucket.
                let mut entries = entries.clone();
                entries.push((key, id));
                return Arc::new(MapNode::Leaf { hash, entries });
            }
            // Split: push the existing leaf down until the two hashes
            // diverge in a 5-bit window (guaranteed by `shift ≤ 60`).
            split_leaves(Arc::clone(node), *leaf_hash, hash, shift, key, id)
        }
        MapNode::Branch { bitmap, children } => {
            let index = ((hash >> shift) & TRIE_MASK) as u32;
            let bit = 1u32 << index;
            let pos = (bitmap & (bit - 1)).count_ones() as usize;
            let mut children = children.clone();
            if bitmap & bit != 0 {
                children[pos] = insert_node(&children[pos], shift + TRIE_BITS, hash, key, id);
                Arc::new(MapNode::Branch { bitmap: *bitmap, children })
            } else {
                children.insert(pos, Arc::new(MapNode::Leaf { hash, entries: vec![(key, id)] }));
                Arc::new(MapNode::Branch { bitmap: bitmap | bit, children })
            }
        }
    }
}

/// Build the minimal branch chain separating an existing leaf (hash
/// `old_hash`) from a new entry (hash `new_hash`), both arriving at `shift`.
fn split_leaves(
    old: Arc<MapNode>,
    old_hash: u64,
    new_hash: u64,
    shift: u32,
    key: Arc<str>,
    id: u32,
) -> Arc<MapNode> {
    debug_assert!(shift <= TRIE_MAX_SHIFT, "distinct hashes split before the bits run out");
    let old_index = ((old_hash >> shift) & TRIE_MASK) as u32;
    let new_index = ((new_hash >> shift) & TRIE_MASK) as u32;
    if old_index == new_index {
        let child = split_leaves(old, old_hash, new_hash, shift + TRIE_BITS, key, id);
        return Arc::new(MapNode::Branch { bitmap: 1 << old_index, children: vec![child] });
    }
    let new_leaf = Arc::new(MapNode::Leaf { hash: new_hash, entries: vec![(key, id)] });
    let (bitmap, children) = if old_index < new_index {
        ((1u32 << old_index) | (1u32 << new_index), vec![old, new_leaf])
    } else {
        ((1u32 << old_index) | (1u32 << new_index), vec![new_leaf, old])
    };
    Arc::new(MapNode::Branch { bitmap, children })
}

/// A string interner scoped to one matching universe (typically a target
/// catalog plus every source scored against it; [`GramInterner::global`] is
/// the process-wide default every [`crate::ColumnData`] starts with).
///
/// Ids are dense, assigned in first-intern order, and stable for the
/// interner's lifetime. Ids from *different* interners are not comparable —
/// the matchers check interner identity (`Arc::ptr_eq`) and build the source
/// side of a mixed pair in the target's interner.
///
/// Cost: a known 3-gram (or any three-scalar string) costs one integer-hash
/// probe of the snapshot's packed table — no string rendering, byte hashing
/// or string compare; any other string costs one FNV-1a hash and a walk of
/// at most 13 trie levels.
///
/// Concurrency: readers clone the current frozen snapshot (one brief
/// read-lock) and then perform every lookup lock-free; writers take the
/// growth mutex, derive the next generation and publish it. Growth is rare
/// by construction — the 3-gram vocabulary over normalized text is small
/// and saturates quickly — and **cheap even when it is not**: each
/// publication costs amortised O(batch), not O(vocabulary). Id chunks and
/// trie subtrees are shared between generations, and the packed table is
/// appended in place and copied only when it doubles, so a long-lived
/// process fed unbounded novel values pays linear total growth cost.
#[derive(Debug)]
pub struct GramInterner {
    /// Process-unique identity of this interner (see [`GramInterner::token`]).
    token: u64,
    frozen: RwLock<Arc<Frozen>>,
    growth: Mutex<()>,
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
            frozen: RwLock::default(),
            growth: Mutex::default(),
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
        self.snapshot().by_id.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn snapshot(&self) -> Arc<Frozen> {
        Arc::clone(&self.frozen.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The id of `text`, if it has been interned.
    pub fn lookup(&self, text: &str) -> Option<u32> {
        self.snapshot().get(text)
    }

    /// Intern one string, assigning a fresh id on first sight.
    pub fn intern(&self, text: &str) -> u32 {
        if let Some(id) = self.lookup(text) {
            return id;
        }
        self.grow(std::iter::once(text.to_string()).collect::<Vec<_>>())[0]
    }

    /// The string behind an id (`None` for ids this interner never issued).
    /// Ids round-trip: `resolve(intern(s)) == Some(s)`.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.snapshot().by_id.get(id as usize).cloned()
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
            // deterministic (D001).
            let ids = self.grow(unknown.iter().map(|(s, _)| s.clone()).collect());
            for ((_, count), id) in unknown.into_iter().zip(ids) {
                entries.push((id, count));
            }
            entries.sort_unstable_by_key(|&(id, _)| id);
            // A raced id (another thread interned our "miss" first) can
            // coincide with a hit id; merge defensively.
            entries.dedup_by(|next, prev| {
                if prev.0 == next.0 {
                    prev.1 += next.1;
                    true
                } else {
                    false
                }
            });
        }
        entries
    }

    /// Assign ids to `texts` (in order), reusing existing ids for strings a
    /// concurrent writer interned since our snapshot, and publish the new
    /// frozen generation.
    ///
    /// Publication is **amortised O(batch)**, not O(vocabulary): the next
    /// generation shares every full id chunk and untouched trie subtree with
    /// the previous one and appends its packed codes into the shared
    /// [`PackedTable`], copying that table only when it doubles (see
    /// [`Frozen`]). A process fed a long stream of novel values therefore
    /// pays linear total growth cost.
    fn grow(&self, texts: Vec<String>) -> Vec<u32> {
        let _guard = self.growth.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-read under the growth lock: writers are serialized, so this is
        // the latest generation and re-checks races lost before the lock.
        let current = self.snapshot();
        // Check the id space before touching the shared packed table, so a
        // batch never stops half-inserted.
        assert!(
            (current.by_id.len() + texts.len()) as u64 <= u64::from(u32::MAX) + 1,
            "interner exceeded u32 id space"
        );
        let mut next = (*current).clone();
        let ids = texts
            .into_iter()
            .map(|text| match next.get(&text) {
                Some(id) => id,
                None => next.insert(text),
            })
            .collect();
        debug_assert_eq!(next.packed_len + next.by_text.len(), next.by_id.len());
        *self.frozen.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        ids
    }

    /// Every interned string in **dense id order** (the string behind id 0
    /// first). Re-interning this dump, in order, into a *fresh* interner via
    /// [`GramInterner::preload`] reproduces the exact same id assignment —
    /// the property warm-state persistence relies on to make persisted
    /// interned artifacts meaningful after a restart.
    pub fn dump(&self) -> Vec<String> {
        let snap = self.snapshot();
        (0..snap.by_id.len())
            .map(|id| snap.by_id.get(id).map(|s| s.to_string()).unwrap_or_default())
            .collect()
    }

    /// Intern a batch of strings in order, returning their ids. On a fresh
    /// interner fed a [`GramInterner::dump`], the returned ids are exactly
    /// `0..texts.len()` — dense first-intern order is reproduced. Publication
    /// cost is O(batch) (one growth-lock acquisition for the whole batch).
    pub fn preload(&self, texts: Vec<String>) -> Vec<u32> {
        if texts.is_empty() {
            return Vec::new();
        }
        self.grow(texts)
    }

    /// Build the interned 3-gram count profile of a bag of texts. The
    /// profile keeps raw counts and their norm, so the dot product stays
    /// exact-integer arithmetic.
    ///
    /// Grams arrive as three scalars ([`cxm_classify::for_each_qgram`]) and
    /// a known gram costs one probe of the frozen snapshot's packed table by
    /// its integer code: a warm vocabulary builds the whole profile without
    /// rendering, hashing or comparing a single string. Only misses are
    /// rendered, once per distinct gram, for the growth batch.
    pub fn qgram_profile<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedProfile {
        let snap = self.snapshot();
        let mut known_ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeMap<[char; 3], f64> = BTreeMap::new();
        for text in texts {
            cxm_classify::for_each_qgram(text.as_ref(), |gram| match snap.get_packed(pack(gram)) {
                Some(id) => known_ids.push(id),
                None => *unknown.entry(gram).or_insert(0.0) += 1.0,
            });
        }
        // Scalar-array order is rendered-string order (see `pack`).
        let unknown = unknown.into_iter().map(|(gram, n)| (gram.iter().collect(), n)).collect();
        InternedProfile::from_counts(self.finish_counts(known_ids, unknown))
    }

    /// Build the interned distinct-value set of a bag of already-normalized
    /// texts.
    pub fn value_set<T: AsRef<str>>(&self, texts: impl Iterator<Item = T>) -> InternedValueSet {
        let snap = self.snapshot();
        let mut known_ids: Vec<u32> = Vec::new();
        let mut unknown: BTreeMap<String, f64> = BTreeMap::new();
        for text in texts {
            let text = text.as_ref();
            match snap.get(text) {
                Some(id) => known_ids.push(id),
                None => match unknown.get_mut(text) {
                    Some(count) => *count += 1.0,
                    None => {
                        unknown.insert(text.to_string(), 1.0);
                    }
                },
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
    fn snapshots_stay_stable_across_growth_batches() {
        // Intern enough strings, in many batches, to roll over several id
        // chunks; every previously issued id must keep resolving to its
        // string (and every string to its id) in every later generation.
        let interner = GramInterner::new();
        let total = 2 * CHUNK + CHUNK / 2;
        let mut issued: Vec<(String, u32)> = Vec::new();
        for batch_start in (0..total).step_by(97) {
            let batch: Vec<String> =
                (batch_start..(batch_start + 97).min(total)).map(|i| format!("s{i:05}")).collect();
            for s in &batch {
                issued.push((s.clone(), interner.intern(s)));
            }
            // A snapshot taken now serves every id issued so far.
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
    fn growth_publishes_persistently_shared_snapshots() {
        // The O(batch) publication contract, pinned structurally: a full id
        // chunk frozen in one generation is the *same allocation* in every
        // later generation, and a small batch over a large vocabulary leaves
        // almost the entire trie shared (here: the resolved string Arcs are
        // identical allocations before and after unrelated growth).
        let interner = GramInterner::new();
        for i in 0..CHUNK {
            interner.intern(&format!("warm{i:05}"));
        }
        let before = interner.snapshot();
        assert_eq!(before.by_id.full.len(), 1, "exactly one full chunk");
        let warm_chunk = Arc::clone(&before.by_id.full[0]);
        let warm_string = before.by_id.get(7).cloned().unwrap();

        interner.intern("fresh-value");
        let after = interner.snapshot();
        assert!(
            Arc::ptr_eq(&warm_chunk, &after.by_id.full[0]),
            "full chunks must be shared, not cloned, across growth"
        );
        assert!(Arc::ptr_eq(&warm_string, after.by_id.get(7).unwrap()));
        assert_eq!(after.by_text.get("fresh-value"), Some(CHUNK as u32));
        assert_eq!(before.by_text.get("fresh-value"), None, "old snapshots are immutable");
    }

    #[test]
    fn packed_table_probes_runs_and_hides_later_generations() {
        let table = PackedTable::with_capacity(0);
        let slots = table.slots.len();
        // Codes sharing the last home slot force a probe run that wraps
        // around to the front of the table.
        let mut codes: Vec<u64> =
            (0u64..).step_by(7919).filter(|&c| table.home(c) == slots - 1).take(6).collect();
        let mut filler = (1u64..).map(|k| k * 0x1_0000_0001);
        while codes.len() < slots / 2 {
            let code = filler.next().unwrap();
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
        for (id, &code) in codes.iter().enumerate() {
            assert!(!table.is_full_at(id + 1));
            table.insert(code, id as u32);
        }
        assert!(table.is_full_at(codes.len() + 1), "half load is the limit");
        for (id, &code) in codes.iter().enumerate() {
            assert_eq!(table.get(code, codes.len()), Some(id as u32));
            // A generation that predates the entry does not see it.
            assert_eq!(table.get(code, id), None);
        }
        assert_eq!(table.get(u64::MAX >> 1, codes.len()), None);
        // Doubling keeps every entry and frees half the slots.
        let doubled = table.doubled();
        assert_eq!(doubled.slots.len(), 2 * slots);
        assert!(!doubled.is_full_at(codes.len() + 1));
        for (id, &code) in codes.iter().enumerate() {
            assert_eq!(doubled.get(code, codes.len()), Some(id as u32));
        }
    }

    #[test]
    fn packed_table_keys_three_scalar_strings_by_code() {
        assert_eq!(pack_str("abc"), Some(pack(['a', 'b', 'c'])));
        assert_eq!(pack_str("ab"), None);
        assert_eq!(pack_str("abcd"), None);
        assert_eq!(pack_str("i\u{307}#"), Some(pack(['i', '\u{307}', '#'])));
        let astral = ['\u{10FFFF}', '\u{1F600}', '\u{10000}'];
        assert_eq!(pack_str(&astral.iter().collect::<String>()), Some(pack(astral)));
        assert!(pack(astral) < OCCUPIED, "codes use 63 bits");
        // Code order is string order.
        let mut grams = ["zz#", "#ab", "\u{1F600}ab", "a\u{e9}b", "aab", "##a"];
        let mut by_code = grams;
        grams.sort_unstable();
        by_code.sort_unstable_by_key(|g| pack_str(g).unwrap());
        assert_eq!(grams, by_code);

        // Three-scalar values and grams share one id; other strings live in
        // the trie; both survive many doublings and old snapshots stay fixed.
        let interner = GramInterner::new();
        let value = interner.intern("cd#");
        let profile = interner.qgram_profile(["cd"].into_iter());
        assert!(profile.entries().iter().any(|&(id, _)| id == value));
        let early = interner.snapshot();
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
            assert_eq!(early.get(text), None, "{text} is invisible to the older snapshot");
        }
        assert!(early.packed.slots.len() < interner.snapshot().packed.slots.len(), "table doubled");
        assert_eq!(early.get("cd#"), Some(value));
    }

    #[test]
    fn packed_table_concurrent_growth_keeps_first_ids() {
        // Readers probe the shared packed table while writers grow it
        // in place and past several doublings.
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
    fn persistent_map_survives_hash_collisions() {
        // Drive the trie through every shape: root leaf, splits at varying
        // depths, and (via the same-hash branch) collision buckets.
        let mut map = PersistentMap::default();
        for i in 0..500u32 {
            map.insert(format!("k{i}").into(), i);
        }
        assert_eq!(map.len(), 500);
        for i in 0..500u32 {
            assert_eq!(map.get(&format!("k{i}")), Some(i));
        }
        assert_eq!(map.get("absent"), None);
        // Clones are O(1) and independent of later inserts.
        let frozen = map.clone();
        map.insert("late".into(), 999);
        assert_eq!(frozen.get("late"), None);
        assert_eq!(map.get("late"), Some(999));
    }
}
