//! Memoization of dependence queries (Section 5).
//!
//! "There is little variation in array reference patterns found in real
//! programs … one can save much computation by using memoization." Two
//! tables are kept, mirroring the paper:
//!
//! - a **no-bounds** table keyed on the subscript equality system alone —
//!   the extended GCD test ignores bounds, so its (expensive)
//!   factorization can be reused even when the loop bounds differ;
//! - a **with-bounds** table keyed on the whole problem, storing the full
//!   analysis result.
//!
//! The *simple* scheme keys on the problem exactly as built; the
//! *improved* scheme first eliminates unused loop variables, so that
//! `a[i+10] = a[i]` nested under one loop or under two collapses to the
//! same key (the paper's Section 5 example).
//!
//! Keys hash with the paper's function `h(x) = size(x) + Σ 2ⁱ·xᵢ`,
//! "chosen so that symmetrical or partially symmetrical references would
//! not collide"; equality on the full key vector resolves the rest.
//!
//! A table stores each value once, behind an [`Arc`]: a hit hands out
//! that shared handle, so reading an outcome never copies it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dda_linalg::SmallVec;

use crate::problem::DependenceProblem;
use crate::result::LevelVec;

/// The paper's hash function over a stream of integers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperHasher {
    state: u64,
    index: u32,
}

impl Hasher for PaperHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (used for lengths etc.): fold bytes in.
        for &b in bytes {
            self.state = self
                .state
                .wrapping_add(u64::from(b).wrapping_shl(self.index % 61));
            self.index = self.index.wrapping_add(1);
        }
    }

    fn write_i64(&mut self, v: i64) {
        // h += 2^i * x_i, with the shift wrapping around the word.
        self.state = self
            .state
            .wrapping_add((v as u64).wrapping_shl(self.index % 61));
        self.index = self.index.wrapping_add(1);
    }

    fn write_usize(&mut self, v: usize) {
        // size(x) contributes directly.
        self.state = self.state.wrapping_add(v as u64);
    }

    // The remaining integer methods default to `write(&v.to_ne_bytes())`,
    // which folds bytes in *native* order — the same value would hash
    // differently on little- and big-endian targets. Shard selection and
    // persisted-key identity must be platform-stable, so every integer
    // width is routed through the endian-independent `write_i64` fold.

    fn write_u8(&mut self, v: u8) {
        self.write_i64(i64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_i64(i64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_i64(i64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.write_i64(v as i64);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_i64(v as i64);
        self.write_i64((v >> 64) as i64);
    }

    fn write_i8(&mut self, v: i8) {
        self.write_i64(i64::from(v));
    }

    fn write_i16(&mut self, v: i16) {
        self.write_i64(i64::from(v));
    }

    fn write_i32(&mut self, v: i32) {
        self.write_i64(i64::from(v));
    }

    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_i64(v as i64);
    }
}

/// `BuildHasher` for [`PaperHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperHashBuilder;

impl BuildHasher for PaperHashBuilder {
    type Hasher = PaperHasher;
    fn build_hasher(&self) -> PaperHasher {
        PaperHasher::default()
    }
}

/// A canonical encoding of a dependence problem. Ordered so symmetric
/// canonicalization can pick the smaller of a key and its mirror.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoKey(Vec<i64>);

/// Hashes a key's elements one by one, so the paper's `2^i` weighting
/// applies (a slice's own impl would hash them as one byte blob).
fn hash_elems<H: Hasher>(elems: &[i64], state: &mut H) {
    state.write_usize(elems.len());
    for &v in elems {
        state.write_i64(v);
    }
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_elems(&self.0, state);
    }
}

impl AsRef<[i64]> for MemoKey {
    fn as_ref(&self) -> &[i64] {
        &self.0
    }
}

/// A key's elements, however they are held: a stored [`MemoKey`], or a
/// key written into a reused buffer. A table is probed through this
/// view, whose hash and equality are [`MemoKey`]'s, so a probe allocates
/// no key.
pub trait KeyElems {
    /// The encoded elements.
    fn elems(&self) -> &[i64];
}

impl KeyElems for MemoKey {
    fn elems(&self) -> &[i64] {
        &self.0
    }
}

impl KeyElems for &[i64] {
    fn elems(&self) -> &[i64] {
        self
    }
}

impl<'a> Borrow<dyn KeyElems + 'a> for MemoKey {
    fn borrow(&self) -> &(dyn KeyElems + 'a) {
        self
    }
}

impl Hash for dyn KeyElems + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_elems(self.elems(), state);
    }
}

impl PartialEq for dyn KeyElems + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.elems() == other.elems()
    }
}

impl Eq for dyn KeyElems + '_ {}

impl MemoKey {
    /// The raw encoded vector (exposed for the benchmark harness).
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// Rebuilds a key from its raw encoding (used when loading a
    /// persisted table).
    #[must_use]
    pub fn from_vec(raw: Vec<i64>) -> MemoKey {
        MemoKey(raw)
    }
}

/// Routing hash for a key: the paper hash, finalized through an
/// avalanche mix so the low bits used by a shard modulo are influenced
/// by every element (the raw `h(x) = size + Σ 2ⁱ·xᵢ` concentrates
/// low-index elements in the low bits). Shared by [`ShardedMemoTable`]
/// and the v3 archive writer so both partition keys identically.
pub(crate) fn route_hash(key: &[i64]) -> u64 {
    let mut hasher = PaperHasher::default();
    hash_elems(key, &mut hasher);
    let mut h = hasher.finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Problem columns kept in a key, inline for the dominant small systems.
pub type ColumnVec = SmallVec<usize, 8>;

/// Computes the set of *used* variables: those in a subscript equation,
/// closed under co-occurrence in bound constraints.
fn used_mask(s: &DependenceProblem) -> SmallVec<bool, 8> {
    let mut used = SmallVec::from_elem(false, s.num_vars());
    for (row, _) in s.equations() {
        for (v, &c) in row.iter().enumerate() {
            if c != 0 {
                used[v] = true;
            }
        }
    }
    loop {
        let mut changed = false;
        for (coeffs, _) in s.bounds() {
            let touches_used = coeffs.iter().enumerate().any(|(v, &a)| a != 0 && used[v]);
            if touches_used {
                for (v, &a) in coeffs.iter().enumerate() {
                    if a != 0 && !used[v] {
                        used[v] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    used
}

const SECTION_MARKER: i64 = i64::MIN + 7;

/// Sorts the `width`-wide segments of `v` in place, in the order
/// `Vec<Vec<i64>>::sort` would put them (lexicographic; every segment
/// has the same width). Constraint sections hold a handful of rows, so
/// an insertion sort that rotates each segment into place is cheapest,
/// and it needs no buffer.
fn sort_segments(v: &mut [i64], width: usize) {
    let seg = |i: usize| i * width..(i + 1) * width;
    for i in 1..v.len() / width {
        let (mut lo, mut hi) = (0, i);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if v[seg(mid)] <= v[seg(i)] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        v[lo * width..(i + 1) * width].rotate_right(width);
    }
}

/// The columns a no-bounds key keeps: with `improved`, only those some
/// equation uses (the others are pure lattice freedom, so patterns under
/// different numbers of irrelevant loops share the factorization).
#[must_use]
pub fn nobounds_columns(s: &DependenceProblem, improved: bool) -> ColumnVec {
    let n = s.num_vars();
    if improved {
        (0..n)
            .filter(|&v| s.equations().any(|(row, _)| row[v] != 0))
            .collect()
    } else {
        (0..n).collect()
    }
}

/// Appends the no-bounds (GCD table) key of `s` over `kept` (see
/// [`nobounds_columns`]) to `out`.
pub fn write_nobounds_key(s: &DependenceProblem, kept: &[usize], out: &mut Vec<i64>) {
    let width = kept.len() + 1;
    let start = out.len();
    out.reserve(2 + s.num_equations() * width);
    out.push(kept.len() as i64);
    out.push(s.num_equations() as i64);
    for (row, rhs) in s.equations() {
        out.extend(kept.iter().map(|&k| row[k]));
        out.push(rhs);
    }
    // Equations are a *set*: sort their encodings so semantically equal
    // systems (e.g. dimensions listed in another order, or a mirrored
    // pair) produce identical keys.
    sort_segments(&mut out[start + 2..], width);
}

/// The columns a with-bounds key keeps, in problem order, and the common
/// levels they touch. With `improved`, unused variables are dropped.
fn kept_columns(s: &DependenceProblem, improved: bool) -> (ColumnVec, LevelVec<usize>) {
    let layout = s.layout();
    if !improved {
        return (
            (0..layout.num_vars()).collect(),
            (0..layout.common).collect(),
        );
    }
    let used = used_mask(s);
    let keep = (0..layout.num_vars()).filter(|&v| used[v]).collect();
    let kept_levels = (0..layout.common)
        .filter(|&k| {
            let (a, b) = layout.common_columns(k);
            used[a] || used[b]
        })
        .collect();
    (keep, kept_levels)
}

/// Appends the with-bounds key over `columns` (the key's `i`-th variable
/// is column `columns[i]` of `s`) to `out`, negating the equality
/// section when `negate_equalities`. `None` when a negation overflows
/// (`out` then ends in a partial key).
fn encode_bounds(
    s: &DependenceProblem,
    columns: &[usize],
    kept_levels: usize,
    negate_equalities: bool,
    out: &mut Vec<i64>,
) -> Option<()> {
    let width = columns.len() + 1;
    let touches_kept = |(row, _): &(&[i64], i64)| columns.iter().any(|&k| row[k] != 0);
    let bound_rows = s.bounds().filter(touches_kept).count();
    let start = out.len();
    out.reserve(4 + (s.num_equations() + bound_rows) * width);
    out.push(columns.len() as i64);
    out.push(kept_levels as i64);
    out.push(s.num_equations() as i64);
    let sign = |x: i64| {
        if negate_equalities {
            x.checked_neg()
        } else {
            Some(x)
        }
    };
    for (row, rhs) in s.equations() {
        for &k in columns {
            out.push(sign(row[k])?);
        }
        out.push(sign(rhs)?);
    }
    // Both sections are constraint *sets*: sort their encodings so
    // semantically equal systems (reordered dimensions or bounds, e.g.
    // from a mirrored pair) produce identical keys.
    sort_segments(&mut out[start + 3..], width);
    out.push(SECTION_MARKER);
    let bounds_at = out.len();
    for (row, rhs) in s.bounds().filter(touches_kept) {
        out.extend(columns.iter().map(|&k| row[k]));
        out.push(rhs);
    }
    sort_segments(&mut out[bounds_at..], width);
    Some(())
}

/// Appends the full-result (with-bounds) key of `s` to `out`, and
/// returns the common levels it keeps and whether it is the mirror's
/// key. With `symmetric`, a system and its mirror share the
/// lexicographically smaller key; `spare` is scratch for the mirror's.
/// A mirror that overflows to write just skips canonicalization.
pub fn write_full_key(
    s: &DependenceProblem,
    improved: bool,
    symmetric: bool,
    out: &mut Vec<i64>,
    spare: &mut Vec<i64>,
) -> (LevelVec<usize>, bool) {
    let (keep, kept_levels) = kept_columns(s, improved);
    let start = out.len();
    // An unnegated key cannot overflow.
    let _ = encode_bounds(s, &keep, kept_levels.len(), false, out);
    if symmetric {
        if let Some(mirror) = s.layout().mirror_columns() {
            // The mirror's `i`-th variable is column `mirror[i]`, and its
            // equalities are the original's negated. Usage is a property
            // of the variable, so the mirror keeps the positions whose
            // original column is kept, and the same levels.
            let columns: ColumnVec = mirror
                .iter()
                .copied()
                .filter(|c| keep.contains(c))
                .collect();
            spare.clear();
            let written = encode_bounds(s, &columns, kept_levels.len(), true, spare);
            if written.is_some() && spare[..] < out[start..] {
                out.truncate(start);
                out.extend_from_slice(spare);
                return (kept_levels, true);
            }
        }
    }
    (kept_levels, false)
}

/// Estimated resident size of a memo value, used by the byte accounting
/// and byte-capped eviction policy of [`ShardedMemoTable`].
///
/// Weights are *estimates* of heap plus inline size, not allocator
/// truth: the point is a stable, deterministic measure so a byte cap
/// evicts roughly the right number of entries on every platform. All
/// memoized value types (and the primitives used in tests) implement
/// this.
pub trait MemoWeight {
    /// Approximate size of this value in bytes.
    fn weight_bytes(&self) -> u64;
}

macro_rules! primitive_weight {
    ($($t:ty),* $(,)?) => {
        $(impl MemoWeight for $t {
            fn weight_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        })*
    };
}

primitive_weight!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// Estimated bytes of a `Vec<i64>`: header plus elements.
#[must_use]
pub fn vec_i64_bytes(v: &[i64]) -> u64 {
    VEC_HEADER_BYTES + 8 * v.len() as u64
}

/// Size of a `Vec` header (pointer, length, capacity).
pub(crate) const VEC_HEADER_BYTES: u64 = 24;

/// Fixed per-entry bookkeeping charge: hash-map slot, eviction-queue
/// slot, and entry metadata. An estimate, like [`MemoWeight`] itself.
const ENTRY_OVERHEAD_BYTES: u64 = 64;

/// Estimated bytes held by a stored key: the map slot's copy, and the
/// ring slot's when the table keeps a ring (a capped table); the
/// overhead constant absorbs the second header.
fn key_bytes(key: &MemoKey, ring: bool) -> u64 {
    (1 + u64::from(ring)) * vec_i64_bytes(&key.0)
}

/// A point-in-time read of one [`ShardedMemoTable`]'s traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups performed.
    pub queries: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Entries loaded from a persisted memo file (warm starts).
    pub warm_loads: u64,
    /// Distinct entries currently stored.
    pub entries: u64,
    /// Estimated bytes held by stored entries (see [`MemoWeight`]).
    pub bytes: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Byte capacity (0 = unbounded).
    pub capacity_bytes: u64,
}

impl MemoCounters {
    /// Lookups that missed (`queries - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.queries.saturating_sub(self.hits)
    }
}

/// One mutex-guarded shard: the entry map plus the second-chance ring
/// and byte accounting that back the eviction policy.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<MemoKey, Entry<V>, PaperHashBuilder>,
    /// Second-chance (CLOCK) ring: keys in insertion order. The "hand"
    /// is the front; [`Entry::referenced`] is the chance bit. Only a
    /// capped table keeps it: nothing else reads it.
    ring: VecDeque<MemoKey>,
    /// Estimated bytes held by this shard's entries.
    bytes: u64,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: HashMap::with_hasher(PaperHashBuilder),
            ring: VecDeque::new(),
            bytes: 0,
        }
    }
}

/// A stored value plus the bookkeeping eviction needs.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    /// Estimated bytes (key, value, and fixed overhead), frozen at
    /// insert so removal subtracts exactly what insertion added.
    weight: u64,
    /// Second-chance bit: set by [`ShardedMemoTable::get`], cleared
    /// when the eviction hand passes over the entry.
    referenced: bool,
}

/// A concurrent memo table: `N` mutex-guarded shards, with the shard
/// chosen by the paper's own hash of the key. Each value is stored once,
/// as an `Arc<V>`, and every hit shares it.
///
/// This is the substrate behind `dda-engine`'s batch parallelism: worker
/// threads insert leader results and read cached outcomes through `&self`,
/// so the table can be shared across a `std::thread::scope` without a
/// global lock. Query/hit counters are atomic and count *table traffic*:
/// the analysis driver consults the table once per distinct key per run
/// (a program in the serial analyzer, a batch in the engine), which is a
/// different notion from the per-pair accounting in
/// [`AnalysisStats`](crate::stats::AnalysisStats).
///
/// # Bounded capacity
///
/// [`with_capacity`](ShardedMemoTable::with_capacity) caps the table's
/// estimated byte footprint. The budget is split evenly across shards
/// and each shard enforces its slice with a second-chance (CLOCK)
/// policy: entries sit in an insertion-ordered ring with a referenced
/// bit set on every hit; when an insert pushes the shard over budget,
/// the hand sweeps from the oldest entry, giving referenced entries one
/// more lap and evicting unreferenced ones until the shard fits.
/// Eviction only ever discards cached work — an evicted problem is
/// simply recomputed on its next appearance, so verdicts are unchanged.
#[derive(Debug)]
pub struct ShardedMemoTable<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard byte budget (0 = unbounded).
    shard_budget: u64,
    /// Whole-table byte capacity as requested (0 = unbounded).
    capacity_bytes: u64,
    queries: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    warm_loads: AtomicU64,
    evictions: AtomicU64,
    /// Per-shard operation counts (gets + inserts that touched the
    /// shard's lock) — the contention signal for telemetry. Bumped only
    /// on the hot paths, never by snapshots or entry counts.
    shard_ops: Vec<AtomicU64>,
}

impl<V> ShardedMemoTable<V> {
    /// Creates an unbounded table with `shards` shards (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(shards: usize) -> ShardedMemoTable<V> {
        ShardedMemoTable::with_capacity(shards, 0)
    }

    /// Creates a table capped at roughly `max_bytes` estimated bytes
    /// (0 = unbounded). The cap is split evenly across shards, so a
    /// pathologically skewed key distribution can under-fill the table,
    /// but the paper hash plus avalanche mix spreads keys well in
    /// practice.
    #[must_use]
    pub fn with_capacity(shards: usize, max_bytes: u64) -> ShardedMemoTable<V> {
        let n = shards.max(1);
        ShardedMemoTable {
            shards: (0..n).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: if max_bytes == 0 {
                0
            } else {
                max_bytes.div_ceil(n as u64)
            },
            capacity_bytes: max_bytes,
            queries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            warm_loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shard_ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured byte capacity (0 = unbounded).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Shard index for a key (see [`route_hash`]).
    fn shard_of(&self, key: &[i64]) -> usize {
        (route_hash(key) % self.shards.len() as u64) as usize
    }

    /// Locks the shard for `key`, counting the operation against it.
    fn shard(&self, key: &[i64]) -> MutexGuard<'_, Shard<V>> {
        let idx = self.shard_of(key);
        self.shard_ops[idx].fetch_add(1, Ordering::Relaxed);
        lock(&self.shards[idx])
    }

    /// Looks up a key, counting the query (and the hit) atomically. A
    /// hit sets the entry's second-chance bit, shielding it from the
    /// next eviction sweep, and shares the stored value. The key may be
    /// borrowed from any buffer.
    pub fn get<K: AsRef<[i64]> + ?Sized>(&self, key: &K) -> Option<Arc<V>> {
        let key = key.as_ref();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let hit = {
            let mut shard = self.shard(key);
            shard.map.get_mut(&key as &dyn KeyElems).map(|e| {
                e.referenced = true;
                Arc::clone(&e.value)
            })
        };
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts a computed result (last writer wins on collision; values
    /// for equal keys are identical by construction, so order is moot),
    /// then evicts via second chance until the shard fits its budget.
    pub fn insert(&self, key: MemoKey, value: Arc<V>)
    where
        V: MemoWeight,
    {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let ring = self.shard_budget > 0;
        let weight = key_bytes(&key, ring) + value.weight_bytes() + ENTRY_OVERHEAD_BYTES;
        let entry = Entry {
            value,
            weight,
            referenced: false,
        };
        let ring_key = ring.then(|| key.clone());
        let mut shard = self.shard(&key.0);
        match shard.map.insert(key, entry) {
            Some(old) => shard.bytes = shard.bytes - old.weight + weight,
            None => {
                shard.bytes += weight;
                shard.ring.extend(ring_key);
            }
        }
        if self.shard_budget > 0 {
            let mut evicted = 0u64;
            while shard.bytes > self.shard_budget {
                let Some(hand) = shard.ring.pop_front() else {
                    break;
                };
                match shard.map.get_mut(&hand) {
                    Some(e) if e.referenced => {
                        // Second chance: clear the bit, move the entry
                        // behind the hand. The sweep still terminates —
                        // each pass clears bits, and an empty map means
                        // bytes == 0 <= budget.
                        e.referenced = false;
                        shard.ring.push_back(hand);
                    }
                    // Unreferenced: evict. A ring slot always has a live
                    // entry today; one without is skipped, so a future
                    // removal path cannot wedge the sweep.
                    _ => {
                        if let Some(e) = shard.map.remove(&hand) {
                            shard.bytes -= e.weight;
                            evicted += 1;
                        }
                    }
                }
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Inserts an entry loaded from a persisted memo file, counting it
    /// as a warm-start load on top of the regular insert accounting.
    pub fn insert_warm(&self, key: MemoKey, value: Arc<V>)
    where
        V: MemoWeight,
    {
        self.warm_loads.fetch_add(1, Ordering::Relaxed);
        self.insert(key, value);
    }

    /// Number of distinct entries across all shards.
    #[must_use]
    pub fn unique_entries(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Estimated bytes held across all shards.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.unique_entries() == 0
    }

    /// Lookups performed (table traffic, not per-pair accounting).
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Lookups that hit.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Inserts performed (including warm loads).
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries loaded via [`insert_warm`](ShardedMemoTable::insert_warm).
    #[must_use]
    pub fn warm_loads(&self) -> u64 {
        self.warm_loads.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the byte capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Per-shard operation counts (gets + inserts), indexed by shard.
    /// Their sum always equals `queries() + inserts()`.
    #[must_use]
    pub fn shard_ops(&self) -> Vec<u64> {
        self.shard_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// All traffic counters in one read.
    #[must_use]
    pub fn counters(&self) -> MemoCounters {
        MemoCounters {
            queries: self.queries(),
            hits: self.hits(),
            warm_loads: self.warm_loads(),
            entries: self.unique_entries() as u64,
            bytes: self.bytes(),
            evictions: self.evictions(),
            capacity_bytes: self.capacity_bytes,
        }
    }

    /// Clears contents and counters (the configured capacity stays).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = lock(s);
            shard.map.clear();
            shard.ring.clear();
            shard.bytes = 0;
        }
        self.queries.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
        self.warm_loads.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        for c in &self.shard_ops {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A sorted snapshot of every entry, sharing the stored values — the
    /// deterministic basis for persistence (see `persist`).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(MemoKey, Arc<V>)> {
        let mut out: Vec<(MemoKey, Arc<V>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                lock(s)
                    .map
                    .iter()
                    .map(|(k, e)| (k.clone(), Arc::clone(&e.value)))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }
}

/// Locks a shard, reading through poisoning: a panic under the lock
/// leaves every stored value whole (each is a pure function of its key,
/// inserted complete), so at worst the byte accounting is off.
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The memo of every analysis driver: the no-bounds (GCD) table and the
/// with-bounds full-result table. The batch engine shares one across its
/// worker threads (and `dda serve` across requests); the serial
/// [`DependenceAnalyzer`](crate::analyzer::DependenceAnalyzer) owns a
/// one-shard instance. Persists as a v3 archive (see `persist`), so any
/// run can warm-start any other.
#[derive(Debug)]
pub struct SharedMemo {
    /// With-bounds full-result table.
    pub full: ShardedMemoTable<crate::analyzer::CachedOutcome>,
    /// No-bounds (extended GCD) table.
    pub gcd: ShardedMemoTable<crate::gcd::EqOutcome>,
    /// Cold tier: a lazily-faulted v3 archive attached by a binary warm
    /// start. Records fault into the tables above on first use (and can
    /// be evicted back out — the archive keeps them).
    archive: std::sync::OnceLock<crate::persist::MemoArchive>,
    load_files: AtomicU64,
    load_records: AtomicU64,
    load_bytes: AtomicU64,
    load_nanos: AtomicU64,
    archive_faults: AtomicU64,
}

/// Telemetry for memo warm starts: one row per [`SharedMemo`], covering
/// its archive loads (the first attached lazily, any later one decoded
/// eagerly) plus archive faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoLoadStats {
    /// Memo files loaded into this table.
    pub files: u64,
    /// Records made available by those loads (indexed, not decoded,
    /// for an attached archive).
    pub records: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent loading.
    pub nanos: u64,
    /// Lookups answered by faulting a record out of the cold archive
    /// tier into the resident tables.
    pub archive_faults: u64,
}

impl SharedMemo {
    /// Creates empty unbounded tables with `shards` shards each.
    #[must_use]
    pub fn new(shards: usize) -> SharedMemo {
        SharedMemo::with_capacity(shards, 0)
    }

    /// Creates empty tables capped at roughly `max_bytes` estimated
    /// bytes combined (0 = unbounded). The budget is split evenly
    /// between the full-result and GCD tables.
    #[must_use]
    pub fn with_capacity(shards: usize, max_bytes: u64) -> SharedMemo {
        let half = max_bytes / 2;
        SharedMemo {
            full: ShardedMemoTable::with_capacity(shards, half),
            gcd: ShardedMemoTable::with_capacity(shards, max_bytes - half),
            archive: std::sync::OnceLock::new(),
            load_files: AtomicU64::new(0),
            load_records: AtomicU64::new(0),
            load_bytes: AtomicU64::new(0),
            load_nanos: AtomicU64::new(0),
            archive_faults: AtomicU64::new(0),
        }
    }

    /// Looks up a full-result entry through both residency tiers: the
    /// resident table first, then the attached v3 archive (if any),
    /// faulting an archive hit into the table so repeat lookups are
    /// resident — and so the byte-capped CLOCK eviction governs how much
    /// of the archive stays hot. Either way the stored value is shared:
    /// a fault decodes its record once, and that copy is the one the
    /// table keeps.
    #[must_use]
    pub fn lookup_full<K: AsRef<[i64]> + ?Sized>(
        &self,
        key: &K,
    ) -> Option<Arc<crate::analyzer::CachedOutcome>> {
        let key = key.as_ref();
        self.lookup_tiered(&self.full, key, |a| a.get_full(key))
    }

    /// Looks up a gcd entry through both residency tiers (see
    /// [`SharedMemo::lookup_full`]).
    #[must_use]
    pub fn lookup_gcd<K: AsRef<[i64]> + ?Sized>(
        &self,
        key: &K,
    ) -> Option<Arc<crate::gcd::EqOutcome>> {
        let key = key.as_ref();
        self.lookup_tiered(&self.gcd, key, |a| a.get_gcd(key))
    }

    fn lookup_tiered<V: MemoWeight>(
        &self,
        table: &ShardedMemoTable<V>,
        key: &[i64],
        fault: impl FnOnce(&crate::persist::MemoArchive) -> Option<V>,
    ) -> Option<Arc<V>> {
        if let Some(hit) = table.get(key) {
            return Some(hit);
        }
        let v = Arc::new(fault(self.archive.get()?)?);
        self.archive_faults.fetch_add(1, Ordering::Relaxed);
        table.insert_warm(MemoKey(key.to_vec()), Arc::clone(&v));
        Some(v)
    }

    /// Warm-start telemetry for this table.
    #[must_use]
    pub fn memo_load_stats(&self) -> MemoLoadStats {
        MemoLoadStats {
            files: self.load_files.load(Ordering::Relaxed),
            records: self.load_records.load(Ordering::Relaxed),
            bytes: self.load_bytes.load(Ordering::Relaxed),
            nanos: self.load_nanos.load(Ordering::Relaxed),
            archive_faults: self.archive_faults.load(Ordering::Relaxed),
        }
    }

    /// Attaches a cold archive tier; fails (returning the archive) if
    /// one is already attached.
    pub(crate) fn attach_archive(
        &self,
        archive: crate::persist::MemoArchive,
    ) -> Result<(), crate::persist::MemoArchive> {
        self.archive.set(archive)
    }

    /// The attached cold tier, if any.
    #[must_use]
    pub fn archive_ref(&self) -> Option<&crate::persist::MemoArchive> {
        self.archive.get()
    }

    /// Records one completed memo load.
    pub(crate) fn note_load(&self, records: u64, bytes: u64, nanos: u64) {
        self.load_files.fetch_add(1, Ordering::Relaxed);
        self.load_records.fetch_add(records, Ordering::Relaxed);
        self.load_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.load_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Combined byte capacity of both tables (0 = unbounded).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.full.capacity_bytes() + self.gcd.capacity_bytes()
    }

    /// Combined estimated bytes held by both tables.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.full.bytes() + self.gcd.bytes()
    }

    /// Combined evictions across both tables.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.full.evictions() + self.gcd.evictions()
    }

    /// Clears both resident tables. An attached archive tier stays
    /// attached: evicting the hot tier never loses cold records. Callers
    /// that need a fully cold table should build a fresh [`SharedMemo`].
    pub fn clear(&self) {
        self.full.clear();
        self.gcd.clear();
    }
}

// ---------------------------------------------------------------------
// Weights of the values the engine actually memoizes. All estimates
// (see [`MemoWeight`]): fixed charges for enum discriminants and small
// scalars, header + elements for vectors, recursion for proof trees.

fn matrix_bytes(m: &dda_linalg::Matrix) -> u64 {
    16 + VEC_HEADER_BYTES + 8 * (m.rows() * m.cols()) as u64
}

fn rule_bytes(r: &crate::certificate::Rule) -> u64 {
    match r {
        crate::certificate::Rule::Premise { coeffs, .. } => 40 + vec_i64_bytes(coeffs),
        crate::certificate::Rule::Comb { .. } | crate::certificate::Rule::Div { .. } => 40,
    }
}

fn derivation_bytes(d: &crate::certificate::Derivation) -> u64 {
    VEC_HEADER_BYTES + 8 + d.rules.iter().map(rule_bytes).sum::<u64>()
}

fn fm_tree_bytes(t: &crate::certificate::FmTree) -> u64 {
    match t {
        crate::certificate::FmTree::Sealed(d) => 8 + derivation_bytes(d),
        crate::certificate::FmTree::Split { left, right, .. } => {
            40 + fm_tree_bytes(left) + fm_tree_bytes(right)
        }
    }
}

fn refutation_bytes(r: &crate::certificate::SystemRefutation) -> u64 {
    let arena = VEC_HEADER_BYTES + r.arena.iter().map(rule_bytes).sum::<u64>();
    let proof = match &r.proof {
        crate::certificate::RefProof::Arena { .. } => 16,
        crate::certificate::RefProof::Fm { tree } => 8 + fm_tree_bytes(tree),
    };
    arena + proof
}

fn dir_tree_bytes(t: &crate::certificate::DirTree) -> u64 {
    match t {
        crate::certificate::DirTree::Refuted(r) => 8 + refutation_bytes(r),
        crate::certificate::DirTree::Split { lt, eq, gt, .. } => {
            40 + dir_tree_bytes(lt) + dir_tree_bytes(eq) + dir_tree_bytes(gt)
        }
    }
}

impl MemoWeight for crate::certificate::Certificate {
    fn weight_bytes(&self) -> u64 {
        use crate::certificate::Certificate as C;
        match self {
            C::Conservative | C::Unverified | C::ConstantsEqual | C::ConstantsDiffer => 8,
            C::Witness { x } => 8 + vec_i64_bytes(x),
            C::GcdRefutation { numer, .. } => 16 + vec_i64_bytes(numer),
            C::Refuted {
                particular,
                basis,
                refutation,
            } => 8 + vec_i64_bytes(particular) + matrix_bytes(basis) + refutation_bytes(refutation),
            C::DirectionsExhausted {
                particular,
                basis,
                tree,
            } => 8 + vec_i64_bytes(particular) + matrix_bytes(basis) + dir_tree_bytes(tree),
        }
    }
}

impl MemoWeight for crate::gcd::EqOutcome {
    fn weight_bytes(&self) -> u64 {
        match self {
            crate::gcd::EqOutcome::Independent { refutation } => {
                8 + refutation
                    .as_ref()
                    .map_or(0, |(numer, _)| 8 + vec_i64_bytes(numer))
            }
            crate::gcd::EqOutcome::Lattice(l) => {
                8 + vec_i64_bytes(&l.particular) + matrix_bytes(&l.basis)
            }
        }
    }
}

impl MemoWeight for crate::analyzer::CachedOutcome {
    fn weight_bytes(&self) -> u64 {
        let result = 16
            + match &self.result.answer {
                crate::result::Answer::Dependent(Some(w)) => vec_i64_bytes(w),
                _ => 0,
            };
        let witness = self.witness.as_ref().map_or(0, |w| vec_i64_bytes(w));
        // One byte per direction component, 16 per optional distance.
        let directions = VEC_HEADER_BYTES
            + self
                .direction_vectors
                .iter()
                .map(|d| VEC_HEADER_BYTES + d.0.len() as u64)
                .sum::<u64>();
        let distance = VEC_HEADER_BYTES + 16 * self.distance.0.len() as u64;
        result + witness + directions + distance + self.certificate.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::build_problem;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn problem(src: &str) -> DependenceProblem {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        build_problem(pairs[0], true).unwrap()
    }

    fn gcd_key(p: &DependenceProblem, improved: bool) -> Vec<i64> {
        let mut key = Vec::new();
        write_nobounds_key(p, &nobounds_columns(p, improved), &mut key);
        key
    }

    fn full_key(p: &DependenceProblem, improved: bool) -> Vec<i64> {
        let mut key = Vec::new();
        write_full_key(p, improved, false, &mut key, &mut Vec::new());
        key
    }

    #[test]
    fn paper_hash_matches_formula() {
        let key = MemoKey(vec![3, -1, 4]);
        let mut h = PaperHasher::default();
        key.hash(&mut h);
        // Vec<i64> hashing writes the length then each element; our
        // write_usize adds the size, each write_i64 adds 2^i * x_i.
        let expect = 3u64
            .wrapping_add(3u64.wrapping_shl(0))
            .wrapping_add((-1i64 as u64).wrapping_shl(1))
            .wrapping_add(4u64.wrapping_shl(2));
        assert_eq!(h.finish(), expect);
    }

    #[test]
    fn shift_wraps_at_sixty_one() {
        // Why `% 61` and not `% 64`: `wrapping_shl` masks its argument
        // mod 64, so a shift of exactly 64 would silently become 0 and
        // the behavior would hinge on that masking. Reducing mod 61 keeps
        // every shift strictly below the word size (explicit, not an
        // artifact of masking) and cycles the 2^i weights with period 61 —
        // a prime, so rotated keys fall out of phase with the weights
        // instead of systematically colliding.
        let hash = |k: &MemoKey| {
            let mut h = PaperHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        let spike = |at: usize| {
            let mut v = vec![0i64; 65];
            v[at] = 1;
            MemoKey(v)
        };
        // Weights repeat with period 61: index 0 and index 61 share 2^0.
        assert_eq!(hash(&spike(0)), hash(&spike(61)));
        // Index 64 gets weight 2^(64 % 61) = 8, not the 2^0 that a
        // masked 64-bit shift would produce.
        assert_eq!(
            hash(&spike(64)).wrapping_sub(hash(&MemoKey(vec![0i64; 65]))),
            1u64 << 3
        );
    }

    #[test]
    fn integer_writes_are_endian_independent() {
        // The default `Hasher` integer methods forward to
        // `write(&v.to_ne_bytes())`, which differs between little- and
        // big-endian targets. Every width must instead go through the
        // endian-independent weighted fold: one value, one weight.
        fn state_after(f: impl FnOnce(&mut PaperHasher)) -> u64 {
            let mut h = PaperHasher::default();
            f(&mut h);
            h.finish()
        }
        // A single write of 5 at index 0 contributes 5 · 2^0 = 5 for
        // every width. (Under the byte-fold fallback, big-endian u32
        // would have produced 5 · 2^3 = 40.)
        assert_eq!(state_after(|h| h.write_u8(5)), 5);
        assert_eq!(state_after(|h| h.write_u16(5)), 5);
        assert_eq!(state_after(|h| h.write_u32(5)), 5);
        assert_eq!(state_after(|h| h.write_u64(5)), 5);
        assert_eq!(state_after(|h| h.write_i8(5)), 5);
        assert_eq!(state_after(|h| h.write_i16(5)), 5);
        assert_eq!(state_after(|h| h.write_i32(5)), 5);
        assert_eq!(state_after(|h| h.write_isize(5)), 5);
        // 128-bit values fold as two 64-bit limbs (low first).
        assert_eq!(
            state_after(|h| h.write_u128((7u128 << 64) | 5)),
            5u64.wrapping_add(7u64 << 1)
        );
        // Consecutive writes advance the weight exactly once per value.
        assert_eq!(
            state_after(|h| {
                h.write_u32(1);
                h.write_u32(1);
                h.write_u32(1);
            }),
            1 + 2 + 4
        );
    }

    #[test]
    fn sharded_table_basic_ops() {
        let t: ShardedMemoTable<u32> = ShardedMemoTable::new(4);
        assert_eq!(t.shard_count(), 4);
        let keys: Vec<MemoKey> = (0..64).map(|i| MemoKey(vec![i, i * 3 - 7, 2])).collect();
        for (i, k) in keys.iter().enumerate() {
            assert!(t.get(k).is_none());
            t.insert(k.clone(), Arc::new(i as u32));
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k).as_deref(), Some(&(i as u32)));
        }
        assert_eq!(t.unique_entries(), 64);
        assert_eq!(t.queries(), 128);
        assert_eq!(t.hits(), 64);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 64);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "snapshot sorted");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.queries(), 0);
    }

    #[test]
    fn sharded_table_zero_shards_clamped() {
        let t: ShardedMemoTable<u8> = ShardedMemoTable::new(0);
        assert_eq!(t.shard_count(), 1);
        t.insert(MemoKey(vec![1]), Arc::new(9));
        assert_eq!(t.get(&MemoKey(vec![1])).as_deref(), Some(&9));
    }

    #[test]
    fn sharded_table_concurrent_inserts_and_reads() {
        let t: ShardedMemoTable<i64> = ShardedMemoTable::new(8);
        std::thread::scope(|s| {
            for w in 0..4i64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..200 {
                        let key = MemoKey(vec![i % 50, (i * 7) % 31]);
                        // Values for equal keys agree by construction, as
                        // in the engine's leader-election protocol.
                        t.insert(key.clone(), Arc::new((i % 50) * 1000 + (i * 7) % 31));
                        let _ = t.get(&key);
                        let _ = w;
                    }
                });
            }
        });
        assert!(t.unique_entries() <= 200);
        for i in 0..200i64 {
            let key = MemoKey(vec![i % 50, (i * 7) % 31]);
            assert_eq!(
                t.get(&key).as_deref(),
                Some(&((i % 50) * 1000 + (i * 7) % 31))
            );
        }
    }

    #[test]
    fn symmetry_does_not_collide() {
        // The stated design goal of the 2^i weighting.
        let k1 = MemoKey(vec![1, 2]);
        let k2 = MemoKey(vec![2, 1]);
        let hash = |k: &MemoKey| {
            let mut h = PaperHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash(&k1), hash(&k2));
    }

    #[test]
    fn identical_pairs_share_keys() {
        let p1 = problem("for i = 1 to 10 { a[i + 10] = a[i] + 3; }");
        let p2 = problem("for i = 1 to 10 { b[i + 10] = b[i] + 7; }");
        assert_eq!(full_key(&p1, false), full_key(&p2, false));
        assert_eq!(gcd_key(&p1, false), gcd_key(&p2, false));
        assert_eq!(gcd_key(&p1, true), gcd_key(&p2, true));
    }

    #[test]
    fn different_bounds_differ_with_bounds_only() {
        let p1 = problem("for i = 1 to 10 { a[i + 10] = a[i]; }");
        let p2 = problem("for i = 1 to 20 { a[i + 10] = a[i]; }");
        assert_eq!(gcd_key(&p1, false), gcd_key(&p2, false));
        assert_eq!(gcd_key(&p1, true), gcd_key(&p2, true));
        assert_ne!(full_key(&p1, false), full_key(&p2, false));
    }

    #[test]
    fn improved_scheme_collapses_unused_loops() {
        // The paper's Section 5 example: both two-loop programs collapse
        // to the single-loop one under the improved scheme.
        let two_a = problem("for i = 1 to 10 { for j = 1 to 10 { a[i + 10] = a[i] + 3; } }");
        let two_b = problem("for i = 1 to 10 { for j = 1 to 10 { a[j + 10] = a[j] + 3; } }");
        let one = problem("for i = 1 to 10 { a[i + 10] = a[i] + 3; }");
        assert_ne!(full_key(&two_a, false), full_key(&one, false));
        // two_a uses i (outer), two_b uses j (inner): simple keys differ.
        assert_ne!(full_key(&two_a, false), full_key(&two_b, false));
        // Improved keys all coincide.
        assert_eq!(full_key(&two_a, true), full_key(&one, true));
        assert_eq!(full_key(&two_b, true), full_key(&one, true));
    }

    #[test]
    fn triangular_coupling_keeps_variables() {
        // j's bound references i, and j is used, so i must stay even
        // though it appears in no subscript.
        let p = problem("for i = 1 to 10 { for j = i to 10 { a[j + 5] = a[j]; } }");
        let flat = problem("for j = 1 to 10 { a[j + 5] = a[j]; }");
        assert_ne!(full_key(&p, true), full_key(&flat, true));
    }

    #[test]
    fn sharded_counters_exact_on_scripted_sequence() {
        let t: ShardedMemoTable<u32> = ShardedMemoTable::new(3);
        let warm = MemoKey(vec![9, 9]);
        let cold = MemoKey(vec![1, 2]);
        t.insert_warm(warm.clone(), Arc::new(7));
        assert!(t.get(&cold).is_none()); // miss
        assert_eq!(t.get(&warm).as_deref(), Some(&7)); // hit (warm entry)
        t.insert(cold.clone(), Arc::new(3));
        assert_eq!(t.get(&cold).as_deref(), Some(&3)); // hit
        let c = t.counters();
        assert_eq!(
            c,
            MemoCounters {
                queries: 3,
                hits: 2,
                warm_loads: 1,
                entries: 2,
                bytes: t.bytes(),
                evictions: 0,
                capacity_bytes: 0,
            }
        );
        assert!(c.bytes > 0, "stored entries must be accounted");
        assert_eq!(t.inserts(), 2);
        // Shard ops count exactly the gets + inserts, per shard.
        let ops = t.shard_ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops.iter().sum::<u64>(), t.queries() + t.inserts());
        t.clear();
        assert_eq!(t.counters(), MemoCounters::default());
        assert_eq!(t.shard_ops(), vec![0, 0, 0]);
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_replacements() {
        let t: ShardedMemoTable<u32> = ShardedMemoTable::new(2);
        assert_eq!(t.bytes(), 0);
        t.insert(MemoKey(vec![1, 2]), Arc::new(5));
        let one = t.bytes();
        assert!(one > 0);
        // Replacing the same key must not grow the accounting.
        t.insert(MemoKey(vec![1, 2]), Arc::new(9));
        assert_eq!(t.bytes(), one);
        t.insert(MemoKey(vec![3]), Arc::new(1));
        assert!(t.bytes() > one);
        t.clear();
        assert_eq!(t.bytes(), 0);
    }

    #[test]
    fn capped_table_evicts_to_budget() {
        // One shard so the budget math is exact. Each u32 entry with a
        // one-element key weighs the same; cap the table to roughly
        // three entries and insert ten. The probe is capped too: only a
        // capped table is charged its ring's copy of each key.
        let probe: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, u64::MAX);
        probe.insert(MemoKey(vec![0]), Arc::new(0));
        let per_entry = probe.bytes();
        let t: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, 3 * per_entry);
        for i in 0..10 {
            t.insert(MemoKey(vec![i]), Arc::new(i as u32));
        }
        assert!(t.bytes() <= 3 * per_entry, "byte cap enforced");
        assert_eq!(t.unique_entries(), 3);
        assert_eq!(t.evictions(), 7);
        assert_eq!(t.counters().capacity_bytes, 3 * per_entry);
        // The survivors are the most recent inserts (nothing was read,
        // so no second chances were granted).
        for i in 7..10 {
            assert_eq!(t.get(&MemoKey(vec![i])).as_deref(), Some(&(i as u32)));
        }
    }

    #[test]
    fn second_chance_shields_referenced_entries() {
        let probe: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, u64::MAX);
        probe.insert(MemoKey(vec![0]), Arc::new(0));
        let per_entry = probe.bytes();
        let t: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, 3 * per_entry);
        t.insert(MemoKey(vec![1]), Arc::new(1));
        t.insert(MemoKey(vec![2]), Arc::new(2));
        t.insert(MemoKey(vec![3]), Arc::new(3));
        // Touch the oldest entry: the hit sets its chance bit.
        assert_eq!(t.get(&MemoKey(vec![1])).as_deref(), Some(&1));
        // The next insert overflows the budget. Without second chance
        // key [1] (the oldest) would go; with it, [2] goes instead.
        t.insert(MemoKey(vec![4]), Arc::new(4));
        assert_eq!(
            t.get(&MemoKey(vec![1])).as_deref(),
            Some(&1),
            "referenced entry kept"
        );
        assert!(
            t.get(&MemoKey(vec![2])).is_none(),
            "unreferenced oldest evicted"
        );
        assert_eq!(t.unique_entries(), 3);
    }

    #[test]
    fn oversized_entry_does_not_wedge_the_sweep() {
        // A single entry larger than the whole budget is evicted right
        // after insertion; the sweep terminates and the table stays
        // usable.
        let t: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, 8);
        t.insert(MemoKey(vec![1, 2, 3, 4, 5, 6, 7, 8]), Arc::new(1));
        assert_eq!(t.unique_entries(), 0);
        assert!(t.evictions() >= 1);
        t.insert(MemoKey(vec![9]), Arc::new(2));
        assert_eq!(t.unique_entries(), 0, "still over budget, still evicts");
    }

    #[test]
    fn eviction_forces_recompute_not_wrong_answers() {
        // The memo contract under eviction: a missing entry means the
        // caller recomputes, and recomputation yields the same value
        // (values are pure functions of keys). Model that here: evict,
        // re-insert the recomputed value, and observe the same reads.
        let probe: ShardedMemoTable<u32> = ShardedMemoTable::new(1);
        probe.insert(MemoKey(vec![0]), Arc::new(0));
        let per_entry = probe.bytes();
        let value_of = |k: i64| (k * k) as u32;
        let t: ShardedMemoTable<u32> = ShardedMemoTable::with_capacity(1, 2 * per_entry);
        for round in 0..3 {
            for k in 0..6i64 {
                let key = MemoKey(vec![k]);
                let got = match t.get(&key) {
                    Some(v) => *v,
                    None => {
                        let v = value_of(k);
                        t.insert(key, Arc::new(v));
                        v
                    }
                };
                assert_eq!(got, value_of(k), "round {round} key {k}");
            }
        }
        assert!(t.evictions() > 0, "the cap must actually have bitten");
    }

    #[test]
    fn shared_memo_capacity_splits_between_tables() {
        let m = SharedMemo::with_capacity(2, 1001);
        assert_eq!(m.capacity_bytes(), 1001);
        assert_eq!(m.full.capacity_bytes(), 500);
        assert_eq!(m.gcd.capacity_bytes(), 501);
        let unbounded = SharedMemo::new(2);
        assert_eq!(unbounded.capacity_bytes(), 0);
    }

    #[test]
    fn shard_ops_not_polluted_by_snapshots_or_entry_counts() {
        let t: ShardedMemoTable<u32> = ShardedMemoTable::new(2);
        for i in 0..10 {
            t.insert(MemoKey(vec![i]), Arc::new(i as u32));
        }
        let before: u64 = t.shard_ops().iter().sum();
        let _ = t.unique_entries();
        let _ = t.is_empty();
        let _ = t.snapshot();
        let after: u64 = t.shard_ops().iter().sum();
        assert_eq!(before, after, "read-only scans must not count as ops");
        assert_eq!(after, t.inserts());
    }
}
