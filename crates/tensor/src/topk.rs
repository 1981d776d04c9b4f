//! Exact top-k selection by absolute value.
//!
//! Sparsification in STC and GlueFL is the `top_q(·)` operator: keep the `k`
//! coordinates of a delta with the largest magnitudes. The kernel here is
//! an exact *bracket select* over integer rank keys, built so that the
//! dimension-sized input is streamed once and everything after that works
//! on a short list:
//!
//! 1. **Rank keys.** A magnitude maps to a monotone `u32`: NaN → 1, else
//!    the bits of `|v|` plus 2 (so `±0` → 2, `∞` is the largest, and two
//!    keys are equal exactly when the magnitudes are). Integer keys make
//!    every comparison total — there is no float ordering to unwrap.
//! 2. **Bracket.** A fixed strided sample of the in-scope keys (no RNG)
//!    is sorted and a bracket `[lo, hi]` is read off around the `k/n`
//!    quantile, a few standard deviations of the sample quantile wide.
//! 3. **Listing pass** — the only pass over the input, which it takes
//!    one 64-position word at a time from a [`LaneSource`]. Per word the
//!    keys are computed in vector lanes, compared against `lo` into a
//!    bitmask, masked with the scope's word, and the surviving positions
//!    are appended, in increasing order, as packed entries
//!    `key << 32 | !position`. A word with no in-scope bit is not keyed.
//!    The source of [`top_k_abs_masked_into`] is a plain slice; a caller
//!    with per-position work of its own (the client's compress walk:
//!    error compensation, peeling off the mask-aligned part) implements
//!    the trait, and that work happens *in* this pass instead of in
//!    passes of its own ([`top_k_abs_from_into`]).
//! 4. **Select and emit.** Entries above `hi` are certainly selected;
//!    if they number fewer than `k` and the list holds at least `k`, the
//!    k-th largest lies inside the bracket and an integer `select_nth`
//!    over only the in-bracket entries (a few percent of the candidates)
//!    finds it. Entry order is (magnitude descending, index ascending),
//!    so "everything at or above the k-th entry" *is* the documented
//!    tie-break: strictly larger magnitudes, then threshold ties
//!    smallest-index-first. The emit walks the short list, which is
//!    already in position order — no final sort.
//!
//! Exactness never depends on the sample: a bracket that misses (or a
//! scope too small to sample) runs the **same code** with the full
//! bracket `[1, u32::MAX]`, which lists every candidate and is the plain
//! select — a second listing pass, for which the source presents the
//! values of the first. The sample only decides how short the list is.
//!
//! All allocation lives in [`TopKScratch`]; the `*_into` entry points are
//! allocation-free after warm-up, which is what the per-round hot paths
//! (client-side compression, the server-side fold) use.

use crate::BitMask;

/// Restricts which coordinates a top-k selection may choose from.
///
/// GlueFL's client masking (Algorithm 3 line 17) selects the unique local
/// gradient from positions *outside* the shared mask, i.e. `¬M_t ⊙ Δ`; the
/// server-side mask update (line 26) selects over all positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKScope<'a> {
    /// Consider every coordinate.
    All,
    /// Consider only coordinates covered by the mask.
    Inside(&'a BitMask),
    /// Consider only coordinates *not* covered by the mask.
    Outside(&'a BitMask),
}

/// The listing pass's input: a `dim`-position vector handed over one
/// 64-position word at a time, and the scope to select within.
///
/// [`top_k_abs_from_into`] reads the vector three ways, in this order:
/// [`peek`](Self::peek) at the ~1000 positions of the bracket sample;
/// [`word`](Self::word) for every word in ascending order — the listing
/// pass; and, only when the sampled bracket missed, `word` for every word
/// once more. A source is free to *produce* the vector during the first
/// pass (and to do whatever else it has to do per position), as long as
/// `peek` announces the values that pass will present and a second pass
/// presents them again.
pub trait LaneSource {
    /// Number of positions. At most `u32::MAX`.
    fn dim(&self) -> usize;

    /// The candidate bits of word `wi`. No bit at or past [`dim`](Self::dim).
    fn scope_word(&self, wi: usize) -> u64;

    /// The value at position `i`, as the listing pass presents it.
    fn peek(&self, i: usize) -> f32;

    /// The 64 lanes of word `wi`. Lanes at or past [`dim`](Self::dim) are
    /// padding (any value); `pad` is there to hold a partial last word,
    /// see [`word_lanes`].
    fn word<'a>(&'a mut self, wi: usize, pad: &'a mut [f32; 64]) -> &'a [f32; 64];
}

/// Word `wi` of `values` as 64 lanes: a view of the slice when the word
/// is whole, otherwise the partial last word copied into `pad`.
///
/// # Panics
/// Panics if word `wi` starts past the end of `values`.
#[inline]
pub fn word_lanes<'a>(values: &'a [f32], wi: usize, pad: &'a mut [f32; 64]) -> &'a [f32; 64] {
    let tail = &values[wi * 64..];
    match tail.first_chunk() {
        Some(whole) => whole,
        None => {
            pad[..tail.len()].copy_from_slice(tail);
            pad
        }
    }
}

/// A slice under a [`TopKScope`]: the source that does nothing but read.
struct SliceSource<'a> {
    values: &'a [f32],
    scope: TopKScope<'a>,
}

impl LaneSource for SliceSource<'_> {
    fn dim(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn scope_word(&self, wi: usize) -> u64 {
        scope_word(self.scope, wi, self.values.len())
    }

    #[inline]
    fn peek(&self, i: usize) -> f32 {
        self.values[i]
    }

    #[inline]
    fn word<'a>(&'a mut self, wi: usize, pad: &'a mut [f32; 64]) -> &'a [f32; 64] {
        word_lanes(self.values, wi, pad)
    }
}

/// Reusable buffers for [`top_k_abs_masked_into`].
///
/// Owning one `TopKScratch` per simulation (or per thread) makes repeated
/// top-k calls allocation-free once the buffers have grown to the model
/// dimension.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
    /// The listed candidates (`key << 32 | !position`), position-ascending.
    entries: Vec<u64>,
    /// The in-bracket entries the k-th largest is selected over.
    bracket: Vec<u64>,
    /// Strided sample of in-scope rank keys.
    sample: Vec<u32>,
    /// Output arena for the selected indices.
    out: Vec<usize>,
}

impl TopKScratch {
    /// Creates an empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch arena pre-sized for dimension-`dim` selections.
    #[must_use]
    pub fn with_capacity(dim: usize) -> Self {
        Self {
            entries: Vec::with_capacity(dim),
            bracket: Vec::with_capacity(dim),
            sample: Vec::with_capacity(SAMPLE),
            out: Vec::with_capacity(dim),
        }
    }
}

/// Rank key of a NaN magnitude: below every number.
const NAN_KEY: u32 = 1;
/// Rank key of `±0.0`, the smallest number.
const ZERO_KEY: u32 = 2;
/// The bracket that lists every candidate: the plain exact select.
const FULL_BRACKET: (u32, u32) = (NAN_KEY, u32::MAX);

/// Positions the bracket sample reads.
const SAMPLE: usize = 1024;
/// Fewer usable sample keys than this say too little about the quantile.
const MIN_SAMPLE: usize = 64;
/// At or below this many candidates the full select is already cheap.
const SELECT_ALL_BELOW: usize = 4 * SAMPLE;
/// Half-width of the bracket in standard deviations of the sample
/// quantile: wide enough that a miss is a ~10⁻⁴ event on exchangeable
/// input, narrow enough that the bracket holds a few percent of the keys.
const BRACKET_SIGMAS: f64 = 4.0;

/// The magnitude rank key: monotone in `|v|`, NaN below every number.
#[inline]
fn rank_key(v: f32) -> u32 {
    const INF_BITS: u32 = 0x7F80_0000;
    let magnitude = v.to_bits() & 0x7FFF_FFFF;
    if magnitude > INF_BITS {
        NAN_KEY
    } else {
        magnitude + ZERO_KEY
    }
}

/// A candidate packed so that descending entry order is (key descending,
/// position ascending) — the selection's ranking.
#[inline]
fn entry(key: u32, pos: usize) -> u64 {
    u64::from(key) << 32 | u64::from(!(pos as u32))
}

#[inline]
fn entry_key(e: u64) -> u32 {
    (e >> 32) as u32
}

#[inline]
fn entry_pos(e: u64) -> usize {
    !(e as u32) as usize
}

/// The scope's candidate bits within word `wi` of a `len`-bit space.
#[inline]
fn scope_word(scope: TopKScope<'_>, wi: usize, len: usize) -> u64 {
    let nwords = len.div_ceil(64);
    let tail = len % 64;
    let full = if wi == nwords - 1 && tail != 0 {
        (1u64 << tail) - 1
    } else {
        !0u64
    };
    match scope {
        TopKScope::All => full,
        TopKScope::Inside(m) => m.as_words()[wi],
        TopKScope::Outside(m) => !m.as_words()[wi] & full,
    }
}

/// Number of candidate positions the scope admits over a `len`-bit space.
fn scope_count(scope: TopKScope<'_>, len: usize) -> usize {
    match scope {
        TopKScope::All => len,
        TopKScope::Inside(m) => m.count_ones(),
        TopKScope::Outside(m) => len - m.count_ones(),
    }
}

/// Emits every position of the `nwords` candidate words, in increasing
/// order.
fn emit_scope(nwords: usize, scope_word: impl Fn(usize) -> u64, out: &mut Vec<usize>) {
    for wi in 0..nwords {
        let mut w = scope_word(wi);
        while w != 0 {
            out.push(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Checks that positions `0..len` fit the packed entries.
fn check_positions(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "top-k positions are packed into 32 bits"
    );
}

/// Checks that a scope fits a `len`-position selection.
fn check_scope(scope: TopKScope<'_>, len: usize) {
    match scope {
        TopKScope::Inside(m) | TopKScope::Outside(m) => {
            assert_eq!(m.len(), len, "scope mask length mismatch");
        }
        TopKScope::All => {}
    }
}

/// The stride of the bracket sample over a `len`-position input. Odd, so
/// it never locks onto the power-of-two row widths of a weight matrix.
fn sample_stride(len: usize) -> usize {
    (len / SAMPLE).max(1) | 1
}

/// A bracket `[lo, hi]` of rank keys expected to contain the `k`-th
/// largest of the scope's `n` candidates, estimated from a strided sample
/// of the in-scope keys. Falls back to [`FULL_BRACKET`] when the scope is
/// small or too little of the sample lands in it.
fn sample_bracket<S: LaneSource>(
    source: &S,
    k: usize,
    n: usize,
    sample: &mut Vec<u32>,
) -> (u32, u32) {
    if n <= SELECT_ALL_BELOW {
        return FULL_BRACKET;
    }
    let len = source.dim();
    sample.clear();
    for i in (0..len).step_by(sample_stride(len)).take(SAMPLE) {
        if source.scope_word(i / 64) >> (i % 64) & 1 == 1 {
            sample.push(rank_key(source.peek(i)));
        }
    }
    let s = sample.len();
    if s < MIN_SAMPLE {
        return FULL_BRACKET;
    }
    sample.sort_unstable_by(|a, b| b.cmp(a));
    // The k-th largest sits near rank p·s of the descending sample; the
    // sample quantile's standard deviation is sqrt(s·p·(1−p)) ranks.
    let p = k as f64 / n as f64;
    let rank = (p * s as f64) as usize;
    let margin = (BRACKET_SIGMAS * (s as f64 * p * (1.0 - p)).sqrt()).ceil() as usize + 2;
    let hi = if rank >= margin {
        sample[rank - margin]
    } else {
        u32::MAX
    };
    let lo = if rank + margin < s {
        sample[rank + margin]
    } else {
        NAN_KEY
    };
    (lo, hi)
}

/// Appends the in-scope candidates of one 64-position word whose key is
/// at least `lo`, in increasing position order. The key and compare loops
/// are straight-line over fixed-size arrays so they compile to vector
/// code; only the hits are visited one by one.
#[inline]
fn list_word(chunk: &[f32; 64], in_scope: u64, base: usize, lo: u32, entries: &mut Vec<u64>) {
    let mut keys = [0u32; 64];
    for (key, &v) in keys.iter_mut().zip(chunk) {
        *key = rank_key(v);
    }
    let mut hits = 0u64;
    for (j, &key) in keys.iter().enumerate() {
        hits |= u64::from(key >= lo) << j;
    }
    hits &= in_scope;
    while hits != 0 {
        let j = hits.trailing_zeros() as usize;
        entries.push(entry(keys[j], base + j));
        hits &= hits - 1;
    }
}

/// The listing pass: every in-scope candidate with key `>= lo`, packed,
/// in increasing position order. Asks the source for every word — it may
/// have work to do where the scope has none.
fn list_at_least<S: LaneSource>(source: &mut S, lo: u32, entries: &mut Vec<u64>) {
    entries.clear();
    // `scope_word` admits no bit past `len`, so the padding is inert.
    let mut pad = [0.0f32; 64];
    for wi in 0..source.dim().div_ceil(64) {
        let in_scope = source.scope_word(wi);
        let lanes = source.word(wi, &mut pad);
        if in_scope != 0 {
            list_word(lanes, in_scope, wi * 64, lo, entries);
        }
    }
}

/// Emits the positions of the `k` largest `entries` (position-ascending
/// in, position-ascending out), selecting the k-th largest over only the
/// entries with key `<= hi`. Returns `false`, emitting nothing, when the
/// k-th largest is not among those: `k` or more entries lie above `hi`,
/// or the list is shorter than `k`.
fn emit_top_entries(
    entries: &[u64],
    k: usize,
    hi: u32,
    bracket: &mut Vec<u64>,
    out: &mut Vec<usize>,
) -> bool {
    let ceiling = entry(hi, 0);
    bracket.clear();
    bracket.extend(entries.iter().filter(|&&e| e <= ceiling));
    let above = entries.len() - bracket.len();
    if above >= k || k > entries.len() {
        return false;
    }
    let kth_largest = bracket.len() - (k - above);
    let (_, &mut threshold, _) = bracket.select_nth_unstable(kth_largest);
    out.extend(
        entries
            .iter()
            .filter(|&&e| e >= threshold)
            .map(|&e| entry_pos(e)),
    );
    true
}

/// Returns the indices of the `k` largest-magnitude entries of `values`,
/// sorted in increasing index order.
///
/// Ties in magnitude are broken toward the smaller index, which makes the
/// selection deterministic. If `k >= values.len()` every index is returned.
///
/// # Example
///
/// ```
/// let v = [1.0f32, -5.0, 0.0, 5.0, 2.0];
/// // |-5.0| ties with |5.0|; both beat the rest, k=3 adds index 4.
/// assert_eq!(gluefl_tensor::top_k_abs(&v, 3), vec![1, 3, 4]);
/// ```
#[must_use]
pub fn top_k_abs(values: &[f32], k: usize) -> Vec<usize> {
    top_k_abs_masked(values, k, TopKScope::All)
}

/// Like [`top_k_abs`], but restricted to a [`TopKScope`].
///
/// Returns fewer than `k` indices when the scope contains fewer than `k`
/// candidates. NaN magnitudes are treated as smaller than every finite
/// magnitude (they are only selected when nothing else is left).
///
/// Allocates fresh buffers per call; hot paths should hold a
/// [`TopKScratch`] and use [`top_k_abs_masked_into`] instead.
///
/// # Panics
///
/// Panics if a scope mask's length differs from `values.len()`.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_masked, BitMask, TopKScope};
/// let v = [9.0f32, 1.0, 8.0, 2.0];
/// let m = BitMask::from_indices(4, [0usize, 2]);
/// // Outside the mask only indices 1 and 3 are candidates.
/// assert_eq!(
///     top_k_abs_masked(&v, 1, TopKScope::Outside(&m)),
///     vec![3]
/// );
/// ```
#[must_use]
pub fn top_k_abs_masked(values: &[f32], k: usize, scope: TopKScope<'_>) -> Vec<usize> {
    let mut scratch = TopKScratch::new();
    top_k_abs_masked_into(values, k, scope, &mut scratch).to_vec()
}

/// Allocation-free [`top_k_abs_masked`]: selects into `scratch` and
/// returns the sorted indices as a borrow of its output arena.
///
/// # Panics
///
/// Panics if a scope mask's length differs from `values.len()`, or if
/// `values` has more than `u32::MAX` positions.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_masked_into, TopKScope, TopKScratch};
/// let mut scratch = TopKScratch::new();
/// let v = [1.0f32, -5.0, 0.0, 5.0, 2.0];
/// let idx = top_k_abs_masked_into(&v, 2, TopKScope::All, &mut scratch);
/// assert_eq!(idx, &[1, 3]);
/// ```
pub fn top_k_abs_masked_into<'s>(
    values: &[f32],
    k: usize,
    scope: TopKScope<'_>,
    scratch: &'s mut TopKScratch,
) -> &'s [usize] {
    check_scope(scope, values.len());
    top_k_abs_from_into(&mut SliceSource { values, scope }, k, scratch)
}

/// [`top_k_abs_masked_into`] over a [`LaneSource`] instead of a slice:
/// the same selection — ranking, tie-break, NaN handling, sorted output —
/// of the vector the source presents, within the scope it declares.
///
/// The source is asked for its words only when a selection has to be
/// made: `k == 0` and `k >=` the scope's size return without a listing
/// pass. A source that must see every word regardless finishes the walk
/// itself afterwards.
///
/// # Panics
///
/// Panics if the source has more than `u32::MAX` positions.
pub fn top_k_abs_from_into<'s, S: LaneSource>(
    source: &mut S,
    k: usize,
    scratch: &'s mut TopKScratch,
) -> &'s [usize] {
    check_positions(source.dim());
    let nwords = source.dim().div_ceil(64);
    let n: usize = (0..nwords)
        .map(|wi| source.scope_word(wi).count_ones() as usize)
        .sum();
    let TopKScratch {
        entries,
        bracket,
        sample,
        out,
    } = scratch;
    out.clear();
    if k == 0 {
        return out;
    }
    if k >= n {
        // The scope has no more than k candidates: emit them all.
        emit_scope(nwords, |wi| source.scope_word(wi), out);
        return out;
    }
    // The sampled bracket first; if the k-th largest is not inside it,
    // the full bracket, which cannot miss (k < n).
    for (lo, hi) in [sample_bracket(source, k, n, sample), FULL_BRACKET] {
        list_at_least(source, lo, entries);
        if emit_top_entries(entries, k, hi, bracket, out) {
            break;
        }
    }
    debug_assert_eq!(out.len(), k);
    out
}

/// Walks the support∩scope positions in increasing order, calling
/// `f(position, key)` where the key is the rank key of the position's
/// packed value (`rank` within the support mask indexes `packed`).
#[inline]
fn for_each_packed_candidate(
    support: &BitMask,
    packed: &[f32],
    scope: TopKScope<'_>,
    mut f: impl FnMut(usize, u32),
) {
    let dim = support.len();
    let mut rank = 0usize;
    for (wi, &sw) in support.as_words().iter().enumerate() {
        if sw == 0 {
            continue;
        }
        let cw = scope_word(scope, wi, dim);
        let base = wi * 64;
        let mut w = sw;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            if cw >> bit & 1 == 1 {
                f(base + bit, rank_key(packed[rank]));
            }
            rank += 1;
            w &= w - 1;
        }
    }
}

/// Top-k by magnitude over a **(support mask, packed values)** pair,
/// bit-identical to running [`top_k_abs_masked_into`] on the equivalent
/// dense vector — the one holding `packed[rank]` at each of the support
/// mask's one-positions and an exact `0.0` everywhere else — without ever
/// materialising that vector.
///
/// The cost is `O(dim/64 + support_nnz)` instead of `O(dim)`: positions
/// outside the support all share the virtual key of `0.0`, so the
/// selection only lists the packed candidates (then selects and emits
/// exactly as the dense kernel does over its list) and falls back to
/// counting-based zero/NaN tie fills when fewer than `k` candidates have
/// positive magnitude. This is what lets GlueFL's aggregate run its
/// mask-shift top-k directly over the packed accumulator.
///
/// Ordering, tie-breaks (smaller index first), and NaN handling (selected
/// last) are exactly those of the dense kernel; `k >= scope size` emits
/// every scope position.
///
/// # Panics
///
/// Panics if `packed.len()` differs from the support popcount, or if a
/// scope mask's length differs from `support.len()`.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_packed_into, BitMask, TopKScope, TopKScratch};
/// let mut scratch = TopKScratch::new();
/// let support = BitMask::from_indices(6, [1usize, 3, 4]);
/// // Virtual dense vector: [0, 2.0, 0, -5.0, 1.0, 0]
/// let idx = top_k_abs_packed_into(&support, &[2.0, -5.0, 1.0], 2, TopKScope::All, &mut scratch);
/// assert_eq!(idx, &[1, 3]);
/// ```
pub fn top_k_abs_packed_into<'s>(
    support: &BitMask,
    packed: &[f32],
    k: usize,
    scope: TopKScope<'_>,
    scratch: &'s mut TopKScratch,
) -> &'s [usize] {
    assert_eq!(
        support.count_ones(),
        packed.len(),
        "packed length must equal the support popcount"
    );
    let dim = support.len();
    check_positions(dim);
    check_scope(scope, dim);
    let total = scope_count(scope, dim);
    let TopKScratch {
        entries,
        bracket,
        out,
        ..
    } = scratch;
    out.clear();
    if k == 0 {
        return out;
    }
    if k >= total {
        // Dense `k >= n` branch: every scope position is emitted.
        emit_scope(dim.div_ceil(64), |wi| scope_word(scope, wi, dim), out);
        return out;
    }

    // List the support∩scope candidates only; every other scope position
    // carries the virtual key of 0.0 and is accounted for by counting,
    // not materialisation.
    entries.clear();
    for_each_packed_candidate(support, packed, scope, |i, key| entries.push(entry(key, i)));
    let positives = entries.iter().filter(|&&e| entry_key(e) > ZERO_KEY).count();

    if positives >= k {
        // The k-th largest virtual key is positive, so no zero-valued
        // position outside the support can be selected: the dense
        // selection restricted to the packed candidates is exact (zeros
        // and NaNs sort below every positive key, so dropping the
        // virtual ones changes nothing).
        let found = emit_top_entries(entries, k, u32::MAX, bracket, out);
        debug_assert!(found && out.len() == k);
        return out;
    }

    // Degenerate fill-up: fewer than k positive magnitudes in scope. The
    // dense threshold is the zero key (zero-key positions fill the
    // remainder, smallest index first) or the NaN key (all zeros consumed
    // too; NaN-key candidates fill up). Walk the scope ascending with
    // virtual keys and stop as soon as both the above-threshold and tie
    // budgets are spent.
    let zero_keys = (total - entries.len())
        + entries
            .iter()
            .filter(|&&e| entry_key(e) == ZERO_KEY)
            .count();
    let (thr, mut ties_left, mut above_left) = if positives + zero_keys >= k {
        (ZERO_KEY, k - positives, positives)
    } else {
        (NAN_KEY, k - positives - zero_keys, positives + zero_keys)
    };
    let support_words = support.as_words();
    let mut rank_base = 0usize;
    'words: for (wi, &sw) in support_words.iter().enumerate() {
        let base = wi * 64;
        let mut w = scope_word(scope, wi, dim);
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            let key = if sw >> bit & 1 == 1 {
                let rank = rank_base + (sw & ((1u64 << bit) - 1)).count_ones() as usize;
                rank_key(packed[rank])
            } else {
                ZERO_KEY
            };
            if key > thr {
                out.push(base + bit);
                above_left -= 1;
            } else if key == thr && ties_left > 0 {
                out.push(base + bit);
                ties_left -= 1;
            }
            if above_left == 0 && ties_left == 0 {
                break 'words;
            }
            w &= w - 1;
        }
        rank_base += sw.count_ones() as usize;
    }
    debug_assert_eq!(out.len(), k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: full sort of the candidates `keep` admits.
    fn top_k_by_sort_where(values: &[f32], k: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        let magnitude = |i: usize| {
            if values[i].is_nan() {
                -1.0
            } else {
                values[i].abs()
            }
        };
        let mut idx: Vec<usize> = (0..values.len()).filter(|&i| keep(i)).collect();
        idx.sort_by(|&a, &b| {
            magnitude(b)
                .partial_cmp(&magnitude(a))
                .unwrap()
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    fn top_k_by_sort(values: &[f32], k: usize) -> Vec<usize> {
        top_k_by_sort_where(values, k, |_| true)
    }

    #[test]
    fn matches_sort_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..50 {
            let n = rng.gen_range(1..300);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let k = rng.gen_range(0..=n);
            assert_eq!(
                top_k_abs(&values, k),
                top_k_by_sort(&values, k),
                "trial {trial} n={n} k={k}"
            );
        }
    }

    #[test]
    fn matches_sort_reference_with_many_ties() {
        // Quantized values force heavy magnitude ties, stressing the
        // threshold tie-fill path.
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..50 {
            let n = rng.gen_range(1..200);
            let values: Vec<f32> = (0..n).map(|_| (rng.gen_range(-3i32..4)) as f32).collect();
            let k = rng.gen_range(0..=n);
            assert_eq!(
                top_k_abs(&values, k),
                top_k_by_sort(&values, k),
                "trial {trial} n={n} k={k}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        let mut scratch = TopKScratch::with_capacity(64);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let n = rng.gen_range(1..64);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let k = rng.gen_range(0..=n);
            let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).to_vec();
            assert_eq!(got, top_k_by_sort(&values, k));
        }
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_abs(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn k_ge_len_returns_all() {
        assert_eq!(top_k_abs(&[1.0, 2.0], 5), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_abs(&[], 3).is_empty());
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        let v = [2.0f32, -2.0, 2.0, 2.0];
        assert_eq!(top_k_abs(&v, 2), vec![0, 1]);
    }

    #[test]
    fn nan_is_selected_last() {
        let v = [f32::NAN, 1.0, 0.5];
        assert_eq!(top_k_abs(&v, 2), vec![1, 2]);
        assert_eq!(top_k_abs(&v, 3), vec![0, 1, 2]);
    }

    #[test]
    fn all_nan_input_selects_by_index() {
        let v = [f32::NAN, f32::NAN, f32::NAN];
        assert_eq!(top_k_abs(&v, 2), vec![0, 1]);
    }

    #[test]
    fn inside_scope_restricts_candidates() {
        let v = [10.0f32, 9.0, 8.0, 7.0];
        let m = BitMask::from_indices(4, [2usize, 3]);
        assert_eq!(top_k_abs_masked(&v, 1, TopKScope::Inside(&m)), vec![2]);
    }

    #[test]
    fn outside_scope_excludes_mask() {
        let v = [10.0f32, 9.0, 8.0, 7.0];
        let m = BitMask::from_indices(4, [0usize]);
        assert_eq!(top_k_abs_masked(&v, 2, TopKScope::Outside(&m)), vec![1, 2]);
    }

    #[test]
    fn scoped_selection_matches_filtered_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..40 {
            let n = rng.gen_range(1..300);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let density = rng.gen_range(0.0..1.0);
            let mask = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            let k = rng.gen_range(0..=n);

            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Inside(&mask)),
                top_k_by_sort_where(&values, k, |i| mask.get(i)),
                "trial {trial} inside n={n} k={k}"
            );
            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Outside(&mask)),
                top_k_by_sort_where(&values, k, |i| !mask.get(i)),
                "trial {trial} outside n={n} k={k}"
            );
        }
    }

    #[test]
    fn scope_with_fewer_candidates_than_k() {
        let v = [1.0f32, 2.0, 3.0];
        let m = BitMask::from_indices(3, [1usize]);
        assert_eq!(top_k_abs_masked(&v, 5, TopKScope::Inside(&m)), vec![1]);
    }

    #[test]
    fn negative_values_use_magnitude() {
        let v = [-10.0f32, 1.0, 2.0];
        assert_eq!(top_k_abs(&v, 1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "scope mask length mismatch")]
    fn scope_length_mismatch_panics() {
        let m = BitMask::zeros(2);
        let _ = top_k_abs_masked(&[1.0, 2.0, 3.0], 1, TopKScope::Inside(&m));
    }

    /// Expands a (support, packed) pair into its equivalent dense vector.
    fn densify(support: &BitMask, packed: &[f32]) -> Vec<f32> {
        let mut dense = vec![0.0f32; support.len()];
        let mut rank = 0;
        for (i, slot) in dense.iter_mut().enumerate() {
            if support.get(i) {
                *slot = packed[rank];
                rank += 1;
            }
        }
        assert_eq!(rank, packed.len());
        dense
    }

    #[test]
    fn packed_matches_dense_twin_across_scopes() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut packed_scratch = TopKScratch::new();
        let mut dense_scratch = TopKScratch::new();
        for trial in 0..60 {
            let n = rng.gen_range(1..300);
            let density = rng.gen_range(0.0..1.0);
            let support = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            // Values with heavy ties, exact zeros, signed zeros, and NaNs
            // so every selection path (positive threshold, zero fill-up,
            // NaN fill-up) is exercised.
            let packed: Vec<f32> = (0..support.count_ones())
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => rng.gen_range(-3i32..4) as f32,
                    _ => rng.gen_range(-5.0..5.0),
                })
                .collect();
            let dense = densify(&support, &packed);
            let scope_mask =
                BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            for k in [0, 1, n / 7, n / 2, n.saturating_sub(1), n, n + 3] {
                for (name, scope) in [
                    ("all", TopKScope::All),
                    ("inside", TopKScope::Inside(&scope_mask)),
                    ("outside", TopKScope::Outside(&scope_mask)),
                ] {
                    let got =
                        top_k_abs_packed_into(&support, &packed, k, scope, &mut packed_scratch)
                            .to_vec();
                    let want = top_k_abs_masked_into(&dense, k, scope, &mut dense_scratch).to_vec();
                    assert_eq!(got, want, "trial {trial} scope {name} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn packed_with_empty_support_selects_zero_positions() {
        // All virtual keys are 0.0: the fill-up path must pick the
        // smallest scope indices, exactly like the dense kernel.
        let support = BitMask::zeros(10);
        let mut scratch = TopKScratch::new();
        let got = top_k_abs_packed_into(&support, &[], 3, TopKScope::All, &mut scratch);
        assert_eq!(got, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "packed length must equal the support popcount")]
    fn packed_length_mismatch_panics() {
        let support = BitMask::from_indices(4, [0usize, 2]);
        let mut scratch = TopKScratch::new();
        let _ = top_k_abs_packed_into(&support, &[1.0], 1, TopKScope::All, &mut scratch);
    }

    /// Input families that stress the bracket select: each returns a
    /// vector of `n` values.
    fn stress_inputs(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<f32>)> {
        let uniform: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // More than half of all positions tie exactly at the threshold of
        // any mid-range k.
        let tied: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0 => 2.0,
                1 => 0.25,
                _ => {
                    if rng.gen() {
                        1.0
                    } else {
                        -1.0
                    }
                }
            })
            .collect();
        let specials: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0..9) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f32::MIN_POSITIVE / 8.0,
                6 => -f32::MIN_POSITIVE / 2.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        // Heavy-tailed: most mass near zero, like a trained delta.
        let cubed: Vec<f32> = uniform.iter().map(|x| x * x * x * 1e-3).collect();
        vec![
            ("uniform", uniform),
            ("all-equal", vec![1.5; n]),
            ("all-zero", vec![0.0; n]),
            ("tied", tied),
            ("specials", specials),
            ("cubed", cubed),
        ]
    }

    /// Exactness against the sort reference on the shapes the bracket
    /// select has to get right: sizes on both sides of the sampling
    /// cut-over with `dim % 64 != 0`, degenerate brackets (all-equal,
    /// all-zero), heavy threshold ties, non-finite and denormal values,
    /// the `k` corner cases, and scopes from dense to smaller than the
    /// sample.
    #[test]
    fn bracket_select_matches_sort_reference_on_stress_shapes() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut scratch = TopKScratch::new();
        for n in [1, 63, 64, 65, 1000, SELECT_ALL_BELOW + 37, 20_011] {
            for (family, values) in stress_inputs(&mut rng, n) {
                let masks = [0.16, 0.5, 0.97, 1.0 - 20.0 / n as f64].map(|density| {
                    BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density))
                });
                for k in [1, n / 25, n / 5, n / 2, n.saturating_sub(1), n, n + 3] {
                    let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch);
                    assert_eq!(got, top_k_by_sort(&values, k), "{family} all n={n} k={k}");
                    for mask in &masks {
                        let got = top_k_abs_masked_into(
                            &values,
                            k,
                            TopKScope::Inside(mask),
                            &mut scratch,
                        );
                        assert_eq!(
                            got,
                            top_k_by_sort_where(&values, k, |i| mask.get(i)),
                            "{family} inside n={n} k={k}"
                        );
                        let got = top_k_abs_masked_into(
                            &values,
                            k,
                            TopKScope::Outside(mask),
                            &mut scratch,
                        );
                        assert_eq!(
                            got,
                            top_k_by_sort_where(&values, k, |i| !mask.get(i)),
                            "{family} outside n={n} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// An input the strided sample cannot see: every sampled position is
    /// tiny, every other position is large. The sampled bracket must miss
    /// — and the full-bracket retry must still return the exact set.
    #[test]
    fn a_sample_that_misses_falls_back_to_the_full_bracket() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 50_003;
        let stride = sample_stride(n);
        let values: Vec<f32> = (0..n)
            .map(|i| {
                if i % stride == 0 {
                    rng.gen_range(-1e-6..1e-6)
                } else {
                    rng.gen_range(-1.0f32..1.0) + 2.0
                }
            })
            .collect();
        let mut scratch = TopKScratch::new();
        for k in [n / 25, n / 2] {
            let mut source = SliceSource {
                values: &values,
                scope: TopKScope::All,
            };
            let (lo, hi) = sample_bracket(&source, k, n, &mut scratch.sample);
            assert_ne!((lo, hi), FULL_BRACKET, "the sample must have been used");
            list_at_least(&mut source, lo, &mut scratch.entries);
            scratch.out.clear();
            assert!(
                !emit_top_entries(
                    &scratch.entries,
                    k,
                    hi,
                    &mut scratch.bracket,
                    &mut scratch.out
                ),
                "the sampled bracket should miss at k={k}"
            );
            assert!(scratch.out.is_empty(), "a miss emits nothing");
            assert_eq!(
                top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch),
                top_k_by_sort(&values, k),
                "k={k}"
            );
        }
    }

    /// On exchangeable input the sampled bracket holds the k-th largest
    /// and keeps the list short — the property the kernel's speed (never
    /// its result) rests on.
    #[test]
    fn a_representative_sample_brackets_the_threshold() {
        let mut rng = StdRng::seed_from_u64(43);
        let n = 100_003;
        let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mask = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < 0.16));
        let scope = TopKScope::Outside(&mask);
        let candidates = n - mask.count_ones();
        let mut scratch = TopKScratch::new();
        for k in [candidates / 25, candidates / 5] {
            let mut source = SliceSource {
                values: &values,
                scope,
            };
            let (lo, hi) = sample_bracket(&source, k, candidates, &mut scratch.sample);
            list_at_least(&mut source, lo, &mut scratch.entries);
            scratch.out.clear();
            assert!(emit_top_entries(
                &scratch.entries,
                k,
                hi,
                &mut scratch.bracket,
                &mut scratch.out
            ));
            assert!(
                scratch.entries.len() < k + candidates / 10,
                "listed {} of {candidates} candidates for k={k}",
                scratch.entries.len()
            );
            assert_eq!(
                scratch.out,
                top_k_by_sort_where(&values, k, |i| !mask.get(i))
            );
        }
    }

    #[test]
    fn rank_keys_order_magnitudes_with_nan_last() {
        let ascending = [
            f32::NAN,
            0.0,
            f32::MIN_POSITIVE / 4.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for pair in ascending.windows(2) {
            assert!(rank_key(pair[0]) < rank_key(pair[1]), "{pair:?}");
        }
        assert_eq!(rank_key(-0.0), rank_key(0.0));
        assert_eq!(rank_key(-3.5), rank_key(3.5));
        assert_eq!(rank_key(f32::NAN), rank_key(-f32::NAN));
        assert_eq!(rank_key(f32::NEG_INFINITY), rank_key(f32::INFINITY));
        // Packed entries rank by key, then by smaller position.
        assert!(entry(5, 3) > entry(5, 4));
        assert!(entry(6, 4) > entry(5, 3));
        assert_eq!((entry_key(entry(7, 9)), entry_pos(entry(7, 9))), (7, 9));
    }
}
