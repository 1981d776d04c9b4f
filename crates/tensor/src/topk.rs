//! Exact top-k selection by absolute value.
//!
//! Sparsification in STC and GlueFL is the `top_q(·)` operator: keep the `k`
//! coordinates of a delta with the largest magnitudes. The kernel here is a
//! two-pass threshold-count selection over a reusable scratch arena:
//!
//! 1. **Candidate pass** — the scope's candidate positions are enumerated
//!    at word level (`u64` words walked with `trailing_zeros`, so an
//!    `Outside` scope over a dense mask costs `O(d/64 + candidates)`
//!    instead of `d` per-bit tests) and their magnitude keys are packed
//!    into a flat `f32` arena.
//! 2. **Threshold** — introselect (`select_nth_unstable_by`, O(n) average)
//!    over the flat keys finds the k-th largest magnitude. Selecting over
//!    contiguous keys instead of indices avoids an indirect `values[i]`
//!    load per comparison.
//! 3. **Emit pass** — candidates are re-walked in increasing position
//!    order; every key above the threshold is emitted, and ties *at* the
//!    threshold fill the remaining slots smallest-index-first. The output
//!    is therefore already sorted — no final sort — and the tie-break
//!    (magnitude, then smaller index) is identical to a full stable
//!    ranking, so results are reproducible across runs and platforms.
//!
//! NaN magnitudes are mapped below every finite magnitude before any
//! comparison, in both passes, so the selection is total and exact.
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

/// Reusable buffers for [`top_k_abs_masked_into`].
///
/// Owning one `TopKScratch` per simulation (or per thread) makes repeated
/// top-k calls allocation-free once the buffers have grown to the model
/// dimension.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
    /// Magnitude keys of the scope's candidates (NaN mapped to −1).
    keys: Vec<f32>,
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
            keys: Vec::with_capacity(dim),
            out: Vec::with_capacity(dim),
        }
    }
}

/// The magnitude rank key: NaN sorts below every finite magnitude.
#[inline]
fn key_of(v: f32) -> f32 {
    let m = v.abs();
    if m.is_nan() {
        -1.0
    } else {
        m
    }
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

/// Walks the scope's candidate positions within words
/// `[wi_lo, wi_hi)` in increasing order, calling `f(position, key)`.
#[inline]
fn for_each_candidate_in_words(
    values: &[f32],
    scope: TopKScope<'_>,
    wi_lo: usize,
    wi_hi: usize,
    mut f: impl FnMut(usize, f32),
) {
    for wi in wi_lo..wi_hi {
        let mut w = scope_word(scope, wi, values.len());
        let base = wi * 64;
        while w != 0 {
            let i = base + w.trailing_zeros() as usize;
            f(i, key_of(values[i]));
            w &= w - 1;
        }
    }
}

/// Walks the scope's candidate positions in increasing order, calling
/// `f(position, key)` for each.
#[inline]
fn for_each_candidate(values: &[f32], scope: TopKScope<'_>, mut f: impl FnMut(usize, f32)) {
    match scope {
        TopKScope::All => {
            for (i, &v) in values.iter().enumerate() {
                f(i, key_of(v));
            }
        }
        TopKScope::Inside(_) | TopKScope::Outside(_) => {
            for_each_candidate_in_words(values, scope, 0, values.len().div_ceil(64), f);
        }
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

/// Minimum value count before the candidate pass shards across the pool.
#[cfg(feature = "parallel")]
const PAR_MIN_KEYS: usize = 1 << 17;
/// Words per parallel candidate-pass job (1 << 14 words = 2²⁰ bits).
#[cfg(feature = "parallel")]
const PAR_KEY_WORDS: usize = 1 << 14;

/// Packs the scope's candidate keys into `keys` in increasing position
/// order — serial, or sharded across the [`gluefl_pool`] for large
/// inputs under the `parallel` feature. The parallel pass gives each job
/// a word range whose candidate count is pre-computed from the scope
/// mask's popcounts, so every job writes a disjoint `keys` sub-slice and
/// the concatenation is exactly the serial order: the packed keys — and
/// therefore the selection — are bit-identical to serial.
fn pack_candidate_keys(values: &[f32], scope: TopKScope<'_>, keys: &mut Vec<f32>) {
    keys.clear();
    #[cfg(feature = "parallel")]
    if values.len() >= PAR_MIN_KEYS {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if threads > 1 {
            let nwords = values.len().div_ceil(64);
            // Candidate count per word-range job.
            let ranges: Vec<(usize, usize, usize)> = (0..nwords.div_ceil(PAR_KEY_WORDS))
                .map(|j| {
                    let lo = j * PAR_KEY_WORDS;
                    let hi = (lo + PAR_KEY_WORDS).min(nwords);
                    let count: usize = (lo..hi)
                        .map(|wi| scope_word(scope, wi, values.len()).count_ones() as usize)
                        .sum();
                    (lo, hi, count)
                })
                .collect();
            let total: usize = ranges.iter().map(|&(_, _, c)| c).sum();
            keys.resize(total, 0.0);
            let mut jobs = Vec::with_capacity(ranges.len());
            let mut rest: &mut [f32] = keys;
            for (lo, hi, count) in ranges {
                let (chunk, tail) = rest.split_at_mut(count);
                rest = tail;
                jobs.push((lo, hi, chunk));
            }
            gluefl_pool::run(threads, jobs, |(lo, hi, chunk): (_, _, &mut [f32])| {
                let mut at = 0;
                for_each_candidate_in_words(values, scope, lo, hi, |_, key| {
                    chunk[at] = key;
                    at += 1;
                });
                debug_assert_eq!(at, chunk.len());
            });
            return;
        }
    }
    for_each_candidate(values, scope, |_, key| keys.push(key));
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
/// Panics if a scope mask's length differs from `values.len()`.
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
    match scope {
        TopKScope::Inside(m) | TopKScope::Outside(m) => {
            assert_eq!(m.len(), values.len(), "scope mask length mismatch");
        }
        TopKScope::All => {}
    }
    scratch.out.clear();
    if k == 0 {
        return &scratch.out;
    }

    // Pass 1: pack candidate keys into the flat arena (sharded across the
    // pool for large inputs under `parallel`, bit-identical to serial).
    pack_candidate_keys(values, scope, &mut scratch.keys);
    let n = scratch.keys.len();
    if n == 0 {
        return &scratch.out;
    }

    if k >= n {
        // The scope has no more than k candidates: emit them all.
        let out = &mut scratch.out;
        for_each_candidate(values, scope, |i, _| out.push(i));
        return &scratch.out;
    }

    // Introselect the k-th largest key (descending order). Keys are never
    // NaN (mapped to −1 above), so partial_cmp is total here.
    scratch
        .keys
        .select_nth_unstable_by(k - 1, |a, b| b.partial_cmp(a).expect("keys are never NaN"));
    let thr = scratch.keys[k - 1];
    // After partitioning, the first k slots hold the top-k keys (in some
    // order); count how many beat the threshold strictly. The remaining
    // slots go to threshold ties, smallest index first.
    let strictly = scratch.keys[..k].iter().filter(|&&x| x > thr).count();
    let mut ties_left = k - strictly;

    // Pass 2: emit in increasing index order.
    let out = &mut scratch.out;
    for_each_candidate(values, scope, |i, key| {
        if key > thr {
            out.push(i);
        } else if key == thr && ties_left > 0 {
            out.push(i);
            ties_left -= 1;
        }
    });
    debug_assert_eq!(scratch.out.len(), k);
    &scratch.out
}

/// Walks the support∩scope positions in increasing order, calling
/// `f(position, key)` where the key is `key_of` of the position's packed
/// value (`rank` within the support mask indexes `packed`).
#[inline]
fn for_each_packed_candidate(
    support: &BitMask,
    packed: &[f32],
    scope: TopKScope<'_>,
    mut f: impl FnMut(usize, f32),
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
                f(base + bit, key_of(packed[rank]));
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
/// outside the support all share the virtual key `0.0`, so the selection
/// only ranks the packed candidates and falls back to counting-based
/// zero/NaN tie fills when fewer than `k` candidates have positive
/// magnitude. This is what lets GlueFL's aggregate run its mask-shift
/// top-k directly over the packed accumulator.
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
    match scope {
        TopKScope::Inside(m) | TopKScope::Outside(m) => {
            assert_eq!(m.len(), support.len(), "scope mask length mismatch");
        }
        TopKScope::All => {}
    }
    let dim = support.len();
    scratch.out.clear();
    if k == 0 {
        return &scratch.out;
    }
    let total = scope_count(scope, dim);
    if total == 0 {
        return &scratch.out;
    }
    if k >= total {
        // Dense `k >= n` branch: every scope position is emitted.
        let out = &mut scratch.out;
        for wi in 0..dim.div_ceil(64) {
            let mut w = scope_word(scope, wi, dim);
            let base = wi * 64;
            while w != 0 {
                out.push(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        return &scratch.out;
    }

    // Pass 1: keys of the support∩scope candidates only; every other
    // scope position carries the virtual key 0.0 and is accounted for by
    // counting, not materialisation.
    scratch.keys.clear();
    let keys = &mut scratch.keys;
    for_each_packed_candidate(support, packed, scope, |_, key| keys.push(key));
    let positives = scratch.keys.iter().filter(|&&x| x > 0.0).count();

    if positives >= k {
        // The k-th largest virtual key is positive, so no zero-valued
        // position outside the support can be selected: the dense
        // selection restricted to the packed candidates is exact. The
        // threshold, strict count, and tie fill are computed exactly as
        // in the dense kernel (zeros and NaNs sort below every positive
        // key, so dropping them changes neither).
        scratch
            .keys
            .select_nth_unstable_by(k - 1, |a, b| b.partial_cmp(a).expect("keys are never NaN"));
        let thr = scratch.keys[k - 1];
        debug_assert!(thr > 0.0);
        let strictly = scratch.keys[..k].iter().filter(|&&x| x > thr).count();
        let mut ties_left = k - strictly;
        let out = &mut scratch.out;
        for_each_packed_candidate(support, packed, scope, |i, key| {
            if key > thr {
                out.push(i);
            } else if key == thr && ties_left > 0 {
                out.push(i);
                ties_left -= 1;
            }
        });
        debug_assert_eq!(scratch.out.len(), k);
        return &scratch.out;
    }

    // Degenerate fill-up: fewer than k positive magnitudes in scope. The
    // dense threshold is 0.0 (zero-key positions fill the remainder,
    // smallest index first) or −1.0 (all zeros consumed too; NaN-key
    // candidates fill up). Walk the scope ascending with virtual keys and
    // stop as soon as both the above-threshold and tie budgets are spent.
    let zero_keys =
        (total - scratch.keys.len()) + scratch.keys.iter().filter(|&&x| x == 0.0).count();
    let (thr, mut ties_left, mut above_left) = if positives + zero_keys >= k {
        (0.0f32, k - positives, positives)
    } else {
        (-1.0f32, k - positives - zero_keys, positives + zero_keys)
    };
    let out = &mut scratch.out;
    let support_words = support.as_words();
    let mut rank_base = 0usize;
    'words: for (wi, &sw) in support_words.iter().enumerate() {
        let base = wi * 64;
        let mut w = scope_word(scope, wi, dim);
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            let key = if sw >> bit & 1 == 1 {
                let rank = rank_base + (sw & ((1u64 << bit) - 1)).count_ones() as usize;
                key_of(packed[rank])
            } else {
                0.0
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
    debug_assert_eq!(scratch.out.len(), k);
    &scratch.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: full sort.
    fn top_k_by_sort(values: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            let ma = if values[a].abs().is_nan() {
                -1.0
            } else {
                values[a].abs()
            };
            let mb = if values[b].abs().is_nan() {
                -1.0
            } else {
                values[b].abs()
            };
            mb.partial_cmp(&ma).unwrap().then(a.cmp(&b))
        });
        idx.truncate(k.min(values.len()));
        idx.sort_unstable();
        idx
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

            // Reference: rank only the scope's candidates via full sort.
            let reference = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
                let cands: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
                let mut idx = cands.clone();
                idx.sort_by(|&a, &b| {
                    let ma = if values[a].abs().is_nan() {
                        -1.0
                    } else {
                        values[a].abs()
                    };
                    let mb = if values[b].abs().is_nan() {
                        -1.0
                    } else {
                        values[b].abs()
                    };
                    mb.partial_cmp(&ma).unwrap().then(a.cmp(&b))
                });
                idx.truncate(k.min(cands.len()));
                idx.sort_unstable();
                idx
            };

            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Inside(&mask)),
                reference(&|i| mask.get(i)),
                "trial {trial} inside n={n} k={k}"
            );
            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Outside(&mask)),
                reference(&|i| !mask.get(i)),
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

    /// The pool-sharded candidate pass must select exactly what the
    /// serial walk selects: inputs above `PAR_MIN_KEYS` take the parallel
    /// pass, and the scoped reference below recomputes the selection with
    /// an explicitly serial key pack.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_candidate_pass_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = super::PAR_MIN_KEYS + 4321; // off word-boundary tail
        let values: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => f32::NAN,
                2 => rng.gen_range(-2i32..3) as f32,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let mask = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < 0.2));
        let mut scratch = TopKScratch::new();
        for k in [1, 97, n / 50, n / 3] {
            for (name, scope) in [
                ("all", TopKScope::All),
                ("inside", TopKScope::Inside(&mask)),
                ("outside", TopKScope::Outside(&mask)),
            ] {
                // Serial reference: pack keys with the plain walk, then
                // run the same threshold + emit logic via a sort-based
                // top-k over candidate (key, index) pairs.
                let mut cands: Vec<(usize, f32)> = Vec::new();
                super::for_each_candidate(&values, scope, |i, key| cands.push((i, key)));
                let mut ranked = cands.clone();
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                let mut want: Vec<usize> = ranked
                    .iter()
                    .take(k.min(cands.len()))
                    .map(|c| c.0)
                    .collect();
                want.sort_unstable();

                let got = top_k_abs_masked_into(&values, k, scope, &mut scratch).to_vec();
                assert_eq!(got, want, "scope {name} k={k}");
            }
        }
    }
}
