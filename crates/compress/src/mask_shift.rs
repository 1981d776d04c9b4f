//! GlueFL's gradual mask shifting (§3.2, Algorithm 3).
//!
//! The server holds a *shared mask* `M_t` with ratio `q_shr < q`. Each
//! round:
//!
//! 1. clients send (a) the values of their delta under `M_t` (positions
//!    are already known to the server, so none travel) and (b) their
//!    top `q − q_shr` coordinates *outside* `M_t` ([`client_split`]);
//! 2. the server aggregates both parts, updates the model, and *shifts*
//!    the mask to the top `q_shr` coordinates of the combined aggregate
//!    ([`shift_mask`]), so consecutive model updates overlap in at least
//!    `q_shr·d` positions;
//! 3. every `I` rounds the mask is *regenerated* from the unique part only
//!    (§3.3: the regeneration rounds of `gluefl_core`'s
//!    `Strategy::GlueFl` fold shift from an update whose shared part was left out), letting
//!    newly-unstable parameters enter the mask wholesale.

use crate::stc::keep_count;
use gluefl_tensor::{
    top_k_abs_masked, top_k_abs_masked_into, top_k_abs_packed_into, BitMask, MaskAligned,
    SparseUpdate, TopKScope, TopKScratch,
};

/// A client's two-part masked upload (Algorithm 3 lines 16–17).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSplit {
    /// `Δ̃_shr = M_t ⊙ Δ`: values under the shared mask, in its position
    /// order (both sides hold the mask, so neither the upload nor this
    /// struct spells the positions out).
    pub shared: MaskAligned,
    /// `Δ̃_uni = top_{q−q_shr}(¬M_t ⊙ Δ)`: locally-important coordinates
    /// outside the mask (uploaded with explicit positions).
    pub unique: SparseUpdate,
}

/// Splits a client delta against the shared mask: dense values under
/// `mask` plus the `unique_k` largest-magnitude coordinates outside it.
///
/// This is the split on its own, a gather pass and a selection pass; a
/// client's round runs it inside the one walk of
/// [`crate::ErrorCompensator::compress_split`], which is tested against
/// this.
///
/// # Panics
/// Panics if `delta.len() != mask.len()`.
///
/// # Example
/// ```
/// use gluefl_compress::mask_shift::client_split;
/// use gluefl_tensor::BitMask;
/// let delta = vec![1.0, -7.0, 2.0, 0.5];
/// let mask = BitMask::from_indices(4, [0usize]);
/// let split = client_split(&delta, &mask, 2);
/// assert_eq!(split.shared.values(), &[1.0]);
/// assert_eq!(split.unique.indices(), &[1, 2]);
/// ```
#[must_use]
pub fn client_split(delta: &[f32], mask: &BitMask, unique_k: usize) -> ClientSplit {
    assert_eq!(delta.len(), mask.len(), "delta/mask length mismatch");
    let shared = MaskAligned::gather(delta, mask);
    let idx = top_k_abs_masked(delta, unique_k, TopKScope::Outside(mask));
    let unique = SparseUpdate::gather(delta, &idx);
    ClientSplit { shared, unique }
}

/// Server-side mask shift (Algorithm 3 line 26): the next shared mask is
/// the top `q_shr` of the *combined* aggregated update `Δ̃_shr + Δ̃_uni`.
///
/// `eligible` restricts which positions may enter the mask (used to keep
/// BatchNorm statistics out of masks; pass `None` to allow everything).
///
/// # Panics
/// Panics if `q_shr` is outside `[0, 1]` or `eligible` has a different
/// length.
#[must_use]
pub fn shift_mask(combined: &[f32], q_shr: f64, eligible: Option<&BitMask>) -> BitMask {
    let mut scratch = TopKScratch::new();
    shift_mask_with(combined, q_shr, eligible, &mut scratch)
}

/// Allocation-aware [`shift_mask`]: routes the top-k selection through a
/// caller-owned [`TopKScratch`] (the round hot path reuses one per
/// simulation).
///
/// # Panics
/// Same contract as [`shift_mask`].
#[must_use]
pub fn shift_mask_with(
    combined: &[f32],
    q_shr: f64,
    eligible: Option<&BitMask>,
    scratch: &mut TopKScratch,
) -> BitMask {
    let mut out = BitMask::zeros(combined.len());
    shift_mask_into(combined, q_shr, eligible, scratch, &mut out);
    out
}

/// Fully pooled [`shift_mask`]: the selection runs through a caller-owned
/// [`TopKScratch`] and the next mask is written into `out` in place
/// (reset to `combined.len()` zeros first), so a simulation can shift its
/// shared mask every round without allocating.
///
/// # Panics
/// Same contract as [`shift_mask`].
pub fn shift_mask_into(
    combined: &[f32],
    q_shr: f64,
    eligible: Option<&BitMask>,
    scratch: &mut TopKScratch,
    out: &mut BitMask,
) {
    let k = keep_count(combined.len(), q_shr);
    let idx = match eligible {
        Some(e) => {
            assert_eq!(e.len(), combined.len(), "eligible mask length mismatch");
            top_k_abs_masked_into(combined, k, TopKScope::Inside(e), scratch)
        }
        None => top_k_abs_masked_into(combined, k, TopKScope::All, scratch),
    };
    out.reset(combined.len());
    for &i in idx {
        out.set(i, true);
    }
}

/// [`shift_mask_into`] over a *packed* combined update: `support` holds
/// the aggregate's support and `packed` its values at the set positions in
/// ascending order (exact zeros everywhere else). Selects the same next
/// mask as densifying and calling [`shift_mask_into`] — pinned bitwise by
/// the tests here — while scanning only `O(|support| + d/64)` instead of
/// `O(d)` keys.
///
/// # Panics
/// Panics if `packed.len()` differs from the support popcount, `q_shr` is
/// outside `[0, 1]`, or `eligible` has a different length.
pub fn shift_mask_packed_into(
    support: &BitMask,
    packed: &[f32],
    q_shr: f64,
    eligible: Option<&BitMask>,
    scratch: &mut TopKScratch,
    out: &mut BitMask,
) {
    let dim = support.len();
    let k = keep_count(dim, q_shr);
    let idx = match eligible {
        Some(e) => {
            assert_eq!(e.len(), dim, "eligible mask length mismatch");
            top_k_abs_packed_into(support, packed, k, TopKScope::Inside(e), scratch)
        }
        None => top_k_abs_packed_into(support, packed, k, TopKScope::All, scratch),
    };
    out.reset(dim);
    for &i in idx {
        out.set(i, true);
    }
}

/// Lower bound on the overlap of two consecutive *model updates* under
/// mask shifting: both rounds' updates cover the shared mask, so they
/// overlap in at least `q_shr·d` positions (§3.2, last paragraph).
///
/// Returns `round(q_shr · dim)` — useful for assertions and planning.
#[must_use]
pub fn min_update_overlap(dim: usize, q_shr: f64) -> usize {
    keep_count(dim, q_shr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta() -> Vec<f32> {
        vec![5.0, -0.1, 3.0, 0.2, -4.0, 0.3, 0.1, 2.0]
    }

    #[test]
    fn split_partitions_support() {
        let d = delta();
        let mask = BitMask::from_indices(8, [0usize, 2]);
        let s = client_split(&d, &mask, 3);
        // shared values == the mask's positions; unique disjoint from it.
        assert_eq!(
            s.shared.to_dense(&mask),
            vec![5.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
        assert_eq!(s.unique.support().overlap(&mask), 0);
        assert_eq!(s.unique.nnz(), 3);
    }

    #[test]
    fn split_unique_takes_largest_outside() {
        let d = delta();
        let mask = BitMask::from_indices(8, [0usize, 2]);
        let s = client_split(&d, &mask, 2);
        // Outside mask: |-4.0| at 4 and |2.0| at 7 dominate.
        assert_eq!(s.unique.indices(), &[4, 7]);
    }

    #[test]
    fn split_with_zero_unique() {
        let d = delta();
        let mask = BitMask::from_indices(8, [1usize]);
        let s = client_split(&d, &mask, 0);
        assert!(s.unique.is_empty());
        assert_eq!(s.shared.nnz(), 1);
    }

    #[test]
    fn shift_selects_top_qshr_of_combined() {
        let combined = vec![0.1f32, 9.0, 0.2, -8.0, 0.3, 7.0, 0.4, -6.0];
        let m = shift_mask(&combined, 0.25, None);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn shift_into_matches_allocating_form() {
        let combined = vec![0.1f32, 9.0, 0.2, -8.0, 0.3, 7.0, 0.4, -6.0];
        let mut scratch = TopKScratch::new();
        // A dirty, differently-sized mask must be fully overwritten.
        let mut out = BitMask::ones(3);
        shift_mask_into(&combined, 0.25, None, &mut scratch, &mut out);
        assert_eq!(out, shift_mask(&combined, 0.25, None));
    }

    /// The packed shift must select exactly the mask the dense shift
    /// selects on the densified vector — across sparse supports, heavy
    /// ties, zero fill-up (k larger than the support), and an eligibility
    /// restriction.
    #[test]
    fn packed_shift_matches_dense_shift() {
        let dim = 300;
        let mut scratch = TopKScratch::new();
        for (trial, q_shr) in [(0u64, 0.05), (1, 0.2), (2, 0.5), (3, 0.9)] {
            // Deterministic pseudo-random support + values with ties.
            let mut support = BitMask::zeros(dim);
            let mut packed = Vec::new();
            let mut dense = vec![0.0f32; dim];
            for (i, slot) in dense.iter_mut().enumerate() {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(trial * 97);
                if h.is_multiple_of(5) {
                    let v = ((h % 13) as f32 - 6.0) / 4.0; // quantized → ties
                    support.set(i, true);
                    packed.push(v);
                    *slot = v;
                }
            }
            for eligible in [
                None,
                Some(BitMask::from_indices(dim, (0..dim).filter(|i| i % 3 != 0))),
            ] {
                let mut want = BitMask::zeros(dim);
                shift_mask_into(&dense, q_shr, eligible.as_ref(), &mut scratch, &mut want);
                let mut got = BitMask::ones(7); // dirty, wrong size
                shift_mask_packed_into(
                    &support,
                    &packed,
                    q_shr,
                    eligible.as_ref(),
                    &mut scratch,
                    &mut got,
                );
                assert_eq!(
                    got,
                    want,
                    "trial {trial} q_shr {q_shr} eligible {}",
                    eligible.is_some()
                );
            }
        }
    }

    #[test]
    fn consecutive_masks_overlap_when_values_persist() {
        // If the combined aggregate barely changes, the shifted mask is
        // nearly identical round over round.
        let base: Vec<f32> = (0..100).map(|i| ((i * 37) % 100) as f32 / 10.0).collect();
        let m1 = shift_mask(&base, 0.2, None);
        let mut drifted = base.clone();
        for v in drifted.iter_mut().take(5) {
            *v += 0.01;
        }
        let m2 = shift_mask(&drifted, 0.2, None);
        assert!(m1.overlap(&m2) >= 18, "overlap {}", m1.overlap(&m2));
    }

    #[test]
    fn eligible_restriction_is_respected() {
        let combined = vec![9.0f32, 8.0, 7.0, 6.0];
        let eligible = BitMask::from_indices(4, [2usize, 3]);
        let m = shift_mask(&combined, 0.5, Some(&eligible));
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn min_overlap_formula() {
        assert_eq!(min_update_overlap(1000, 0.16), 160);
        assert_eq!(min_update_overlap(10, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "delta/mask length mismatch")]
    fn split_length_mismatch_panics() {
        let _ = client_split(&[1.0], &BitMask::zeros(2), 1);
    }
}
