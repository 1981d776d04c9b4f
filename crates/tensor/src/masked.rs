//! Packed masked model updates — the server's aggregate representation.
//!
//! A [`MaskedUpdate`] is the return type of the strategy seam's
//! aggregation step: a [`BitMask`] naming the covered positions plus the
//! covered values stored *packed* ("dense over the mask", one value per
//! set bit, in increasing position order). A full-dense update — FedAvg's
//! case — is expressed with a full (all-ones) mask, in which case the
//! packed layout coincides with the plain dense vector.
//!
//! The representation exists so the server never has to walk the whole
//! `d`-dimensional parameter vector to apply a sparse round update:
//! [`MaskedUpdate::add_to`] scatters through the mask at word level
//! (64 positions per mask word, with an all-ones-word fast path), and
//! [`MaskedUpdate::for_each_nonzero`] enumerates changed positions in
//! `O(d/64 + nnz)` for staleness tracking.

use crate::vecops;
use crate::BitMask;

/// A model update over the positions of a [`BitMask`], with values packed
/// in increasing position order (`values.len() == mask.count_ones()`).
///
/// # Example
///
/// ```
/// use gluefl_tensor::{BitMask, MaskedUpdate};
/// let mask = BitMask::from_indices(6, [1usize, 4]);
/// let u = MaskedUpdate::new(mask, vec![2.0, -1.0]);
/// let mut params = vec![1.0f32; 6];
/// u.add_to(&mut params);
/// assert_eq!(params, vec![1.0, 3.0, 1.0, 1.0, 0.0, 1.0]);
/// assert_eq!(u.to_dense(), vec![0.0, 2.0, 0.0, 0.0, -1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedUpdate {
    mask: BitMask,
    values: Vec<f32>,
}

impl MaskedUpdate {
    /// Wraps a mask and its packed values.
    ///
    /// # Panics
    /// Panics if `values.len() != mask.count_ones()`.
    #[must_use]
    pub fn new(mask: BitMask, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len(),
            mask.count_ones(),
            "values length must equal the mask's set-bit count"
        );
        Self { mask, values }
    }

    /// Packs the coordinates of `dense` covered by `mask`.
    ///
    /// # Panics
    /// Panics if `dense.len() != mask.len()`.
    #[must_use]
    pub fn from_dense_masked(dense: &[f32], mask: &BitMask) -> Self {
        assert_eq!(dense.len(), mask.len(), "mask/vector length mismatch");
        let mut values = Vec::with_capacity(mask.count_ones());
        mask.for_each_one(|i| values.push(dense[i]));
        Self {
            mask: mask.clone(),
            values,
        }
    }

    /// Dimension of the underlying parameter vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.mask.len()
    }

    /// Number of covered positions.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` when the mask covers every position (the packed values then
    /// *are* the dense vector).
    #[must_use]
    pub fn is_dense(&self) -> bool {
        self.values.len() == self.mask.len()
    }

    /// The support mask.
    #[must_use]
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// The packed values, one per set mask bit, in position order.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Decomposes into `(mask, values)` so a buffer pool can recycle both.
    #[must_use]
    pub fn into_parts(self) -> (BitMask, Vec<f32>) {
        (self.mask, self.values)
    }

    /// Adds the update into `dense`: `dense[i] += value(i)` for every
    /// covered position `i`; uncovered positions are untouched.
    ///
    /// Full-mask updates route through [`vecops::masked_axpy`] (whose
    /// all-ones words run the dense AXPY kernel); sparse updates use the
    /// run-walking [`BitMask::scatter_add_runs`], which performs one
    /// contiguous AXPY per maximal run of covered positions — aggregate
    /// masks regrown from top-k blocks are run-heavy, the same structure
    /// the wire layer's RLE sections exploit. Either way the
    /// per-position arithmetic is a single `+=`, so the result is
    /// bit-identical to a dense `add_assign` of
    /// [`MaskedUpdate::to_dense`] on the covered positions.
    ///
    /// # Panics
    /// Panics if `dense.len() != self.dim()`.
    pub fn add_to(&self, dense: &mut [f32]) {
        if self.is_dense() {
            vecops::masked_axpy(dense, 1.0, &self.values, &self.mask);
        } else {
            self.mask.scatter_add_runs(dense, &self.values, 1.0);
        }
    }

    /// Calls `f(position, value)` for every covered position whose value
    /// is non-zero, in increasing position order.
    ///
    /// This is the changed-position scan of the round loop: `O(d/64 +
    /// nnz)` instead of a dense `O(d)` walk. A full-mask update's packed
    /// values are the dense vector, so it is walked by value alone, with
    /// no bit walk beside it.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, f32)) {
        if self.is_dense() {
            for (i, &v) in self.values.iter().enumerate() {
                if v != 0.0 {
                    f(i, v);
                }
            }
            return;
        }
        let mut j = 0usize;
        self.mask.for_each_one(|i| {
            let v = self.values[j];
            j += 1;
            if v != 0.0 {
                f(i, v);
            }
        });
    }

    /// Densifies into a fresh `Vec<f32>` with zeros at uncovered
    /// positions (the reference layout; used by tests and benchmarks).
    #[must_use]
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        let mut j = 0usize;
        self.mask.for_each_one(|i| {
            out[i] = self.values[j];
            j += 1;
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0f32, 1.5, 0.0, -2.0, 0.0, 3.0, 0.0];
        let mask = BitMask::from_indices(7, [1usize, 3, 5]);
        let u = MaskedUpdate::from_dense_masked(&dense, &mask);
        assert_eq!(u.nnz(), 3);
        assert_eq!(u.values(), &[1.5, -2.0, 3.0]);
        assert_eq!(u.to_dense(), dense);
        // Round-trip through the dense layout is the identity.
        assert_eq!(MaskedUpdate::from_dense_masked(&u.to_dense(), &mask), u);
    }

    #[test]
    fn add_to_matches_dense_add_reference() {
        for len in [1usize, 63, 64, 65, 130, 200] {
            let mask = BitMask::from_indices(len, (0..len).filter(|i| i % 3 != 1));
            let dense: Vec<f32> = (0..len).map(|i| i as f32 - 10.0).collect();
            let u = MaskedUpdate::from_dense_masked(&dense, &mask);
            let mut fast: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let mut reference = fast.clone();
            u.add_to(&mut fast);
            vecops::add_assign(&mut reference, &u.to_dense());
            assert_eq!(fast, reference, "len={len}");
        }
    }

    #[test]
    fn add_to_run_walk_matches_per_bit_scatter() {
        // Run-heavy, word-straddling, and singleton structures: the
        // run-walking path must equal per-bit scatter_add to the bit.
        for (len, picks) in [
            (
                200usize,
                (0..200).filter(|i| i / 50 % 2 == 0).collect::<Vec<_>>(),
            ),
            (130, (60..70).collect()),
            (64, vec![0, 63]),
            (300, (0..300).step_by(7).collect()),
        ] {
            let mask = BitMask::from_indices(len, picks);
            let values: Vec<f32> = (0..mask.count_ones())
                .map(|j| j as f32 * 0.3 - 1.0)
                .collect();
            let u = MaskedUpdate::new(mask.clone(), values.clone());
            let mut fast: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let mut reference = fast.clone();
            u.add_to(&mut fast);
            mask.scatter_add(&mut reference, &values, 1.0);
            assert_eq!(fast, reference, "len={len}");
        }
    }

    #[test]
    fn full_mask_is_dense_layout() {
        let values: Vec<f32> = (0..130).map(|i| i as f32).collect();
        let u = MaskedUpdate::new(BitMask::ones(130), values.clone());
        assert!(u.is_dense());
        assert_eq!(u.to_dense(), values);
        let mut params = vec![1.0f32; 130];
        u.add_to(&mut params);
        for (i, p) in params.iter().enumerate() {
            assert_eq!(*p, 1.0 + i as f32);
        }
    }

    #[test]
    fn for_each_nonzero_skips_explicit_zeros() {
        let mask = BitMask::from_indices(70, [0usize, 5, 64, 69]);
        let u = MaskedUpdate::new(mask, vec![1.0, 0.0, -2.0, 0.0]);
        let mut got = Vec::new();
        u.for_each_nonzero(|i, v| got.push((i, v)));
        assert_eq!(got, vec![(0, 1.0), (64, -2.0)]);
    }

    #[test]
    fn into_parts_returns_buffers() {
        let mask = BitMask::from_indices(4, [2usize]);
        let u = MaskedUpdate::new(mask.clone(), vec![7.0]);
        let (m, v) = u.into_parts();
        assert_eq!(m, mask);
        assert_eq!(v, vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "set-bit count")]
    fn new_rejects_misaligned_values() {
        let _ = MaskedUpdate::new(BitMask::from_indices(8, [1usize, 2]), vec![1.0]);
    }
}
