//! Sparse model updates: (index, value) pairs over a flat parameter vector.

use crate::BitMask;

/// A sparse update over a `dim`-dimensional parameter vector.
///
/// Indices are strictly increasing `u32`s; values are `f32`. This is the
/// payload type for everything the paper sends over the network: masked
/// client gradients `Δ̃_i,shr` / `Δ̃_i,uni` (Algorithm 3 lines 16–17),
/// aggregated server updates `Δ̃_shr + Δ̃_uni`, and the partial-model
/// downloads clients receive when re-synchronising.
///
/// # Example
///
/// ```
/// use gluefl_tensor::SparseUpdate;
/// let u = SparseUpdate::from_pairs(6, vec![(1, 2.0), (4, -1.0)]);
/// let mut w = vec![1.0f32; 6];
/// // `apply` overwrites covered positions (partial-model download)...
/// u.apply(&mut w);
/// assert_eq!(w, vec![1.0, 2.0, 1.0, 1.0, -1.0, 1.0]);
/// // ...while `add_scaled_into` accumulates (weighted aggregation).
/// u.add_scaled_into(&mut w, 0.5);
/// assert_eq!(w, vec![1.0, 3.0, 1.0, 1.0, -1.5, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseUpdate {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseUpdate {
    /// Creates an empty update over `dim` coordinates.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds an update from `(index, value)` pairs.
    ///
    /// Pairs are sorted by index; zero values are kept (an explicit zero is
    /// still a transferred value).
    ///
    /// # Panics
    /// Panics if an index is `>= dim` or if an index repeats.
    #[must_use]
    pub fn from_pairs(dim: usize, mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|p| p.0);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            assert!((i as usize) < dim, "index {i} out of range {dim}");
            if let Some(&last) = indices.last() {
                assert_ne!(last, i, "duplicate index {i}");
            }
            indices.push(i);
            values.push(v);
        }
        Self {
            dim,
            indices,
            values,
        }
    }

    /// Extracts the coordinates of `dense` covered by `mask` with their
    /// positions spelled out. A part the receiver can position itself —
    /// `M ⊙ Δ` under a mask both sides hold — is a
    /// [`crate::MaskAligned`] instead.
    ///
    /// # Panics
    /// Panics if `dense.len() != mask.len()`.
    #[must_use]
    pub fn from_dense_masked(dense: &[f32], mask: &BitMask) -> Self {
        assert_eq!(dense.len(), mask.len(), "mask/vector length mismatch");
        let nnz = mask.count_ones();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        mask.for_each_one(|i| {
            indices.push(i as u32);
            values.push(dense[i]);
        });
        Self {
            dim: dense.len(),
            indices,
            values,
        }
    }

    /// Extracts the listed coordinates of `dense` (indices must be sorted
    /// and unique, e.g. output of [`crate::top_k_abs`]).
    ///
    /// # Panics
    /// Panics if indices are unsorted, repeated, or out of range.
    #[must_use]
    pub fn gather(dense: &[f32], sorted_indices: &[usize]) -> Self {
        Self::gather_in(dense, sorted_indices, Vec::new(), Vec::new())
    }

    /// Buffer-reusing form of [`SparseUpdate::gather`]: fills the caller's
    /// `indices`/`values` buffers (cleared first) instead of allocating.
    ///
    /// # Panics
    /// Panics if indices are unsorted, repeated, or out of range.
    #[must_use]
    pub fn gather_in(
        dense: &[f32],
        sorted_indices: &[usize],
        mut indices: Vec<u32>,
        mut values: Vec<f32>,
    ) -> Self {
        indices.clear();
        indices.reserve(sorted_indices.len());
        values.clear();
        values.reserve(sorted_indices.len());
        let mut prev: Option<usize> = None;
        for &i in sorted_indices {
            assert!(i < dense.len(), "index {i} out of range {}", dense.len());
            if let Some(p) = prev {
                assert!(p < i, "indices must be sorted and unique");
            }
            prev = Some(i);
            indices.push(i as u32);
            values.push(dense[i]);
        }
        Self {
            dim: dense.len(),
            indices,
            values,
        }
    }

    /// Wraps already-sorted `(indices, values)` buffers without copying —
    /// the constructor for payloads arriving off the wire, where the
    /// decoder has produced index/value arrays directly (paired with a
    /// pool via [`SparseUpdate::into_buffers`], it keeps the receive path
    /// allocation-free).
    ///
    /// # Panics
    /// Panics if the buffer lengths differ, an index is `>= dim`, or the
    /// indices are not strictly increasing.
    #[must_use]
    pub fn from_sorted_buffers(dim: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        let mut prev: Option<u32> = None;
        for &i in &indices {
            assert!((i as usize) < dim, "index {i} out of range {dim}");
            if let Some(p) = prev {
                assert!(p < i, "indices must be sorted and unique");
            }
            prev = Some(i);
        }
        Self {
            dim,
            indices,
            values,
        }
    }

    /// Decomposes into the `(indices, values)` buffers so a pool can
    /// recycle their allocations (the inverse of the `*_in` constructors).
    #[must_use]
    pub fn into_buffers(self) -> (Vec<u32>, Vec<f32>) {
        (self.indices, self.values)
    }

    /// Dimension of the underlying parameter vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (index, value) pairs.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` if the update carries no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted coordinate indices.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The values, aligned with [`SparseUpdate::indices`].
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.indices
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Sets the coordinates of `dense` covered by this update to the stored
    /// values (overwrite semantics — used for partial model downloads).
    ///
    /// # Panics
    /// Panics if `dense.len() != self.dim()`.
    pub fn apply(&self, dense: &mut [f32]) {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        for (i, v) in self.iter() {
            dense[i] = v;
        }
    }

    /// Adds `scale ×` the stored values into `dense`
    /// (accumulate semantics — used for weighted aggregation).
    ///
    /// # Panics
    /// Panics if `dense.len() != self.dim()`.
    pub fn add_scaled_into(&self, dense: &mut [f32], scale: f32) {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        for (i, v) in self.iter() {
            dense[i] += scale * v;
        }
    }

    /// Densifies into a fresh `Vec<f32>` with zeros elsewhere.
    #[must_use]
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.apply(&mut out);
        out
    }

    /// The set of covered positions as a [`BitMask`].
    #[must_use]
    pub fn support(&self) -> BitMask {
        BitMask::from_indices(self.dim, self.indices.iter().map(|&i| i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top_k_abs;

    #[test]
    fn from_pairs_sorts() {
        let u = SparseUpdate::from_pairs(10, vec![(7, 1.0), (2, 2.0)]);
        assert_eq!(u.indices(), &[2, 7]);
        assert_eq!(u.values(), &[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn from_pairs_rejects_duplicates() {
        let _ = SparseUpdate::from_pairs(10, vec![(2, 1.0), (2, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pairs_rejects_out_of_range() {
        let _ = SparseUpdate::from_pairs(2, vec![(2, 1.0)]);
    }

    #[test]
    fn from_dense_masked_roundtrip() {
        let dense = vec![1.0f32, 0.0, 3.0, 4.0];
        let mask = BitMask::from_indices(4, [0usize, 2]);
        let u = SparseUpdate::from_dense_masked(&dense, &mask);
        assert_eq!(u.nnz(), 2);
        assert_eq!(u.to_dense(), vec![1.0, 0.0, 3.0, 0.0]);
        assert_eq!(u.support(), mask);
    }

    #[test]
    fn gather_from_topk() {
        let dense = vec![0.1f32, -9.0, 0.2, 8.0];
        let idx = top_k_abs(&dense, 2);
        let u = SparseUpdate::gather(&dense, &idx);
        assert_eq!(u.indices(), &[1, 3]);
        assert_eq!(u.values(), &[-9.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn gather_rejects_unsorted() {
        let _ = SparseUpdate::gather(&[1.0, 2.0], &[1, 0]);
    }

    #[test]
    fn from_sorted_buffers_wraps_without_copying() {
        let u = SparseUpdate::from_sorted_buffers(10, vec![1, 4, 9], vec![1.0, 2.0, 3.0]);
        assert_eq!(u.indices(), &[1, 4, 9]);
        assert_eq!(u.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(
            u,
            SparseUpdate::from_pairs(10, vec![(1, 1.0), (4, 2.0), (9, 3.0)])
        );
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn from_sorted_buffers_rejects_unsorted() {
        let _ = SparseUpdate::from_sorted_buffers(10, vec![4, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_buffers_rejects_out_of_range() {
        let _ = SparseUpdate::from_sorted_buffers(2, vec![2], vec![1.0]);
    }

    #[test]
    fn in_place_constructors_reuse_buffers_and_match() {
        let dense = vec![1.0f32, 0.0, 3.0, 4.0];
        let fresh = SparseUpdate::gather(&dense, &[1, 3]);
        // Recycle dirty buffers through the in-place constructor.
        let (ix, vals) = SparseUpdate::from_pairs(9, vec![(8, 9.0)]).into_buffers();
        let reused = SparseUpdate::gather_in(&dense, &[1, 3], ix, vals);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn apply_overwrites_add_accumulates() {
        let u = SparseUpdate::from_pairs(3, vec![(1, 5.0)]);
        let mut w = vec![1.0f32, 1.0, 1.0];
        u.apply(&mut w);
        assert_eq!(w, vec![1.0, 5.0, 1.0]);
        u.add_scaled_into(&mut w, 2.0);
        assert_eq!(w, vec![1.0, 15.0, 1.0]);
    }

    #[test]
    fn empty_update() {
        let u = SparseUpdate::empty(5);
        assert!(u.is_empty());
        assert_eq!(u.to_dense(), vec![0.0; 5]);
    }

    #[test]
    fn explicit_zero_values_are_kept() {
        let u = SparseUpdate::from_pairs(4, vec![(0, 0.0)]);
        assert_eq!(u.nnz(), 1);
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let u = SparseUpdate::from_pairs(10, vec![(9, 1.0), (0, 2.0), (4, 3.0)]);
        let pairs: Vec<(usize, f32)> = u.iter().collect();
        assert_eq!(pairs, vec![(0, 2.0), (4, 3.0), (9, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn apply_dimension_mismatch_panics() {
        let u = SparseUpdate::empty(3);
        let mut w = vec![0.0f32; 4];
        u.apply(&mut w);
    }
}
