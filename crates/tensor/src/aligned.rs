//! Mask-aligned values — a payload whose positions both sides already hold.

use crate::BitMask;

/// Values aligned to a mask the holder does **not** carry: one value per
/// set bit of that mask, in increasing position order, plus the dimension
/// of the vector the mask spans.
///
/// This is GlueFL's shared part `M_t ⊙ Δ` (Algorithm 3 line 16) and APF's
/// active-set upload: the server broadcast the mask, so the upload is a
/// plain value run with no position bytes — and no position *vector*
/// either. Whoever needs the positions (the fold, the codec-loss
/// feedback, a test densifying the part) brings the mask; a
/// [`crate::MaskedUpdate`] is the pairing that owns one.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{BitMask, MaskAligned};
/// let mask = BitMask::from_indices(6, [1usize, 4]);
/// let part = MaskAligned::gather(&[0.5, 2.0, 0.0, 0.0, -1.0, 9.0], &mask);
/// assert_eq!(part.values(), &[2.0, -1.0]);
/// assert_eq!(part.to_dense(&mask), vec![0.0, 2.0, 0.0, 0.0, -1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaskAligned {
    dim: usize,
    values: Vec<f32>,
}

impl MaskAligned {
    /// A part with no values over `dim` coordinates (the shared part of a
    /// GlueFL regeneration round).
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        Self::new(dim, Vec::new())
    }

    /// Wraps a value run over `dim` coordinates without copying.
    ///
    /// # Panics
    /// Panics if there are more values than coordinates.
    #[must_use]
    pub fn new(dim: usize, values: Vec<f32>) -> Self {
        assert!(values.len() <= dim, "more values than coordinates");
        Self { dim, values }
    }

    /// Extracts the coordinates of `dense` covered by `mask`.
    ///
    /// # Panics
    /// Panics if `dense.len() != mask.len()`.
    #[must_use]
    pub fn gather(dense: &[f32], mask: &BitMask) -> Self {
        Self::gather_in(dense, mask, Vec::new())
    }

    /// Buffer-reusing form of [`MaskAligned::gather`]: fills the caller's
    /// `values` buffer (cleared first) instead of allocating.
    ///
    /// # Panics
    /// Panics if `dense.len() != mask.len()`.
    #[must_use]
    pub fn gather_in(dense: &[f32], mask: &BitMask, mut values: Vec<f32>) -> Self {
        assert_eq!(dense.len(), mask.len(), "mask/vector length mismatch");
        values.clear();
        values.reserve(mask.count_ones());
        mask.for_each_one(|i| values.push(dense[i]));
        Self {
            dim: dense.len(),
            values,
        }
    }

    /// Dimension of the underlying parameter vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of values — the popcount of the mask they are aligned to.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the part carries no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, in the mask's position order.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Gives the value buffer back so a pool can recycle it.
    #[must_use]
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Densifies against the mask the values are aligned to, zeros
    /// elsewhere (the reference layout; used by tests).
    ///
    /// # Panics
    /// Panics if `mask` is not the mask of this part: another length or
    /// another popcount.
    #[must_use]
    pub fn to_dense(&self, mask: &BitMask) -> Vec<f32> {
        assert_eq!(mask.len(), self.dim, "mask/part dimension mismatch");
        assert_eq!(
            mask.count_ones(),
            self.values.len(),
            "part not aligned to the mask"
        );
        let mut out = vec![0.0; self.dim];
        let mut j = 0;
        mask.for_each_one(|i| {
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
    fn gather_reuses_the_buffer_and_matches() {
        let dense = vec![1.0f32, 0.0, 3.0, 4.0];
        let mask = BitMask::from_indices(4, [0usize, 2]);
        let fresh = MaskAligned::gather(&dense, &mask);
        assert_eq!((fresh.dim(), fresh.nnz()), (4, 2));
        let dirty = vec![9.0f32; 7];
        let ptr = dirty.as_ptr();
        let reused = MaskAligned::gather_in(&dense, &mask, dirty);
        assert_eq!(reused, fresh);
        assert_eq!(reused.values().as_ptr(), ptr);
    }

    #[test]
    fn empty_part_costs_a_header_and_densifies_to_zeros() {
        let part = MaskAligned::empty(5);
        assert!(part.is_empty());
        assert_eq!(part.to_dense(&BitMask::zeros(5)), vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "part not aligned to the mask")]
    fn to_dense_rejects_a_foreign_mask() {
        let part = MaskAligned::new(4, vec![1.0]);
        let _ = part.to_dense(&BitMask::from_indices(4, [0usize, 1]));
    }

    #[test]
    #[should_panic(expected = "mask/vector length mismatch")]
    fn gather_rejects_a_mask_of_another_length() {
        let _ = MaskAligned::gather(&[1.0], &BitMask::zeros(2));
    }
}
