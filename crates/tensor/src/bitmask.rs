//! Compact bitmaps over parameter positions.

use std::fmt;

/// A fixed-length bitmap over `len` parameter positions.
///
/// This is the representation of the paper's shared mask `M_t ∈ B^d`
/// (Algorithm 3): bit `j` is set iff position `j` is covered by the mask.
/// Bits are stored in `u64` words; all operations outside bounds panic, and
/// the unused tail bits of the last word are kept at zero so that
/// [`BitMask::count_ones`] and word-level algebra stay exact.
///
/// # Example
///
/// ```
/// use gluefl_tensor::BitMask;
/// let mut m = BitMask::zeros(10);
/// m.set(3, true);
/// m.set(7, true);
/// assert_eq!(m.count_ones(), 2);
/// assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![3, 7]);
/// let inv = m.not();
/// assert_eq!(inv.count_ones(), 8);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates an all-zero mask over `len` positions.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::zeros(100);
    /// assert_eq!(m.count_ones(), 0);
    /// assert_eq!(m.len(), 100);
    /// ```
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one mask over `len` positions.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::ones(70);
    /// assert_eq!(m.count_ones(), 70);
    /// ```
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut m = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Builds a mask from an iterator of set positions.
    ///
    /// Duplicate indices are allowed (idempotent).
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(8, [1usize, 5, 5]);
    /// assert_eq!(m.count_ones(), 2);
    /// ```
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut m = Self::zeros(len);
        for i in indices {
            m.set(i, true);
        }
        m
    }

    /// Number of positions the mask covers (the model dimension `d`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the mask covers zero positions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if value {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits, `count_ones / len` (0.0 for an empty mask).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Bitwise AND (set intersection).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR (set union).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a | b)
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn and_not(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Bitwise complement (the `¬M_t` of Algorithm 3 line 17).
    #[must_use]
    pub fn not(&self) -> Self {
        let mut out = Self {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.clear_tail();
        out
    }

    /// Resets the mask in place to all-zeros over `len` positions,
    /// reusing the word allocation (buffer-pool friendly: a pooled mask
    /// is `reset` instead of reallocated).
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Overwrites `self` with a copy of `src`, reusing the word
    /// allocation (any previous length is discarded).
    pub fn copy_from(&mut self, src: &Self) {
        self.len = src.len;
        self.words.clear();
        self.words.extend_from_slice(&src.words);
    }

    /// Sets every bit in place (the all-ones mask of the current length).
    pub fn fill_ones(&mut self) {
        self.words.fill(u64::MAX);
        self.clear_tail();
    }

    /// Number of positions set in both masks (overlap `|A ∩ B|`).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn overlap(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "mask length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the set positions in increasing order.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(130, [0usize, 64, 129]);
    /// assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    /// ```
    #[must_use]
    pub fn iter_ones(&self) -> SetBits<'_> {
        SetBits {
            mask: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over the *unset* positions in increasing order.
    ///
    /// Word-level: whole all-ones words are skipped in one step, so
    /// enumerating the complement of a dense mask costs `O(d/64 + zeros)`
    /// rather than `O(d)` per-bit tests.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(5, [0usize, 2, 3]);
    /// assert_eq!(m.iter_zeros().collect::<Vec<_>>(), vec![1, 4]);
    /// // iter_ones and iter_zeros partition the positions.
    /// assert_eq!(m.iter_ones().count() + m.iter_zeros().count(), 5);
    /// ```
    #[must_use]
    pub fn iter_zeros(&self) -> ZeroBits<'_> {
        ZeroBits {
            mask: self,
            word_idx: 0,
            current: self.complement_word(0),
        }
    }

    /// Calls `f` with each set position in increasing order.
    ///
    /// Equivalent to `for i in self.iter_ones() { f(i) }` but with the
    /// word loop inlined — this is the preferred form in hot paths.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(130, [1usize, 64, 129]);
    /// let mut got = Vec::new();
    /// m.for_each_one(|i| got.push(i));
    /// assert_eq!(got, vec![1, 64, 129]);
    /// ```
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            let base = wi * 64;
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// The backing `u64` words, least-significant bit first. Unused tail
    /// bits of the last word are always zero.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Calls `f(start, len)` for each maximal run of consecutive set
    /// bits, in increasing order.
    ///
    /// Word-level: all-zero and all-ones words are consumed in one step,
    /// so enumerating the runs of a block-structured mask costs
    /// `O(d/64 + runs)` — this is the walk behind the wire protocol's
    /// run-length mask sections and the run-aware scatter kernels.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(10, [1usize, 2, 3, 7]);
    /// let mut runs = Vec::new();
    /// m.for_each_run(|start, len| runs.push((start, len)));
    /// assert_eq!(runs, vec![(1, 3), (7, 1)]);
    /// ```
    pub fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        let mut open: Option<usize> = None; // start of the run in progress
        for (wi, &word) in self.words.iter().enumerate() {
            let base = wi * 64;
            if word == 0 {
                if let Some(start) = open.take() {
                    f(start, base - start);
                }
                continue;
            }
            if word == u64::MAX {
                if open.is_none() {
                    open = Some(base);
                }
                continue;
            }
            let mut bit = 0usize;
            while bit < 64 {
                let rest = word >> bit;
                if let Some(start) = open {
                    let ones = rest.trailing_ones() as usize;
                    if bit + ones >= 64 {
                        break; // run continues into the next word
                    }
                    bit += ones;
                    f(start, base + bit - start);
                    open = None;
                } else {
                    let zeros = rest.trailing_zeros() as usize;
                    if bit + zeros >= 64 {
                        break; // no more set bits in this word
                    }
                    bit += zeros;
                    open = Some(base + bit);
                }
            }
        }
        if let Some(start) = open {
            f(start, self.len - start);
        }
    }

    /// Sets the `count` bits starting at `start` (word-level: interior
    /// whole words are filled in one store each).
    ///
    /// # Panics
    /// Panics if `start + count > len`.
    pub fn set_range(&mut self, start: usize, count: usize) {
        assert!(
            start + count <= self.len,
            "range {start}+{count} out of bounds {}",
            self.len
        );
        if count == 0 {
            return;
        }
        let end = start + count; // exclusive
        let (first_w, last_w) = (start / 64, (end - 1) / 64);
        if first_w == last_w {
            let width = count;
            let bits = if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << (start % 64)
            };
            self.words[first_w] |= bits;
            return;
        }
        self.words[first_w] |= u64::MAX << (start % 64);
        for w in &mut self.words[first_w + 1..last_w] {
            *w = u64::MAX;
        }
        let tail = end % 64;
        self.words[last_w] |= if tail == 0 {
            u64::MAX
        } else {
            (1u64 << tail) - 1
        };
    }

    /// Adds `scale × values[j]` to the `j`-th covered position of `dense`,
    /// like [`BitMask::scatter_add`], but walking maximal runs of set
    /// bits and running one contiguous AXPY per run instead of per-bit
    /// scatter within mixed words.
    ///
    /// Bit-identical to `scatter_add` — every covered position receives
    /// the same single `+= scale · v` — but when the mask has long runs
    /// (shared masks regrown from top-k blocks, RLE-shipped masks) the
    /// inner loop is the vectorized dense kernel.
    ///
    /// # Panics
    /// Panics if `dense.len() != self.len()` or `values.len()` differs
    /// from the number of set bits.
    pub fn scatter_add_runs(&self, dense: &mut [f32], values: &[f32], scale: f32) {
        assert_eq!(dense.len(), self.len, "mask/vector length mismatch");
        assert_eq!(
            values.len(),
            self.count_ones(),
            "values length must equal count_ones"
        );
        let mut j = 0usize;
        self.for_each_run(|start, len| {
            crate::vecops::axpy(&mut dense[start..start + len], scale, &values[j..j + len]);
            j += len;
        });
    }

    /// Appends the mask's canonical byte serialization — exactly
    /// `ceil(len/8)` bytes, little-endian within each backing word, bit
    /// `i` of the mask at bit `i % 8` of byte `i / 8` — to `out`.
    ///
    /// This is the `d`-bit bitmap layout of the wire protocol's position
    /// sections; the tail bits of the final byte beyond `len` are zero
    /// (the word invariant guarantees it).
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(10, [0usize, 9]);
    /// let mut out = Vec::new();
    /// m.extend_le_bytes(&mut out);
    /// assert_eq!(out, vec![0b0000_0001, 0b0000_0010]);
    /// ```
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let n_bytes = self.len.div_ceil(8);
        out.reserve(n_bytes);
        let mut remaining = n_bytes;
        for w in &self.words {
            let take = remaining.min(8);
            out.extend_from_slice(&w.to_le_bytes()[..take]);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Overwrites the mask's bits from the canonical byte serialization
    /// produced by [`BitMask::extend_le_bytes`], keeping the current
    /// length (word storage is reused — pool-friendly).
    ///
    /// # Panics
    /// Panics if `bytes.len() != ceil(len/8)` or if a padding bit beyond
    /// `len` is set in the final byte (callers deserializing untrusted
    /// input must validate the tail first).
    pub fn fill_from_le_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.len.div_ceil(8),
            "byte length must be ceil(len/8)"
        );
        if !self.len.is_multiple_of(8) {
            let tail = bytes[bytes.len() - 1];
            assert_eq!(
                tail >> (self.len % 8),
                0,
                "padding bits beyond len must be zero"
            );
        }
        self.words.fill(0);
        for (wi, chunk) in bytes.chunks(8).enumerate() {
            let mut word_bytes = [0u8; 8];
            word_bytes[..chunk.len()].copy_from_slice(chunk);
            self.words[wi] = u64::from_le_bytes(word_bytes);
        }
    }

    /// Adds `scale × values[j]` to the `j`-th covered position of `dense`,
    /// where `values` is packed in increasing position order.
    ///
    /// This is the aggregation/apply kernel for mask-aligned payloads:
    /// when many clients share the same mask, their value arrays can be
    /// summed contiguously and scattered through the mask once — and the
    /// server applies a packed [`crate::MaskedUpdate`] the same way.
    /// Word-level: all-zero words are skipped, all-ones words run the
    /// dense AXPY kernel over the 64 contiguous packed values, and only
    /// mixed words fall back to per-bit scatter.
    ///
    /// # Panics
    /// Panics if `dense.len() != self.len()` or `values.len()` differs
    /// from the number of set bits.
    ///
    /// # Example
    /// ```
    /// let m = gluefl_tensor::BitMask::from_indices(4, [1usize, 3]);
    /// let mut dense = vec![0.0f32; 4];
    /// m.scatter_add(&mut dense, &[10.0, 20.0], 0.5);
    /// assert_eq!(dense, vec![0.0, 5.0, 0.0, 10.0]);
    /// ```
    pub fn scatter_add(&self, dense: &mut [f32], values: &[f32], scale: f32) {
        assert_eq!(dense.len(), self.len, "mask/vector length mismatch");
        assert_eq!(
            values.len(),
            self.count_ones(),
            "values length must equal count_ones"
        );
        let mut j = 0usize;
        for (wi, &word) in self.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = wi * 64;
            if word == u64::MAX {
                // A full word has 64 set bits, so the packed values are
                // contiguous and the dense chunk is a whole word: run the
                // vectorized AXPY (same per-element `+= scale·v`).
                crate::vecops::axpy(&mut dense[base..base + 64], scale, &values[j..j + 64]);
                j += 64;
                continue;
            }
            let mut w = word;
            while w != 0 {
                let i = base + w.trailing_zeros() as usize;
                dense[i] += scale * values[j];
                j += 1;
                w &= w - 1;
            }
        }
    }

    /// Zeroes every position of `dense` that the mask does not cover
    /// (the `M ⊙ Δ` operation of Algorithm 3 line 16).
    ///
    /// Word-level: all-ones words are skipped, all-zero words become a
    /// single `fill`, and only mixed words fall back to per-bit tests.
    ///
    /// # Panics
    /// Panics if `dense.len() != self.len()`.
    pub fn apply_to(&self, dense: &mut [f32]) {
        assert_eq!(dense.len(), self.len, "mask/vector length mismatch");
        for (chunk, &w) in dense.chunks_mut(64).zip(&self.words) {
            if w == u64::MAX {
                continue;
            }
            if w == 0 {
                chunk.fill(0.0);
                continue;
            }
            for (b, v) in chunk.iter_mut().enumerate() {
                if (w >> b) & 1 == 0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Complement of word `wi` with the unused tail bits cleared.
    fn complement_word(&self, wi: usize) -> u64 {
        let Some(&w) = self.words.get(wi) else {
            return 0;
        };
        let mut c = !w;
        if wi == self.words.len() - 1 {
            let tail = self.len % 64;
            if tail != 0 {
                c &= (1u64 << tail) - 1;
            }
        }
        c
    }

    fn zip_words(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.len, other.len, "mask length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| f(*a, *b))
                .collect(),
            len: self.len,
        }
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMask(len={}, ones={}, density={:.4})",
            self.len,
            self.count_ones(),
            self.density()
        )
    }
}

/// Iterator over the set bit positions of a [`BitMask`], in increasing order.
///
/// Produced by [`BitMask::iter_ones`].
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    mask: &'a BitMask,
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.mask.words.len() {
                return None;
            }
            self.current = self.mask.words[self.word_idx];
        }
    }
}

/// Iterator over the *unset* bit positions of a [`BitMask`], in
/// increasing order. Produced by [`BitMask::iter_zeros`].
#[derive(Debug, Clone)]
pub struct ZeroBits<'a> {
    mask: &'a BitMask,
    word_idx: usize,
    current: u64,
}

impl Iterator for ZeroBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.mask.words.len() {
                return None;
            }
            self.current = self.mask.complement_word(self.word_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_counts() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(BitMask::zeros(len).count_ones(), 0, "len={len}");
            assert_eq!(BitMask::ones(len).count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::zeros(200);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(199, true);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(199));
        assert!(!m.get(1) && !m.get(62) && !m.get(65) && !m.get(198));
        m.set(63, false);
        assert!(!m.get(63));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn not_respects_tail() {
        let m = BitMask::zeros(70);
        let inv = m.not();
        assert_eq!(inv.count_ones(), 70);
        // De Morgan on the complement: not(not(m)) == m
        assert_eq!(inv.not(), m);
    }

    #[test]
    fn and_or_and_not_are_setwise() {
        let a = BitMask::from_indices(10, [1usize, 2, 3]);
        let b = BitMask::from_indices(10, [3usize, 4]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.or(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(a.and_not(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.overlap(&b), 1);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let idx = vec![0usize, 1, 63, 64, 65, 127, 128, 199];
        let m = BitMask::from_indices(200, idx.iter().copied());
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn apply_to_zeroes_uncovered() {
        let m = BitMask::from_indices(4, [1usize, 3]);
        let mut v = vec![1.0f32, 2.0, 3.0, 4.0];
        m.apply_to(&mut v);
        assert_eq!(v, vec![0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn apply_to_matches_per_bit_reference() {
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let m = BitMask::from_indices(len, (0..len).filter(|i| i % 3 == 0));
            let mut fast: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let mut slow = fast.clone();
            m.apply_to(&mut fast);
            for (i, v) in slow.iter_mut().enumerate() {
                if !m.get(i) {
                    *v = 0.0;
                }
            }
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn iter_zeros_is_complement_of_iter_ones() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let m = BitMask::from_indices(len, (0..len).filter(|i| i % 7 == 0 || i % 5 == 2));
            let zeros: Vec<usize> = m.iter_zeros().collect();
            let expected: Vec<usize> = (0..len).filter(|&i| !m.get(i)).collect();
            assert_eq!(zeros, expected, "len={len}");
            assert_eq!(m.iter_zeros().count() + m.iter_ones().count(), len);
        }
    }

    #[test]
    fn iter_zeros_skips_full_words() {
        let m = BitMask::ones(200);
        assert_eq!(m.iter_zeros().count(), 0);
        let z = BitMask::zeros(130);
        assert_eq!(
            z.iter_zeros().collect::<Vec<_>>(),
            (0..130).collect::<Vec<_>>()
        );
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        let idx = vec![0usize, 1, 63, 64, 65, 127, 128, 199];
        let m = BitMask::from_indices(200, idx.iter().copied());
        let mut got = Vec::new();
        m.for_each_one(|i| got.push(i));
        assert_eq!(got, idx);
    }

    #[test]
    fn scatter_add_accumulates_in_order() {
        let m = BitMask::from_indices(70, [0usize, 64, 69]);
        let mut dense = vec![1.0f32; 70];
        m.scatter_add(&mut dense, &[1.0, 2.0, 3.0], 2.0);
        assert_eq!(dense[0], 3.0);
        assert_eq!(dense[64], 5.0);
        assert_eq!(dense[69], 7.0);
        assert_eq!(dense[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "count_ones")]
    fn scatter_add_rejects_wrong_value_count() {
        let m = BitMask::from_indices(8, [1usize, 2]);
        m.scatter_add(&mut [0.0; 8], &[1.0], 1.0);
    }

    #[test]
    fn scatter_add_full_word_fast_path_matches_per_bit() {
        // First word all-ones, second all-zero, third mixed, tail partial.
        let n = 200;
        let m = BitMask::from_indices(n, (0..64).chain((128..200).filter(|i| i % 2 == 0)));
        let values: Vec<f32> = (0..m.count_ones()).map(|j| j as f32 - 20.0).collect();
        let mut fast = vec![1.0f32; n];
        m.scatter_add(&mut fast, &values, 0.5);
        let mut slow = vec![1.0f32; n];
        let mut j = 0usize;
        for (i, s) in slow.iter_mut().enumerate() {
            if m.get(i) {
                *s += 0.5 * values[j];
                j += 1;
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn for_each_run_matches_per_bit_reference() {
        let patterns: Vec<(usize, Vec<usize>)> = vec![
            (0, vec![]),
            (1, vec![0]),
            (10, vec![1, 2, 3, 7]),
            (64, (0..64).collect()),
            (65, (0..65).collect()),
            (130, vec![63, 64, 65, 127, 128]),
            (200, (0..200).filter(|i| i % 3 != 0).collect()),
            (256, (64..192).collect()),
            (70, vec![69]),
        ];
        for (len, idx) in patterns {
            let m = BitMask::from_indices(len, idx.iter().copied());
            let mut runs = Vec::new();
            m.for_each_run(|s, l| runs.push((s, l)));
            // Reference: scan bits one by one.
            let mut expected = Vec::new();
            let mut open: Option<usize> = None;
            for i in 0..len {
                match (m.get(i), open) {
                    (true, None) => open = Some(i),
                    (false, Some(s)) => {
                        expected.push((s, i - s));
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = open {
                expected.push((s, len - s));
            }
            assert_eq!(runs, expected, "len={len}");
            let covered: usize = runs.iter().map(|&(_, l)| l).sum();
            assert_eq!(covered, m.count_ones(), "len={len}");
        }
    }

    #[test]
    fn set_range_matches_per_bit_sets() {
        for (len, start, count) in [
            (10usize, 2usize, 5usize),
            (64, 0, 64),
            (130, 60, 10),
            (300, 0, 300),
            (300, 63, 129),
            (70, 69, 1),
            (70, 5, 0),
        ] {
            let mut fast = BitMask::from_indices(len, [0usize]);
            fast.set_range(start, count);
            let mut slow = BitMask::from_indices(len, [0usize]);
            for i in start..start + count {
                slow.set(i, true);
            }
            assert_eq!(fast, slow, "len={len} start={start} count={count}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_range_rejects_overflow() {
        BitMask::zeros(10).set_range(8, 3);
    }

    #[test]
    fn scatter_add_runs_is_bit_identical_to_scatter_add() {
        for len in [1usize, 63, 64, 65, 130, 200, 513] {
            let m = BitMask::from_indices(len, (0..len).filter(|i| i % 7 < 4));
            let values: Vec<f32> = (0..m.count_ones())
                .map(|j| ((j as f32) * 0.37).sin())
                .collect();
            let mut a: Vec<f32> = (0..len).map(|i| i as f32 * 0.01).collect();
            let mut b = a.clone();
            m.scatter_add(&mut a, &values, 1.5);
            m.scatter_add_runs(&mut b, &values, 1.5);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "len={len}"
            );
        }
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut m = BitMask::from_indices(100, [3usize, 99]);
        m.reset(70);
        assert_eq!(m.len(), 70);
        assert_eq!(m.count_ones(), 0);
        m.set(69, true);
        assert!(m.get(69));
    }

    #[test]
    fn copy_from_overwrites_any_previous_state() {
        let src = BitMask::from_indices(130, [0usize, 64, 129]);
        let mut dst = BitMask::ones(5);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn fill_ones_respects_tail() {
        let mut m = BitMask::zeros(70);
        m.fill_ones();
        assert_eq!(m, BitMask::ones(70));
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    fn density_is_fractional() {
        let m = BitMask::from_indices(200, 0..20usize);
        assert!((m.density() - 0.1).abs() < 1e-12);
        assert_eq!(BitMask::zeros(0).density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitMask::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let _ = BitMask::zeros(4).and(&BitMask::zeros(5));
    }

    #[test]
    fn le_bytes_round_trip_across_word_boundaries() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 128, 130] {
            let m = BitMask::from_indices(len, (0..len).filter(|i| i % 3 == 0));
            let mut bytes = Vec::new();
            m.extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), len.div_ceil(8), "len={len}");
            let mut back = BitMask::zeros(len);
            back.fill_from_le_bytes(&bytes);
            assert_eq!(back, m, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "ceil(len/8)")]
    fn fill_from_le_bytes_rejects_wrong_length() {
        BitMask::zeros(10).fill_from_le_bytes(&[0u8; 1]);
    }

    #[test]
    #[should_panic(expected = "padding bits")]
    fn fill_from_le_bytes_rejects_set_padding() {
        BitMask::zeros(10).fill_from_le_bytes(&[0, 0b0000_0100]);
    }
}
