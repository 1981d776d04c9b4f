//! Packed aggregation of sparse upload parts, and its dense reference.
//!
//! Every strategy folds one arriving upload at a time, straight into its
//! accumulator ([`crate::strategies::Upload::add_weighted_into`] for
//! position-space sums, `vecops::axpy` for mask-aligned value arrays).
//! What is left here is the one fold that does not fit that shape:
//! GlueFL's unique parts, whose union support is only known once the
//! last upload has arrived. They are deferred as a flat
//! `(position, weighted value)` stream and summed by
//! [`scatter_add_packed`] directly into the packed `(support, values)`
//! layout of a [`gluefl_tensor::MaskedUpdate`], without staging a
//! `d`-length buffer.
//!
//! Floating-point addition is not associative, so the scatter keeps
//! every position's adds in stream (= fold) order; that makes it
//! bit-identical to [`accumulate_sparse`], the plain dense
//! `acc[i] += w·v` loop the tests pin it against.
//!
//! The module also hosts the `parallel` builds' runtime toggle,
//! `set_parallel_enabled`.

use crate::scratch::ScratchPool;
use gluefl_tensor::{BitMask, SparseUpdate};

/// Accumulates `Σ wᵢ · sparseᵢ` into a dense pooled buffer — the
/// reference the packed scatter is pinned against.
///
/// # Panics
/// Panics if an update's dimension is not `dim`.
#[must_use]
pub fn accumulate_sparse(
    entries: &[(f32, &SparseUpdate)],
    dim: usize,
    pool: &mut ScratchPool,
) -> Vec<f32> {
    let mut acc = pool.take_zeroed(dim);
    for &(w, update) in entries {
        update.add_scaled_into(&mut acc, w);
    }
    acc
}

/// Rebuilds `offsets` as the per-word packed-rank prefix of `support`
/// (`offsets[w]` = number of set bits strictly before word `w`) and
/// returns the total popcount. With it, [`packed_rank`] locates any set
/// position's packed rank in O(1).
fn build_rank_offsets(support: &BitMask, offsets: &mut Vec<u32>) -> usize {
    let words = support.as_words();
    offsets.clear();
    offsets.reserve(words.len());
    let mut rank = 0u32;
    for &w in words {
        offsets.push(rank);
        rank += w.count_ones();
    }
    rank as usize
}

/// Packed rank of set position `i`: set bits before it in earlier words
/// (the prefix) plus set bits below it inside its own word.
#[inline]
pub(crate) fn packed_rank(words: &[u64], offsets: &[u32], i: usize) -> usize {
    (offsets[i >> 6] + (words[i >> 6] & ((1u64 << (i & 63)) - 1)).count_ones()) as usize
}

/// Scatters pre-weighted addends recorded as flat `(position, addend)`
/// streams (entries concatenated in fold order) into packed
/// `(support, values)` form — `O(stream + d/64)` instead of the `O(d)` of
/// staging through a dense buffer. `support` becomes the set of streamed
/// positions, `out[r]` the sum at the `r`-th set position, and `offsets`
/// is left holding the support's rank prefix (reusable with
/// [`BitMask::as_words`] for O(1) rank lookups via `packed_rank`). Per
/// packed position the adds replay in stream order from `+0.0`, so
/// folding `w·v` pairs here is bit-identical to the dense
/// `acc[i] += w·v` loop ([`accumulate_sparse`]).
///
/// # Panics
/// Panics if the streams' lengths differ or a position is at or above
/// `dim`.
pub fn scatter_add_packed(
    indices: &[u32],
    addends: &[f32],
    dim: usize,
    support: &mut BitMask,
    offsets: &mut Vec<u32>,
    out: &mut Vec<f32>,
) {
    assert_eq!(
        indices.len(),
        addends.len(),
        "position/addend stream mismatch"
    );
    support.reset(dim);
    for &i in indices {
        support.set(i as usize, true);
    }
    let total = build_rank_offsets(support, offsets);
    out.clear();
    out.resize(total, 0.0);
    let words = support.as_words();
    if dim <= SHARD {
        for (&i, &t) in indices.iter().zip(addends) {
            out[packed_rank(words, offsets, i as usize)] += t;
        }
        return;
    }
    // The stream is a concatenation of strictly ascending runs (one per
    // folded entry). Split it at the descents, then walk the position
    // space one shard at a time, so each shard's accumulator window,
    // mask words and rank prefix stay cache-resident: per shard
    // the runs replay in stream order and a position occurs at most once
    // per run, so every position's adds keep their stream order
    // bit-for-bit.
    // Two adjacent runs that happen to stay ascending across the seam
    // merge harmlessly — the merged run is still strictly ascending.
    let mut runs = vec![0usize];
    for k in 1..indices.len() {
        if indices[k] <= indices[k - 1] {
            runs.push(k);
        }
    }
    let mut cursors = runs.clone();
    runs.push(indices.len());
    let mut lo = 0;
    while lo < dim {
        let hi = (lo + SHARD).min(dim);
        for (cur, &end) in cursors.iter_mut().zip(&runs[1..]) {
            while *cur < end && (indices[*cur] as usize) < hi {
                out[packed_rank(words, offsets, indices[*cur] as usize)] += addends[*cur];
                *cur += 1;
            }
        }
        lo = hi;
    }
}

/// Positions per cache shard (16Ki × 4B = 64KiB of accumulator): small
/// enough to stay cache-resident while every run's in-range entries are
/// replayed over it.
const SHARD: usize = 1 << 14;

/// Runtime switch for cohort sharding (`parallel` builds only): lets
/// tests compare the threaded and serial executions of the *same* binary
/// bit-for-bit. Defaults to enabled.
#[cfg(feature = "parallel")]
static PARALLEL_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables cohort sharding at runtime (`parallel` builds
/// only): the simulator's client-parallel local training is the one
/// thing that consults the flag. Intended for tests that need both
/// executions in one process; results are bit-identical either way.
#[cfg(feature = "parallel")]
pub fn set_parallel_enabled(enabled: bool) {
    PARALLEL_ENABLED.store(enabled, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(feature = "parallel")]
pub(crate) fn parallel_enabled() -> bool {
    PARALLEL_ENABLED.load(std::sync::atomic::Ordering::SeqCst)
}

/// Serializes tests that toggle [`set_parallel_enabled`]: the flag is
/// process-global, so two concurrently running parity tests could put
/// each other's "serial" arm back on the threaded path and make the
/// comparison vacuous. Every such test must hold this lock.
#[cfg(all(test, feature = "parallel"))]
pub(crate) fn parallel_toggle_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The packed scatter must equal the dense accumulation exactly: same
    /// union support, and at every set position the same bits as the
    /// dense accumulator (including cancellations to ±0.0).
    #[test]
    fn packed_scatter_matches_dense_bitwise() {
        // Past one shard, so the run-splitting sharded scatter runs too.
        let dim = SHARD + 5000;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 9] {
            let updates: Vec<SparseUpdate> = (0..n)
                .map(|_| {
                    let mut pairs: Vec<(u32, f32)> = Vec::new();
                    for i in 0..dim as u32 {
                        if rng.gen::<f64>() < 0.05 {
                            pairs.push((i, rng.gen_range(-1.0..1.0)));
                        }
                    }
                    SparseUpdate::from_pairs(dim, pairs)
                })
                .collect();
            let entries: Vec<(f32, &SparseUpdate)> = updates
                .iter()
                .enumerate()
                .map(|(i, u)| (((i + 1) as f32).sin(), u))
                .collect();
            let mut pool = ScratchPool::new();
            let dense = accumulate_sparse(&entries, dim, &mut pool);

            let mut idx_stream: Vec<u32> = Vec::new();
            let mut val_stream: Vec<f32> = Vec::new();
            for (w, u) in &entries {
                idx_stream.extend_from_slice(u.indices());
                val_stream.extend(u.values().iter().map(|&v| *w * v));
            }
            let mut support = BitMask::zeros(dim);
            let mut offsets = Vec::new();
            let mut packed = Vec::new();
            scatter_add_packed(
                &idx_stream,
                &val_stream,
                dim,
                &mut support,
                &mut offsets,
                &mut packed,
            );
            assert_eq!(support.count_ones(), packed.len());
            let mut r = 0;
            for (i, &dv) in dense.iter().enumerate() {
                if support.get(i) {
                    assert_eq!(
                        dv.to_bits(),
                        packed[r].to_bits(),
                        "bit mismatch at position {i} (n={n})"
                    );
                    r += 1;
                } else {
                    assert_eq!(dv.to_bits(), 0.0f32.to_bits(), "dense nonzero off-support");
                }
            }
        }
    }
}
