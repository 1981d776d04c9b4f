//! Deterministic (optionally parallel) aggregation of client uploads.
//!
//! Floating-point addition is not associative, so a naive "one thread per
//! client, merge at the end" reduction would make results depend on the
//! merge tree (and a per-client tree costs extra dense partial buffers —
//! real memory traffic at `d ≈ 10⁶`). The kernels here shard by
//! **dimension** instead: each worker owns a contiguous range of the
//! accumulator and replays *every* client's entries that fall inside its
//! range, in client order. Consequences:
//!
//! * every accumulator position receives its contributions in exactly the
//!   serial order, so the result is bit-identical to the serial loop for
//!   any worker count — there is no merge step at all;
//! * no partial buffers: the only writes are to the final accumulator;
//! * sparse uploads locate their in-range entries with one binary search
//!   per (client, shard) pair — cheap next to the adds themselves.
//!
//! The serial path is the plain per-client loop; with the `parallel`
//! feature shards run on the vendored `gluefl-pool` workers. Parity is
//! verified bitwise by the tests here. The strategies' folds pass one
//! entry per call (each arriving upload is folded on its own), so the
//! multi-entry sharded branch is exercised by these tests and the kernel
//! ledger only.
//!
//! # Emitting the masked layout
//!
//! Strategies return a [`gluefl_tensor::MaskedUpdate`] (mask + packed
//! values), and where the uploads are mask-aligned the fold accumulates
//! *directly into that packed layout*: a mask-aligned value array is a
//! contiguous [`RangeAddable`] entry — GlueFL's shared parts and APF's
//! known-mask uploads aggregate without ever materialising a dense
//! `d`-sized buffer, and GlueFL's unique parts are scattered into packed
//! form by [`scatter_add_packed`]. Only STC's server mask, which needs a
//! position-space top-k, stages through a dense accumulator, and that
//! buffer stays inside the strategy; the engine only ever sees the
//! packed update.

use crate::scratch::ScratchPool;
use crate::strategies::Upload;
use gluefl_tensor::{vecops, BitMask, SparseUpdate};

/// Entry payloads the aggregation kernels can replay over a position
/// range. Implementations must make `add_scaled_range(out, s, lo)`
/// touch exactly the positions of `add_scaled_range(full, s, 0)` that
/// fall in `[lo, lo + out.len())`, in the same per-position order.
pub trait RangeAddable: Sync {
    /// Adds `scale ×` the entries with positions in
    /// `[lo, lo + out.len())` into `out` (`out[0]` ↔ position `lo`).
    fn add_scaled_range(&self, out: &mut [f32], scale: f32, lo: usize);
}

impl RangeAddable for &Upload {
    fn add_scaled_range(&self, out: &mut [f32], scale: f32, lo: usize) {
        self.add_weighted_range_into(out, scale, lo);
    }
}

impl RangeAddable for &SparseUpdate {
    fn add_scaled_range(&self, out: &mut [f32], scale: f32, lo: usize) {
        self.add_scaled_range_into(out, scale, lo);
    }
}

impl RangeAddable for &[f32] {
    fn add_scaled_range(&self, out: &mut [f32], scale: f32, lo: usize) {
        vecops::axpy(out, scale, &self[lo..lo + out.len()]);
    }
}

/// Accumulates `Σ wᵢ · sparseᵢ` into a dense pooled buffer — the
/// reference the packed scatter is pinned against.
///
/// # Panics
/// Panics if an update's dimension is smaller than `dim`.
#[must_use]
pub fn accumulate_sparse(
    entries: &[(f32, &SparseUpdate)],
    dim: usize,
    pool: &mut ScratchPool,
) -> Vec<f32> {
    let mut acc = pool.take_zeroed(dim);
    accumulate_into(entries, &mut acc);
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
    // folded entry). Split it at the descents, then shard by position
    // range like the dense driver below, so each shard's accumulator
    // window, mask words and rank prefix stay cache-resident: per shard
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
/// enough to stay cache-resident while every client's in-range entries
/// are replayed over it.
const SHARD: usize = 1 << 14;

/// Core driver: replays every entry over the accumulator, shard by shard.
///
/// Sharding serves two purposes with one structure: **cache blocking**
/// (each 64KiB accumulator shard stays hot while all clients' entries in
/// range stream through it — the sparse scatter stops missing on every
/// add) and **parallelism** (shards are disjoint, so `parallel` builds
/// hand them to worker threads). Per accumulator position the
/// contribution order is the entry order in every configuration, so all
/// paths are bit-identical.
pub fn accumulate_into<T: RangeAddable>(entries: &[(f32, T)], acc: &mut [f32]) {
    if entries.is_empty() || acc.is_empty() {
        return;
    }
    if acc.len() <= SHARD || entries.len() == 1 {
        for (w, entry) in entries {
            entry.add_scaled_range(acc, *w, 0);
        }
        return;
    }
    #[cfg(feature = "parallel")]
    {
        // The early return above already filtered accumulators of at most
        // one shard, so anything here is large enough to thread. Each
        // 64KiB shard is one pool job: the work-stealing deques balance
        // shards whose sparse entry density differs, and since shards are
        // disjoint and each replays entries in order, the schedule cannot
        // change any position's contribution order.
        if parallel_enabled() {
            let threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                // At least two workers so the sharded path is really
                // exercised even on single-core machines; the result
                // cannot depend on the worker count by construction.
                .max(2);
            let jobs: Vec<(usize, &mut [f32])> = acc.chunks_mut(SHARD).enumerate().collect();
            gluefl_pool::run(threads, jobs, |(t, out): (usize, &mut [f32])| {
                let lo = t * SHARD;
                for (w, entry) in entries {
                    entry.add_scaled_range(out, *w, lo);
                }
            });
            return;
        }
    }
    for (t, out) in acc.chunks_mut(SHARD).enumerate() {
        let lo = t * SHARD;
        for (w, entry) in entries {
            entry.add_scaled_range(out, *w, lo);
        }
    }
}

/// Runtime switch for the sharded path (`parallel` builds only): lets
/// tests compare the threaded and serial executions of the *same* binary
/// bit-for-bit. Defaults to enabled.
#[cfg(feature = "parallel")]
static PARALLEL_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables the threaded hot paths at runtime (`parallel`
/// builds only): both the sharded aggregation here and the simulator's
/// client-parallel local training consult the flag. Intended for tests
/// and benchmarks that need both executions in one process; results are
/// bit-identical either way.
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

    fn random_uploads(n: usize, dim: usize, seed: u64) -> Vec<Upload> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut pairs: Vec<(u32, f32)> = Vec::new();
                for i in 0..dim as u32 {
                    if rng.gen::<f64>() < 0.3 {
                        pairs.push((i, rng.gen_range(-1.0..1.0)));
                    }
                }
                Upload::Sparse(SparseUpdate::from_pairs(dim, pairs))
            })
            .collect()
    }

    /// The exact reference: the plain sequential per-client loop.
    fn sequential_reference(entries: &[(f32, &Upload)], dim: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; dim];
        for (w, u) in entries {
            u.add_weighted_into(&mut acc, *w);
        }
        acc
    }

    #[test]
    fn matches_sequential_reference_bitwise() {
        // Dimensions straddle the parallel threshold so both paths run
        // under the `parallel` feature.
        for dim in [257usize, 1 << 15] {
            for n in [0usize, 1, 7, 8, 9, 31] {
                let uploads = random_uploads(n, dim, 42 + n as u64);
                let entries: Vec<(f32, &Upload)> = uploads
                    .iter()
                    .enumerate()
                    .map(|(i, u)| (1.0 / (i + 1) as f32, u))
                    .collect();
                let mut got = vec![0.0f32; dim];
                accumulate_into(&entries, &mut got);
                assert_eq!(got, sequential_reference(&entries, dim), "dim={dim} n={n}");
            }
        }
    }

    #[test]
    fn values_accumulation_matches_axpy_loop() {
        let len = 1 << 15;
        let mut rng = StdRng::seed_from_u64(3);
        let arrays: Vec<Vec<f32>> = (0..20)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let entries: Vec<(f32, &[f32])> = arrays
            .iter()
            .enumerate()
            .map(|(i, a)| (0.1 * (i + 1) as f32, a.as_slice()))
            .collect();
        let mut got = vec![0.0f32; len];
        accumulate_into(&entries, &mut got);

        let mut expected = vec![0.0f32; len];
        for (w, a) in &entries {
            vecops::axpy(&mut expected, *w, a);
        }
        assert_eq!(got, expected);
    }

    /// With the `parallel` feature enabled this exercises the sharded
    /// path against the serial loop of the same binary — bit-for-bit.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_matches_serial_bitwise() {
        let _guard = parallel_toggle_lock();
        let dim = 1 << 16;
        let uploads = random_uploads(24, dim, 7);
        let entries: Vec<(f32, &Upload)> = uploads
            .iter()
            .enumerate()
            .map(|(i, u)| ((i as f32).sin(), u))
            .collect();
        let (mut threaded, mut serial) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        set_parallel_enabled(true);
        accumulate_into(&entries, &mut threaded);
        set_parallel_enabled(false);
        accumulate_into(&entries, &mut serial);
        set_parallel_enabled(true);
        assert_eq!(threaded, serial);
    }

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

    #[test]
    fn sparse_range_shards_partition_the_update() {
        let dim = 1000;
        let uploads = random_uploads(1, dim, 9);
        let Upload::Sparse(u) = &uploads[0] else {
            unreachable!()
        };
        let mut full = vec![0.0f32; dim];
        u.add_scaled_into(&mut full, 2.0);
        let mut sharded = vec![0.0f32; dim];
        for (t, chunk) in sharded.chunks_mut(97).enumerate() {
            u.add_scaled_range_into(chunk, 2.0, t * 97);
        }
        assert_eq!(full, sharded);
    }
}
