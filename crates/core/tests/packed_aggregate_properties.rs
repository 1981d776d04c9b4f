//! Packed-aggregate twins, pinned bit-exact against their dense
//! counterparts.
//!
//! GlueFL's O(q·d) aggregate never stages a dense `d`-length buffer: the
//! fold scatters the unique parts' deferred `(position, w·v)` pairs
//! straight into `(support, packed values)` form, and the mask shift's
//! top-k runs over the packed pair. Each of
//! those packed kernels promises *bit identity* with the dense code it
//! replaced — per position, the same `+= w·v` adds replay in the same
//! order from `+0.0`. These properties pin that promise across
//! adversarial supports (empty, overlapping, single-client, full-width)
//! and weights, so the packed rewrite can never drift the simulated
//! trajectory.

use gluefl_compress::mask_shift::{shift_mask_into, shift_mask_packed_into};
use gluefl_core::aggregate::{accumulate_sparse, scatter_add_packed};
use gluefl_core::ScratchPool;
use gluefl_tensor::{BitMask, SparseUpdate, TopKScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random per-client sparse updates over `dim`, with overlapping
/// supports (each position is picked independently per client).
fn random_updates(rng: &mut StdRng, dim: usize, clients: usize) -> Vec<(f32, SparseUpdate)> {
    (0..clients)
        .map(|_| {
            let w = rng.gen_range(0.05f32..3.0);
            let density = rng.gen_range(0.0f64..0.4);
            let mut pairs: Vec<(u32, f32)> = Vec::new();
            for i in 0..dim as u32 {
                if rng.gen_bool(density) {
                    pairs.push((i, rng.gen_range(-4.0f32..4.0)));
                }
            }
            (w, SparseUpdate::from_pairs(dim, pairs))
        })
        .collect()
}

/// Densifies a `(support, packed)` pair for comparison.
fn densify(support: &BitMask, packed: &[f32]) -> Vec<f32> {
    let mut dense = vec![0.0f32; support.len()];
    let mut r = 0;
    support.for_each_one(|i| {
        dense[i] = packed[r];
        r += 1;
    });
    assert_eq!(r, packed.len());
    dense
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The packed scatter — entries flattened to `(position, w·v)` pairs
    /// in fold order — lands on the same bits as the dense accumulation,
    /// including the exact `+0.0` at union-support positions whose
    /// contributions cancel, and untouched positions staying exactly
    /// `0.0`.
    #[test]
    fn packed_scatter_is_bit_exact(
        dim in 1usize..800,
        clients in 1usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, dim, clients);
        let entries: Vec<(f32, &SparseUpdate)> =
            updates.iter().map(|(w, u)| (*w, u)).collect();

        let mut pool = ScratchPool::new();
        let dense = accumulate_sparse(&entries, dim, &mut pool);

        let mut stream_idx = Vec::new();
        let mut stream_vals = Vec::new();
        for (w, u) in &entries {
            stream_idx.extend_from_slice(u.indices());
            stream_vals.extend(u.values().iter().map(|&v| *w * v));
        }
        let mut support = BitMask::zeros(1);
        let mut offsets = Vec::new();
        let mut packed = Vec::new();
        scatter_add_packed(
            &stream_idx,
            &stream_vals,
            dim,
            &mut support,
            &mut offsets,
            &mut packed,
        );
        prop_assert!(packed.len() <= stream_idx.len(), "support exceeds the union");
        prop_assert_eq!(bits(&densify(&support, &packed)), bits(&dense));
    }

    /// Packed mask shift selects the same next shared mask as densifying
    /// the combined update first, for every `q_shr` and eligibility
    /// scope — ties included (values are quantized to force collisions).
    #[test]
    fn packed_mask_shift_matches_dense(
        dim in 1usize..500,
        q_shr in 0.0f64..1.0,
        with_eligible in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let density = rng.gen_range(0.0f64..0.5);
        let mut support = BitMask::zeros(dim);
        let mut packed = Vec::new();
        for i in 0..dim {
            if rng.gen_bool(density) {
                support.set(i, true);
                // Quantized magnitudes → abundant ties.
                packed.push((rng.gen_range(-4i32..5) as f32) * 0.25);
            }
        }
        let eligible = with_eligible
            .then(|| BitMask::from_indices(dim, (0..dim).filter(|i| i % 3 != 0)));
        let dense = densify(&support, &packed);

        let mut scratch = TopKScratch::new();
        let mut want = BitMask::zeros(1);
        shift_mask_into(&dense, q_shr, eligible.as_ref(), &mut scratch, &mut want);
        let mut got = BitMask::zeros(1);
        shift_mask_packed_into(
            &support,
            &packed,
            q_shr,
            eligible.as_ref(),
            &mut scratch,
            &mut got,
        );
        prop_assert_eq!(got, want);
    }
}
