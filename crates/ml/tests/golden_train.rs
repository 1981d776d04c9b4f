//! Golden fingerprints of local training at the round benchmark's two
//! model shapes, captured at the commit before the forward kernel put
//! batch rows in the vector lanes (PR 26).
//!
//! A training run's bits may depend on neither how the GEMM kernels
//! block their loops nor the SIMD width they were compiled for. CI runs
//! this file twice: in the ordinary test step at the native width, and
//! under `RUSTFLAGS="-C target-cpu=x86-64"` at baseline SSE2 width. The
//! kernels themselves are pinned to their plain-loop twins by
//! `gluefl-tensor`'s `gemm_properties`; this pins what they add up to.

use gluefl_ml::{Mlp, MlpConfig, TrainSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bit patterns (as
/// `gluefl_transport::fnv1a_f32_bits`).
fn fnv1a(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// One client's delta: `steps` SGD-with-momentum steps on random
/// minibatches of `batch` rows, 64 features and 62 classes (FEMNIST's),
/// from freshly initialised weights with BatchNorm.
fn delta_fnv(hidden: Vec<usize>, batch: usize, steps: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(26);
    let cfg = MlpConfig {
        input_dim: 64,
        hidden,
        classes: 62,
        batch_norm: true,
    };
    let model = Mlp::new(cfg, &mut rng);
    let mut out = vec![f32::NAN; model.num_params()];
    model.topology().train_delta_into(
        model.params(),
        steps,
        0.05,
        0.9,
        |bx, by| {
            bx.clear();
            bx.extend((0..batch * 64).map(|_| rng.gen_range(-2.0f32..2.0)));
            by.clear();
            by.extend((0..batch).map(|_| rng.gen_range(0usize..62)));
        },
        &mut TrainSlot::new(),
        &mut out,
    );
    fnv1a(&out)
}

/// The paper shape: MLP [192, 96], batch 16, E = 3.
#[test]
fn paper_shape_delta_matches_its_golden_fingerprint() {
    assert_eq!(delta_fnv(vec![192, 96], 16, 3), 0xcfc8_7e38_c3cb_1459);
}

/// The wide shape: MLP [4096], batch 4, E = 1.
#[test]
fn wide_shape_delta_matches_its_golden_fingerprint() {
    assert_eq!(delta_fnv(vec![4096], 4, 1), 0x61b4_cb41_9562_9600);
}
