//! Register-blocked, cache-tiled `f32` matmul micro-kernels for the MLP
//! hot path.
//!
//! Three layouts, named for how the `gluefl-ml` linear layers consume
//! them (all matrices row-major; `W` is stored `[out_dim × in_dim]` as in
//! `torch.nn.Linear`):
//!
//! * [`gemm_nn`] — forward: `out = a · bᵀ + bias` with `a = x`
//!   (`m × k` activations) and `b = W` (`n × k`), i.e.
//!   `out[r][o] = bias[o] + Σ_t a[r][t]·b[o][t]`.
//! * [`gemm_tn`] — backward data: `out = a · b` with `a = d_out`
//!   (`m × p`) and `b = W` (`p × n`), i.e.
//!   `out[r][j] = Σ_o a[r][o]·b[o][j]`.
//! * [`gemm_nt`] — backward weights, *accumulating*: `out += aᵀ · b`
//!   with `a = d_out` (`m × p`) and `b = x` (`m × n`), i.e.
//!   `out[o][j] += Σ_r a[r][o]·b[r][j]` — and [`gemm_nt_sgd`], the same
//!   product consumed by the optimizer instead of stored.
//!
//! Every kernel has a plain-loop reference twin ([`gemm_nn_ref`],
//! [`gemm_tn_ref`], [`gemm_nt_ref`]) and is **bit-exact** against it:
//! blocking tiles the loops for cache and register reuse but never
//! reassociates any output element's reduction. Each element's terms are
//! added in the same ascending reduction order as the naive triple loop,
//! starting from the same initial value (`bias[o]`, `0.0`, or the
//! existing accumulator), and Rust never contracts `mul` + `add` into a
//! fused multiply-add (none is emitted: the code is a separate multiply
//! and add). Speed comes from register blocking — a tile of independent
//! accumulator chains, one per vector lane, hides the add latency of the
//! naive dot product's one serial chain — and from cache tiling of the
//! reduction dimension, not from reordered arithmetic. Three contracts
//! follow:
//!
//! * the thread count does not change the bits: evaluation's row blocks
//!   (`gluefl_ml::EVAL_BLOCK_ROWS` rows) shard only **disjoint row
//!   blocks** of `out` across the vendored
//!   `gluefl_pool` fork-join pool, each job running the serial
//!   kernel;
//! * the SIMD width and the tile sizes do not change the bits (CI also
//!   runs the suites built with `RUSTFLAGS="-C target-cpu=x86-64-v3"`,
//!   i.e. AVX2 and its tiles, and `-C target-cpu=x86-64`, i.e. SSE2);
//! * training/eval trajectories upstream stay bit-identical to the
//!   pre-GEMM per-element loops (`tests/gemm_properties.rs` pins every
//!   kernel to its reference twin).
//!
//! # The forward kernel: batch rows in the vector lanes
//!
//! [`gemm_nn`] reduces along the rows of both `a` and `W`, so neither has
//! independent outputs side by side. The kernel transposes each block of
//! `L` rows of `a` into a t-major stack panel, `panel[t] = [a[r0][t],
//! …, a[r(L−1)][t]]` (one vector), and a tile of eight features
//! multiplies each panel vector by `W[o][t]`, broadcast from `W` **read
//! in place**. `L` is sixteen (one 512-bit vector) for every full block
//! of sixteen rows on an AVX-512 build, and eight (one 256-bit vector)
//! otherwise — on AVX2 and SSE2 builds, and for the rows past the last
//! full block, such as the wide shape's batch of 4, which sixteen lanes
//! would run three-quarters empty. One const-generic kernel serves both
//! lane counts. `W` is not repacked: the previous kernel, features in
//! the lanes, copied `W` t-major on every call — an `n × k` copy that
//! the batch of 16 (wide shape: 4) rows used only 16 (4) times, and ran
//! its feature edge (14 of 62 logits) as scalar dot products. A k-tile
//! carries its partial sums to the next in `out`, so there is no heap.
//!
//! # Tile sizes
//!
//! Every tile is sized for the build's vector registers: AVX-512's 32
//! registers of 512 bits (the workspace's `.cargo/config.toml` lifts
//! LLVM's preference for 256-bit ones), or AVX2's 16 of 256 bits. Each
//! constant's note says what it was measured against. Median µs per call
//! on the 2-core AVX-512 box (`(batch, in, out)` = `gemm_nn(m = batch,
//! n = out, k = in)`, `gemm_tn(m = batch, p = out, n = in)`,
//! `gemm_nt_sgd(m = batch, p = out, n = in)`; 2 000 calls per shape,
//! warm caches, the fastest of twelve alternating processes per side,
//! as the box's speed swings between processes), before — the 256-bit
//! build with the AVX2 tiles — and after:
//!
//! | `(batch, in, out)` | `gemm_nn`   | `gemm_tn`   | `gemm_nt_sgd` |
//! |--------------------|-------------|-------------|---------------|
//! | (16, 64, 192)      | 8.5 → 6.8   | 7.5 → 4.9   | 10.4 → 6.9    |
//! | (16, 192, 96)      | 11.0 → 9.2  | 11.6 → 7.3  | 15.1 → 10.3   |
//! | (16, 96, 62)       | 4.1 → 3.7   | 3.5 → 2.3   | 5.3 → 3.6     |
//! | (4, 64, 4096)      | 84.7 → 82.3 | 41.8 → 25.9 | 107.6 → 80.9  |
//! | (4, 4096, 62)      | 76.5 → 79.5 | 50.5 → 28.3 | 123.3 → 93.4  |
//!
//! Batch 16 is the paper shape, batch 4 the wide one, whose forward
//! product keeps eight lanes and so its code (1.00–1.01× in-process).
//!
//! The backward tiles assume layer widths (the `n` of [`gemm_tn`] and
//! [`gemm_nt_sgd`]) that are multiples of sixteen, as every model
//! profile's are (64, 160, 80, 192, 96, 256, 128 and 4 096): a width of
//! 16 mod 32 runs its last sixteen columns in one `JB_REST`-wide tile of
//! the same kernel, not in the scalar edge. `mobilenet_like`'s 80-wide
//! layer at batch 16 (`(16, 80, 62)`, fastest of six alternating
//! processes per side): [`gemm_tn`] 2.9 → 2.1 µs and [`gemm_nt_sgd`]
//! 4.2 → 2.9 µs, where 32-column tiles with a scalar edge took 14.3 and
//! 5.5 µs.
//!
//! The bits are those of the naive loop at every size; the build's
//! register file only picks the fastest tiles.
//!
//! # The backward-weights epilogue
//!
//! [`gemm_nt`] and [`gemm_nt_sgd`] are one kernel: a walker that reduces
//! each `NT_OR × JB` tile of `aᵀ·b` over the whole batch in registers,
//! then hands the finished tile to an *epilogue*. [`gemm_nt`]'s epilogue
//! starts every chain from `out` and stores it back (the gradient is
//! materialised — what [`gemm_nt_ref`] pins). [`gemm_nt_sgd`]'s starts
//! every chain from `0.0` and applies the SGD-with-momentum update
//! `v' = μ·v + g; w' = w − γ·v'` to the tile while `g` is still in
//! registers, so a training step reads and writes each weight once and
//! the gradient never touches memory. The contract that keeps the fused
//! form bit-identical to *zero the gradient, [`gemm_nt`], update*:
//!
//! * `g`'s chain is `0.0` plus its terms in ascending `r` — the chain
//!   the accumulating form builds on a zeroed buffer, for any `m`;
//! * the update is the same two expressions, evaluated in `f32` on that
//!   `g`; a velocity known to be zero is still multiplied and added
//!   (`μ·0.0 + g`), so signed zeros come out as the stored form's do;
//! * the epilogue overwrites `W`, so a layer's backward-data product
//!   ([`gemm_tn`], which reads the pre-update `W`) must run **before**
//!   its fused backward-weights call.
//!
//! [`SgdIo`] names which of `w`, `v`, `w'`, `v'` touch memory: a
//! client's first step reads the shared global weights and a zero
//! velocity it never loads, its last step writes only the delta
//! `w' − global`.
//!
//! # Example
//!
//! ```
//! use gluefl_tensor::gemm::{gemm_nn, gemm_nn_ref};
//!
//! // 2×3 activations, 4 output features, weights 4×3 row-major.
//! let x = [0.5f32, -1.0, 2.0, 1.5, 0.25, -0.75];
//! let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.1).collect();
//! let bias = [0.1f32, 0.2, 0.3, 0.4];
//! let mut out = [0.0f32; 8];
//! let mut expected = [0.0f32; 8];
//! gemm_nn(&x, &w, &bias, 2, 4, 3, &mut out);
//! gemm_nn_ref(&x, &w, &bias, 2, 4, 3, &mut expected);
//! assert_eq!(out, expected); // bit-exact, not approximately equal
//! ```

/// Whether the build targets AVX-512: thirty-two vector registers of
/// sixteen `f32` lanes (512 bits; `.cargo/config.toml` lifts LLVM's
/// preference for 256-bit ones), where AVX2 has sixteen registers of
/// eight lanes and SSE2 sixteen of four. The register tiles below are
/// sized for the build's register file; the bits are the same for both
/// sizes. Measured on AVX-512 with 256-bit vectors as well, the larger
/// tiles still win (the 32 registers are what they need), and under
/// `target-cpu=x86-64-v3` (AVX2) they lose: `gemm_nn` 1.05–1.09×,
/// `gemm_tn` 1.24–1.32×, `gemm_nt_sgd` 1.26–1.68×.
const AVX512: bool = cfg!(target_feature = "avx512f");

/// Batch rows per vector in [`gemm_nn`]'s full row blocks: one 512-bit
/// vector of sixteen lanes with AVX-512, else eight (one 256-bit vector,
/// two 128-bit ones). Measured over 4, 8 and 16 at 256 bits: four runs
/// the batch-16 layers ≈ 1.6× slower, sixteen the batch-4 wide layers
/// ≈ 2× slower. At 512 bits sixteen takes the batch-16 layers to
/// 0.72–0.90× of eight's time.
const NN_LANES: usize = if AVX512 { 16 } else { 8 };
/// Lanes for the rows past [`gemm_nn`]'s last full `NN_LANES` block —
/// the wide shape's whole batch of 4. Measured at 512 bits: four lanes
/// run the batch-4 wide layers 1.3–1.6× slower than eight, sixteen
/// 1.35–1.7× slower.
const NN_EDGE_LANES: usize = 8;
/// Features per register tile in [`gemm_nn`] (measured against 4 and 6
/// at 256 bits; at 512 bits sixteen runs batch 16 at 1.00–1.02× and
/// batch 4 at 1.04–1.11× of eight's time).
const NN_TILE: usize = 8;
/// `f32`s of [`gemm_nn`]'s chain stage (2 KiB of stack). A chunk is
/// `NN_STAGE / L` features at `L` lanes: 32 at sixteen, 64 at eight. At
/// 512 bits, 32 features run the sixteen-lane batch-16 layers at
/// 0.93–0.98× of 64's time; at eight lanes (batch 4) 32 features ran
/// 0.99–1.02×, so they keep 64.
const NN_STAGE: usize = 512;
/// `f32`s of [`gemm_nn`]'s transposed panel (16 KiB of stack). A k-tile
/// is `NN_PANEL / L` reductions deep at `L` lanes: 256 at sixteen, 512
/// at eight. At 512 bits, 2 048 splits the batch-16 `k = 192` layer in
/// two (1.16–1.17×) and 8 192, which zeroes 32 KiB per call, gains
/// nothing (0.98–1.07×).
const NN_PANEL: usize = 4096;

/// Output columns per full register tile in [`gemm_tn`] / [`gemm_nt`] —
/// thirty-two consecutive `f32`s with AVX-512 (two 512-bit vectors),
/// else sixteen (two 256-bit vectors) — of independent accumulator
/// chains. Measured at 512 bits against 16, 48 and 64: 32 runs
/// [`gemm_tn`] at 0.60–0.96× and [`gemm_nt_sgd`] at 0.76–0.99× of 16's
/// time; 48 leaves 64-wide rows a scalar edge (≈ 5× slower); 64 runs
/// [`gemm_nt_sgd`] at 0.97–1.92× of 32's time, and [`gemm_tn`] leaves
/// the 96-wide layer a 32-column scalar edge (8–10×). With the
/// `JB_REST` tile after the full ones, the walkers run the layers whose
/// width is a multiple of 32 at 0.96–1.03× of their time without it
/// (medians of six processes).
const JB: usize = if AVX512 { 32 } else { 16 };
/// Columns of the one narrower register tile that takes a rest of at
/// least sixteen columns past the last full `JB` tile (the same kernel
/// at this width), so only the last `n mod 16` columns of a row go to
/// the scalar edge: the 80-wide `mobilenet_like` layer is two `JB` = 32
/// tiles and one of sixteen, as it is five tiles of sixteen with AVX2.
/// Never reached where `JB` is sixteen. Without it that layer's sixteen
/// columns took the scalar edge: [`gemm_tn`] 4.6–5.3× and
/// [`gemm_nt_sgd`] 1.4–1.8× the time of sixteen-column tiles in the
/// same build.
const JB_REST: usize = 16;
/// Rows of `a` per register tile in [`gemm_tn`]. Eight leaves the wide
/// shape's batch of 4 wholly to the scalar edge (≈ 17× slower).
const TN_MR: usize = 4;
/// Rows of `out` per register tile in [`gemm_nt`] (at 512 bits eight
/// runs batch 16 at 0.92–1.21× and batch 4 at 1.17–1.76× of four's
/// time).
const NT_OR: usize = 4;
/// Reduction cache tile in [`gemm_tn`].
const RED_C: usize = 512;

/// Minimum rows before [`gemm_nn`] shards row blocks across threads.
const PAR_MIN_ROWS: usize = 128;
/// Minimum `m·n·k` multiply count before sharding is worth a thread spawn.
const PAR_MIN_MULS: usize = 1 << 21;

// The tile invariants, checked where a re-tune would break them: a
// chunk that is not whole tiles runs its last tile past the stage, and
// the stack panel stays as small as the 256-bit kernel's was.
const _: () = assert!(
    (NN_STAGE / NN_LANES).is_multiple_of(NN_TILE)
        && (NN_STAGE / NN_EDGE_LANES).is_multiple_of(NN_TILE),
    "a chunk is whole tiles at either lane count"
);
const _: () = assert!(
    NN_PANEL * size_of::<f32>() <= 16 << 10,
    "the stack panel stays within 16 KiB"
);

#[inline]
fn check_dims(a: &[f32], b: &[f32], m: usize, ak: usize, bk: usize, out: &[f32], on: usize) {
    assert_eq!(a.len(), m * ak, "gemm: `a` shape mismatch");
    assert_eq!(b.len(), bk, "gemm: `b` shape mismatch");
    assert_eq!(out.len(), on, "gemm: `out` shape mismatch");
}

// ---------------------------------------------------------------------------
// NN: out = a · bᵀ + bias (forward).
// ---------------------------------------------------------------------------

/// Blocked forward matmul: `out[r][o] = bias[o] + Σ_t a[r][t]·b[o][t]`
/// (`a: m × k`, `b: n × k`, `bias: n`, `out: m × n`, all row-major; `out`
/// is overwritten).
///
/// Bit-exact against [`gemm_nn_ref`], and allocation-free (see "The
/// forward kernel" in the module docs). Calls with at least
/// `PAR_MIN_ROWS` rows and `PAR_MIN_MULS` multiplies — an evaluation
/// block's larger layers; training batches never reach it — shard
/// disjoint row blocks of `out` across `gluefl_pool::run` jobs; the
/// result is bit-identical to the serial kernel because rows never
/// share an accumulator.
///
/// # Panics
/// Panics if any slice length disagrees with `(m, n, k)`.
pub fn gemm_nn(a: &[f32], b: &[f32], bias: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    check_dims(a, b, m, k, n * k, out, m * n);
    assert_eq!(bias.len(), n, "gemm: `bias` shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m >= PAR_MIN_ROWS && m * n * k >= PAR_MIN_MULS {
        gemm_nn_sharded(a, b, bias, m, n, k, out);
        return;
    }
    gemm_nn_serial(a, b, bias, m, n, k, out);
}

/// Row-sharded [`gemm_nn`]: each [`gluefl_pool`] job runs the serial
/// kernel on a disjoint row block, so the output bits cannot depend on
/// the worker count.
fn gemm_nn_sharded(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let threads = gluefl_pool::threads().min(m);
    let rows = m.div_ceil(threads);
    let jobs: Vec<(&[f32], &mut [f32])> =
        a.chunks(rows * k).zip(out.chunks_mut(rows * n)).collect();
    gluefl_pool::run(threads, jobs, |(a_block, out_block)| {
        gemm_nn_serial(a_block, b, bias, out_block.len() / n, n, k, out_block);
    });
}

/// Full blocks of `NN_LANES` rows, then the rest at `NN_EDGE_LANES`:
/// one kernel, two lane counts. Rows never share a chain, so how they
/// are blocked cannot change a bit.
fn gemm_nn_serial(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let full = m - m % NN_LANES;
    let (a_full, a_rest) = a.split_at(full * k);
    let (out_full, out_rest) = out.split_at_mut(full * n);
    nn_blocks::<NN_LANES>(a_full, b, bias, full, n, k, out_full);
    nn_blocks::<NN_EDGE_LANES>(a_rest, b, bias, m - full, n, k, out_rest);
}

/// Per block of `L` rows and k-tile, one transposed `a` panel; per chunk
/// of features, the chains staged lane by lane.
fn nn_blocks<const L: usize>(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    // No rows at this lane count: skip zeroing the stack buffers.
    if m == 0 {
        return;
    }
    // `NN_PANEL / L` t-rows of `L` lanes: the k-tile.
    let mut panel = [0.0f32; NN_PANEL];
    let (panel, _) = panel.as_chunks_mut::<L>();
    // `NN_STAGE / L` features of `L` chains: the chunk.
    let mut stage = [0.0f32; NN_STAGE];
    let (stage, _) = stage.as_chunks_mut::<L>();
    let mut i0 = 0;
    while i0 < m {
        let mt = (m - i0).min(L);
        let mut k0 = 0;
        // At least one pass, so that `k == 0` still writes the bias.
        loop {
            let kt = (k - k0).min(panel.len());
            // Lanes past the last row repeat it; they are never stored.
            let rows: [&[f32]; L] =
                std::array::from_fn(|l| &a[(i0 + l.min(mt - 1)) * k + k0..][..kt]);
            for (t, lanes) in panel[..kt].iter_mut().enumerate() {
                *lanes = std::array::from_fn(|l| rows[l][t]);
            }
            let panel = &panel[..kt];
            let mut c0 = 0;
            while c0 < n {
                let nc = (n - c0).min(stage.len());
                // Every chain starts at its bias term, and later k-tiles
                // continue the partial sums the previous one left in `out`.
                for (j, chains) in stage[..nc].iter_mut().enumerate() {
                    if k0 == 0 {
                        *chains = [bias[c0 + j]; L];
                    } else {
                        for (l, s) in chains[..mt].iter_mut().enumerate() {
                            *s = out[(i0 + l) * n + c0 + j];
                        }
                    }
                }
                for j in (0..nc).step_by(NN_TILE) {
                    // A short last tile repeats the chunk's last feature;
                    // the repeats are never stored.
                    let w =
                        std::array::from_fn(|f| &b[(c0 + (j + f).min(nc - 1)) * k + k0..][..kt]);
                    let tile = (&mut stage[j..j + NN_TILE])
                        .try_into()
                        .expect("NN_TILE block");
                    nn_tile(panel, w, tile);
                }
                for (l, row) in out[i0 * n..].chunks_exact_mut(n).take(mt).enumerate() {
                    for (o, chains) in row[c0..c0 + nc].iter_mut().zip(&*stage) {
                        *o = chains[l];
                    }
                }
                c0 += nc;
            }
            k0 += kt;
            if k0 == k {
                break;
            }
        }
        i0 += mt;
    }
}

/// `NN_TILE` features × `L` rows of chains, each adding
/// `panel[t][l]·w[f][t]` in ascending `t` — vectorized across rows,
/// never across `t`. The tile moves to and from the stage as whole lane
/// vectors: LLVM's SLP vectorizer builds the vector chains from those
/// stores (a tile scattered straight to `out` compiles to scalar code).
#[inline(always)]
fn nn_tile<const L: usize>(
    panel: &[[f32; L]],
    w: [&[f32]; NN_TILE],
    tile: &mut [[f32; L]; NN_TILE],
) {
    let mut acc = *tile;
    for (t, x) in panel.iter().enumerate() {
        for (chains, w) in acc.iter_mut().zip(&w) {
            let w = w[t];
            for (s, &x) in chains.iter_mut().zip(x) {
                *s += x * w;
            }
        }
    }
    *tile = acc;
}

/// Plain-loop reference twin of [`gemm_nn`] (identical semantics and
/// bits; kept as the reference the property tests compare against).
///
/// # Panics
/// Panics if any slice length disagrees with `(m, n, k)`.
pub fn gemm_nn_ref(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    check_dims(a, b, m, k, n * k, out, m * n);
    assert_eq!(bias.len(), n, "gemm: `bias` shape mismatch");
    for r in 0..m {
        let ar = &a[r * k..(r + 1) * k];
        for o in 0..n {
            let br = &b[o * k..(o + 1) * k];
            let mut acc = bias[o];
            for (&x, &w) in ar.iter().zip(br) {
                acc += x * w;
            }
            out[r * n + o] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// TN: out = a · b (backward data).
// ---------------------------------------------------------------------------

/// Blocked backward-data matmul: `out[r][j] = Σ_o a[r][o]·b[o][j]`
/// (`a: m × p`, `b: p × n`, `out: m × n`, row-major; `out` is
/// overwritten). Bit-exact against [`gemm_tn_ref`].
///
/// # Panics
/// Panics if any slice length disagrees with `(m, p, n)`.
pub fn gemm_tn(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, out: &mut [f32]) {
    check_dims(a, b, m, p, p * n, out, m * n);
    out.fill(0.0);
    tn_tiles::<JB>(a, b, m, p, n, out);
}

/// [`gemm_tn`]'s tile walker over a zeroed `out`: `W`-column full tiles,
/// then one `JB_REST`-wide tile where a full one no longer fits.
/// Reduction tiles ascend over o, so each element's chain is the naive
/// `acc = 0; for o { acc += a[r][o]·b[o][j] }` exactly.
fn tn_tiles<const W: usize>(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, out: &mut [f32]) {
    let mut o0 = 0;
    while o0 < p {
        let ot = (p - o0).min(RED_C);
        let mut i0 = 0;
        while i0 < m {
            let mt = (m - i0).min(TN_MR);
            let mut j0 = 0;
            while j0 < n {
                let mut jt = (n - j0).min(W);
                if mt == TN_MR && jt == W {
                    tn_micro::<W>(a, b, p, n, i0, o0, ot, j0, out);
                } else if mt == TN_MR && jt >= JB_REST {
                    jt = JB_REST;
                    tn_micro::<JB_REST>(a, b, p, n, i0, o0, ot, j0, out);
                } else {
                    tn_edge(a, b, p, n, i0, mt, o0, ot, j0, jt, out);
                }
                j0 += jt;
            }
            i0 += mt;
        }
        o0 += ot;
    }
}

/// Full `TN_MR × W` register tile: four output rows share every
/// streamed `b` row, and the `W`-wide column block vectorizes across
/// independent output columns (never across `o`, the reduction).
#[allow(clippy::too_many_arguments)]
#[inline]
fn tn_micro<const W: usize>(
    a: &[f32],
    b: &[f32],
    p: usize,
    n: usize,
    i0: usize,
    o0: usize,
    ot: usize,
    j0: usize,
    out: &mut [f32],
) {
    let ar: [&[f32]; TN_MR] = [
        &a[i0 * p + o0..][..ot],
        &a[(i0 + 1) * p + o0..][..ot],
        &a[(i0 + 2) * p + o0..][..ot],
        &a[(i0 + 3) * p + o0..][..ot],
    ];
    let mut acc = [[0.0f32; W]; TN_MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + i) * n + j0..][..W]);
    }
    let [acc0, acc1, acc2, acc3] = &mut acc;
    for o_rel in 0..ot {
        let br: &[f32; W] = b[(o0 + o_rel) * n + j0..][..W].try_into().expect("W block");
        let (x0, x1, x2, x3) = (ar[0][o_rel], ar[1][o_rel], ar[2][o_rel], ar[3][o_rel]);
        // Rows hand-jammed into one flat column loop — see [`nt_micro`].
        for (j, &w) in br.iter().enumerate() {
            acc0[j] += x0 * w;
            acc1[j] += x1 * w;
            acc2[j] += x2 * w;
            acc3[j] += x3 * w;
        }
    }
    for (i, row) in acc.iter().enumerate() {
        out[(i0 + i) * n + j0..][..W].copy_from_slice(row);
    }
}

/// Remainder tile of [`gemm_tn`]: per-element chains in the same
/// ascending-o order.
#[allow(clippy::too_many_arguments)]
fn tn_edge(
    a: &[f32],
    b: &[f32],
    p: usize,
    n: usize,
    i0: usize,
    mt: usize,
    o0: usize,
    ot: usize,
    j0: usize,
    jt: usize,
    out: &mut [f32],
) {
    for i in i0..i0 + mt {
        let ar = &a[i * p + o0..][..ot];
        for j in j0..j0 + jt {
            let mut acc = out[i * n + j];
            for (o_rel, &x) in ar.iter().enumerate() {
                acc += x * b[(o0 + o_rel) * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Plain-loop reference twin of [`gemm_tn`] (identical semantics and
/// bits).
///
/// # Panics
/// Panics if any slice length disagrees with `(m, p, n)`.
pub fn gemm_tn_ref(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, out: &mut [f32]) {
    check_dims(a, b, m, p, p * n, out, m * n);
    for r in 0..m {
        let ar = &a[r * p..(r + 1) * p];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (o, &x) in ar.iter().enumerate() {
                acc += x * b[o * n + j];
            }
            out[r * n + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// NT: g = aᵀ · b (backward weights), handed tile by tile to an epilogue.
// ---------------------------------------------------------------------------

/// What the backward-weights tile walker does with each reduced run of
/// `len ≤ W` consecutive elements of the `p × n` product, held in a
/// tile-wide block of `W` lanes: where the chains start, and where the
/// finished values go. `at` is the run's flat offset (`o·n + j`); only
/// the first `len` lanes of `acc` count.
trait NtEpilogue {
    /// Writes the starting value of every chain of the run into `acc`.
    fn start<const W: usize>(&self, at: usize, len: usize, acc: &mut [f32; W]);
    /// Consumes the finished chains of the run.
    fn finish<const W: usize>(&mut self, at: usize, len: usize, acc: &[f32; W]);
}

/// The run `src[at..at + len]` in a register-sized block (lanes past
/// `len` are zero), so the epilogue arithmetic is always `W` wide.
#[inline(always)]
fn load_run<const W: usize>(src: &[f32], at: usize, len: usize) -> [f32; W] {
    let mut run = [0.0f32; W];
    run[..len].copy_from_slice(&src[at..at + len]);
    run
}

#[inline(always)]
fn store_run<const W: usize>(dst: &mut [f32], at: usize, len: usize, run: &[f32; W]) {
    dst[at..at + len].copy_from_slice(&run[..len]);
}

/// [`gemm_nt`]'s epilogue: chains start from `out` and are stored back.
struct Accumulate<'a>(&'a mut [f32]);

impl NtEpilogue for Accumulate<'_> {
    #[inline(always)]
    fn start<const W: usize>(&self, at: usize, len: usize, acc: &mut [f32; W]) {
        *acc = load_run(self.0, at, len);
    }

    #[inline(always)]
    fn finish<const W: usize>(&mut self, at: usize, len: usize, acc: &[f32; W]) {
        store_run(self.0, at, len, acc);
    }
}

/// Blocked accumulating backward-weights matmul:
/// `out[o][j] += Σ_r a[r][o]·b[r][j]` (`a: m × p`, `b: m × n`,
/// `out: p × n`, row-major; `out` is accumulated into, matching a weight
/// gradient `dW += d_outᵀ · x`). Bit-exact against [`gemm_nt_ref`].
///
/// # Panics
/// Panics if any slice length disagrees with `(m, p, n)`.
pub fn gemm_nt(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, out: &mut [f32]) {
    check_dims(a, b, m, p, m * n, out, p * n);
    nt_tiles::<JB, _>(a, b, m, p, n, &mut Accumulate(out));
}

/// Where one SGD-with-momentum step of [`gemm_nt_sgd`] reads the weights
/// and velocity it updates, and where the result goes. Every slice is
/// the `p × n` weight matrix's range of its vector. The update is always
/// `v' = μ·v + g; w' = w − γ·v'`; the forms differ only in which of
/// `w`, `v`, `w'`, `v'` touch memory.
#[derive(Debug)]
pub enum SgdIo<'a> {
    /// A middle step: `v ← v'`, `w ← w'`, in place.
    InPlace {
        /// Weights, updated in place.
        w: &'a mut [f32],
        /// Velocity, updated in place.
        v: &'a mut [f32],
    },
    /// The first of several steps: the weights are read from `from`
    /// (the model every client starts from) and the velocity is zero by
    /// definition, so neither `w` nor `v` is read — both are overwritten.
    First {
        /// Pre-update weights.
        from: &'a [f32],
        /// Receives `w'`.
        w: &'a mut [f32],
        /// Receives `v'`.
        v: &'a mut [f32],
    },
    /// The last of several steps: only the delta `out ← w' − base` is
    /// wanted, so `w` and `v` are read and left untouched.
    Last {
        /// Pre-update weights.
        w: &'a [f32],
        /// Pre-update velocity.
        v: &'a [f32],
        /// The weights the delta is taken against.
        base: &'a [f32],
        /// Receives `w' − base`.
        out: &'a mut [f32],
    },
    /// The only step, first and last at once: weights read from `base`,
    /// zero velocity, `out ← w' − base`.
    Only {
        /// Pre-update weights, and what the delta is taken against.
        base: &'a [f32],
        /// Receives `w' − base`.
        out: &'a mut [f32],
    },
}

/// [`gemm_nt_sgd`]'s epilogue: chains start from `0.0` and the finished
/// gradient run is consumed by the SGD update while still in registers.
struct Sgd<'a> {
    lr: f32,
    momentum: f32,
    io: SgdIo<'a>,
}

impl NtEpilogue for Sgd<'_> {
    #[inline(always)]
    fn start<const W: usize>(&self, _at: usize, _len: usize, acc: &mut [f32; W]) {
        *acc = [0.0; W];
    }

    #[inline(always)]
    fn finish<const W: usize>(&mut self, at: usize, len: usize, g: &[f32; W]) {
        let zero = [0.0f32; W];
        let (lr, mu) = (self.lr, self.momentum);
        // The one place the update is written: `(w, v) → (w', v')`. A
        // velocity known to be zero still goes through it (`μ·0.0 + g`):
        // that is what turns a `-0.0` gradient into the `+0.0` velocity
        // the unfused update stores.
        let step = |mut w: [f32; W], mut v: [f32; W]| {
            for ((w, v), g) in w.iter_mut().zip(&mut v).zip(g) {
                *v = mu * *v + g;
                *w -= lr * *v;
            }
            (w, v)
        };
        let minus = |mut w: [f32; W], base: [f32; W]| {
            for (w, b) in w.iter_mut().zip(base) {
                *w -= b;
            }
            w
        };
        match &mut self.io {
            SgdIo::InPlace { w, v } => {
                let (w1, v1) = step(load_run(w, at, len), load_run(v, at, len));
                store_run(w, at, len, &w1);
                store_run(v, at, len, &v1);
            }
            SgdIo::First { from, w, v } => {
                let (w1, v1) = step(load_run(from, at, len), zero);
                store_run(w, at, len, &w1);
                store_run(v, at, len, &v1);
            }
            SgdIo::Last { w, v, base, out } => {
                let (w1, _) = step(load_run(w, at, len), load_run(v, at, len));
                store_run(out, at, len, &minus(w1, load_run(base, at, len)));
            }
            SgdIo::Only { base, out } => {
                let base = load_run(base, at, len);
                let (w1, _) = step(base, zero);
                store_run(out, at, len, &minus(w1, base));
            }
        }
    }
}

/// Backward-weights matmul with the SGD-with-momentum update as its
/// epilogue: for every element of the `p × n` weight matrix,
/// `g = Σ_r a[r][o]·b[r][j]`, `v' = μ·v + g`, `w' = w − γ·v'`, with the
/// operands read and the results written as `io` says (see [`SgdIo`]).
/// The gradient is never stored.
///
/// **Bit-exact against the unfused sequence** — [`gemm_nt`] into a
/// zero-filled gradient, then `v ← μ·v + g; w ← w − γ·v` element by
/// element (and `w' − base` for the delta forms): `g`'s chain starts at
/// `0.0` and adds its terms in ascending `r`, exactly the chain
/// [`gemm_nt`] builds on a zeroed buffer, and the update evaluates the
/// same two expressions on it.
///
/// # Panics
/// Panics if any slice length disagrees with `(m, p, n)`.
#[allow(clippy::too_many_arguments)] // the gemm_nt signature plus the optimizer's two scalars
pub fn gemm_nt_sgd(
    a: &[f32],
    b: &[f32],
    m: usize,
    p: usize,
    n: usize,
    lr: f32,
    momentum: f32,
    io: SgdIo<'_>,
) {
    let sized = |s: &[f32]| s.len() == p * n;
    let operands_fit = match &io {
        SgdIo::InPlace { w, v } => sized(w) && sized(v),
        SgdIo::First { from, w, v } => sized(from) && sized(w) && sized(v),
        SgdIo::Last { w, v, base, out } => sized(w) && sized(v) && sized(base) && sized(out),
        SgdIo::Only { base, out } => sized(base) && sized(out),
    };
    assert!(operands_fit, "gemm: SGD operand shape mismatch");
    assert_eq!(a.len(), m * p, "gemm: `a` shape mismatch");
    assert_eq!(b.len(), m * n, "gemm: `b` shape mismatch");
    nt_tiles::<JB, _>(a, b, m, p, n, &mut Sgd { lr, momentum, io });
}

/// The one backward-weights tile walker: every `NT_OR × W` tile of the
/// `p × n` product (a `JB_REST`-wide one where a full tile no longer
/// fits) is reduced over the whole batch in registers and handed to the
/// epilogue once. Each element's chain is its starting value plus
/// `a[r][o]·b[r][j]` in ascending `r` — the naive loop's order, for any
/// `m`.
fn nt_tiles<const W: usize, E: NtEpilogue>(
    a: &[f32],
    b: &[f32],
    m: usize,
    p: usize,
    n: usize,
    ep: &mut E,
) {
    let mut o0 = 0;
    while o0 < p {
        let pt = (p - o0).min(NT_OR);
        let mut j0 = 0;
        while j0 < n {
            let mut jt = (n - j0).min(W);
            if pt == NT_OR && jt == W {
                nt_micro::<W, E>(a, b, m, p, n, o0, j0, ep);
            } else if pt == NT_OR && jt >= JB_REST {
                jt = JB_REST;
                nt_micro::<JB_REST, E>(a, b, m, p, n, o0, j0, ep);
            } else {
                nt_edge::<W, E>(a, b, m, p, n, o0, pt, j0, jt, ep);
            }
            j0 += jt;
        }
        o0 += pt;
    }
}

/// Full `NT_OR × W` register tile: four gradient rows share every
/// streamed `b` row while the batch dimension reduces in registers; the
/// `W`-wide column block vectorizes across independent gradient columns
/// (never across `r`, the reduction).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nt_micro<const W: usize, E: NtEpilogue>(
    a: &[f32],
    b: &[f32],
    m: usize,
    p: usize,
    n: usize,
    o0: usize,
    j0: usize,
    ep: &mut E,
) {
    let mut acc = [[0.0f32; W]; NT_OR];
    for (o, row) in acc.iter_mut().enumerate() {
        ep.start((o0 + o) * n + j0, W, row);
    }
    let [acc0, acc1, acc2, acc3] = &mut acc;
    for r in 0..m {
        let av: &[f32; NT_OR] = a[r * p + o0..][..NT_OR].try_into().expect("NT_OR block");
        let br: &[f32; W] = b[r * n + j0..][..W].try_into().expect("W block");
        // One flat loop over columns with the rows hand-jammed: the only
        // dimension the vectorizer can widen is `j`. (A nested
        // rows-within-columns loop lets it interleave across rows
        // instead, which runs several times slower.)
        for (j, &w) in br.iter().enumerate() {
            acc0[j] += av[0] * w;
            acc1[j] += av[1] * w;
            acc2[j] += av[2] * w;
            acc3[j] += av[3] * w;
        }
    }
    for (o, row) in acc.iter().enumerate() {
        ep.finish((o0 + o) * n + j0, W, row);
    }
}

/// Remainder tile of [`nt_tiles`]: one row run of `jt ≤ W` columns at a
/// time, per-element chains in the same ascending-r order.
#[allow(clippy::too_many_arguments)]
fn nt_edge<const W: usize, E: NtEpilogue>(
    a: &[f32],
    b: &[f32],
    m: usize,
    p: usize,
    n: usize,
    o0: usize,
    pt: usize,
    j0: usize,
    jt: usize,
    ep: &mut E,
) {
    for o in o0..o0 + pt {
        let mut acc = [0.0f32; W];
        ep.start(o * n + j0, jt, &mut acc);
        for r in 0..m {
            let x = a[r * p + o];
            for (s, &w) in acc.iter_mut().zip(&b[r * n + j0..][..jt]) {
                *s += x * w;
            }
        }
        ep.finish(o * n + j0, jt, &acc);
    }
}

/// Plain-loop reference twin of [`gemm_nt`] (identical semantics and
/// bits).
///
/// # Panics
/// Panics if any slice length disagrees with `(m, p, n)`.
pub fn gemm_nt_ref(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, out: &mut [f32]) {
    check_dims(a, b, m, p, m * n, out, p * n);
    for o in 0..p {
        for j in 0..n {
            let mut acc = out[o * n + j];
            for r in 0..m {
                acc += a[r * p + o] * b[r * n + j];
            }
            out[o * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    fn check_all(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * k);
        let w = fill(&mut rng, n * k);
        let bias = fill(&mut rng, n);
        // NN.
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_nn(&a, &w, &bias, m, n, k, &mut got);
        gemm_nn_ref(&a, &w, &bias, m, n, k, &mut want);
        assert_bits_eq(&got, &want, "nn");
        // TN: d_out is m × n, W is n × k, result m × k.
        let mut got = vec![0.0f32; m * k];
        let mut want = vec![0.0f32; m * k];
        let d_out = fill(&mut rng, m * n);
        gemm_tn(&d_out, &w, m, n, k, &mut got);
        gemm_tn_ref(&d_out, &w, m, n, k, &mut want);
        assert_bits_eq(&got, &want, "tn");
        // NT: accumulate into a shared non-zero gradient.
        let grad0 = fill(&mut rng, n * k);
        let mut got = grad0.clone();
        let mut want = grad0;
        gemm_nt(&d_out, &a, m, n, k, &mut got);
        gemm_nt_ref(&d_out, &a, m, n, k, &mut want);
        assert_bits_eq(&got, &want, "nt");
    }

    #[test]
    fn blocked_matches_reference_at_paper_shapes() {
        // [192, 96] MLP layers at training batch 16 and an eval batch.
        check_all(16, 192, 64, 1);
        check_all(16, 96, 192, 2);
        check_all(16, 62, 96, 3);
        check_all(200, 192, 64, 4);
    }

    #[test]
    fn blocked_matches_reference_off_block_boundaries() {
        for (i, &(m, n, k)) in [
            (1, 1, 1),
            (1, 192, 64),
            (5, 7, 9),
            (3, 13, 17),
            (
                NN_LANES + 1,
                NN_STAGE / NN_EDGE_LANES + 1,
                NN_PANEL / NN_EDGE_LANES + 3,
            ),
            (NN_LANES - 1, NN_TILE - 1, 2 * NN_PANEL / NN_EDGE_LANES + 1),
            (2 * NN_LANES + 1, NN_TILE + 1, NN_PANEL / NN_LANES + 1),
            (2, JB - 1, 3),
            (7, JB + 1, 2),
        ]
        .iter()
        .enumerate()
        {
            check_all(m, n, k, 100 + i as u64);
        }
    }

    /// Both lane counts of the forward kernel, whichever the build's
    /// `gemm_nn` picks: rows straddling one and two blocks of either,
    /// reductions straddling either k-tile.
    #[test]
    fn nn_blocks_match_reference_at_both_lane_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        for m in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            for (n, k) in [
                (13, 5),
                (NN_STAGE / 8 + 3, NN_PANEL / 16 + 1),
                (9, NN_PANEL / 8 + 1),
            ] {
                let a = fill(&mut rng, m * k);
                let w = fill(&mut rng, n * k);
                let bias = fill(&mut rng, n);
                let mut want = vec![0.0f32; m * n];
                gemm_nn_ref(&a, &w, &bias, m, n, k, &mut want);
                let mut got = fill(&mut rng, m * n);
                nn_blocks::<16>(&a, &w, &bias, m, n, k, &mut got);
                assert_bits_eq(&got, &want, "nn at 16 lanes");
                let mut got = fill(&mut rng, m * n);
                nn_blocks::<8>(&a, &w, &bias, m, n, k, &mut got);
                assert_bits_eq(&got, &want, "nn at 8 lanes");
            }
        }
    }

    /// Every output of the backward walkers at full tile width `W`:
    /// backward data, accumulating backward weights, then the SGD forms
    /// in-place (`w'`, `v'`), last (delta), first (`w'`, `v'`), only
    /// (delta).
    fn backward_at_width<const W: usize>(
        a: &[f32],
        wt: &[f32],
        x: &[f32],
        (m, p, n): (usize, usize, usize),
        [w0, v0, base]: [&[f32]; 3],
    ) -> Vec<Vec<f32>> {
        let (lr, momentum) = (0.05, 0.9);
        let mut tn = vec![0.0f32; m * n];
        tn_tiles::<W>(a, wt, m, p, n, &mut tn);
        let mut nt = w0.to_vec();
        nt_tiles::<W, _>(a, x, m, p, n, &mut Accumulate(&mut nt));
        let sgd = |io| nt_tiles::<W, _>(a, x, m, p, n, &mut Sgd { lr, momentum, io });
        let (mut w, mut v) = (w0.to_vec(), v0.to_vec());
        sgd(SgdIo::InPlace {
            w: &mut w,
            v: &mut v,
        });
        let mut last = vec![f32::NAN; p * n];
        sgd(SgdIo::Last {
            w: w0,
            v: v0,
            base,
            out: &mut last,
        });
        let (mut w1, mut v1) = (vec![f32::NAN; p * n], vec![f32::NAN; p * n]);
        sgd(SgdIo::First {
            from: w0,
            w: &mut w1,
            v: &mut v1,
        });
        let mut only = vec![f32::NAN; p * n];
        sgd(SgdIo::Only {
            base: w0,
            out: &mut only,
        });
        vec![tn, nt, w, v, last, w1, v1, only]
    }

    /// Both full tile widths of the backward walkers, whichever `JB` the
    /// build picks: rows straddling one and two tiles of either and the
    /// 16-column rest tile (80 is `mobilenet_like`'s layer), against the
    /// reference twins and the unfused SGD update.
    #[test]
    fn backward_tiles_match_reference_at_both_widths() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 79, 80, 81] {
            for (m, p) in [(1, 3), (4, 4), (5, 9), (16, 7)] {
                let (a, wt, x) = (
                    fill(&mut rng, m * p),
                    fill(&mut rng, p * n),
                    fill(&mut rng, m * n),
                );
                let [w0, v0, base] = [(); 3].map(|()| fill(&mut rng, p * n));
                let mut tn = vec![0.0f32; m * n];
                gemm_tn_ref(&a, &wt, m, p, n, &mut tn);
                let mut nt = w0.clone();
                gemm_nt_ref(&a, &x, m, p, n, &mut nt);
                let mut g = vec![0.0f32; p * n];
                gemm_nt_ref(&a, &x, m, p, n, &mut g);
                let update = |w: &[f32], v: &[f32]| -> (Vec<f32>, Vec<f32>) {
                    let (mut w, mut v) = (w.to_vec(), v.to_vec());
                    for ((w, v), g) in w.iter_mut().zip(&mut v).zip(&g) {
                        *v = 0.9 * *v + g;
                        *w -= 0.05 * *v;
                    }
                    (w, v)
                };
                let minus = |w: &[f32], b: &[f32]| -> Vec<f32> {
                    w.iter().zip(b).map(|(w, b)| w - b).collect()
                };
                let (w, v) = update(&w0, &v0);
                let last = minus(&w, &base);
                let (w1, v1) = update(&w0, &vec![0.0; p * n]);
                let only = minus(&w1, &w0);
                let want = [tn, nt, w, v, last, w1, v1, only];
                let ops = [&w0[..], &v0, &base];
                let wide = backward_at_width::<32>(&a, &wt, &x, (m, p, n), ops);
                let narrow = backward_at_width::<16>(&a, &wt, &x, (m, p, n), ops);
                let names = [
                    "tn",
                    "nt",
                    "in-place w",
                    "in-place v",
                    "last",
                    "first w",
                    "first v",
                    "only",
                ];
                for ((name, want), (wide, narrow)) in
                    names.iter().zip(&want).zip(wide.iter().zip(&narrow))
                {
                    assert_bits_eq(wide, want, &format!("{name} at 32 columns, {m}x{p}x{n}"));
                    assert_bits_eq(narrow, want, &format!("{name} at 16 columns, {m}x{p}x{n}"));
                }
            }
        }
    }

    #[test]
    fn zero_k_reduces_to_bias_or_zero() {
        let bias = [1.5f32, -2.5];
        let mut out = [9.0f32; 4];
        gemm_nn(&[], &[], &bias, 2, 2, 0, &mut out);
        assert_eq!(out, [1.5, -2.5, 1.5, -2.5]);
        let mut out = [9.0f32; 4];
        gemm_tn(&[], &[], 2, 0, 2, &mut out);
        assert_eq!(out, [0.0; 4]);
        let mut out = [9.0f32; 4];
        gemm_nt(&[], &[], 0, 2, 2, &mut out);
        assert_eq!(out, [9.0; 4]); // accumulating: untouched
    }

    #[test]
    fn nt_accumulates_on_top_of_existing_values() {
        let a = [1.0f32, 2.0]; // 1 × 2
        let b = [3.0f32, 4.0, 5.0]; // 1 × 3
        let mut out = vec![10.0f32; 6];
        gemm_nt(&a, &b, 1, 2, 3, &mut out);
        assert_eq!(out, vec![13.0, 14.0, 15.0, 16.0, 18.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "`a` shape mismatch")]
    fn shape_mismatch_panics() {
        let mut out = [0.0f32; 4];
        gemm_nn(&[0.0; 3], &[0.0; 4], &[0.0; 2], 2, 2, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "SGD operand shape mismatch")]
    fn sgd_operand_shape_mismatch_panics() {
        let (mut w, mut v) = ([0.0f32; 4], [0.0f32; 3]);
        let io = SgdIo::InPlace {
            w: &mut w,
            v: &mut v,
        };
        gemm_nt_sgd(&[0.0; 2], &[0.0; 2], 1, 2, 2, 0.1, 0.9, io);
    }

    /// A batch large enough to trigger row sharding must still match the
    /// reference twin bit for bit.
    #[test]
    fn sharded_rows_match_reference_bitwise() {
        let (m, n, k) = (PAR_MIN_ROWS * 3 + 5, 96, 192);
        assert!(m * n * k >= PAR_MIN_MULS, "shape must trigger sharding");
        let mut rng = StdRng::seed_from_u64(7);
        let a = fill(&mut rng, m * k);
        let w = fill(&mut rng, n * k);
        let bias = fill(&mut rng, n);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_nn(&a, &w, &bias, m, n, k, &mut got);
        gemm_nn_ref(&a, &w, &bias, m, n, k, &mut want);
        assert_bits_eq(&got, &want, "sharded nn");
    }
}
