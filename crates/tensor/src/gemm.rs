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
//! * the SIMD width does not change the bits (CI also runs the suites
//!   built with `RUSTFLAGS="-C target-cpu=x86-64"`, i.e. SSE2);
//! * training/eval trajectories upstream stay bit-identical to the
//!   pre-GEMM per-element loops (`tests/gemm_properties.rs` pins every
//!   kernel to its reference twin).
//!
//! # The forward kernel: batch rows in the vector lanes
//!
//! [`gemm_nn`] reduces along the rows of both `a` and `W`, so neither has
//! independent outputs side by side. The kernel transposes each block of
//! eight rows of `a` into a t-major stack panel, `panel[t] = [a[r0][t],
//! …, a[r7][t]]` (one 256-bit vector), and a tile of eight features
//! multiplies each panel vector by `W[o][t]`, broadcast from `W` **read
//! in place**. `W` is not repacked: the previous kernel, features in the
//! lanes, copied `W` t-major on every call — an `n × k` copy that the
//! batch of 16 (wide shape: 4) rows used only 16 (4) times, and ran its
//! feature edge (14 of 62 logits) as scalar dot products. A k-tile
//! carries its partial sums to the next in `out`, so there is no heap.
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

/// Batch rows per vector in [`gemm_nn`]: eight `f32` lanes, one 256-bit
/// vector. Measured over 4, 8 and 16: four runs the batch-16 layers
/// ≈ 1.6× slower, sixteen the batch-4 wide layers ≈ 2× slower.
const NN_LANES: usize = 8;
/// Features per register tile in [`gemm_nn`] (measured against 4 and 6).
const NN_TILE: usize = 8;
/// Features staged per chunk in [`gemm_nn`] (a multiple of `NN_TILE`).
const NN_CHUNK: usize = 64;
/// k-tile of [`gemm_nn`]'s transposed panel (16 KiB of stack).
const NN_KT: usize = 512;

/// Output columns per register tile in [`gemm_tn`] / [`gemm_nt`] —
/// sixteen consecutive `f32`s, two 256-bit vectors of independent
/// accumulator chains.
const JB: usize = 16;
/// Rows of `a` per register tile in [`gemm_tn`].
const TN_MR: usize = 4;
/// Rows of `out` per register tile in [`gemm_nt`].
const NT_OR: usize = 4;
/// Reduction cache tile in [`gemm_tn`].
const RED_C: usize = 512;

/// Minimum rows before [`gemm_nn`] shards row blocks across threads.
const PAR_MIN_ROWS: usize = 128;
/// Minimum `m·n·k` multiply count before sharding is worth a thread spawn.
const PAR_MIN_MULS: usize = 1 << 21;

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

/// Per block of `NN_LANES` rows and k-tile, one transposed `a` panel;
/// per chunk of `NN_CHUNK` features, the chains staged lane by lane.
fn gemm_nn_serial(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let mut panel = [[0.0f32; NN_LANES]; NN_KT];
    let mut stage = [[0.0f32; NN_LANES]; NN_CHUNK];
    let mut i0 = 0;
    while i0 < m {
        let mt = (m - i0).min(NN_LANES);
        let mut k0 = 0;
        // At least one pass, so that `k == 0` still writes the bias.
        loop {
            let kt = (k - k0).min(NN_KT);
            // Lanes past the last row repeat it; they are never stored.
            let rows: [&[f32]; NN_LANES] =
                std::array::from_fn(|l| &a[(i0 + l.min(mt - 1)) * k + k0..][..kt]);
            for (t, lanes) in panel[..kt].iter_mut().enumerate() {
                *lanes = std::array::from_fn(|l| rows[l][t]);
            }
            let panel = &panel[..kt];
            let mut c0 = 0;
            while c0 < n {
                let nc = (n - c0).min(NN_CHUNK);
                // Every chain starts at its bias term, and later k-tiles
                // continue the partial sums the previous one left in `out`.
                for (j, chains) in stage[..nc].iter_mut().enumerate() {
                    if k0 == 0 {
                        *chains = [bias[c0 + j]; NN_LANES];
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
                    for (o, chains) in row[c0..c0 + nc].iter_mut().zip(&stage) {
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

/// `NN_TILE` features × `NN_LANES` rows of chains, each adding
/// `panel[t][l]·w[f][t]` in ascending `t` — vectorized across rows,
/// never across `t`. The tile moves to and from the stage as whole lane
/// vectors: LLVM's SLP vectorizer builds the vector chains from those
/// stores (a tile scattered straight to `out` compiles to scalar code).
#[inline(always)]
fn nn_tile(panel: &[[f32; NN_LANES]], w: [&[f32]; NN_TILE], tile: &mut [[f32; NN_LANES]; NN_TILE]) {
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
    // Reduction tiles ascend over o, so each element's chain is the naive
    // `acc = 0; for o { acc += a[r][o]·b[o][j] }` exactly.
    let mut o0 = 0;
    while o0 < p {
        let ot = (p - o0).min(RED_C);
        let mut i0 = 0;
        while i0 < m {
            let mt = (m - i0).min(TN_MR);
            let mut j0 = 0;
            while j0 < n {
                let jt = (n - j0).min(JB);
                if mt == TN_MR && jt == JB {
                    tn_micro(a, b, p, n, i0, o0, ot, j0, out);
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

/// Full `TN_MR × JB` register tile: four output rows share every
/// streamed `b` row, and the sixteen-wide column block vectorizes across
/// independent output columns (never across `o`, the reduction).
#[allow(clippy::too_many_arguments)]
#[inline]
fn tn_micro(
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
    let mut acc = [[0.0f32; JB]; TN_MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + i) * n + j0..][..JB]);
    }
    let [acc0, acc1, acc2, acc3] = &mut acc;
    for o_rel in 0..ot {
        let br: &[f32; JB] = b[(o0 + o_rel) * n + j0..][..JB]
            .try_into()
            .expect("JB block");
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
        out[(i0 + i) * n + j0..][..JB].copy_from_slice(row);
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
/// `len ≤ JB` consecutive elements of the `p × n` product: where the
/// chains start, and where the finished values go. `at` is the run's
/// flat offset (`o·n + j`); only the first `len` lanes of `acc` count.
trait NtEpilogue {
    /// Writes the starting value of every chain of the run into `acc`.
    fn start(&self, at: usize, len: usize, acc: &mut [f32; JB]);
    /// Consumes the finished chains of the run.
    fn finish(&mut self, at: usize, len: usize, acc: &[f32; JB]);
}

/// The run `src[at..at + len]` in a register-sized block (lanes past
/// `len` are zero), so the epilogue arithmetic is always `JB` wide.
#[inline(always)]
fn load_run(src: &[f32], at: usize, len: usize) -> [f32; JB] {
    let mut run = [0.0f32; JB];
    run[..len].copy_from_slice(&src[at..at + len]);
    run
}

#[inline(always)]
fn store_run(dst: &mut [f32], at: usize, len: usize, run: &[f32; JB]) {
    dst[at..at + len].copy_from_slice(&run[..len]);
}

/// [`gemm_nt`]'s epilogue: chains start from `out` and are stored back.
struct Accumulate<'a>(&'a mut [f32]);

impl NtEpilogue for Accumulate<'_> {
    #[inline(always)]
    fn start(&self, at: usize, len: usize, acc: &mut [f32; JB]) {
        *acc = load_run(self.0, at, len);
    }

    #[inline(always)]
    fn finish(&mut self, at: usize, len: usize, acc: &[f32; JB]) {
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
    nt_tiles(a, b, m, p, n, &mut Accumulate(out));
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
    fn start(&self, _at: usize, _len: usize, acc: &mut [f32; JB]) {
        *acc = [0.0; JB];
    }

    #[inline(always)]
    fn finish(&mut self, at: usize, len: usize, g: &[f32; JB]) {
        const ZERO: [f32; JB] = [0.0; JB];
        let (lr, mu) = (self.lr, self.momentum);
        // The one place the update is written: `(w, v) → (w', v')`. A
        // velocity known to be zero still goes through it (`μ·0.0 + g`):
        // that is what turns a `-0.0` gradient into the `+0.0` velocity
        // the unfused update stores.
        let step = |mut w: [f32; JB], mut v: [f32; JB]| {
            for ((w, v), g) in w.iter_mut().zip(&mut v).zip(g) {
                *v = mu * *v + g;
                *w -= lr * *v;
            }
            (w, v)
        };
        let minus = |mut w: [f32; JB], base: [f32; JB]| {
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
                let (w1, v1) = step(load_run(from, at, len), ZERO);
                store_run(w, at, len, &w1);
                store_run(v, at, len, &v1);
            }
            SgdIo::Last { w, v, base, out } => {
                let (w1, _) = step(load_run(w, at, len), load_run(v, at, len));
                store_run(out, at, len, &minus(w1, load_run(base, at, len)));
            }
            SgdIo::Only { base, out } => {
                let base = load_run(base, at, len);
                let (w1, _) = step(base, ZERO);
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
    nt_tiles(a, b, m, p, n, &mut Sgd { lr, momentum, io });
}

/// The one backward-weights tile walker: every `NT_OR × JB` tile of the
/// `p × n` product is reduced over the whole batch in registers and
/// handed to the epilogue once. Each element's chain is its starting
/// value plus `a[r][o]·b[r][j]` in ascending `r` — the naive loop's
/// order, for any `m`.
fn nt_tiles<E: NtEpilogue>(a: &[f32], b: &[f32], m: usize, p: usize, n: usize, ep: &mut E) {
    let mut o0 = 0;
    while o0 < p {
        let pt = (p - o0).min(NT_OR);
        let mut j0 = 0;
        while j0 < n {
            let jt = (n - j0).min(JB);
            if pt == NT_OR && jt == JB {
                nt_micro(a, b, m, p, n, o0, j0, ep);
            } else {
                nt_edge(a, b, m, p, n, o0, pt, j0, jt, ep);
            }
            j0 += jt;
        }
        o0 += pt;
    }
}

/// Full `NT_OR × JB` register tile: four gradient rows share every
/// streamed `b` row while the batch dimension reduces in registers; the
/// sixteen-wide column block vectorizes across independent gradient
/// columns (never across `r`, the reduction).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nt_micro<E: NtEpilogue>(
    a: &[f32],
    b: &[f32],
    m: usize,
    p: usize,
    n: usize,
    o0: usize,
    j0: usize,
    ep: &mut E,
) {
    let mut acc = [[0.0f32; JB]; NT_OR];
    for (o, row) in acc.iter_mut().enumerate() {
        ep.start((o0 + o) * n + j0, JB, row);
    }
    let [acc0, acc1, acc2, acc3] = &mut acc;
    for r in 0..m {
        let av: &[f32; NT_OR] = a[r * p + o0..][..NT_OR].try_into().expect("NT_OR block");
        let br: &[f32; JB] = b[r * n + j0..][..JB].try_into().expect("JB block");
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
        ep.finish((o0 + o) * n + j0, JB, row);
    }
}

/// Remainder tile of [`nt_tiles`]: one row run at a time, per-element
/// chains in the same ascending-r order.
#[allow(clippy::too_many_arguments)]
fn nt_edge<E: NtEpilogue>(
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
        let mut acc = [0.0f32; JB];
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
            (NN_LANES + 1, NN_CHUNK + 1, NN_KT + 3),
            (NN_LANES - 1, NN_TILE - 1, 2 * NN_KT + 1),
            (2, JB - 1, 3),
            (7, JB + 1, 2),
        ]
        .iter()
        .enumerate()
        {
            check_all(m, n, k, 100 + i as u64);
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
