//! Sticky-sampling planner: explore S and C choices analytically before
//! running any training (Propositions 1–2 + Theorem 2), then price a
//! round's messages with the `gluefl-wire` length predictors — the byte
//! ledger — and check every prediction against the frame actually
//! encoded, under both layout menus and all three value codecs.
//!
//! ```text
//! cargo run --release --example bandwidth_planner [-- N K S C]
//! ```

use gluefl_core::theory::{convergence_bound, theorem2_learning_rate, variance_constant_a};
use gluefl_sampling::analysis::{
    sticky_advantage_horizon, sticky_resample_prob, uniform_resample_prob,
};
use gluefl_tensor::BitMask;
use gluefl_wire::{
    decode_frame_prefix, delta_section_len, rle_section_len, Codec, FrameKind, FrameWriter,
    Rounding, WirePolicy, HEADER_BYTES,
};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    let (n, k, s, c) = match args.as_slice() {
        [n, k, s, c] => (*n, *k, *s, *c),
        _ => (2800, 30, 120, 24), // the paper's FEMNIST case study
    };
    println!("sticky sampling planner: N = {n}, K = {k}, S = {s}, C = {c}\n");

    println!("re-sampling probability after r rounds (Propositions 1 & 2):");
    println!(
        "{:>3} {:>10} {:>10} {:>10}",
        "r", "sticky", "uniform", "ratio"
    );
    for r in 1..=8u32 {
        let ps = sticky_resample_prob(n, k, s, c, r);
        let pu = uniform_resample_prob(n, k, r);
        println!(
            "{r:>3} {:>9.2}% {:>9.2}% {:>9.1}x",
            ps * 100.0,
            pu * 100.0,
            ps / pu
        );
    }
    match sticky_advantage_horizon(n, k, s, c) {
        Some(h) => println!("\nsticky clients stay advantaged for {h} rounds"),
        None => println!("\nwarning: this (S, C) never beats uniform sampling"),
    }

    // Convergence-side cost of the configuration (Theorem 2).
    let p = vec![1.0 / n as f64; n];
    let a_sticky = variance_constant_a(n, k, s, c, &p);
    let a_uniform = variance_constant_a(n, k, 0, 0, &p);
    println!("\nTheorem 2 variance constant A:");
    println!("  uniform sampling: {a_uniform:.3}");
    println!(
        "  sticky  sampling: {a_sticky:.3}  ({:.1}x)",
        a_sticky / a_uniform
    );
    let (e, sigma2, t) = (10, 1.0, 1000);
    println!(
        "\nsuggested learning rate (E = {e}, σ² = {sigma2}, T = {t}): {:.5}",
        theorem2_learning_rate(e, sigma2, k, t, a_sticky)
    );
    println!(
        "convergence bound at T = {t}: sticky {:.4} vs uniform {:.4}",
        convergence_bound(e, sigma2, k, t, a_sticky),
        convergence_bound(e, sigma2, k, t, a_uniform)
    );
    println!(
        "\ninterpretation: stickiness multiplies short-term re-sampling \
         probability (bandwidth ↓) at a variance cost the evaluation shows \
         is a favourable trade (§4.2)."
    );

    // --- Per-message bytes: predicted vs encoded wire frames. ---
    // A representative GlueFL round at d = 100k parameters, q = 20%,
    // q_shr = 16%: every message is priced by the FrameWriter predictor
    // the simulator's ledger uses, then actually serialized, and the two
    // must agree to the byte — for every codec and both layout menus.
    let d = 100_000usize;
    let (q, q_shr) = (0.20, 0.16);
    let shared_nnz = (d as f64 * q_shr) as usize;
    let unique_nnz = (d as f64 * (q - q_shr)) as usize;
    let mask = BitMask::from_indices(d, (0..d).step_by(d / shared_nnz));
    let clustered = BitMask::from_indices(d, (0..d).filter(|i| i % 2048 < 328));
    let shared_vals: Vec<f32> = (0..mask.count_ones())
        .map(|i| (i as f32 * 0.7).sin())
        .collect();
    let unique_ix: Vec<u32> = (1..=unique_nnz as u32).map(|i| i * 5 - 4).collect();
    let unique_vals: Vec<f32> = unique_ix.iter().map(|&i| (i as f32 * 0.3).cos()).collect();

    type Predict<'a> = &'a dyn Fn(&FrameWriter) -> u64;
    type Emit<'a> = &'a dyn Fn(&FrameWriter, &mut Vec<u8>) -> usize;
    let rows: [(&str, Predict, Emit); 4] = [
        (
            "mask broadcast (scattered)",
            &|w| w.mask_len(&mask),
            &|w, buf| w.mask(buf, 0, &mask),
        ),
        (
            "mask broadcast (clustered)",
            &|w| w.mask_len(&clustered),
            &|w, buf| w.mask(buf, 0, &clustered),
        ),
        (
            "shared upload (aligned)",
            &|w| w.known_mask_len(shared_vals.len()),
            &|w, buf| w.known_mask(buf, 0, Rounding::Nearest, d, &shared_vals),
        ),
        (
            "unique upload (sparse)",
            &|w| w.sparse_len(d, &unique_ix),
            &|w, buf| w.sparse(buf, 0, Rounding::Nearest, d, &unique_ix, &unique_vals),
        ),
    ];
    // Encodes one message under `policy` and holds the predictor to it.
    let encode = |label: &str, policy: WirePolicy, predict: Predict, emit: Emit| -> Vec<u8> {
        let writer = FrameWriter::new(policy);
        let mut buf = Vec::new();
        let n = emit(&writer, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(
            predict(&writer),
            n as u64,
            "{label} under {policy:?}: predicted ≠ encoded"
        );
        buf
    };

    println!("\nper-message bytes at d = {d}, q = {q}, q_shr = {q_shr} (v1 layouts):");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "message", "ledger", "wire f32", "wire f16", "wire u8"
    );
    for (label, predict, emit) in rows {
        let ledger = predict(&FrameWriter::new(WirePolicy::legacy(Codec::F32)));
        let [f32_bytes, f16_bytes, u8_bytes] = [Codec::F32, Codec::F16, Codec::QuantU8]
            .map(|codec| encode(label, WirePolicy::legacy(codec), predict, emit).len());
        assert_eq!(f32_bytes as u64, ledger, "{label}: F32 frame ≠ ledger");
        println!("{label:<28} {ledger:>12} {f32_bytes:>12} {f16_bytes:>12} {u8_bytes:>12}");
    }
    println!(
        "(the ledger is the v1 F32 frame length, so the first two columns \
         agree by definition of the ledger and by test of the encoder; the \
         quantized columns shrink only the value sections — positions and \
         framing are codec-independent.)"
    );

    // --- Position layouts: fixed v1 sections vs v2 entropy sections. ---
    // Same messages, F32 values pinned — now only the *position* encoding
    // changes. `WirePolicy::entropy` prices every applicable section
    // exactly (bitmap, u32 index list, delta-varint list, RLE runs) and
    // emits the cheapest. Scattered supports keep the bitmap (one-bit
    // runs make RLE *bigger*); layer-clustered supports are where RLE
    // pays; sorted index lists nearly always shrink to delta varints.
    let layout_name = |buf: &[u8]| match decode_frame_prefix(buf).expect("valid frame").0.kind {
        FrameKind::Mask | FrameKind::SparseBitmap => "bitmap",
        FrameKind::SparseIndex => "u32 index",
        FrameKind::SparseDelta => "delta-varint",
        FrameKind::MaskRle | FrameKind::SparseRle => "rle",
        FrameKind::KnownMask => "none",
        _ => "other",
    };
    println!("\nposition layouts at the same d, F32 values pinned:");
    println!(
        "{:<28} {:>10} {:>10} {:>13}",
        "message", "v1 bytes", "v2 bytes", "v2 layout"
    );
    for (label, predict, emit) in rows {
        let v1 = encode(label, WirePolicy::legacy(Codec::F32), predict, emit);
        for codec in [Codec::F16, Codec::QuantU8] {
            let _ = encode(label, WirePolicy::entropy(codec), predict, emit);
        }
        let v2 = encode(label, WirePolicy::entropy(Codec::F32), predict, emit);
        assert!(v2.len() <= v1.len(), "{label}: entropy layout regressed");
        println!(
            "{label:<28} {:>10} {:>10} {:>13}",
            v1.len(),
            v2.len(),
            layout_name(&v2)
        );
    }
    // The two sections that win here cost what their closed forms say.
    let entropy = FrameWriter::new(WirePolicy::entropy(Codec::F32));
    assert_eq!(
        entropy.mask_len(&clustered),
        HEADER_BYTES as u64 + rle_section_len(&clustered),
        "rle frame ≠ section cost"
    );
    assert_eq!(
        entropy.sparse_len(d, &unique_ix),
        HEADER_BYTES as u64 + delta_section_len(&unique_ix) + 4 * unique_ix.len() as u64,
        "delta frame ≠ section cost"
    );
    println!(
        "(v2 frames stay self-describing — the decoder dispatches on the \
         frame kind, so a v2 reader accepts both columns.)"
    );
}
