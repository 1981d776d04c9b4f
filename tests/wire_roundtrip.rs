//! End-to-end wire-codec gates on the full simulator: the F32 round
//! trip is deterministic and trains, lossy codecs shrink measured bytes
//! while training still runs (finite accuracy, support preserved), and
//! the entropy layouts keep the F32 trajectory at fewer bytes. That
//! every offer and broadcast is priced at its encoded frame length, for
//! every strategy and codec, is `crates/core/tests/reference_round.rs`'s
//! to pin.

use gluefl_core::{
    GlueFlParams, RoundRecord, SimConfig, Simulation, StrategyConfig, WireCodec, WirePolicy,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

fn cfg(strategy: StrategyConfig, rounds: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.01,
        rounds,
        23,
    );
    cfg.model.hidden = vec![24];
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 100;
    cfg.eval_every = 3;
    cfg.availability = None;
    cfg
}

/// The F32 wire round-trip must not perturb the training trajectory:
/// run-to-run determinism plus a sanity floor on accuracy (the same
/// bound `tests/end_to_end.rs` uses for the no-wire baseline history).
#[test]
fn f32_roundtrip_is_deterministic_and_trains() {
    let run = || {
        let mut c = cfg(StrategyConfig::FedAvg, 20);
        c.initial_lr = 0.05;
        c.eval_every = 20;
        Simulation::new(c).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.total.accuracy.to_bits(),
        b.total.accuracy.to_bits(),
        "wire round-trip broke determinism"
    );
    assert!(
        a.total.accuracy > 0.3,
        "accuracy {} barely above chance",
        a.total.accuracy
    );
}

#[test]
fn lossy_codecs_shrink_measured_bytes_and_still_train() {
    for codec in [WireCodec::F16, WireCodec::QuantU8] {
        let k = cfg(StrategyConfig::FedAvg, 1).round_size;
        let mut c = cfg(
            StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
            8,
        );
        c.wire = WirePolicy::legacy(codec);
        let result = Simulation::new(c).run();
        for rec in &result.rounds {
            assert!(
                rec.wire_up_bytes < rec.up_bytes,
                "{codec:?}: measured {} not below analytic {}",
                rec.wire_up_bytes,
                rec.up_bytes
            );
        }
        let acc = result.total.accuracy;
        assert!(acc.is_finite() && acc > 0.0, "{codec:?}: accuracy {acc}");
    }
}

/// The v2 entropy layouts (delta-varint indices, RLE mask sections) are
/// pure re-encodings of the same positions: under every codec, every
/// decoded value is the one the v1 layout would deliver, so the training
/// trajectory — the final weights bit for bit, and every record field
/// apart from the measured bytes — matches the legacy layout's exactly,
/// while the measured wire bytes only shrink (the writer keeps a v1
/// section whenever it is cheaper).
///
/// This holds at the paper's over-commitment: an invitation is priced
/// before anyone trains, at its count's legacy layout under the run's
/// codec, so the two layout menus offer the same prices and keep the
/// same clients.
#[test]
fn entropy_layouts_keep_f32_trajectory_at_fewer_measured_bytes() {
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    let run = |wire: WirePolicy| {
        let mut c = cfg(
            StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
            6,
        );
        c.wire = wire;
        let mut sim = Simulation::new(c);
        let recs = (0..6).map(|_| sim.step()).collect::<Vec<_>>();
        let bits: Vec<u32> = sim.model().params().iter().map(|v| v.to_bits()).collect();
        (recs, bits)
    };
    for codec in [WireCodec::F32, WireCodec::F16, WireCodec::QuantU8] {
        let (legacy, legacy_bits) = run(WirePolicy::legacy(codec));
        let (entropy, entropy_bits) = run(WirePolicy::entropy(codec));
        assert!(
            legacy_bits == entropy_bits,
            "{codec:?}: the entropy layout perturbed the trajectory"
        );
        let mut shrunk = false;
        for (l, e) in legacy.iter().zip(&entropy) {
            assert!(l.invited > l.kept, "{codec:?}: no over-commitment");
            let rest = RoundRecord {
                wire_up_bytes: l.wire_up_bytes,
                wire_broadcast_bytes: l.wire_broadcast_bytes,
                ..*e
            };
            assert_eq!(rest, *l, "{codec:?}, round {}", l.round);
            assert!(
                e.wire_up_bytes <= l.wire_up_bytes,
                "{codec:?}: entropy upload grew at round {}: {} > {}",
                l.round,
                e.wire_up_bytes,
                l.wire_up_bytes
            );
            assert!(
                e.wire_broadcast_bytes <= l.wire_broadcast_bytes,
                "{codec:?}: entropy broadcast grew at round {}",
                l.round
            );
            shrunk |= e.wire_up_bytes < l.wire_up_bytes;
        }
        assert!(
            shrunk,
            "{codec:?}: entropy layouts never beat the v1 sections"
        );
    }
}

/// QuantU8's stochastic rounding must be a pure function of
/// `(seed, round, client)`: two runs of the same quantized config agree
/// bit for bit.
#[test]
fn quantized_runs_are_reproducible() {
    let run = || {
        let mut c = cfg(StrategyConfig::Stc { q: 0.2 }, 6);
        c.wire = WirePolicy::legacy(WireCodec::QuantU8);
        let mut sim = Simulation::new(c);
        (0..6).map(|_| sim.step()).collect::<Vec<_>>()
    };
    for (x, y) in run().iter().zip(&run()) {
        assert_eq!(x.wire_up_bytes, y.wire_up_bytes);
        assert_eq!(x.changed_positions, y.changed_positions);
        assert_eq!(
            x.accuracy.map(f64::to_bits),
            y.accuracy.map(f64::to_bits),
            "quantized run not reproducible at round {}",
            x.round
        );
    }
}
