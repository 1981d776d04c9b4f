//! One golden fingerprint per strategy configuration.
//!
//! Each case runs a tiny six-round simulation with availability churn on
//! and hashes every [`RoundRecord`] field that record equality compares,
//! then the final parameter bits. The other round suites compare two
//! production paths against each other, which a refactor changes
//! together; these constants pin the round bits themselves — sampling
//! order, weights, folds, timing and eval — and move only with a ruling
//! that moves them on purpose.

use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_core::{
    AvailabilityConfig, GlueFlParams, RoundRecord, SimConfig, Simulation, StrategyConfig,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_wire::{Codec, WirePolicy};

const ROUNDS: u32 = 6;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }

    /// Every field [`RoundRecord`]'s `PartialEq` compares.
    fn record(&mut self, r: &RoundRecord) {
        self.u64(u64::from(r.round));
        self.u64(r.down_bytes);
        self.u64(r.up_bytes);
        self.u64(r.wire_up_bytes);
        self.u64(r.wire_broadcast_bytes);
        self.f64(r.round_secs);
        self.f64(r.slowest_download_secs);
        self.f64(r.slowest_upload_secs);
        self.f64(r.slowest_compute_secs);
        self.f64(r.mean_download_secs);
        self.f64(r.mean_upload_secs);
        self.f64(r.mean_compute_secs);
        self.opt(r.accuracy);
        self.opt(r.loss);
        self.u64(r.invited as u64);
        self.u64(r.kept as u64);
        self.u64(r.changed_positions as u64);
    }
}

fn gluefl(regen_interval: Option<u32>, equal_weights: bool) -> StrategyConfig {
    StrategyConfig::GlueFl(GlueFlParams {
        q: 0.25,
        q_shr: 0.2,
        sticky_group: 24,
        sticky_draw: 4,
        regen_interval,
        compensation: CompensationMode::Rescaled,
        equal_weights,
    })
}

/// 150 clients (`paper_setup`'s floor of 5K: 2 800 × 0.02 = 56 is
/// raised to 5 × 30), 70% online in three-round sessions, keep 6 of 8.
fn tiny(strategy: StrategyConfig, wire: WirePolicy) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.02,
        ROUNDS,
        11,
    );
    cfg.model.hidden = vec![16];
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 64;
    cfg.round_size = 6;
    cfg.local_steps = 2;
    cfg.batch_size = 8;
    cfg.eval_every = 3;
    cfg.availability = Some(AvailabilityConfig {
        online_fraction: 0.7,
        mean_session_rounds: 3.0,
    });
    cfg.wire = wire;
    cfg
}

/// `(records FNV, final-parameter FNV)` of one run.
fn fingerprint(cfg: SimConfig) -> (u64, u64) {
    let mut sim = Simulation::new(cfg);
    let mut records = Fnv::new();
    for _ in 0..ROUNDS {
        records.record(&sim.step());
    }
    let mut params = Fnv::new();
    for v in sim.model().params() {
        params.bytes(&v.to_bits().to_le_bytes());
    }
    (records.0, params.0)
}

fn check(name: &str, cfg: SimConfig, want: (u64, u64)) {
    let got = fingerprint(cfg);
    assert_eq!(got, want, "{name}: got ({:#018x}, {:#018x})", got.0, got.1);
}

/// Short warm-up and periods, so positions freeze within six rounds.
fn apf() -> StrategyConfig {
    StrategyConfig::Apf {
        config: ApfConfig {
            threshold: 0.5,
            ema_beta: 0.5,
            initial_period: 1,
            max_period: 4,
            warmup_rounds: 1,
        },
    }
}

#[test]
fn fedavg() {
    check(
        "fedavg",
        tiny(StrategyConfig::FedAvg, WirePolicy::default()),
        (0x65eb_c612_1f8f_66b0, 0x76c9_67ce_1f0f_129d),
    );
}

#[test]
fn md_fedavg() {
    check(
        "md-fedavg",
        tiny(StrategyConfig::MdFedAvg, WirePolicy::default()),
        (0x5c0b_288e_bdb7_9d94, 0x606e_e9a9_a487_e0c1),
    );
}

#[test]
fn stc() {
    check(
        "stc",
        tiny(StrategyConfig::Stc { q: 0.25 }, WirePolicy::default()),
        (0xe86e_98cc_5f9f_b811, 0x5dad_8e05_3a5a_7d9c),
    );
}

#[test]
fn stc_quant() {
    check(
        "stc-quant",
        tiny(
            StrategyConfig::StcQuantized { q: 0.25 },
            WirePolicy::default(),
        ),
        (0x5c20_34c6_cc4e_32f0, 0xf4bb_6f66_2b6e_812e),
    );
}

#[test]
fn apf_default() {
    check(
        "apf",
        tiny(apf(), WirePolicy::default()),
        (0x66ae_9e81_04fb_ba79, 0x30ed_e368_647c_1437),
    );
}

#[test]
fn gluefl_default() {
    check(
        "gluefl",
        tiny(gluefl(Some(3), false), WirePolicy::default()),
        (0x3927_575c_419d_afb8, 0x2794_2df4_48a5_d9f2),
    );
}

#[test]
fn gluefl_equal() {
    check(
        "gluefl-equal",
        tiny(gluefl(Some(3), true), WirePolicy::default()),
        (0x1860_56b8_ce3f_e27d, 0xba56_83b7_ade5_eaf0),
    );
}

#[test]
fn gluefl_without_regeneration() {
    check(
        "gluefl regen=None",
        tiny(gluefl(None, false), WirePolicy::default()),
        (0xbf96_0865_184f_db18, 0xe4e4_7d61_2005_fa5d),
    );
}

#[test]
fn stc_quant_u8_wire() {
    check(
        "stc QuantU8",
        tiny(
            StrategyConfig::Stc { q: 0.25 },
            WirePolicy::legacy(Codec::QuantU8),
        ),
        (0x9da7_44ca_c6f1_bf88, 0x30d6_40dc_c2d5_5a69),
    );
}

#[test]
fn gluefl_quant_u8_wire() {
    check(
        "gluefl QuantU8",
        tiny(gluefl(Some(3), false), WirePolicy::legacy(Codec::QuantU8)),
        (0xe3a9_5473_1235_5c20, 0x89eb_b593_bb78_61a6),
    );
}
