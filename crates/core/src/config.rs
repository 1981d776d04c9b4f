//! Simulation configuration.

use crate::strategies::Group;
use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_data::{DatasetConfig, DatasetProfile};
use gluefl_ml::{DatasetModel, ModelProfile};
use gluefl_net::{DeviceProfile, NetworkProfile};
use gluefl_sampling::overcommit::OcStrategy;

/// GlueFL-specific parameters (§5.1 defaults via
/// [`GlueFlParams::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GlueFlParams {
    /// Total mask ratio `q`.
    pub q: f64,
    /// Shared mask ratio `q_shr < q`.
    pub q_shr: f64,
    /// Sticky group size `S`.
    pub sticky_group: usize,
    /// Sticky participants per round `C`.
    pub sticky_draw: usize,
    /// Shared-mask regeneration interval `I` (`None` = never, the paper's
    /// `I = ∞` ablation arm).
    pub regen_interval: Option<u32>,
    /// Error-compensation mode (None / EC / REC, Figure 11).
    pub compensation: CompensationMode,
    /// Use biased equal weights `1/K` instead of the unbiased
    /// inverse-propensity weights (the "GlueFL (Equal)" arm of Figure 5).
    pub equal_weights: bool,
}

impl GlueFlParams {
    /// The paper's §5.1 defaults for round size `k` and model `model`:
    /// `S = 4K`, `C = 4K/5`, `I = 10`, REC compensation, and
    /// `q`/`q_shr` of 20%/16% for ShuffleNet or 30%/24% for
    /// MobileNet & ResNet-34.
    #[must_use]
    pub fn paper_default(k: usize, model: DatasetModel) -> Self {
        let (q, q_shr) = match model {
            DatasetModel::ShuffleNet => (0.20, 0.16),
            DatasetModel::MobileNet | DatasetModel::ResNet34 => (0.30, 0.24),
        };
        Self {
            q,
            q_shr,
            sticky_group: 4 * k,
            sticky_draw: 4 * k / 5,
            regen_interval: Some(10),
            compensation: CompensationMode::Rescaled,
            equal_weights: false,
        }
    }

    /// Whether `round` is a shared-mask regeneration round (§3.3): the
    /// server re-seeds `M_t` from the unique aggregate alone, and clients
    /// send no shared part.
    #[must_use]
    pub fn is_regen_round(&self, round: u32) -> bool {
        match self.regen_interval {
            Some(i) => round > 0 && round.is_multiple_of(i),
            None => false,
        }
    }

    /// Size of the unique top-k this round, for clients and for the
    /// server's re-masking alike: `q − q_shr` of the `trainable`
    /// positions normally, the full `q` on regeneration rounds.
    #[must_use]
    pub fn unique_keep(&self, trainable: usize, round: u32) -> usize {
        let ratio = if self.is_regen_round(round) {
            self.q
        } else {
            self.q - self.q_shr
        };
        gluefl_compress::stc::keep_count(trainable, ratio)
    }

    /// The aggregation weight of a client with importance weight `p_i`
    /// drawn from `group` in a population of `n` with round size `k`:
    /// the inverse-propensity factor of Theorem 1 times `p_i` (or the
    /// biased `1/K` under [`GlueFlParams::equal_weights`]). It is also
    /// the scale of the client's re-scaled error compensation
    /// (Equation 7), which is why both halves compute it from here.
    #[must_use]
    pub fn client_weight(&self, n: usize, k: usize, group: Group, p_i: f64) -> f64 {
        if self.equal_weights {
            return 1.0 / k as f64;
        }
        let w = gluefl_sampling::sticky_weights(n, self.sticky_group, self.sticky_draw, k);
        let factor = match group {
            Group::Sticky => w.sticky_factor,
            Group::Fresh => w.fresh_factor,
        };
        factor * p_i
    }
}

/// Which training strategy a simulation runs.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyConfig {
    /// FedAvg with uniform sampling, no compression (McMahan et al. 2017).
    FedAvg,
    /// FedAvg with multinomial (MD) client sampling proportional to the
    /// importance weights `p_i` (Li et al. 2020a; §6 "Client sampling").
    /// Each of the `K` draws is i.i.d., so duplicates are possible; every
    /// draw is aggregated with weight `1/K`, which is unbiased.
    MdFedAvg,
    /// STC-style top-`q` sparsification on clients and server
    /// (Sattler et al. 2019; masking-only variant, Algorithm 1).
    Stc {
        /// Total mask ratio `q`.
        q: f64,
    },
    /// STC with its ternary quantization enabled (the component the
    /// paper factors out in footnote 1): kept values are sent as
    /// `sign·μ`, one bit per value plus one shared magnitude.
    StcQuantized {
        /// Total mask ratio `q`.
        q: f64,
    },
    /// Adaptive Parameter Freezing (Chen et al. 2021).
    Apf {
        /// APF hyper-parameters (threshold 0.1 per §5.1).
        config: ApfConfig,
    },
    /// GlueFL: sticky sampling + mask shifting (this paper).
    GlueFl(GlueFlParams),
}

impl StrategyConfig {
    /// Short name used in tables ("fedavg", "stc", "apf", "gluefl",
    /// "gluefl-equal").
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            StrategyConfig::FedAvg => "fedavg".into(),
            StrategyConfig::MdFedAvg => "md-fedavg".into(),
            StrategyConfig::Stc { .. } => "stc".into(),
            StrategyConfig::StcQuantized { .. } => "stc-quant".into(),
            StrategyConfig::Apf { .. } => "apf".into(),
            StrategyConfig::GlueFl(p) if p.equal_weights => "gluefl-equal".into(),
            StrategyConfig::GlueFl(_) => "gluefl".into(),
        }
    }
}

/// Client availability modelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityConfig {
    /// Stationary online fraction.
    pub online_fraction: f64,
    /// Mean online session length in rounds.
    pub mean_session_rounds: f64,
}

/// Full configuration of one simulated training run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Model architecture stand-in.
    pub model: ModelProfile,
    /// Strategy under test.
    pub strategy: StrategyConfig,
    /// Number of communication rounds `T`.
    pub rounds: u32,
    /// Clients kept per round `K`.
    pub round_size: usize,
    /// Local SGD steps per round `E` (paper: 10).
    pub local_steps: usize,
    /// Minibatch size (paper/FedScale default: 16 approximately).
    pub batch_size: usize,
    /// Initial client learning rate.
    pub initial_lr: f32,
    /// Learning-rate decay factor (paper: 0.98).
    pub lr_decay: f32,
    /// Decay interval in rounds (paper: 10).
    pub lr_decay_every: u32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Over-commitment factor (paper: 1.3).
    pub oc: f64,
    /// How over-commitment splits across sticky / non-sticky groups.
    pub oc_strategy: OcStrategy,
    /// Network environment.
    pub network: NetworkProfile,
    /// Device speed heterogeneity.
    pub device: DeviceProfile,
    /// Client availability churn (`None` = always online).
    pub availability: Option<AvailabilityConfig>,
    /// Wire encoding policy for round messages: the value codec for
    /// client uploads (and their BN-statistic frames), whether the
    /// entropy position layouts (delta-coded varint index lists,
    /// run-length mask sections) may compete with the v1 bitmap/index
    /// pair on exact byte cost, and whether lossy-codec residual feeds
    /// back into error compensation. The default
    /// ([`gluefl_wire::WirePolicy::default`]) reproduces the original
    /// behaviour byte for byte: `F32` values, legacy layouts, measured
    /// wire bytes equal to the analytic ledger. `F16`/`QuantU8`
    /// trade accuracy for upload bytes (quantization uses deterministic
    /// stochastic rounding seeded per `(round, client)`, so runs stay
    /// reproducible and serial ≡ parallel); with `quant_ec` on, the codec
    /// residual of every kept upload is folded into the strategy's
    /// error-compensation bank. Model weights in the broadcast are always
    /// serialized at full `F32` precision — clients must train on the
    /// exact global weights the analytic download model assumes — but the
    /// mask broadcast may use the RLE layout when the policy admits it.
    pub wire: gluefl_wire::WirePolicy,
    /// Evaluate the global model every this many rounds.
    pub eval_every: u32,
    /// Report top-5 instead of top-1 accuracy (OpenImage).
    pub use_top5: bool,
    /// Target accuracy for time-to-target reporting.
    pub target_accuracy: Option<f64>,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's §5.1 experimental setup for `(dataset, model,
    /// strategy)` at population `scale ∈ (0,1]`, running `rounds` rounds.
    ///
    /// The round size `K` is kept at the **paper's value** even when the
    /// population is scaled down: GlueFL's aggregation variance is
    /// governed by `C` and `K − C` (Theorem 2's `A` constant), so
    /// shrinking `K` proportionally would concentrate each round's update
    /// on one or two fresh clients and change the algorithm's behaviour
    /// qualitatively. Scaling only `N` keeps uniform sampling's per-round
    /// dynamics (it compresses the staleness timescale `N/K`), but not
    /// GlueFL's: the sticky group `S = 4K` stays fixed, so it covers a
    /// larger share of a smaller population and the fresh clients'
    /// expected share of the aggregate, `(N − S)/N`, falls — 96 % at the
    /// paper's FEMNIST N = 2 800, 57 % at 280 (scale 0.1), 20 % at 150.
    /// Below scale 1.0 this is a different algorithm from the paper's;
    /// `expt` always runs at 1.0. The population is floored at `5K` so
    /// the sticky group always leaves a non-sticky pool.
    #[must_use]
    pub fn paper_setup(
        dataset: DatasetProfile,
        model: DatasetModel,
        strategy: StrategyConfig,
        scale: f64,
        rounds: u32,
        seed: u64,
    ) -> Self {
        let k = dataset.paper_round_size();
        let mut data_cfg = dataset.config(scale);
        data_cfg.clients = data_cfg.clients.max(5 * k);
        Self {
            dataset: data_cfg,
            model: model.profile(),
            strategy,
            rounds,
            round_size: k,
            local_steps: 10,
            batch_size: 16,
            initial_lr: dataset.initial_lr(),
            lr_decay: 0.98,
            lr_decay_every: 10,
            momentum: 0.9,
            oc: 1.3,
            oc_strategy: OcStrategy::Proportional,
            network: NetworkProfile::MlabEdge,
            device: DeviceProfile::mobile(),
            availability: Some(AvailabilityConfig {
                online_fraction: 0.8,
                mean_session_rounds: 40.0,
            }),
            wire: gluefl_wire::WirePolicy::default(),
            eval_every: 5,
            use_top5: dataset.uses_top5(),
            target_accuracy: Some(dataset.target_accuracy()),
            seed,
        }
    }

    /// The per-round client learning rate under the decay schedule.
    #[must_use]
    pub fn lr_at_round(&self, round: u32) -> f32 {
        gluefl_ml::step_decay_lr(self.initial_lr, self.lr_decay, self.lr_decay_every, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let p = GlueFlParams::paper_default(30, DatasetModel::ShuffleNet);
        assert_eq!(p.sticky_group, 120);
        assert_eq!(p.sticky_draw, 24);
        assert_eq!(p.regen_interval, Some(10));
        assert!((p.q - 0.20).abs() < 1e-12);
        assert!((p.q_shr - 0.16).abs() < 1e-12);
        let p = GlueFlParams::paper_default(30, DatasetModel::ResNet34);
        assert!((p.q - 0.30).abs() < 1e-12);
        assert!((p.q_shr - 0.24).abs() < 1e-12);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(StrategyConfig::FedAvg.name(), "fedavg");
        assert_eq!(StrategyConfig::Stc { q: 0.2 }.name(), "stc");
        let mut p = GlueFlParams::paper_default(30, DatasetModel::ShuffleNet);
        assert_eq!(StrategyConfig::GlueFl(p.clone()).name(), "gluefl");
        p.equal_weights = true;
        assert_eq!(StrategyConfig::GlueFl(p).name(), "gluefl-equal");
    }

    #[test]
    fn paper_setup_keeps_paper_round_size() {
        let cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.1,
            100,
            1,
        );
        assert_eq!(cfg.dataset.clients, 280);
        // K stays at the paper's 30 so C and K−C match §5.1 exactly.
        assert_eq!(cfg.round_size, 30);
        assert!((cfg.initial_lr - 0.01).abs() < 1e-9);
        assert!(cfg.target_accuracy.is_some());
    }

    #[test]
    fn paper_setup_floors_population_at_5k() {
        let cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.01, // would be 28 clients, far below 5K = 150
            100,
            1,
        );
        assert!(cfg.dataset.clients >= 5 * cfg.round_size);
    }

    #[test]
    fn lr_schedule() {
        let cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.1,
            100,
            1,
        );
        assert_eq!(cfg.lr_at_round(0), 0.01);
        assert!(cfg.lr_at_round(50) < cfg.lr_at_round(0));
    }
}
