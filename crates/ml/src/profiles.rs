//! Named model profiles standing in for the paper's architectures.

use crate::mlp::{Mlp, MlpConfig, MlpTopology};
use rand::Rng;

/// The three model architectures of the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetModel {
    /// ShuffleNet V2 (used on FEMNIST and OpenImage).
    ShuffleNet,
    /// MobileNet V2 (used on FEMNIST and OpenImage).
    MobileNet,
    /// ResNet-34 (used on Google Speech).
    ResNet34,
}

impl DatasetModel {
    /// The profile standing in for this architecture.
    #[must_use]
    pub fn profile(self) -> ModelProfile {
        match self {
            DatasetModel::ShuffleNet => ModelProfile::shufflenet_like(),
            DatasetModel::MobileNet => ModelProfile::mobilenet_like(),
            DatasetModel::ResNet34 => ModelProfile::resnet34_like(),
        }
    }

    /// Short name used in tables ("shufflenet", "mobilenet", "resnet34").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DatasetModel::ShuffleNet => "shufflenet",
            DatasetModel::MobileNet => "mobilenet",
            DatasetModel::ResNet34 => "resnet34",
        }
    }
}

impl std::str::FromStr for DatasetModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shufflenet" => Ok(DatasetModel::ShuffleNet),
            "mobilenet" => Ok(DatasetModel::MobileNet),
            "resnet34" => Ok(DatasetModel::ResNet34),
            other => Err(format!(
                "unknown model '{other}' (expected shufflenet|mobilenet|resnet34)"
            )),
        }
    }
}

/// A scaled-down stand-in for one of the paper's architectures.
///
/// The substitution rationale: sparsification and mask dynamics are
/// dimension-generic, so we train a smaller MLP whose parameter vector
/// plays the role of the full network, and remember the original's
/// `reference_params` so bandwidth can optionally be reported at paper
/// scale via [`ModelProfile::paper_scale_factor`].
///
/// # Example
///
/// ```
/// use gluefl_ml::ModelProfile;
/// use rand::SeedableRng;
/// let profile = ModelProfile::shufflenet_like();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = profile.build(64, 62, &mut rng);
/// assert!(model.num_params() > 10_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Hidden layer widths of the stand-in MLP.
    pub hidden: Vec<usize>,
    /// Whether the stand-in uses BatchNorm (all three real nets do).
    pub batch_norm: bool,
    /// Parameter count of the real architecture (for paper-scale bytes).
    pub reference_params: u64,
}

impl ModelProfile {
    /// Stand-in for ShuffleNet V2 (§2.2 cites ≈5M parameters).
    #[must_use]
    pub fn shufflenet_like() -> Self {
        Self {
            name: "shufflenet-like",
            hidden: vec![192, 96],
            batch_norm: true,
            reference_params: 5_000_000,
        }
    }

    /// Stand-in for MobileNet V2 (≈3.5M parameters).
    #[must_use]
    pub fn mobilenet_like() -> Self {
        Self {
            name: "mobilenet-like",
            hidden: vec![160, 80],
            batch_norm: true,
            reference_params: 3_500_000,
        }
    }

    /// Stand-in for ResNet-34 (≈21.8M parameters).
    #[must_use]
    pub fn resnet34_like() -> Self {
        Self {
            name: "resnet34-like",
            hidden: vec![256, 128, 64],
            batch_norm: true,
            reference_params: 21_800_000,
        }
    }

    /// The stand-in's architecture for a task with `input_dim` features
    /// and `classes` classes, without weights.
    #[must_use]
    pub fn topology(&self, input_dim: usize, classes: usize) -> MlpTopology {
        MlpTopology::new(MlpConfig {
            input_dim,
            hidden: self.hidden.clone(),
            classes,
            batch_norm: self.batch_norm,
        })
    }

    /// Builds the stand-in model — [`topology`](Self::topology) with
    /// initial weights drawn from `rng`.
    #[must_use]
    pub fn build<R: Rng>(&self, input_dim: usize, classes: usize, rng: &mut R) -> Mlp {
        Mlp::init(self.topology(input_dim, classes), rng)
    }

    /// Multiplier to convert simulated bytes to paper-scale bytes:
    /// `reference_params / simulated_params`.
    #[must_use]
    pub fn paper_scale_factor(&self, simulated_params: usize) -> f64 {
        self.reference_params as f64 / simulated_params.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profiles_build_distinct_sizes() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = ModelProfile::shufflenet_like().build(64, 62, &mut rng);
        let m = ModelProfile::mobilenet_like().build(64, 62, &mut rng);
        let r = ModelProfile::resnet34_like().build(64, 35, &mut rng);
        assert!(r.num_params() > s.num_params());
        assert!(s.num_params() > m.num_params());
    }

    #[test]
    fn reference_ordering_matches_paper() {
        // ResNet-34 > ShuffleNet > MobileNet in true parameter count.
        let s = ModelProfile::shufflenet_like().reference_params;
        let m = ModelProfile::mobilenet_like().reference_params;
        let r = ModelProfile::resnet34_like().reference_params;
        assert!(r > s && s > m);
    }

    #[test]
    fn scale_factor_converts_param_counts() {
        let p = ModelProfile::shufflenet_like();
        assert!((p.paper_scale_factor(50_000) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dataset_model_roundtrip() {
        for dm in [
            DatasetModel::ShuffleNet,
            DatasetModel::MobileNet,
            DatasetModel::ResNet34,
        ] {
            let parsed: DatasetModel = dm.name().parse().unwrap();
            assert_eq!(parsed, dm);
            let _ = dm.profile();
        }
        assert!("vgg".parse::<DatasetModel>().is_err());
    }

    #[test]
    fn all_profiles_use_batch_norm() {
        // Appendix D's BN handling must be exercised by every benchmark.
        assert!(ModelProfile::shufflenet_like().batch_norm);
        assert!(ModelProfile::mobilenet_like().batch_norm);
        assert!(ModelProfile::resnet34_like().batch_norm);
    }
}
