//! Heterogeneity diagnostics for federated datasets.
//!
//! The paper's results depend on the data being *non-IID across clients*
//! (label skew drives divergent client gradients, which drive divergent
//! top-k masks). These metrics quantify that property so experiments can
//! assert they operate in the intended regime instead of assuming it.

use crate::dataset::SyntheticFlDataset;

/// Per-dataset heterogeneity summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heterogeneity {
    /// Mean number of distinct classes per client.
    pub mean_classes_per_client: f64,
    /// Mean total-variation distance between a client's label
    /// distribution and the global label distribution, in `[0, 1]`.
    /// 0 = perfectly IID; values above ~0.5 indicate strong label skew.
    pub mean_tv_distance: f64,
    /// Ratio of the largest to smallest client dataset size.
    pub size_imbalance: f64,
}

/// Computes heterogeneity metrics over the first `sample_clients` clients
/// from their labels alone ([`SyntheticFlDataset::client_labels`]: a walk
/// of each client's stream that fills no feature row).
///
/// # Panics
/// Panics if `sample_clients == 0` or exceeds the population.
#[must_use]
pub fn heterogeneity(data: &SyntheticFlDataset, sample_clients: usize) -> Heterogeneity {
    assert!(
        sample_clients > 0 && sample_clients <= data.num_clients(),
        "sample_clients must be in 1..=N"
    );
    let classes = data.classes();
    // Global label distribution over the sampled clients.
    let mut global = vec![0.0f64; classes];
    let mut per_client: Vec<Vec<f64>> = Vec::with_capacity(sample_clients);
    let mut distinct_total = 0usize;
    let (mut min_len, mut max_len) = (usize::MAX, 0usize);
    for id in 0..sample_clients {
        let labels = data.client_labels(id);
        min_len = min_len.min(labels.len());
        max_len = max_len.max(labels.len());
        let mut hist = vec![0.0f64; classes];
        for &label in &labels {
            hist[label] += 1.0;
        }
        distinct_total += hist.iter().filter(|&&h| h > 0.0).count();
        let n = labels.len() as f64;
        for (g, h) in global.iter_mut().zip(&mut hist) {
            *g += *h;
            *h /= n;
        }
        per_client.push(hist);
    }
    let total: f64 = global.iter().sum();
    for g in &mut global {
        *g /= total;
    }
    // Mean total-variation distance: TV(p, q) = ½ Σ |p_c − q_c|.
    let mean_tv = per_client
        .iter()
        .map(|p| {
            0.5 * p
                .iter()
                .zip(&global)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        })
        .sum::<f64>()
        / sample_clients as f64;
    Heterogeneity {
        mean_classes_per_client: distinct_total as f64 / sample_clients as f64,
        mean_tv_distance: mean_tv,
        size_imbalance: max_len as f64 / min_len.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::DatasetProfile;

    fn dataset(classes_per_client: f64) -> SyntheticFlDataset {
        let cfg = DatasetConfig {
            classes: 20,
            clients: 60,
            feature_dim: 8,
            mean_samples_per_client: 80.0,
            min_samples_per_client: 22,
            max_samples_per_client: 300,
            classes_per_client_mean: classes_per_client,
            noise_sigma: 1.0,
            client_bias_sigma: 0.1,
            test_samples: 100,
        };
        SyntheticFlDataset::generate(cfg, 11)
    }

    #[test]
    fn skewed_dataset_has_high_tv_distance() {
        let h = heterogeneity(&dataset(3.0), 60);
        assert!(
            h.mean_tv_distance > 0.5,
            "expected strong label skew, TV = {}",
            h.mean_tv_distance
        );
        assert!(h.mean_classes_per_client < 8.0);
    }

    #[test]
    fn broader_clients_are_less_skewed() {
        let narrow = heterogeneity(&dataset(2.0), 60);
        let broad = heterogeneity(&dataset(12.0), 60);
        assert!(
            broad.mean_tv_distance < narrow.mean_tv_distance,
            "broad {} vs narrow {}",
            broad.mean_tv_distance,
            narrow.mean_tv_distance
        );
        assert!(broad.mean_classes_per_client > narrow.mean_classes_per_client);
    }

    #[test]
    fn size_imbalance_reflects_lognormal_spread() {
        let h = heterogeneity(&dataset(3.0), 60);
        assert!(h.size_imbalance > 1.5, "imbalance {}", h.size_imbalance);
    }

    #[test]
    fn paper_profiles_are_in_the_skewed_regime() {
        // All three tasks must exhibit the strong label skew the paper's
        // gradient-divergence narrative requires.
        for profile in DatasetProfile::all() {
            let mut cfg = profile.config(0.02);
            cfg.clients = cfg.clients.min(80);
            let data = SyntheticFlDataset::generate(cfg, 3);
            let n = data.num_clients().min(50);
            let h = heterogeneity(&data, n);
            assert!(
                h.mean_tv_distance > 0.4,
                "{}: TV distance {} too IID",
                profile.name(),
                h.mean_tv_distance
            );
        }
    }

    #[test]
    #[should_panic(expected = "sample_clients")]
    fn rejects_zero_sample() {
        let _ = heterogeneity(&dataset(3.0), 0);
    }
}
