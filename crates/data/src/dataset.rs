//! Synthetic federated dataset generation.

use gluefl_tensor::rng::{derive_seed, seeded_rng};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Generation parameters for a [`SyntheticFlDataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Number of clients `N`.
    pub clients: usize,
    /// Feature dimension of every sample.
    pub feature_dim: usize,
    /// Median of the log-normal per-client sample count.
    pub mean_samples_per_client: f64,
    /// Lower clamp on per-client samples (FedScale default: 22).
    pub min_samples_per_client: usize,
    /// Upper clamp on per-client samples.
    pub max_samples_per_client: usize,
    /// Mean number of distinct classes a client holds (label skew).
    pub classes_per_client_mean: f64,
    /// Standard deviation of the within-class feature noise.
    pub noise_sigma: f64,
    /// Standard deviation of the per-client feature bias.
    pub client_bias_sigma: f64,
    /// Size of the held-out, class-balanced test set.
    pub test_samples: usize,
}

/// Per-client generation metadata (small; the samples themselves are
/// regenerated on demand).
#[derive(Debug, Clone, PartialEq)]
struct ClientMeta {
    seed: u64,
    num_samples: usize,
    /// `(class, probability)` pairs; probabilities sum to 1.
    label_probs: Vec<(u32, f32)>,
}

/// One client's local dataset: a row table whose features are filled on
/// demand.
///
/// A shard from [`SyntheticFlDataset::client`] has every row filled. One
/// from [`SyntheticFlDataset::client_storage`] has none: each
/// [`SyntheticFlDataset::fill_rows`] fills the rows it is asked for (and
/// the first one draws every row's label), and reading a row that is not
/// filled panics. A filled row holds exactly the bits `client` gives it,
/// whichever rows were filled before or after it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientDataset {
    /// Features, `rows × feature_dim` row-major once a row is filled and
    /// empty before; a row not filled holds zeros.
    x: Vec<f32>,
    /// Labels, one per row once the shard's stream has been walked and
    /// empty before.
    y: Vec<usize>,
    /// The client's feature bias, drawn by the first fill that fills a
    /// row and empty before.
    bias: Vec<f32>,
    /// Bit `i` set when row `i`'s features are filled.
    filled: Vec<u64>,
    /// Rows the fill in progress is to fill; clear between fills.
    wanted: Vec<u64>,
    rows: usize,
    feature_dim: usize,
}

impl ClientDataset {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the client holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Feature dimension of each sample.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Whether row `i`'s features are filled.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_filled(&self, i: usize) -> bool {
        assert!(i < self.rows, "row {i} of a {}-row shard", self.rows);
        self.filled[i / 64] >> (i % 64) & 1 == 1
    }

    /// Every row's label.
    ///
    /// # Panics
    /// Panics if no fill has drawn the labels yet.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        assert_eq!(self.y.len(), self.rows, "no fill has drawn the labels");
        &self.y
    }

    /// Draws a minibatch of `batch` rows uniformly with replacement,
    /// returning `(features, labels)`.
    ///
    /// # Panics
    /// As [`sample_batch_into`](Self::sample_batch_into).
    #[must_use]
    pub fn sample_batch<R: Rng>(&self, rng: &mut R, batch: usize) -> (Vec<f32>, Vec<usize>) {
        let mut bx = Vec::with_capacity(batch * self.feature_dim);
        let mut by = Vec::with_capacity(batch);
        self.sample_batch_into(rng, batch, &mut bx, &mut by);
        (bx, by)
    }

    /// Like [`ClientDataset::sample_batch`] but writing into caller-owned
    /// staging buffers (cleared first) — the allocation-free form used by
    /// the simulator's pooled training loop. Draws the exact same RNG
    /// stream as `sample_batch`, so the two are interchangeable
    /// bit-for-bit. The rows are the ones [`batch_rows`] names.
    ///
    /// # Panics
    /// Panics if the dataset is empty or a drawn row is not filled.
    pub fn sample_batch_into<R: Rng>(
        &self,
        rng: &mut R,
        batch: usize,
        bx: &mut Vec<f32>,
        by: &mut Vec<usize>,
    ) {
        assert!(!self.is_empty(), "cannot sample from an empty dataset");
        bx.clear();
        by.clear();
        let Self {
            x,
            y,
            filled,
            rows,
            feature_dim: dim,
            ..
        } = self;
        for i in batch_rows(rng, *rows, batch) {
            assert!(
                filled[i / 64] >> (i % 64) & 1 == 1,
                "sampled row {i}, which is not filled"
            );
            bx.extend_from_slice(&x[i * dim..(i + 1) * dim]);
            by.push(y[i]);
        }
    }
}

/// The rows of a `batch`-row minibatch drawn from `rng`, uniform with
/// replacement over `len` rows: one draw per row and nothing else drawn,
/// so `k` consecutive minibatches read exactly the rows
/// `batch_rows(rng, len, k · batch)` names. The one place a minibatch's
/// rows are chosen — [`ClientDataset::sample_batch_into`] reads through
/// it, and a caller that knows the seed fills exactly these rows first.
///
/// # Panics
/// The iterator panics if `len == 0`.
pub fn batch_rows<'r, R: Rng>(
    rng: &'r mut R,
    len: usize,
    batch: usize,
) -> impl Iterator<Item = usize> + 'r {
    (0..batch).map(move |_| rng.gen_range(0..len))
}

/// A synthetic cross-device federated dataset.
///
/// Generated once from a `(config, seed)` pair; every query is
/// deterministic. See the crate docs for the generative model.
#[derive(Debug, Clone)]
pub struct SyntheticFlDataset {
    cfg: DatasetConfig,
    master_seed: u64,
    /// Class means, `classes × feature_dim` row-major.
    class_means: Vec<f32>,
    client_meta: Vec<ClientMeta>,
    /// The held-out `(features, labels)`, drawn by the first
    /// [`SyntheticFlDataset::test_set`] call.
    test: OnceLock<(Vec<f32>, Vec<usize>)>,
    /// Normalised client weights `p_i` (∝ sample count, Σ = 1).
    weights: Vec<f64>,
}

impl SyntheticFlDataset {
    /// Generates the population: class means, per-client metadata and
    /// importance weights — what every participant of a run needs. The
    /// held-out test set, which only an evaluator reads, is not drawn
    /// here but by the first [`test_set`](Self::test_set) call, from its
    /// own `"test-set"` stream, so when it is drawn never changes what
    /// it holds.
    ///
    /// # Panics
    /// Panics on degenerate configs (zero classes/clients/features, a
    /// client allowed zero samples).
    #[must_use]
    pub fn generate(cfg: DatasetConfig, seed: u64) -> Self {
        assert!(cfg.classes > 0, "need at least one class");
        assert!(cfg.clients > 0, "need at least one client");
        assert!(cfg.feature_dim > 0, "need at least one feature");
        assert!(
            cfg.min_samples_per_client >= 1,
            "every client needs at least one sample"
        );
        assert!(
            cfg.min_samples_per_client <= cfg.max_samples_per_client,
            "min samples exceeds max samples"
        );

        // Class means: μ_c ~ N(0, I).
        let mut rng = seeded_rng(seed, "class-means", 0);
        let class_means: Vec<f32> = (0..cfg.classes * cfg.feature_dim)
            .map(|_| normal(&mut rng) as f32)
            .collect();

        // Per-client metadata.
        let mut client_meta = Vec::with_capacity(cfg.clients);
        for i in 0..cfg.clients {
            let mut crng = seeded_rng(seed, "client-meta", i as u64);
            // Sample count: log-normal, clamped.
            let ln_n = (cfg.mean_samples_per_client.max(1.0)).ln() + 0.6 * normal(&mut crng);
            let num_samples = (ln_n.exp().round() as usize)
                .clamp(cfg.min_samples_per_client, cfg.max_samples_per_client);
            // Label skew: a geometric number of classes around the mean,
            // weighted by normalised Exp(1) draws (symmetric Dirichlet(1)).
            let p_more = 1.0 - 1.0 / cfg.classes_per_client_mean.max(1.0);
            let mut k = 1usize;
            while k < cfg.classes && crng.gen::<f64>() < p_more {
                k += 1;
            }
            let mut chosen = Vec::with_capacity(k);
            while chosen.len() < k {
                let c = crng.gen_range(0..cfg.classes) as u32;
                if !chosen.contains(&c) {
                    chosen.push(c);
                }
            }
            chosen.sort_unstable();
            let raw: Vec<f64> = (0..k).map(|_| -crng.gen::<f64>().max(1e-12).ln()).collect();
            let total: f64 = raw.iter().sum();
            let label_probs: Vec<(u32, f32)> = chosen
                .into_iter()
                .zip(raw)
                .map(|(c, w)| (c, (w / total) as f32))
                .collect();
            client_meta.push(ClientMeta {
                seed: derive_seed(seed, "client-data", i as u64),
                num_samples,
                label_probs,
            });
        }

        // Importance weights p_i ∝ |D_i|.
        let total_samples: f64 = client_meta.iter().map(|m| m.num_samples as f64).sum();
        let weights = client_meta
            .iter()
            .map(|m| m.num_samples as f64 / total_samples)
            .collect();

        Self {
            cfg,
            master_seed: seed,
            class_means,
            client_meta,
            test: OnceLock::new(),
            weights,
        }
    }

    /// The generation config.
    #[must_use]
    pub fn config(&self) -> &DatasetConfig {
        &self.cfg
    }

    /// Number of clients `N`.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.client_meta.len()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.cfg.classes
    }

    /// Feature dimension.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.cfg.feature_dim
    }

    /// Per-client sample count (without materialising the data).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn client_len(&self, id: usize) -> usize {
        self.client_meta[id].num_samples
    }

    /// Normalised client importance weights `p_i` (sum to 1), proportional
    /// to local dataset size — the standard FedAvg weighting.
    #[must_use]
    pub fn client_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Materialises client `id`'s local dataset, every row filled.
    /// Deterministic: the same `id` always yields identical samples.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn client(&self, id: usize) -> ClientDataset {
        let mut out = self.client_storage(id);
        let n = out.len();
        self.fill_rows(id, &mut out, 0..n);
        out
    }

    /// Client `id`'s shard with no row filled and no label drawn, holding
    /// exactly the capacity its samples take, for
    /// [`fill_rows`](Self::fill_rows) to fill without allocating — so a
    /// caller can allocate a shard on one thread and fill it on another.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn client_storage(&self, id: usize) -> ClientDataset {
        let n = self.client_meta[id].num_samples;
        let dim = self.cfg.feature_dim;
        ClientDataset {
            x: Vec::with_capacity(n * dim),
            y: Vec::with_capacity(n),
            bias: Vec::with_capacity(dim),
            filled: vec![0; n.div_ceil(64)],
            wanted: vec![0; n.div_ceil(64)],
            rows: n,
            feature_dim: dim,
        }
    }

    /// Fills the rows of `shard`, client `id`'s, that `rows` names and
    /// that are not filled yet, and returns how many that was; the first
    /// fill also draws every row's label. Repeats in `rows` are allowed.
    ///
    /// One walk of the client's seeded stream, in the order
    /// [`client`](Self::client) draws it: a row that is filled evaluates
    /// its Box–Muller normals, every other row draws the same uniforms
    /// and skips the transcendentals, so a row's bits do not depend on
    /// which rows are filled. Once the labels are drawn, a walk stops
    /// after the last row it fills and is skipped when there is nothing
    /// to fill. Allocates nothing in storage from
    /// [`client_storage`](Self::client_storage).
    ///
    /// # Panics
    /// Panics if `id` is out of range, `shard` is not sized for client
    /// `id`, or a row is out of range.
    pub fn fill_rows(
        &self,
        id: usize,
        shard: &mut ClientDataset,
        rows: impl IntoIterator<Item = usize>,
    ) -> usize {
        let meta = &self.client_meta[id];
        let (n, dim) = (meta.num_samples, self.cfg.feature_dim);
        assert!(
            shard.rows == n && shard.feature_dim == dim,
            "the shard is not sized for client {id}"
        );
        let ClientDataset {
            x,
            y,
            bias,
            filled,
            wanted,
            ..
        } = shard;
        let (mut todo, mut end) = (0, 0);
        for i in rows {
            assert!(i < n, "row {i} of client {id}'s {n}");
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            if (filled[w] | wanted[w]) & bit == 0 {
                wanted[w] |= bit;
                todo += 1;
                end = end.max(i + 1);
            }
        }
        let draw_labels = y.is_empty();
        if draw_labels {
            end = n;
        } else if todo == 0 {
            return 0;
        }
        if todo > 0 && x.is_empty() {
            x.resize(n * dim, 0.0);
        }
        let mut rng = StdRng::seed_from_u64(meta.seed);
        // The per-client feature bias leads the stream: evaluated by the
        // first fill that fills a row, passed over by every other walk.
        if todo > 0 && bias.is_empty() {
            let sigma = self.cfg.client_bias_sigma;
            bias.extend((0..dim).map(|_| (sigma * normal(&mut rng)) as f32));
        } else {
            (0..dim).for_each(|_| skip_normal(&mut rng));
        }
        for i in 0..end {
            let c = sample_label(&meta.label_probs, rng.gen::<f32>());
            if draw_labels {
                y.push(c);
            }
            if wanted[i / 64] >> (i % 64) & 1 == 0 {
                (0..dim).for_each(|_| skip_normal(&mut rng));
                continue;
            }
            let mean = &self.class_means[c * dim..(c + 1) * dim];
            for ((v, &m), &b) in x[i * dim..(i + 1) * dim].iter_mut().zip(mean).zip(&*bias) {
                *v = m + b + (self.cfg.noise_sigma * normal(&mut rng)) as f32;
            }
        }
        for (f, w) in filled.iter_mut().zip(wanted) {
            *f |= std::mem::take(w);
        }
        todo
    }

    /// The held-out, class-balanced test set `(features, labels)`: row
    /// `i` is class `i mod classes` at its class mean plus noise, with no
    /// client bias (the global distribution).
    ///
    /// Drawn on the first call from the `"test-set"` stream and kept;
    /// concurrent first calls draw it once and every caller sees the
    /// same slices.
    #[must_use]
    pub fn test_set(&self) -> (&[f32], &[usize]) {
        let (x, y) = self.test.get_or_init(|| {
            let (cfg, dim) = (&self.cfg, self.cfg.feature_dim);
            let mut rng = seeded_rng(self.master_seed, "test-set", 0);
            let mut x = Vec::with_capacity(cfg.test_samples * dim);
            let mut y = Vec::with_capacity(cfg.test_samples);
            for i in 0..cfg.test_samples {
                let c = i % cfg.classes;
                for &m in &self.class_means[c * dim..(c + 1) * dim] {
                    x.push(m + (cfg.noise_sigma * normal(&mut rng)) as f32);
                }
                y.push(c);
            }
            (x, y)
        });
        (x, y)
    }

    /// The master seed the dataset was generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.master_seed
    }
}

/// Inverse-CDF draw from a small sparse label distribution.
fn sample_label(probs: &[(u32, f32)], u: f32) -> usize {
    let mut acc = 0.0f32;
    for &(c, p) in probs {
        acc += p;
        if u < acc {
            return c as usize;
        }
    }
    probs.last().expect("label distribution is non-empty").0 as usize
}

/// Box–Muller standard normal.
fn normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::EPSILON {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Draws exactly what [`normal`] draws, its `u1 ≤ ε` retries included,
/// without evaluating the `ln`, `sqrt` and `cos`: how a walk passes over
/// a value it does not keep.
fn skip_normal<R: Rng>(rng: &mut R) {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::EPSILON {
            let _u2: f64 = rng.gen();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetProfile;
    use rand::SeedableRng;

    fn small() -> SyntheticFlDataset {
        let cfg = DatasetConfig {
            classes: 10,
            clients: 50,
            feature_dim: 16,
            mean_samples_per_client: 60.0,
            min_samples_per_client: 22,
            max_samples_per_client: 200,
            classes_per_client_mean: 3.0,
            noise_sigma: 1.0,
            client_bias_sigma: 0.2,
            test_samples: 500,
        };
        SyntheticFlDataset::generate(cfg, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.client(3), b.client(3));
        assert_eq!(a.test_set().0, b.test_set().0);
        assert_eq!(a.client_weights(), b.client_weights());
    }

    #[test]
    fn client_materialisation_is_stable_across_calls() {
        let d = small();
        assert_eq!(d.client(11), d.client(11));
    }

    #[test]
    fn sample_counts_respect_clamps() {
        let d = small();
        for i in 0..d.num_clients() {
            let n = d.client_len(i);
            assert!((22..=200).contains(&n), "client {i} has {n} samples");
            assert_eq!(d.client(i).len(), n);
        }
    }

    #[test]
    fn weights_sum_to_one_and_track_sizes() {
        let d = small();
        let sum: f64 = d.client_weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Heavier clients get larger weights.
        let (big, small_c) = {
            let mut idx: Vec<usize> = (0..d.num_clients()).collect();
            idx.sort_by_key(|&i| d.client_len(i));
            (idx[d.num_clients() - 1], idx[0])
        };
        assert!(d.client_weights()[big] > d.client_weights()[small_c]);
    }

    #[test]
    fn labels_are_skewed_and_heterogeneous() {
        let d = small();
        // Each client holds few distinct classes *on average* (the count
        // is geometric around classes_per_client_mean = 3, so individual
        // clients may exceed it) and never the full label space...
        let mut all_class_sets = Vec::new();
        for i in 0..20 {
            let c = d.client(i);
            let mut classes: Vec<usize> = c.y.clone();
            classes.sort_unstable();
            classes.dedup();
            assert!(
                classes.len() < 10,
                "client {i} holds all {} classes",
                classes.len()
            );
            all_class_sets.push(classes);
        }
        let mean_classes: f64 = all_class_sets.iter().map(|s| s.len() as f64).sum::<f64>() / 20.0;
        assert!(
            mean_classes <= 6.0,
            "mean distinct classes {mean_classes} not skewed"
        );
        // ...and different clients hold different classes.
        let distinct: std::collections::HashSet<Vec<usize>> =
            all_class_sets.iter().cloned().collect();
        assert!(
            distinct.len() > 5,
            "only {} distinct class sets",
            distinct.len()
        );
    }

    #[test]
    fn labels_match_declared_distribution() {
        let d = small();
        let meta_classes: std::collections::HashSet<usize> = d.client_meta[0]
            .label_probs
            .iter()
            .map(|&(c, _)| c as usize)
            .collect();
        let observed: std::collections::HashSet<usize> = d.client(0).y.iter().copied().collect();
        assert!(observed.is_subset(&meta_classes));
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// The test set moved from `generate` to the first `test_set` call;
    /// these fingerprints are what the eager draw produced before the
    /// move (FEMNIST at 10 % scale, and the small config above).
    #[test]
    fn test_set_on_first_use_is_bit_identical_to_the_eager_draw() {
        let femnist = SyntheticFlDataset::generate(DatasetProfile::Femnist.config(0.1), 31);
        for (d, want) in [
            (femnist, (0x430d_7412_4037_ad90, 0x6cd5_aad7_7702_4725)),
            (small(), (0x82d9_f782_f28d_c4b2, 0xf2a2_df1c_167d_d565)),
        ] {
            assert!(d.test.get().is_none(), "generate drew the test set");
            let (x, y) = d.test_set();
            let x_fnv = fnv1a(x.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            let y_fnv = fnv1a(y.iter().flat_map(|&c| (c as u64).to_le_bytes()));
            assert_eq!((x_fnv, y_fnv), want);
        }
    }

    /// Every shard of FEMNIST at 10 % scale: what the simulator's
    /// resident shards and every socket client's shard are built from,
    /// at any SIMD width.
    #[test]
    fn femnist_shards_match_their_golden_fingerprint() {
        let d = SyntheticFlDataset::generate(DatasetProfile::Femnist.config(0.1), 31);
        assert_eq!(d.num_clients(), 280);
        let bytes = (0..d.num_clients()).map(|i| d.client(i)).flat_map(|c| {
            let x = c.x.into_iter().flat_map(|v| v.to_bits().to_le_bytes());
            let y = c.y.into_iter().flat_map(|l| (l as u64).to_le_bytes());
            x.chain(y).collect::<Vec<u8>>()
        });
        assert_eq!(fnv1a(bytes), 0xd1eb_f4fd_5e5c_86fa);
    }

    /// A zero-sample client would panic in whichever round first drew a
    /// minibatch from it; the config is refused up front instead.
    #[test]
    #[should_panic(expected = "every client needs at least one sample")]
    fn zero_sample_clients_are_rejected_at_generation() {
        let cfg = DatasetConfig {
            classes: 4,
            clients: 50,
            mean_samples_per_client: 1.0,
            min_samples_per_client: 0,
            max_samples_per_client: 10,
            ..small().config().clone()
        };
        let _ = SyntheticFlDataset::generate(cfg, 3);
    }

    #[test]
    fn concurrent_first_calls_see_one_test_set() {
        let d = small();
        let addrs: Vec<(usize, usize)> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let (x, y) = d.test_set();
                        (x.as_ptr() as usize, y.as_ptr() as usize)
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let (x, y) = d.test_set();
        assert!(addrs
            .iter()
            .all(|&a| a == (x.as_ptr() as usize, y.as_ptr() as usize)));
    }

    #[test]
    fn test_set_is_class_balanced() {
        let d = small();
        let (_, y) = d.test_set();
        let mut counts = vec![0usize; 10];
        for &l in y {
            counts[l] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced test counts {counts:?}");
    }

    #[test]
    fn minibatch_sampling_shapes() {
        let d = small();
        let c = d.client(5);
        let mut rng = StdRng::seed_from_u64(1);
        let (bx, by) = c.sample_batch(&mut rng, 16);
        assert_eq!(bx.len(), 16 * 16);
        assert_eq!(by.len(), 16);
        assert!(by.iter().all(|&l| l < 10));
    }

    #[test]
    fn sample_batch_into_matches_owning_form_bitwise() {
        let d = small();
        let c = d.client(3);
        let (bx, by) = c.sample_batch(&mut StdRng::seed_from_u64(9), 12);
        let mut sx = vec![99.0f32; 7]; // stale staging contents must not leak
        let mut sy = vec![42usize; 3];
        let mut rng = StdRng::seed_from_u64(9);
        c.sample_batch_into(&mut rng, 12, &mut sx, &mut sy);
        assert_eq!(bx, sx);
        assert_eq!(by, sy);
        // Reuse keeps drawing the same stream as consecutive owning calls.
        let (bx2, _) = {
            let mut r2 = StdRng::seed_from_u64(9);
            let _ = c.sample_batch(&mut r2, 12);
            c.sample_batch(&mut r2, 12)
        };
        c.sample_batch_into(&mut rng, 12, &mut sx, &mut sy);
        assert_eq!(bx2, sx);
    }

    #[test]
    fn task_is_learnable_by_centralized_logreg() {
        // Gather data from several clients and fit a linear classifier;
        // accuracy on the test set must clearly beat chance (10 classes →
        // chance = 10%).
        use gluefl_ml::{Mlp, MlpConfig, Sgd};
        let d = small();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let c = d.client(i);
            x.extend_from_slice(&c.x);
            y.extend_from_slice(&c.y);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Mlp::new(
            MlpConfig {
                input_dim: 16,
                hidden: vec![32],
                classes: 10,
                batch_norm: false,
            },
            &mut rng,
        );
        let mut opt = Sgd::new(model.num_params(), 0.1, 0.9);
        for _ in 0..150 {
            let (_, g) = model.loss_and_grad(&x, &y);
            opt.step(model.params_mut(), &g);
        }
        let (tx, ty) = d.test_set();
        let acc = model.evaluate(tx, ty).top1;
        assert!(acc > 0.5, "centralized accuracy {acc} too low");
    }

    #[test]
    fn profile_configs_generate() {
        let cfg = DatasetProfile::GoogleSpeech.config(0.02);
        let d = SyntheticFlDataset::generate(cfg, 1);
        assert_eq!(d.classes(), 35);
        assert!(d.num_clients() >= 4);
    }

    #[test]
    #[should_panic(expected = "cannot sample from an empty dataset")]
    fn sampling_an_empty_dataset_panics() {
        let c = ClientDataset::default();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = c.sample_batch(&mut rng, 1);
    }

    fn rows_filled(shard: &ClientDataset) -> usize {
        shard.filled.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fills `shard` in random subsets, in random order and with repeats,
    /// then every row, in the storage `client_storage` allocated, and
    /// returns it.
    fn fill_piecewise(d: &SyntheticFlDataset, id: usize, rng: &mut StdRng) -> ClientDataset {
        let mut shard = d.client_storage(id);
        let n = shard.len();
        let storage = (shard.x.as_ptr(), shard.y.as_ptr(), shard.bias.as_ptr());
        for _ in 0..rng.gen_range(1..5usize) {
            let k = rng.gen_range(0..2 * n);
            let rows: Vec<usize> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            let before = rows_filled(&shard);
            let mut fresh = rows.clone();
            fresh.sort_unstable();
            fresh.dedup();
            fresh.retain(|&i| !shard.is_filled(i));
            assert_eq!(d.fill_rows(id, &mut shard, rows), fresh.len());
            assert_eq!(rows_filled(&shard), before + fresh.len());
        }
        let rest = n - rows_filled(&shard);
        assert_eq!(d.fill_rows(id, &mut shard, (0..n).rev()), rest);
        assert_eq!(d.fill_rows(id, &mut shard, 0..n), 0, "a full shard refills");
        let filled_in = (shard.x.as_ptr(), shard.y.as_ptr(), shard.bias.as_ptr());
        assert_eq!(filled_in, storage, "a fill reallocated the storage");
        shard
    }

    /// A shard filled piecewise is bit for bit the one filled in one go,
    /// on every client of the small config and on FEMNIST-0.1 clients
    /// that include the 22-row and the 400-row shards.
    #[test]
    fn a_shard_filled_piecewise_equals_the_whole_client() {
        let mut rng = StdRng::seed_from_u64(17);
        let small = small();
        for id in 0..small.num_clients() {
            assert_eq!(fill_piecewise(&small, id, &mut rng), small.client(id));
        }
        let femnist = SyntheticFlDataset::generate(DatasetProfile::Femnist.config(0.1), 31);
        let ids: Vec<usize> = (0..femnist.num_clients()).collect();
        let shortest = *ids.iter().min_by_key(|&&i| femnist.client_len(i)).unwrap();
        let longest = *ids.iter().max_by_key(|&&i| femnist.client_len(i)).unwrap();
        assert_eq!(femnist.client_len(shortest), 22);
        assert_eq!(femnist.client_len(longest), 400);
        for id in [shortest, longest, 0, 1, 279] {
            assert_eq!(fill_piecewise(&femnist, id, &mut rng), femnist.client(id));
        }
    }

    /// A bit generator that replays a script of words and counts them.
    struct Scripted {
        words: Vec<u64>,
        drawn: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 1;
            self.words[self.drawn - 1]
        }
    }

    /// Skipping a normal consumes exactly the words drawing it does,
    /// retries of the `u1 ≤ ε` branch included: `u1` is `word >> 11`
    /// times 2⁻⁵³, so words below `3 << 11` are retried.
    #[test]
    fn skip_normal_draws_what_normal_draws() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut script: Vec<u64> = vec![0, 1 << 11, (2 << 11) | 0x7ff, 3 << 11, 9, u64::MAX, 1];
        script.extend((0..64).map(|_| rng.gen::<u64>()));
        script.extend([0, 0, 2 << 11, u64::MAX, 0]);
        let mut a = Scripted {
            words: script.clone(),
            drawn: 0,
        };
        let mut b = Scripted {
            words: script,
            drawn: 0,
        };
        let mut retried = false;
        while a.drawn + 4 <= a.words.len() {
            let start = a.drawn;
            let _ = normal(&mut a);
            skip_normal(&mut b);
            assert_eq!(
                b.drawn, a.drawn,
                "skip diverged from a draw at word {start}"
            );
            retried |= a.drawn - start > 2;
        }
        assert!(retried, "the script never reached the retry branch");
    }

    /// Sampling reads only filled rows: with just the labels drawn, the
    /// first draw hits a row that is not filled.
    #[test]
    #[should_panic(expected = "which is not filled")]
    fn sampling_an_unfilled_row_panics() {
        let d = small();
        let mut shard = d.client_storage(4);
        assert_eq!(d.fill_rows(4, &mut shard, std::iter::empty()), 0);
        assert_eq!(shard.labels(), d.client(4).labels());
        let _ = shard.sample_batch(&mut StdRng::seed_from_u64(0), 1);
    }
}
