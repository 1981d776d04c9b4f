//! Heterogeneous device compute speeds.

use rand::Rng;

/// Models how long one local SGD step takes on each client's hardware.
///
/// FedScale's device trace assigns every client a hardware tier; we model
/// the same heterogeneity with a log-normal speed multiplier around a
/// profile-specific base cost. The cost of one local step scales linearly
/// with the number of model parameters (forward + backward are both
/// O(params·batch)).
///
/// # Example
///
/// ```
/// use gluefl_net::DeviceProfile;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let profile = DeviceProfile::mobile();
/// let mult = profile.sample_speed(&mut rng);
/// // One step on a 5M-parameter model, batch-independent base cost:
/// let secs = profile.step_seconds(5_000_000, mult);
/// assert!(secs > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Seconds per local step per million parameters on a median device.
    pub base_secs_per_mparam: f64,
    /// Log-normal sigma of the per-client speed multiplier.
    pub speed_sigma: f64,
    /// Clamp range for the speed multiplier.
    pub clamp: (f64, f64),
}

impl DeviceProfile {
    /// Mobile/edge device profile: a median device spends ≈60 ms per local
    /// step per million parameters (ShuffleNet-scale models take a few
    /// hundred ms per mini-batch on a phone), with ≈4× spread between the
    /// fastest and slowest quartile devices.
    #[must_use]
    pub fn mobile() -> Self {
        Self {
            base_secs_per_mparam: 0.06,
            speed_sigma: 0.5,
            clamp: (0.2, 8.0),
        }
    }

    /// Samples one client's speed multiplier (1.0 = median device;
    /// larger = slower).
    #[must_use]
    pub fn sample_speed<R: Rng>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        (self.speed_sigma * z)
            .exp()
            .clamp(self.clamp.0, self.clamp.1)
    }

    /// Client `client`'s speed multiplier, derived on demand from
    /// `(seed, client)` — the counter-based analogue of
    /// [`Self::sample_speed`], order-independent and allocation-free.
    #[must_use]
    pub fn speed_for(&self, seed: u64, client: usize) -> f64 {
        let mut rng = gluefl_tensor::rng::seeded_rng(seed, "device-speed", client as u64);
        self.sample_speed(&mut rng)
    }

    /// Seconds for one local SGD step on a model with `params` parameters
    /// for a client with the given speed multiplier.
    #[must_use]
    pub fn step_seconds(&self, params: usize, speed_multiplier: f64) -> f64 {
        self.base_secs_per_mparam * (params as f64 / 1e6) * speed_multiplier
    }
}

fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::EPSILON {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// On-demand per-client speed multipliers with a cached-per-participant
/// fast path — the [`crate::LinkCache`] of device compute speeds.
#[derive(Debug, Clone)]
pub struct SpeedCache {
    profile: DeviceProfile,
    seed: u64,
    cache: std::collections::HashMap<usize, f64>,
}

impl SpeedCache {
    /// Creates an empty cache over `profile` with the given stream seed.
    #[must_use]
    pub fn new(profile: DeviceProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            cache: std::collections::HashMap::new(),
        }
    }

    /// Client `id`'s speed multiplier — sampled on first access, cached
    /// after.
    pub fn get(&mut self, id: usize) -> f64 {
        let (profile, seed) = (self.profile, self.seed);
        *self
            .cache
            .entry(id)
            .or_insert_with(|| profile.speed_for(seed, id))
    }

    /// Number of distinct clients sampled so far.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_are_clamped_and_centered() {
        let p = DeviceProfile::mobile();
        let speeds: Vec<f64> = (0..10_000).map(|id| p.speed_for(5, id)).collect();
        assert!(speeds.iter().all(|&s| (0.2..=8.0).contains(&s)));
        let mean_log: f64 = speeds.iter().map(|s| s.ln()).sum::<f64>() / speeds.len() as f64;
        assert!(
            mean_log.abs() < 0.05,
            "median multiplier should be ~1, log mean {mean_log}"
        );
    }

    #[test]
    fn step_time_scales_with_params() {
        let p = DeviceProfile::mobile();
        let t1 = p.step_seconds(1_000_000, 1.0);
        let t5 = p.step_seconds(5_000_000, 1.0);
        assert!((t5 / t1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn slow_devices_take_longer() {
        let p = DeviceProfile::mobile();
        assert!(p.step_seconds(1_000_000, 4.0) > p.step_seconds(1_000_000, 0.5));
    }

    #[test]
    fn speed_for_is_deterministic_and_cached() {
        let p = DeviceProfile::mobile();
        assert_eq!(p.speed_for(11, 4).to_bits(), p.speed_for(11, 4).to_bits());
        assert_ne!(p.speed_for(11, 4).to_bits(), p.speed_for(11, 5).to_bits());
        let mut cache = SpeedCache::new(p, 11);
        let s = cache.get(4);
        assert_eq!(s.to_bits(), p.speed_for(11, 4).to_bits());
        let _ = cache.get(4);
        assert_eq!(cache.cached(), 1);
    }
}
