//! Bandwidth-behaviour integration tests: the paper's core claims about
//! who downloads/uploads how much, verified on the full simulator.

use gluefl_core::{GlueFlParams, SimConfig, Simulation, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

fn cfg(strategy: StrategyConfig, rounds: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.01,
        rounds,
        77,
    );
    cfg.model.hidden = vec![32];
    cfg.dataset.feature_dim = 16;
    cfg.dataset.classes = 10;
    cfg.dataset.test_samples = 100;
    cfg.eval_every = u32::MAX; // bandwidth tests don't need evaluation
    cfg.availability = None;
    cfg
}

fn mean_down_after_warmup(result: &gluefl_core::RunResult) -> f64 {
    let recs = &result.rounds[result.rounds.len() / 3..];
    recs.iter().map(|r| r.down_bytes as f64).sum::<f64>() / recs.len() as f64
}

fn mean_up_after_warmup(result: &gluefl_core::RunResult) -> f64 {
    let recs = &result.rounds[result.rounds.len() / 3..];
    recs.iter().map(|r| r.up_bytes as f64).sum::<f64>() / recs.len() as f64
}

#[test]
fn gluefl_downloads_less_than_stc_and_fedavg() {
    // The headline claim (§5.2): with client sampling, GlueFL's sticky
    // clients hold nearly-current state and the shifted mask bounds what
    // changes, so per-round downstream volume drops below both STC and
    // FedAvg.
    let rounds = 30;
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    let fedavg = Simulation::new(cfg(StrategyConfig::FedAvg, rounds)).run();
    let stc = Simulation::new(cfg(StrategyConfig::Stc { q: 0.2 }, rounds)).run();
    let gluefl = Simulation::new(cfg(
        StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
        rounds,
    ))
    .run();
    let (d_fed, d_stc, d_glue) = (
        mean_down_after_warmup(&fedavg),
        mean_down_after_warmup(&stc),
        mean_down_after_warmup(&gluefl),
    );
    assert!(
        d_glue < d_stc,
        "GlueFL down {d_glue:.0} not below STC {d_stc:.0}"
    );
    assert!(
        d_glue < d_fed,
        "GlueFL down {d_glue:.0} not below FedAvg {d_fed:.0}"
    );
}

#[test]
fn stc_uploads_less_than_fedavg_but_downloads_similar() {
    // §2.3: masking cuts upstream, but under client sampling the stale
    // re-syncs keep downstream near FedAvg levels.
    let rounds = 30;
    let fedavg = Simulation::new(cfg(StrategyConfig::FedAvg, rounds)).run();
    let stc = Simulation::new(cfg(StrategyConfig::Stc { q: 0.1 }, rounds)).run();
    let up_ratio = mean_up_after_warmup(&stc) / mean_up_after_warmup(&fedavg);
    assert!(up_ratio < 0.5, "STC upstream ratio {up_ratio:.2} not < 0.5");
    // Staleness keeps downloads well above the q = 10% a mask alone would
    // imply. (At this test's participation ratio K/N = 0.2 clients re-sync
    // after ~5 rounds, so the union of ~5 masks ≈ 30% of the model; the
    // paper's K/N ≈ 0.01 pushes the same effect to ~70%.)
    let down_ratio = mean_down_after_warmup(&stc) / mean_down_after_warmup(&fedavg);
    assert!(
        down_ratio > 2.5 * 0.1,
        "STC downstream ratio {down_ratio:.2} unexpectedly small — staleness \
         should keep downloads well above the mask ratio q"
    );
}

#[test]
fn fedavg_client_downloads_scale_with_staleness() {
    // Figure 2b's mechanism on the tracker: a client that skipped more
    // rounds downloads more, saturating at the full model.
    let mut sim = Simulation::new(cfg(StrategyConfig::FedAvg, 1));
    for _ in 0..10 {
        sim.step();
    }
    let st = sim.staleness();
    let mut prev = 0;
    for skip in 1..=9u32 {
        let stale = st.stale_positions(st.version() - skip);
        assert!(stale >= prev, "staleness decreased at skip {skip}");
        prev = stale;
    }
    // FedAvg changes everything every round → one skip = full model.
    assert_eq!(st.stale_positions(st.version() - 1), st.dim());
}

#[test]
fn stc_staleness_grows_gradually() {
    let mut sim = Simulation::new(cfg(StrategyConfig::Stc { q: 0.1 }, 1));
    for _ in 0..20 {
        sim.step();
    }
    let st = sim.staleness();
    let one = st.stale_positions(st.version() - 1);
    let ten = st.stale_positions(st.version() - 10);
    assert!(one < st.dim() / 2, "one-round staleness too large: {one}");
    assert!(ten > one, "staleness must grow with skip length");
}

/// Over-commitment invites more clients, and every invited client
/// downloads; but only the `K` kept clients upload, so the upload volume
/// is theirs at any `oc`. STC's legacy-F32 uploads all cost the same, so
/// the two runs' upload volumes are equal to the byte.
#[test]
fn overcommitment_scales_download_volume_not_upload() {
    let rounds = 10;
    let run = |oc| {
        let mut c = cfg(StrategyConfig::Stc { q: 0.2 }, rounds);
        c.oc = oc;
        let result = Simulation::new(c).run();
        let sum = |f: fn(&gluefl_core::RoundRecord) -> u64| result.rounds.iter().map(f).sum();
        let (down, up): (u64, u64) = (sum(|r| r.down_bytes), sum(|r| r.up_bytes));
        assert!(result
            .rounds
            .iter()
            .all(|r| r.kept == result.rounds[0].kept));
        (down, up)
    };
    let (low_down, low_up) = run(1.0);
    let (high_down, high_up) = run(1.5);
    assert!(
        high_down as f64 > low_down as f64 * 1.2,
        "OC=1.5 download volume {high_down} not clearly above OC=1.0 {low_down}"
    );
    assert_eq!(high_up, low_up, "dismissed clients uploaded");
}

#[test]
fn gluefl_mask_bitmap_is_charged() {
    // Every synced client downloads the shared-mask bitmap: with d
    // parameters that is ceil(d/8) bytes (+header) per client per round.
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    let gl = cfg(
        StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
        4,
    );
    let mut sim = Simulation::new(gl);
    let dim = sim.model().num_params();
    let rec = sim.step();
    let min_mask_bytes = (dim as u64).div_ceil(8) * rec.invited as u64;
    assert!(
        rec.down_bytes >= min_mask_bytes,
        "round downstream {} cannot even cover the mask bitmaps {min_mask_bytes}",
        rec.down_bytes
    );
}

#[test]
fn lazy_links_match_eager_distribution() {
    // The on-demand `link_for` path must sample the same population as
    // the eager `sample_links` scan: same left tail, same medians, same
    // down/up correlation. (The streams differ — per-client counter-based
    // vs one shared sequence — so the pin is distributional, at n where
    // the statistics are tight.)
    use gluefl_net::NetworkProfile;
    use rand::SeedableRng;
    let n = 20_000usize;
    let profile = NetworkProfile::MlabEdge;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let eager = profile.sample_links(&mut rng, n);
    let lazy: Vec<gluefl_net::ClientLink> = (0..n).map(|i| profile.link_for(99, i)).collect();

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let e_med = median(eager.iter().map(|l| l.down_mbps).collect());
    let l_med = median(lazy.iter().map(|l| l.down_mbps).collect());
    assert!(
        (l_med / e_med - 1.0).abs() < 0.1,
        "down median diverged: lazy {l_med:.1} vs eager {e_med:.1}"
    );
    let e_up = median(eager.iter().map(|l| l.up_mbps).collect());
    let l_up = median(lazy.iter().map(|l| l.up_mbps).collect());
    assert!(
        (l_up / e_up - 1.0).abs() < 0.1,
        "up median diverged: lazy {l_up:.1} vs eager {e_up:.1}"
    );
    // Left tail (≤ 10 Mbps fraction) — the slice that drives stragglers.
    let tail = |ls: &[gluefl_net::ClientLink]| {
        ls.iter().filter(|l| l.down_mbps <= 10.0).count() as f64 / ls.len() as f64
    };
    let (e_tail, l_tail) = (tail(&eager), tail(&lazy));
    assert!(
        (e_tail - l_tail).abs() < 0.02,
        "left tail diverged: lazy {l_tail:.3} vs eager {e_tail:.3}"
    );
}

#[test]
fn round_time_reflects_network_profile() {
    use gluefl_net::NetworkProfile;
    let mk = |profile| {
        let mut c = cfg(StrategyConfig::FedAvg, 8);
        c.network = profile;
        let r = Simulation::new(c).run();
        r.rounds.iter().map(|x| x.round_secs).sum::<f64>() / r.rounds.len() as f64
    };
    let edge = mk(NetworkProfile::MlabEdge);
    let dc = mk(NetworkProfile::Datacenter);
    assert!(
        edge > dc,
        "edge rounds ({edge:.2}s) should be slower than datacenter ({dc:.2}s)"
    );
}
