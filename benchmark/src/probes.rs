//! Layer probes: the benchmark's own timed loops around leaf public
//! functions of each crate, at the two model shapes the workloads use.
//!
//! Inputs are generated from the seed; anything that encodes is decoded
//! and compared before it is timed. Each probe reports the median of its
//! samples. Probes say where a layer's time goes — they carry no bound;
//! a change is judged on the end-to-end metrics.

use crate::estimator::median;
use gluefl_compress::mask_shift::{client_split, shift_mask_into};
use gluefl_compress::stc::{keep_count, sparsify};
use gluefl_compress::{CompensationMode, ErrorCompensator};
use gluefl_core::{batch_local_train_into, local_train_into, StalenessTracker, TrainSlot};
use gluefl_data::{DatasetProfile, SyntheticFlDataset};
use gluefl_ml::{BatchTrainScratch, ModelProfile};
use gluefl_net::timing::{fastest, ClientRoundTime};
use gluefl_net::{LazyAvailability, NetworkProfile};
use gluefl_sampling::{AllOnline, StickySampler, UniformSampler};
use gluefl_telemetry::{Phase, Telemetry};
use gluefl_tensor::gemm::{gemm_nn, gemm_nt, gemm_tn};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::{
    top_k_abs, top_k_abs_masked_into, top_k_abs_packed_into, vecops, BitMask, TopKScope,
    TopKScratch,
};
use gluefl_wire::{decode_frame, Codec, FrameWriter, Rounding, WireError, WirePolicy};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mask ratios of the paper's ShuffleNet setting: total `q`, shared
/// `q_shr`; a client's unique part is `q − q_shr`.
const Q: f64 = 0.20;
const Q_SHR: f64 = 0.16;

/// How long each probe samples.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep sampling until this much time has been measured…
    pub slice: Duration,
    /// …and at least this many samples were taken.
    pub min_samples: usize,
}

/// One probe's result.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

/// Every probe metric, in reporting order, with its unit. `run` emits
/// exactly these (checked at the end of `run`).
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let mut both = |stem: &str, unit: &'static str| {
        for tag in ["paper", "wide"] {
            out.push((format!("{stem}_{tag}"), unit));
        }
    };
    both("tensor.topk_outside_us", "us");
    both("tensor.topk_full_us", "us");
    both("tensor.masked_apply_us", "us");
    both("tensor.dense_apply_us", "us");
    both("tensor.gemm_nn_us", "us");
    both("tensor.gemm_tn_us", "us");
    both("tensor.gemm_nt_us", "us");
    both("wire.encode_sparse_us", "us");
    both("wire.decode_sparse_us", "us");
    both("wire.encode_dense_us", "us");
    both("wire.decode_dense_us", "us");
    both("compress.client_split_us", "us");
    both("compress.shift_mask_us", "us");
    both("compress.stc_sparsify_us", "us");
    both("compress.ec_apply_us", "us");
    both("compress.ec_record_us", "us");
    both("ml.local_train_client_us", "us");
    both("core.staleness_record_us", "us");
    for (name, unit) in [
        ("tensor.topk_packed_us_wide", "us"),
        ("wire.encode_sparse_entropy_us_wide", "us"),
        ("wire.decode_sparse_entropy_us_wide", "us"),
        ("wire.encode_sparse_quant_us_wide", "us"),
        ("wire.decode_sparse_quant_us_wide", "us"),
        ("wire.encode_mask_us_wide", "us"),
        ("wire.decode_mask_us_wide", "us"),
        ("wire.sparse_frame_bytes_wide", "B"),
        ("wire.sparse_entropy_frame_bytes_wide", "B"),
        ("wire.sparse_quant_frame_bytes_wide", "B"),
        ("wire.mask_frame_bytes_wide", "B"),
        ("sampling.sticky_draw_us", "us"),
        ("sampling.sticky_rebalance_us", "us"),
        ("sampling.uniform_draw_us", "us"),
        ("net.availability_query_ns", "ns"),
        ("net.link_for_ns", "ns"),
        ("net.fastest_us", "us"),
        ("data.generate_ms", "ms"),
        ("data.client_materialize_us", "us"),
        ("data.sample_batch_us", "us"),
        ("ml.batch_train_client_us_paper", "us"),
        ("ml.eval_ms_paper", "ms"),
        ("core.staleness_download_bytes_ns", "ns"),
        ("telemetry.span_ns", "ns"),
        ("pool.dispatch_us", "us"),
    ] {
        out.push((name.to_owned(), unit));
    }
    out
}

struct Probes {
    budget: Budget,
    out: Vec<ProbeResult>,
}

impl Probes {
    /// Samples `f` — which times its own measured section and returns
    /// the duration, so set-up inside a sample stays untimed — until the
    /// budget is met, and records the median of `duration / calls` in
    /// the unit's scale.
    fn time(
        &mut self,
        name: &str,
        unit: &'static str,
        calls: usize,
        mut f: impl FnMut() -> Duration,
    ) {
        let per_ns = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            other => unreachable!("no time unit {other}"),
        };
        let mut samples = Vec::new();
        let mut measured = Duration::ZERO;
        while samples.len() < self.budget.min_samples || measured < self.budget.slice {
            let d = f();
            measured += d;
            samples.push(d.as_nanos() as f64 / calls as f64 / per_ns);
        }
        self.out.push(ProbeResult {
            name: name.to_owned(),
            value: median(&samples),
            samples: samples.len(),
        });
    }

    fn count(&mut self, name: &str, value: f64) {
        self.out.push(ProbeResult {
            name: name.to_owned(),
            value,
            samples: 1,
        });
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn random_values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A mask of the `ratio·dim` largest-magnitude positions of a fresh
/// random vector — uniformly scattered, like a regenerated shared mask.
fn random_mask(rng: &mut StdRng, dim: usize, ratio: f64) -> BitMask {
    let scores = random_values(rng, dim);
    BitMask::from_indices(dim, top_k_abs(&scores, keep_count(dim, ratio)))
}

/// Runs every probe.
///
/// # Errors
/// A message when a round-trip check fails (an encode/decode pair that
/// does not return what went in).
pub fn run(seed: u64, budget: Budget) -> Result<Vec<ProbeResult>, String> {
    let mut p = Probes {
        budget,
        out: Vec::new(),
    };
    let dataset_cfg = DatasetProfile::Femnist.config(0.1);
    let data = SyntheticFlDataset::generate(dataset_cfg.clone(), derive_seed(seed, "data", 0));

    for (tag, hidden, steps, batch) in
        [("paper", vec![192, 96], 10, 16), ("wide", vec![4096], 1, 4)]
    {
        shape_probes(&mut p, seed, tag, hidden, steps, batch, &data)?;
    }
    sampling_probes(&mut p, seed);
    net_probes(&mut p, seed);
    data_probes(&mut p, seed, &dataset_cfg, &data);

    let hub = Telemetry::new();
    p.time("telemetry.span_ns", "ns", 1000, || {
        timed(|| {
            for round in 0..1000 {
                drop(hub.span(Phase::Train, round));
            }
        })
    });
    p.time("pool.dispatch_us", "us", 1, || {
        let jobs: Vec<u32> = (0..64).collect();
        timed(|| {
            gluefl_pool::run(2, jobs, |job| {
                black_box(job);
            });
        })
    });

    let mut expected: Vec<String> = names().into_iter().map(|(n, _)| n).collect();
    let mut produced: Vec<String> = p.out.iter().map(|r| r.name.clone()).collect();
    expected.sort();
    produced.sort();
    assert_eq!(expected, produced, "probe table and probe code disagree");
    Ok(p.out)
}

fn shape_probes(
    p: &mut Probes,
    seed: u64,
    tag: &str,
    hidden: Vec<usize>,
    steps: usize,
    batch: usize,
    data: &SyntheticFlDataset,
) -> Result<(), String> {
    let mut rng = seeded_rng(seed, "probe-inputs", hidden.len() as u64 + hidden[0] as u64);
    let mut profile = ModelProfile::shufflenet_like();
    profile.hidden = hidden.clone();
    let model = profile.build(data.feature_dim(), data.classes(), &mut rng);
    let dim = model.num_params();
    let wide = tag == "wide";

    let delta = random_values(&mut rng, dim);
    let shared = random_mask(&mut rng, dim, Q_SHR);
    let unique_k = keep_count(dim, Q) - keep_count(dim, Q_SHR);
    let full_k = keep_count(dim, Q);
    let mut topk = TopKScratch::with_capacity(dim);

    // --- gluefl-tensor ---
    let picked = top_k_abs_masked_into(&delta, unique_k, TopKScope::Outside(&shared), &mut topk);
    if picked.len() != unique_k || picked.iter().any(|&i| shared.get(i)) {
        return Err(format!(
            "top-k outside the mask returned a wrong set at {tag}"
        ));
    }
    p.time(&format!("tensor.topk_outside_us_{tag}"), "us", 1, || {
        timed(|| {
            top_k_abs_masked_into(&delta, unique_k, TopKScope::Outside(&shared), &mut topk).len()
        })
    });
    p.time(&format!("tensor.topk_full_us_{tag}"), "us", 1, || {
        timed(|| top_k_abs(&delta, full_k))
    });

    // A round's aggregate: support = shared ∪ uniques at density q.
    let support = random_mask(&mut rng, dim, Q);
    let packed = random_values(&mut rng, support.count_ones());
    if wide {
        let mut dense = vec![0.0f32; dim];
        support.scatter_add(&mut dense, &packed, 1.0);
        let want = top_k_abs(&dense, keep_count(dim, Q_SHR));
        let got = top_k_abs_packed_into(&support, &packed, want.len(), TopKScope::All, &mut topk);
        if got != want.as_slice() {
            return Err("packed top-k disagrees with the dense top-k".into());
        }
        p.time("tensor.topk_packed_us_wide", "us", 1, || {
            timed(|| {
                top_k_abs_packed_into(&support, &packed, want.len(), TopKScope::All, &mut topk)
                    .len()
            })
        });
    }
    let mut params = model.params().to_vec();
    p.time(&format!("tensor.masked_apply_us_{tag}"), "us", 1, || {
        timed(|| support.scatter_add(&mut params, &packed, 1.0))
    });
    p.time(&format!("tensor.dense_apply_us_{tag}"), "us", 1, || {
        timed(|| vecops::add_assign(&mut params, &delta))
    });

    // The layer GEMMs of one local step: rows = minibatch, the widest
    // hidden pair of the shape (192→96 at batch 16; 64→4096 at batch 4).
    let (m, k, n) = if wide {
        (batch, data.feature_dim(), hidden[0])
    } else {
        (batch, hidden[0], hidden[1])
    };
    let x = random_values(&mut rng, m * k);
    let w = random_values(&mut rng, n * k);
    let bias = random_values(&mut rng, n);
    let d_out = random_values(&mut rng, m * n);
    let mut out_nn = vec![0.0f32; m * n];
    let mut out_tn = vec![0.0f32; m * k];
    let mut out_nt = vec![0.0f32; n * k];
    p.time(&format!("tensor.gemm_nn_us_{tag}"), "us", 1, || {
        timed(|| gemm_nn(&x, &w, &bias, m, n, k, &mut out_nn))
    });
    p.time(&format!("tensor.gemm_tn_us_{tag}"), "us", 1, || {
        timed(|| gemm_tn(&d_out, &w, m, n, k, &mut out_tn))
    });
    p.time(&format!("tensor.gemm_nt_us_{tag}"), "us", 1, || {
        out_nt.fill(0.0);
        timed(|| gemm_nt(&d_out, &x, m, n, k, &mut out_nt))
    });

    // --- gluefl-wire ---
    let unique_idx: Vec<u32> = picked_indices(&delta, unique_k, &shared, &mut topk);
    let unique_vals: Vec<f32> = unique_idx.iter().map(|&i| delta[i as usize]).collect();
    let mut policies = vec![("sparse", WirePolicy::legacy(Codec::F32))];
    if wide {
        policies.push(("sparse_entropy", WirePolicy::entropy(Codec::F32)));
        policies.push(("sparse_quant", WirePolicy::entropy(Codec::QuantU8)));
    }
    let mut frame = Vec::new();
    let (mut idx_back, mut vals_back) = (Vec::new(), Vec::new());
    for (stem, policy) in policies {
        let writer = FrameWriter::new(policy);
        frame.clear();
        let len = writer.sparse(
            &mut frame,
            0,
            Rounding::Nearest,
            dim,
            &unique_idx,
            &unique_vals,
        );
        decode_sparse(&frame, &mut idx_back, &mut vals_back)
            .map_err(|e| format!("{stem} frame at {tag}: {e}"))?;
        let tolerance = if policy.codec == Codec::F32 {
            0.0
        } else {
            0.02
        };
        let values_ok = vals_back.len() == unique_vals.len()
            && vals_back
                .iter()
                .zip(&unique_vals)
                .all(|(a, b)| (a - b).abs() <= tolerance);
        if idx_back != unique_idx || !values_ok {
            return Err(format!(
                "{stem} frame at {tag} did not decode to what was encoded"
            ));
        }
        if wide {
            p.count(&format!("wire.{stem}_frame_bytes_wide"), len as f64);
        }
        p.time(&format!("wire.encode_{stem}_us_{tag}"), "us", 1, || {
            frame.clear();
            timed(|| {
                writer.sparse(
                    &mut frame,
                    0,
                    Rounding::Nearest,
                    dim,
                    &unique_idx,
                    &unique_vals,
                )
            })
        });
        p.time(&format!("wire.decode_{stem}_us_{tag}"), "us", 1, || {
            timed(|| decode_sparse(&frame, &mut idx_back, &mut vals_back).expect("checked above"))
        });
    }
    let dense_writer = FrameWriter::new(WirePolicy::legacy(Codec::F32));
    frame.clear();
    dense_writer.dense(&mut frame, 0, Rounding::Nearest, &delta);
    decode_dense(&frame, &mut vals_back).map_err(|e| format!("dense frame at {tag}: {e}"))?;
    if vals_back != delta {
        return Err(format!(
            "dense frame at {tag} did not decode to what was encoded"
        ));
    }
    p.time(&format!("wire.encode_dense_us_{tag}"), "us", 1, || {
        frame.clear();
        timed(|| dense_writer.dense(&mut frame, 0, Rounding::Nearest, &delta))
    });
    p.time(&format!("wire.decode_dense_us_{tag}"), "us", 1, || {
        timed(|| decode_dense(&frame, &mut vals_back).expect("checked above"))
    });
    if wide {
        let mask_writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        frame.clear();
        let len = mask_writer.mask(&mut frame, 0, &shared);
        let mut mask_back = BitMask::zeros(0);
        decode_frame(&frame)
            .map_err(|e| format!("mask frame: {e}"))?
            .mask_into(&mut mask_back);
        if mask_back != shared {
            return Err("mask frame did not decode to what was encoded".into());
        }
        p.count("wire.mask_frame_bytes_wide", len as f64);
        p.time("wire.encode_mask_us_wide", "us", 1, || {
            frame.clear();
            timed(|| mask_writer.mask(&mut frame, 0, &shared))
        });
        p.time("wire.decode_mask_us_wide", "us", 1, || {
            timed(|| {
                decode_frame(&frame)
                    .expect("checked above")
                    .mask_into(&mut mask_back);
            })
        });
    }

    // --- gluefl-compress ---
    p.time(&format!("compress.client_split_us_{tag}"), "us", 1, || {
        timed(|| client_split(&delta, &shared, unique_k))
    });
    let mut next_mask = BitMask::zeros(dim);
    p.time(&format!("compress.shift_mask_us_{tag}"), "us", 1, || {
        timed(|| shift_mask_into(&delta, Q_SHR, None, &mut topk, &mut next_mask))
    });
    p.time(&format!("compress.stc_sparsify_us_{tag}"), "us", 1, || {
        timed(|| sparsify(&delta, Q))
    });
    let sent = sparsify(&delta, Q).to_dense();
    let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, dim);
    ec.record(0, &delta, &sent, 1.0);
    let mut compensated = delta.clone();
    p.time(&format!("compress.ec_apply_us_{tag}"), "us", 1, || {
        compensated.copy_from_slice(&delta);
        timed(|| ec.apply(0, &mut compensated, 0.5))
    });
    p.time(&format!("compress.ec_record_us_{tag}"), "us", 1, || {
        timed(|| ec.record(0, &delta, &sent, 1.0))
    });

    // --- gluefl-ml / train drivers ---
    let topo = model.topology();
    let trainable = model.layout().trainable_mask();
    let stats_positions: Vec<usize> = trainable.not().iter_ones().collect();
    let mut slot = TrainSlot::default();
    let mut out = vec![0.0f32; dim];
    let mut stats_out = vec![0.0f32; stats_positions.len()];
    let mut client = 0usize;
    p.time(&format!("ml.local_train_client_us_{tag}"), "us", 1, || {
        client = (client + 1) % data.num_clients();
        timed(|| {
            local_train_into(
                topo,
                model.params(),
                data,
                client,
                steps,
                batch,
                0.01,
                0.9,
                derive_seed(seed, "probe-train", client as u64),
                &mut out,
                &stats_positions,
                &mut stats_out,
                &trainable,
                &mut slot,
            );
        })
    });
    if !wide {
        const BLOCK: usize = 8;
        let mut outs = vec![vec![0.0f32; dim]; BLOCK];
        let mut stats_saved = vec![0.0f32; BLOCK * stats_positions.len()];
        let mut scratch = BatchTrainScratch::new();
        let mut first = 0usize;
        p.time("ml.batch_train_client_us_paper", "us", BLOCK, || {
            first = (first + BLOCK) % (data.num_clients() - BLOCK);
            let ids: Vec<usize> = (first..first + BLOCK).collect();
            let seeds: Vec<u64> = ids
                .iter()
                .map(|&id| derive_seed(seed, "probe-train", id as u64))
                .collect();
            timed(|| {
                batch_local_train_into(
                    topo,
                    model.params(),
                    data,
                    &ids,
                    &seeds,
                    steps,
                    batch,
                    0.01,
                    0.9,
                    &mut outs,
                    &stats_positions,
                    &mut stats_saved,
                    &trainable,
                    &mut scratch,
                    None,
                );
            })
        });
        let (test_x, test_y) = data.test_set();
        p.time("ml.eval_ms_paper", "ms", 1, || {
            timed(|| model.evaluate(test_x, test_y))
        });
    }

    // --- gluefl-core ---
    let changed: Vec<usize> = support.iter_ones().collect();
    let mut tracker = StalenessTracker::new(dim, data.num_clients());
    p.time(&format!("core.staleness_record_us_{tag}"), "us", 1, || {
        timed(|| tracker.record_update(changed.iter().copied()))
    });
    if !wide {
        // Clients synced at staggered versions, as after some rounds.
        for id in (0..data.num_clients()).step_by(3) {
            tracker.mark_synced(id);
        }
        tracker.record_update(changed.iter().copied());
        let clients = data.num_clients();
        p.time("core.staleness_download_bytes_ns", "ns", clients, || {
            timed(|| {
                (0..clients)
                    .map(|id| tracker.download_bytes(id))
                    .sum::<u64>()
            })
        });
    }
    Ok(())
}

/// Decodes a sparse frame into cleared buffers (the `_into` decoders
/// append).
fn decode_sparse(
    frame: &[u8],
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) -> Result<(), WireError> {
    let decoded = decode_frame(frame)?;
    indices.clear();
    values.clear();
    decoded.indices_into(indices);
    decoded.values_into(values);
    Ok(())
}

fn decode_dense(frame: &[u8], values: &mut Vec<f32>) -> Result<(), WireError> {
    values.clear();
    decode_frame(frame)?.values_into(values);
    Ok(())
}

/// The unique part's positions as the wire layer takes them.
fn picked_indices(delta: &[f32], k: usize, shared: &BitMask, topk: &mut TopKScratch) -> Vec<u32> {
    top_k_abs_masked_into(delta, k, TopKScope::Outside(shared), topk)
        .iter()
        .map(|&i| u32::try_from(i).expect("model dimension fits u32"))
        .collect()
}

/// N = 280, S = 120, C = 24, K = 30 with OC = 1.3: 31 sticky + 8 fresh
/// invited, as in every workload.
fn sampling_probes(p: &mut Probes, seed: u64) {
    let mut rng = seeded_rng(seed, "probe-sampling", 0);
    let mut sticky = StickySampler::new(280, 120, &mut rng);
    // Microsecond-scale calls are timed a hundred at a time, so the
    // clock reads do not show in the result.
    p.time("sampling.sticky_draw_us", "us", 100, || {
        timed(|| {
            for _ in 0..100 {
                black_box(sticky.draw(&mut rng, 31, 8, &mut AllOnline));
            }
        })
    });
    p.time("sampling.sticky_rebalance_us", "us", 1, || {
        let draw = sticky.draw(&mut rng, 24, 6, &mut AllOnline);
        timed(|| sticky.rebalance(&mut rng, &draw.sticky, &draw.fresh))
    });
    let uniform = UniformSampler::new(280);
    p.time("sampling.uniform_draw_us", "us", 100, || {
        timed(|| {
            for _ in 0..100 {
                black_box(uniform.draw(&mut rng, 39, &mut AllOnline));
            }
        })
    });
}

fn net_probes(p: &mut Probes, seed: u64) {
    let mut availability = LazyAvailability::new(280, 0.8, 40.0, derive_seed(seed, "probe-net", 0));
    let mut round = 0u32;
    p.time("net.availability_query_ns", "ns", 280, || {
        round += 1;
        timed(|| {
            (0..280)
                .filter(|&id| availability.is_online(id, round))
                .count()
        })
    });
    let mut base = 0usize;
    p.time("net.link_for_ns", "ns", 1000, || {
        base += 1000;
        timed(|| {
            (base..base + 1000)
                .map(|id| NetworkProfile::MlabEdge.link_for(seed, id).down_mbps)
                .sum::<f64>()
        })
    });
    let mut rng = seeded_rng(seed, "probe-net", 1);
    let times: Vec<ClientRoundTime> = (0..31)
        .map(|_| ClientRoundTime {
            download_secs: rng.gen_range(1.0..60.0),
            compute_secs: rng.gen_range(10.0..100.0),
            upload_secs: rng.gen_range(1.0..60.0),
        })
        .collect();
    p.time("net.fastest_us", "us", 100, || {
        timed(|| {
            for _ in 0..100 {
                black_box(fastest(black_box(&times), 24));
            }
        })
    });
}

fn data_probes(
    p: &mut Probes,
    seed: u64,
    cfg: &gluefl_data::DatasetConfig,
    data: &SyntheticFlDataset,
) {
    p.time("data.generate_ms", "ms", 1, || {
        timed(|| SyntheticFlDataset::generate(cfg.clone(), seed))
    });
    let mut client = 0usize;
    p.time("data.client_materialize_us", "us", 1, || {
        client = (client + 1) % data.num_clients();
        timed(|| data.client(client))
    });
    let shard = data.client(0);
    let mut rng = seeded_rng(seed, "probe-data", 0);
    let (mut bx, mut by) = (Vec::new(), Vec::new());
    p.time("data.sample_batch_us", "us", 100, || {
        timed(|| {
            for _ in 0..100 {
                shard.sample_batch_into(&mut rng, 16, &mut bx, &mut by);
            }
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_probe_runs_and_checks_its_round_trips() {
        let budget = Budget {
            slice: Duration::ZERO,
            min_samples: 1,
        };
        let results = run(7, budget).expect("round-trip checks pass");
        assert_eq!(results.len(), names().len());
        for r in &results {
            assert!(
                r.value.is_finite() && r.value >= 0.0,
                "{} = {}",
                r.name,
                r.value
            );
            assert!(r.samples >= 1);
        }
        // The entropy layout never loses to the legacy one, and the
        // quantized codec is smaller still.
        let bytes = |name: &str| results.iter().find(|r| r.name == name).unwrap().value;
        assert!(
            bytes("wire.sparse_entropy_frame_bytes_wide") <= bytes("wire.sparse_frame_bytes_wide")
        );
        assert!(
            bytes("wire.sparse_quant_frame_bytes_wide")
                < bytes("wire.sparse_entropy_frame_bytes_wide")
        );
    }
}
