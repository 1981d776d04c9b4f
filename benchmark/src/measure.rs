//! One measured run of one workload: the passes, the correctness gates
//! and the metrics. `--trace 0` reports the end-to-end metrics with the
//! program's telemetry off; `--trace 1` runs one untraced and one traced
//! pass plus the layer probes and reports every per-layer metric.

use crate::estimator::{highest_trusted_percentile, mean, median, per_index_median, percentile};
use crate::json::Value;
use crate::metrics::{per_layer, workload_layer_metrics, END_TO_END};
use crate::pass::{self, Pass, Tracing};
use crate::probes::{self, Budget};
use crate::procfs;
use crate::trace::Tracer;
use crate::workloads::{Driver, Workload};
use gluefl_core::{RoundRecord, SimConfig, Simulation, WireCodec, WirePolicy};
use gluefl_telemetry::{Phase, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes every untraced run makes at least (the estimator takes a
/// median across passes, which needs three to discard an outlier).
const MIN_PASSES: usize = 3;
/// Set-up samples a simulator run takes (set-up is milliseconds there,
/// so extra samples are nearly free; a socket set-up is ~1 s and is
/// sampled once per pass).
const SIM_SETUP_SAMPLES: usize = 15;
/// Rounds of the in-process reference a socket run is compared against
/// (records are prefix-comparable: evaluation only happens in the final
/// round of the configured length).
const REFERENCE_ROUNDS: usize = 10;
/// Phase spans must cover this share of every traced step.
const MIN_COVERAGE: f64 = 0.95;
/// Least time the probes get in a traced run, whatever the passes took.
const MIN_PROBE_SECONDS: f64 = 6.0;

/// What to measure.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (rounds × passes, probe samples, …).
    pub samples: usize,
}

/// What a run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything `bench run` assembles into `results.json` /
    /// `trace.json`: sample counts, fingerprints, gate messages, spans.
    pub detail: Value,
}

impl Outcome {
    /// The one-line result the driver parses.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Value::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }
}

/// The declared metrics, in declared order, with the values computed
/// for them.
///
/// # Panics
/// Panics when a declared metric was never computed — the tables and
/// the measuring code disagree, which is a bug here, not a bad run.
fn declared_metrics<'a>(
    declared: impl Iterator<Item = (&'a str, &'static str)>,
    values: &[(String, f64, usize)],
) -> Vec<Metric> {
    declared
        .map(|(name, unit)| {
            let (_, value, samples) = values
                .iter()
                .find(|(computed, _, _)| computed == name)
                .unwrap_or_else(|| panic!("metric {name} was never computed"));
            Metric {
                name: name.to_owned(),
                unit,
                value: *value,
                samples: *samples,
            }
        })
        .collect()
}

/// Kept-upload slots attempted and failed, with the reasons.
#[derive(Debug, Default)]
struct Gates {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gates {
    fn fail(&mut self, slots: u64, message: String) {
        self.failed += slots;
        if self.failures.len() < 32 {
            self.failures.push(message);
        }
    }
}

/// Runs the workload as `opts` asks.
///
/// # Errors
/// A message when the run could not complete (socket failure, a probe's
/// round-trip check); gate failures are reported in the outcome instead.
pub fn measure(opts: &Options) -> Result<Outcome, String> {
    let wall = Instant::now();
    let w = opts.workload;
    let rounds = w.rounds_for(opts.quick);
    let cfg = w.config(opts.seed, rounds);
    let mut gates = Gates::default();

    let (metrics, mut detail) = if opts.trace {
        traced_run(opts, &cfg, &mut gates, wall)?
    } else {
        untraced_run(opts, &cfg, &mut gates, wall)?
    };
    let failed = gates.failed.min(gates.attempted);
    detail.set("workload", w.name);
    detail.set("seed", format!("{}", opts.seed));
    detail.set("rounds", rounds);
    detail.set("timed_rounds", rounds.saturating_sub(1));
    detail.set("trace", opts.trace);
    detail.set("ops_total", gates.attempted);
    detail.set("ops_failed", failed);
    detail.set(
        "gate_failures",
        Value::Arr(
            gates
                .failures
                .iter()
                .map(|s| Value::from(s.as_str()))
                .collect(),
        ),
    );
    let mut samples = Value::obj();
    for m in &metrics {
        samples.set(&m.name, m.samples);
    }
    detail.set("samples", samples);
    detail.set("wall_s", wall.elapsed().as_secs_f64());
    Ok(Outcome {
        correct: gates.failures.is_empty(),
        attempted: gates.attempted.max(1),
        failed,
        metrics,
        detail,
    })
}

fn untraced_run(
    opts: &Options,
    cfg: &SimConfig,
    gates: &mut Gates,
    wall: Instant,
) -> Result<(Vec<Metric>, Value), String> {
    let w = opts.workload;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass::run(w.driver, cfg, None)?);
        if opts.quick {
            break;
        }
        // Another pass only if it is likely to end inside the budget.
        let elapsed = wall.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > opts.seconds {
            break;
        }
    }
    for pass in &passes {
        check_pass(cfg, pass, gates);
    }
    check_passes_agree(cfg, &passes, gates);

    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    if w.driver == Driver::Simulator && !opts.quick {
        while setups.len() < SIM_SETUP_SAMPLES {
            let start = Instant::now();
            std::hint::black_box(Simulation::new(cfg.clone()));
            setups.push(start.elapsed().as_secs_f64());
        }
    }
    if w.driver == Driver::Socket {
        check_against_simulator(cfg, &passes[0].records, gates);
    }

    let timed: Vec<&[f64]> = passes.iter().map(Pass::timed_round_ms).collect();
    let by_index = per_index_median(&timed);
    let records = &passes[0].records;
    let per_round = |f: fn(&RoundRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let round_samples = by_index.len() * passes.len();
    let values = [
        ("setup_s", median(&setups), setups.len()),
        ("round_ms_p50", median(&by_index), round_samples),
        ("round_ms_mean", mean(&by_index), round_samples),
        ("peak_rss_mb", procfs::peak_rss_mb(), 1),
        (
            "down_bytes_per_round",
            per_round(|r| r.down_bytes as f64),
            records.len(),
        ),
        (
            "up_bytes_per_round",
            per_round(|r| r.wire_up_bytes as f64),
            records.len(),
        ),
    ]
    .map(|(name, value, samples)| (name.to_owned(), value, samples));
    let metrics = declared_metrics(END_TO_END.iter().map(|m| (m.name, m.unit)), &values);

    let detail = Value::obj()
        .with("passes", passes.len())
        .with("setup_samples", setups.len())
        .with("params_fnv", format!("{:016x}", passes[0].params_fnv))
        .with("records_fnv", format!("{:016x}", records_fnv(records)))
        .with(
            "pass_round_ms_p50",
            Value::Arr(timed.iter().map(|t| Value::Num(median(t))).collect()),
        )
        .with(
            "round_ms_by_index",
            Value::Arr(by_index.iter().map(|&v| Value::Num(v)).collect()),
        );
    Ok((metrics, detail))
}

/// Per-pass gates: every round keeps `K` uploads, measured upload bytes
/// equal the analytic bytes under the legacy F32 wire, the final record
/// carries the evaluation, and a socket run lost nobody.
fn check_pass(cfg: &SimConfig, pass: &Pass, gates: &mut Gates) {
    let k = cfg.round_size as u64;
    let legacy_f32_wire = cfg.wire == WirePolicy::legacy(WireCodec::F32);
    for rec in &pass.records {
        gates.attempted += k;
        if rec.kept as u64 != k {
            gates.fail(
                k.saturating_sub(rec.kept as u64).max(1),
                format!("round {}: kept {} of {k}", rec.round, rec.kept),
            );
        }
        if legacy_f32_wire && rec.wire_up_bytes != rec.up_bytes {
            gates.fail(
                k,
                format!(
                    "round {}: measured upload bytes {} != analytic {}",
                    rec.round, rec.wire_up_bytes, rec.up_bytes
                ),
            );
        }
    }
    if pass.records.len() != cfg.rounds as usize {
        gates.fail(
            k,
            format!("{} records for {} rounds", pass.records.len(), cfg.rounds),
        );
    }
    match pass.records.last().and_then(|r| r.accuracy) {
        Some(acc) if acc.is_finite() && acc > 0.0 => {}
        other => gates.fail(k, format!("final record has no usable accuracy: {other:?}")),
    }
    if let Some(s) = &pass.socket {
        if s.skipped_uploads + s.dead_clients > 0 {
            gates.fail(
                (s.skipped_uploads + s.dead_clients) as u64,
                format!(
                    "socket run skipped {} uploads and lost {} clients",
                    s.skipped_uploads, s.dead_clients
                ),
            );
        }
    }
}

/// The work at every round index is identical by seed, so every pass
/// must end on the same parameters and produce the same records.
fn check_passes_agree(cfg: &SimConfig, passes: &[Pass], gates: &mut Gates) {
    let slots = u64::from(cfg.rounds) * cfg.round_size as u64;
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.params_fnv != passes[0].params_fnv {
            gates.fail(
                slots,
                format!(
                    "pass {i} ended on params {:016x}, pass 0 on {:016x}",
                    pass.params_fnv, passes[0].params_fnv
                ),
            );
        } else if pass.records != passes[0].records {
            gates.fail(
                slots,
                format!("pass {i} produced different round records than pass 0"),
            );
        }
    }
}

/// The socket run must reproduce the in-process simulator record for
/// record; a prefix of the simulator run is enough to compare against.
fn check_against_simulator(cfg: &SimConfig, records: &[RoundRecord], gates: &mut Gates) {
    let k = cfg.round_size as u64;
    let mut sim = Simulation::new(cfg.clone());
    for socket_rec in records.iter().take(REFERENCE_ROUNDS) {
        let sim_rec = sim.step();
        if sim_rec != *socket_rec {
            gates.fail(
                k,
                format!(
                    "round {}: socket record differs from the simulator's",
                    sim_rec.round
                ),
            );
        }
    }
}

/// Fingerprint of the modeled part of the records (what `PartialEq`
/// compares), so separate processes can be compared.
fn records_fnv(records: &[RoundRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in records {
        eat(u64::from(r.round));
        eat(r.down_bytes);
        eat(r.up_bytes);
        eat(r.wire_up_bytes);
        eat(r.wire_broadcast_bytes);
        eat(r.round_secs.to_bits());
        eat(r.slowest_download_secs.to_bits());
        eat(r.slowest_upload_secs.to_bits());
        eat(r.slowest_compute_secs.to_bits());
        eat(r.accuracy.map_or(0, f64::to_bits));
        eat(r.loss.map_or(0, f64::to_bits));
        eat(r.invited as u64);
        eat(r.kept as u64);
        eat(r.changed_positions as u64);
    }
    h
}

/// The process-wide wire and pool counters at one instant; a traced
/// pass is charged the difference between two of these.
struct ProcessCounters {
    frames_encoded: u64,
    frames_decoded: u64,
    decode_errors: u64,
    pool: gluefl_pool::PoolStats,
}

impl ProcessCounters {
    fn now() -> Self {
        let total =
            |table: Vec<gluefl_wire::stats::FrameCount>| table.iter().map(|f| f.count).sum();
        Self {
            frames_encoded: total(gluefl_wire::stats::encoded_frames()),
            frames_decoded: total(gluefl_wire::stats::decoded_frames()),
            decode_errors: gluefl_wire::stats::decode_errors()
                .iter()
                .map(|(_, n)| n)
                .sum(),
            pool: gluefl_pool::stats(),
        }
    }
}

fn traced_run(
    opts: &Options,
    cfg: &SimConfig,
    gates: &mut Gates,
    wall: Instant,
) -> Result<(Vec<Metric>, Value), String> {
    let w = opts.workload;
    let rounds = cfg.rounds as usize;
    let timed_rounds = rounds.saturating_sub(1).max(1) as f64;

    // One pass with the program's telemetry off, one with it on: the
    // difference is the tracing overhead.
    let untraced = pass::run(w.driver, cfg, None)?;
    let hub = Arc::new(Telemetry::new());
    let mut tracer = Tracer::new();
    let before = ProcessCounters::now();
    let traced = pass::run(
        w.driver,
        cfg,
        Some(Tracing {
            hub: Arc::clone(&hub),
            tracer: &mut tracer,
        }),
    )?;
    let after = ProcessCounters::now();
    for pass in [&untraced, &traced] {
        check_pass(cfg, pass, gates);
    }
    if untraced.params_fnv != traced.params_fnv || untraced.records != traced.records {
        gates.fail(
            u64::from(cfg.rounds) * cfg.round_size as u64,
            "the traced pass computed something else than the untraced pass".into(),
        );
    }

    let mut values: Vec<(String, f64, usize)> = Vec::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        values.push((name.to_owned(), value, samples));
    };
    let timed_records = &traced.records[..rounds.saturating_sub(1)];
    let timed_ms = traced.timed_round_ms();

    // --- gluefl-core: phases, regeneration vs shift rounds, coverage. ---
    for phase in Phase::ALL {
        let per_round: Vec<f64> = timed_records
            .iter()
            .map(|r| r.phase_nanos_of(phase) as f64 / 1e6)
            .collect();
        put(
            &format!("core.phase.{}_ms", phase.name()),
            median(&per_round),
            per_round.len(),
        );
    }
    // Mask regeneration runs on every 10th round (the paper's I = 10).
    let rounds_where = |regen: bool| -> Vec<f64> {
        timed_ms
            .iter()
            .enumerate()
            .filter(|(r, _)| (r % 10 == 0) == regen)
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (regen, shift) = (rounds_where(true), rounds_where(false));
    put("core.regen_round_ms", median(&regen), regen.len());
    put("core.shift_round_ms", median(&shift), shift.len());
    let uncovered_pct = if w.driver == Driver::Simulator {
        let mut worst_coverage = 1.0f64;
        let (mut step_ns, mut self_ns) = (0u64, 0u64);
        for (id, span) in tracer.spans().iter().enumerate() {
            if span.name == "step" && (span.round as usize) + 1 < rounds {
                let uncovered = tracer.self_ns(id);
                step_ns += span.dur_ns();
                self_ns += uncovered;
                let covered = 1.0 - uncovered as f64 / span.dur_ns().max(1) as f64;
                worst_coverage = worst_coverage.min(covered);
            }
        }
        let coverage = 1.0 - self_ns as f64 / step_ns.max(1) as f64;
        if coverage < MIN_COVERAGE {
            gates.fail(
                cfg.round_size as u64,
                format!(
                    "phase spans cover {:.1}% of step wall time (need {:.0}%; worst round {:.1}%)",
                    coverage * 100.0,
                    MIN_COVERAGE * 100.0,
                    worst_coverage * 100.0
                ),
            );
        }
        (1.0 - coverage) * 100.0
    } else {
        // Socket records carry no phases; the generator's share of the
        // round is reported as transport.generator_idle_pct instead.
        0.0
    };
    put("core.step_uncovered_pct", uncovered_pct, timed_ms.len());
    // A tail percentile is only as good as the samples beyond it; the
    // detail file says how many there were and which percentile the
    // sample count would support.
    let pooled: Vec<f64> = [untraced.timed_round_ms(), timed_ms].concat();
    let p90 = percentile(&pooled, 90.0);
    put("core.round_ms_p90", p90.value, pooled.len());
    let round_ms_tail = Value::obj()
        .with("percentile", 90.0)
        .with("samples_beyond", p90.beyond)
        .with("trusted", p90.trusted())
        .with(
            "highest_trusted_percentile",
            highest_trusted_percentile(pooled.len()).map_or(Value::Null, Value::Num),
        );
    let per_round =
        |f: fn(&RoundRecord) -> f64| mean(&traced.records.iter().map(f).collect::<Vec<_>>());
    put(
        "core.changed_positions_per_round",
        per_round(|r| r.changed_positions as f64),
        rounds,
    );
    put(
        "core.invited_per_round",
        per_round(|r| r.invited as f64),
        rounds,
    );
    put("core.kept_per_round", per_round(|r| r.kept as f64), rounds);
    put("core.modeled_round_s", per_round(|r| r.round_secs), rounds);
    put(
        "core.test_accuracy",
        traced
            .records
            .last()
            .and_then(|r| r.accuracy)
            .unwrap_or(f64::NAN),
        1,
    );
    put(
        "proc.cpu_ms_per_round",
        traced.cpu_ms / timed_rounds,
        timed_ms.len(),
    );
    put(
        "telemetry.overhead_pct",
        (median(timed_ms) / median(untraced.timed_round_ms()) - 1.0) * 100.0,
        timed_ms.len(),
    );

    // --- gluefl-wire and gluefl-pool: process-wide counters, as deltas. ---
    let per_round_delta = |after: u64, before: u64| (after - before) as f64 / rounds as f64;
    put(
        "wire.frames_encoded_per_round",
        per_round_delta(after.frames_encoded, before.frames_encoded),
        rounds,
    );
    put(
        "wire.frames_decoded_per_round",
        per_round_delta(after.frames_decoded, before.frames_decoded),
        rounds,
    );
    let wire_errors = after.decode_errors - before.decode_errors;
    if wire_errors > 0 {
        gates.fail(
            wire_errors,
            format!("{wire_errors} wire frames failed to decode"),
        );
    }
    put("wire.decode_errors", wire_errors as f64, rounds);
    put(
        "pool.jobs_per_round",
        per_round_delta(after.pool.jobs, before.pool.jobs),
        rounds,
    );
    put(
        "pool.steals_per_round",
        per_round_delta(after.pool.steals, before.pool.steals),
        rounds,
    );
    put(
        "pool.idle_ms_per_round",
        per_round_delta(after.pool.idle_nanos, before.pool.idle_nanos) / 1e6,
        rounds,
    );

    // --- gluefl-transport: generator spans, socket counters, server hub. ---
    transport_metrics(cfg, &traced, &tracer, &hub, gates, &mut put);

    // --- Layer probes, in what is left of the budget. ---
    let budget = if opts.quick {
        Budget {
            slice: Duration::ZERO,
            min_samples: 2,
        }
    } else {
        let left = (opts.seconds - wall.elapsed().as_secs_f64()).max(MIN_PROBE_SECONDS);
        Budget {
            slice: Duration::from_secs_f64(left / probes::names().len() as f64),
            min_samples: 5,
        }
    };
    let probe_results = probes::run(opts.seed, budget)?;

    values.extend(
        probe_results
            .into_iter()
            .map(|p| (p.name, p.value, p.samples)),
    );
    let declared = per_layer();
    let metrics = declared_metrics(declared.iter().map(|m| (m.name.as_str(), m.unit)), &values);

    let detail = Value::obj()
        .with("passes", 2usize)
        .with("params_fnv", format!("{:016x}", traced.params_fnv))
        .with("round_ms_tail", round_ms_tail)
        .with("spans", tracer.to_json());
    Ok((metrics, detail))
}

/// The `transport.*` metrics: all zero on simulator workloads, where no
/// socket exists.
fn transport_metrics(
    cfg: &SimConfig,
    traced: &Pass,
    tracer: &Tracer,
    hub: &Telemetry,
    gates: &mut Gates,
    put: &mut impl FnMut(&str, f64, usize),
) {
    let rounds = cfg.rounds as usize;
    let Some(socket) = &traced.socket else {
        for m in workload_layer_metrics() {
            if m.name.starts_with("transport.") {
                put(&m.name, 0.0, 0);
            }
        }
        return;
    };
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    for (metric, span) in [
        ("transport.handle_invite_ms", "handle_invite"),
        ("transport.encode_granted_ms", "encode_granted"),
        ("transport.invite_read_ms", "invite_read"),
        ("transport.upload_write_ms", "upload_write"),
    ] {
        let calls: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        put(metric, median_or_zero(&calls), calls.len());
    }
    put(
        "transport.client_new_ms",
        median(&socket.client_new_ms),
        socket.client_new_ms.len(),
    );
    put(
        "transport.handshake_ms",
        median(&socket.handshake_ms),
        socket.handshake_ms.len(),
    );

    // What the generator did not spend in its own calls, the server had
    // (broadcast, fold, top-k, apply) or the sockets did.
    let mut server_share = Vec::new();
    let mut idle_pct = Vec::new();
    for (id, span) in tracer.spans().iter().enumerate() {
        if span.name == "round" && (span.round as usize) + 1 < rounds {
            let idle = tracer.self_ns(id) as f64;
            server_share.push(idle / 1e6);
            idle_pct.push(100.0 * idle / span.dur_ns().max(1) as f64);
        }
    }
    put(
        "transport.server_share_ms",
        median_or_zero(&server_share),
        server_share.len(),
    );
    put(
        "transport.generator_idle_pct",
        median_or_zero(&idle_pct),
        idle_pct.len(),
    );

    let r = rounds as f64;
    let socket_down = socket.down_bytes as f64 / r;
    let analytic_down = mean(
        &traced
            .records
            .iter()
            .map(|rec| rec.down_bytes as f64)
            .collect::<Vec<_>>(),
    );
    put(
        "transport.invite_bytes",
        socket.invite_bytes as f64 / socket.invites.max(1) as f64,
        socket.invites as usize,
    );
    put(
        "transport.upload_bytes_per_kept",
        socket.upload_bytes as f64 / socket.uploads.max(1) as f64,
        socket.uploads as usize,
    );
    put("transport.msgs_per_round", socket.msgs as f64 / r, rounds);
    put("transport.socket_down_bytes_per_round", socket_down, rounds);
    put(
        "transport.socket_up_bytes_per_round",
        socket.up_bytes as f64 / r,
        rounds,
    );
    put(
        "transport.socket_over_analytic_down",
        socket_down / analytic_down,
        rounds,
    );

    // The server's own counters, read from its public telemetry hub.
    let snapshot = hub.snapshot();
    let counter = |name: &str| -> f64 {
        snapshot
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    let granted = counter("gluefl_server_offers_granted_total");
    let kept: f64 = traced.records.iter().map(|rec| rec.kept as f64).sum();
    if granted != kept {
        gates.fail(
            cfg.round_size as u64,
            format!("server granted {granted} offers but kept {kept} uploads"),
        );
    }
    put("transport.offers_granted_per_round", granted / r, rounds);
    for (metric, name) in [
        (
            "transport.deadlines_expired",
            "gluefl_server_deadlines_expired_total",
        ),
        ("transport.stalls", "gluefl_server_stalls_total"),
        ("transport.skips", "gluefl_server_uploads_skipped_total"),
        ("transport.kills", "gluefl_server_clients_killed_total"),
        (
            "transport.decode_errors",
            "gluefl_server_decode_errors_total",
        ),
    ] {
        let count = counter(name);
        if count > 0.0 {
            gates.fail(count as u64, format!("{name} = {count}"));
        }
        put(metric, count, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn quick(name: &str, seed: u64, trace: bool) -> Outcome {
        measure(&Options {
            workload: workloads::by_name(name).unwrap(),
            seed,
            seconds: 1.0,
            trace,
            quick: true,
        })
        .expect("quick run completes")
    }

    fn detail_str<'a>(outcome: &'a Outcome, key: &str) -> &'a str {
        outcome.detail.get(key).and_then(Value::as_str).unwrap()
    }

    #[test]
    fn seed_reaches_the_program() {
        let a = quick("sim_paper_gluefl", 42, false);
        let again = quick("sim_paper_gluefl", 42, false);
        let other = quick("sim_paper_gluefl", 7, false);
        assert!(a.correct, "{:?}", a.detail.get("gate_failures"));
        assert_eq!(
            detail_str(&a, "params_fnv"),
            detail_str(&again, "params_fnv")
        );
        assert_eq!(
            detail_str(&a, "records_fnv"),
            detail_str(&again, "records_fnv")
        );
        assert_ne!(
            detail_str(&a, "params_fnv"),
            detail_str(&other, "params_fnv")
        );
    }

    #[test]
    fn socket_run_reproduces_the_simulator() {
        let sim = quick("sim_paper_gluefl", 11, false);
        let tcp = quick("tcp_paper_gluefl", 11, false);
        assert!(tcp.correct, "{:?}", tcp.detail.get("gate_failures"));
        assert_eq!(tcp.failed, 0);
        assert_eq!(
            detail_str(&sim, "params_fnv"),
            detail_str(&tcp, "params_fnv")
        );
        assert_eq!(
            detail_str(&sim, "records_fnv"),
            detail_str(&tcp, "records_fnv")
        );
    }

    #[test]
    fn untraced_line_has_exactly_the_end_to_end_metrics() {
        let outcome = quick("sim_wide_fedavg", 3, false);
        let line = Value::parse(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .and_then(Value::members)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }

    #[test]
    fn traced_line_has_exactly_the_per_layer_metrics_and_spans_cover_steps() {
        let outcome = quick("sim_wide_gluefl", 5, true);
        assert!(outcome.correct, "{:?}", outcome.detail.get("gate_failures"));
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared = per_layer();
        let declared: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("core.step_uncovered_pct") < 5.0);
        assert!(value("core.phase.encode_ms") > 0.0);
        assert_eq!(value("transport.socket_down_bytes_per_round"), 0.0);
        let spans = outcome.detail.get("spans").and_then(Value::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("step")));
    }
}
