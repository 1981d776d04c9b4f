//! One pass of a workload: set the run up, execute every round, time
//! each round from outside, and keep the records for the correctness
//! gates. The simulator driver lives here; the socket driver is
//! [`crate::tcp`].

use crate::procfs;
use crate::trace::Tracer;
use crate::workloads::Driver;
use gluefl_core::{RoundRecord, SimConfig, Simulation};
use gluefl_telemetry::{Phase, Telemetry};
use gluefl_transport::fnv1a_f32_bits;
use std::sync::Arc;
use std::time::Instant;

/// What a traced pass records into: the program's public telemetry hub
/// and the benchmark's own span log.
pub struct Tracing<'a> {
    pub hub: Arc<Telemetry>,
    pub tracer: &'a mut Tracer,
}

/// What one pass measured.
pub struct Pass {
    /// Seconds from nothing to "ready for round 0".
    pub setup_s: f64,
    /// Wall milliseconds of every round index, the final (evaluation)
    /// round included — aggregates drop it.
    pub round_ms: Vec<f64>,
    /// The program's per-round records.
    pub records: Vec<RoundRecord>,
    /// Fingerprint of the final global parameters.
    pub params_fnv: u64,
    /// CPU milliseconds (all threads) spent in the timed rounds.
    pub cpu_ms: f64,
    /// Socket-side measurements (socket driver only).
    pub socket: Option<crate::tcp::SocketStats>,
}

impl Pass {
    /// The rounds that count toward timing: all but the final one, which
    /// carries the run's only evaluation.
    pub fn timed_round_ms(&self) -> &[f64] {
        &self.round_ms[..self.round_ms.len().saturating_sub(1)]
    }
}

/// Runs one pass of `cfg` on the given driver.
///
/// # Errors
/// A message when the socket run fails to complete; the simulator
/// driver cannot fail.
pub fn run(driver: Driver, cfg: &SimConfig, tracing: Option<Tracing<'_>>) -> Result<Pass, String> {
    match driver {
        Driver::Simulator => Ok(run_simulator(cfg, tracing)),
        Driver::Socket => crate::tcp::run_pass(cfg, tracing),
    }
}

fn run_simulator(cfg: &SimConfig, tracing: Option<Tracing<'_>>) -> Pass {
    let setup_start = Instant::now();
    let mut sim = Simulation::new(cfg.clone());
    let setup_s = setup_start.elapsed().as_secs_f64();
    let mut tracer = None;
    if let Some(t) = tracing {
        sim = sim.with_telemetry(t.hub);
        tracer = Some(t.tracer);
    }

    let rounds = cfg.rounds as usize;
    let mut round_ms = Vec::with_capacity(rounds);
    let mut records = Vec::with_capacity(rounds);
    let cpu_start = procfs::cpu_ms();
    let mut cpu_end = cpu_start;
    for r in 0..rounds {
        if r + 1 == rounds {
            cpu_end = procfs::cpu_ms();
        }
        let start = Instant::now();
        let rec = sim.step();
        let end = Instant::now();
        round_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        if let Some(t) = &mut tracer {
            record_step_spans(t, t.ns_at(start), t.ns_at(end), &rec);
        }
        records.push(rec);
    }
    Pass {
        setup_s,
        round_ms,
        records,
        params_fnv: fnv1a_f32_bits(sim.model().params()),
        cpu_ms: cpu_end - cpu_start,
        socket: None,
    }
}

/// One `step` span plus a child per phase the record measured. The
/// program reports each phase as a per-round *total* (encode, decode and
/// fold interleave per upload), so the children carry measured durations
/// laid end to end in execution order from the step's start; what they
/// leave uncovered is the step's self time (evaluation included, on the
/// final round).
fn record_step_spans(tracer: &mut Tracer, start_ns: u64, end_ns: u64, rec: &RoundRecord) {
    let step = tracer.push("step", start_ns, end_ns, None, rec.round);
    let mut at = start_ns;
    for phase in Phase::ALL {
        let dur = rec.phase_nanos_of(phase);
        if dur > 0 {
            tracer.push(phase.name(), at, at + dur, Some(step), rec.round);
            at += dur;
        }
    }
}
