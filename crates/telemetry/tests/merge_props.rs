//! Order-independence of per-thread cell merges, and exact counter
//! summation under the real work-stealing pool.

use gluefl_telemetry::{Clock, LocalCells, Phase, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One randomly generated recording op against a local cell.
#[derive(Debug, Clone, Copy)]
enum Op {
    Count { counter: usize, n: u64 },
    Observe { hist: usize, v: u64 },
    Span { phase: usize, nanos: u64 },
}

fn gen_ops(seed: u64, cells: usize, ops: usize) -> Vec<(usize, Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let cell = rng.gen_range(0..cells);
            let op = match rng.gen_range(0..3u32) {
                0 => Op::Count {
                    counter: rng.gen_range(0..3usize),
                    n: rng.gen_range(0..1_000u64),
                },
                1 => Op::Observe {
                    hist: rng.gen_range(0..2usize),
                    v: rng.gen_range(0..1_000_000u64),
                },
                _ => Op::Span {
                    phase: rng.gen_range(0..Phase::ALL.len()),
                    nanos: rng.gen_range(0..10_000u64),
                },
            };
            (cell, op)
        })
        .collect()
}

/// Builds a hub, applies `ops` to `cells` local cells, merges the cells
/// in the given order, and returns the rendered snapshot.
fn run_schedule(ops: &[(usize, Op)], cells: usize, merge_order: &[usize]) -> String {
    let (clock, _handle) = Clock::manual();
    let tel = Telemetry::with_clock(clock);
    let counters = [
        tel.counter("frames_total", &[("kind", "upload")]),
        tel.counter("frames_total", &[("kind", "model")]),
        tel.counter("skips_total", &[]),
    ];
    let hists = [
        tel.histogram("bytes_up", &[]),
        tel.histogram("update_norm", &[]),
    ];
    let mut locals: Vec<LocalCells> = (0..cells).map(|_| tel.local()).collect();
    for &(cell, op) in ops {
        let lc = &mut locals[cell];
        match op {
            Op::Count { counter, n } => lc.add(&counters[counter], n),
            Op::Observe { hist, v } => lc.observe(&hists[hist], v),
            Op::Span { phase, nanos } => lc.span_add(Phase::ALL[phase], nanos),
        }
    }
    for &i in merge_order {
        tel.merge(&mut locals[i]);
    }
    tel.snapshot().render_text()
}

proptest! {
    /// Any merge order of any set of per-thread cells yields the same
    /// snapshot, byte for byte — counter sums, histogram buckets,
    /// min/max, and per-phase span totals are all merge-order
    /// independent.
    #[test]
    fn merges_are_order_independent(
        seed in 0u64..50_000,
        cells in 1usize..8,
        ops in 0usize..300,
    ) {
        let ops = gen_ops(seed, cells, ops);
        let forward: Vec<usize> = (0..cells).collect();
        let mut shuffled = forward.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15));
        let a = run_schedule(&ops, cells, &forward);
        let b = run_schedule(&ops, cells, &shuffled);
        prop_assert_eq!(a, b);
    }

    /// Merging everything is equivalent to having recorded everything
    /// on one thread.
    #[test]
    fn merged_cells_match_single_threaded_totals(
        seed in 0u64..50_000,
        cells in 1usize..8,
        ops in 0usize..300,
    ) {
        let ops = gen_ops(seed, cells, ops);
        let order: Vec<usize> = (0..cells).collect();
        let many = run_schedule(&ops, cells, &order);
        let one_cell: Vec<(usize, Op)> = ops.iter().map(|&(_, op)| (0, op)).collect();
        let one = run_schedule(&one_cell, 1, &[0]);
        prop_assert_eq!(many, one);
    }
}

/// Counters and histograms recorded from real `gluefl-pool` workers —
/// both through shared atomic handles and through per-job
/// [`LocalCells`] — sum exactly, with nothing lost to contention or
/// stealing.
#[test]
fn counters_sum_exactly_across_pool_workers() {
    let tel = std::sync::Arc::new(Telemetry::new());
    let atomic = tel.counter("atomic_total", &[]);
    let local = tel.counter("local_total", &[]);
    let sizes = tel.histogram("sizes", &[]);
    let jobs: Vec<u64> = (1..=503).collect();
    let expected: u64 = jobs.iter().sum();
    let tel2 = std::sync::Arc::clone(&tel);
    gluefl_pool::run(4, jobs, move |j| {
        atomic.add(j);
        let mut cells = tel2.local();
        cells.add(&local, j);
        cells.observe(&sizes, j);
        tel2.merge(&mut cells);
    });
    let snap = tel.snapshot();
    assert_eq!(snap.value("atomic_total", &[]), Some(expected as f64));
    assert_eq!(snap.value("local_total", &[]), Some(expected as f64));
    assert_eq!(snap.value("sizes_count", &[]), Some(503.0));
    assert_eq!(snap.value("sizes_sum", &[]), Some(expected as f64));
    assert_eq!(snap.value("sizes_min", &[]), Some(1.0));
    assert_eq!(snap.value("sizes_max", &[]), Some(503.0));
}

/// The snapshot built by the recorder round-trips bit-exactly through
/// the text exposition renderer and parser.
#[test]
fn snapshot_round_trips_through_text_exposition() {
    let (clock, handle) = Clock::manual();
    let tel = Telemetry::with_clock(clock);
    tel.counter("frames_total", &[("kind", "upload")]).add(17);
    tel.gauge("live_connections", &[]).set(3);
    let h = tel.histogram("bytes_up", &[("frame", "upload")]);
    h.observe(0);
    h.observe(20_016);
    handle.advance(1_000);
    tel.record_phase(Phase::Encode, 1_000, 2, -1);
    let snap = tel.snapshot();
    let parsed = gluefl_telemetry::Snapshot::parse_text(&snap.render_text()).expect("parses");
    assert_eq!(parsed, snap);
}
