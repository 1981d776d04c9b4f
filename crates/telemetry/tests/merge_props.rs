//! Exact counter and histogram summation under the real fork-join pool,
//! and a lossless text-exposition round trip.

use gluefl_telemetry::{Clock, Phase, Telemetry};

/// Counters and histograms recorded from real `gluefl-pool` workers
/// through shared handles sum exactly, with nothing lost to contention.
#[test]
fn counters_sum_exactly_across_pool_workers() {
    let tel = Telemetry::new();
    let counter = tel.counter("atomic_total", &[]);
    let sizes = tel.histogram("sizes", &[]);
    let jobs: Vec<u64> = (1..=503).collect();
    let expected: u64 = jobs.iter().sum();
    gluefl_pool::run(4, jobs, move |j| {
        counter.add(j);
        sizes.observe(j);
    });
    let snap = tel.snapshot();
    assert_eq!(snap.value("atomic_total", &[]), Some(expected as f64));
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
