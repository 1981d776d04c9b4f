//! Exact counter and histogram summation under the real fork-join pool,
//! and the snapshot's values and order.

use gluefl_telemetry::{Phase, Telemetry};

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

/// The snapshot exports every recorded value exactly, sorted by
/// `(name, labels)` whatever the registration order.
#[test]
fn snapshot_exports_recorded_values_in_sorted_order() {
    let tel = Telemetry::new();
    let h = tel.histogram("bytes_up", &[("frame", "upload")]);
    tel.counter("frames_total", &[("kind", "upload")]).add(17);
    tel.counter("frames_total", &[("kind", "invite")]).inc();
    h.observe(0);
    h.observe(20_016);
    tel.record_phase(Phase::Encode, 1_000);
    let snap = tel.snapshot();
    let keys: Vec<_> = snap.samples.iter().map(|s| (&s.name, &s.labels)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");

    let up = [("frame", "upload")];
    for (name, labels, value) in [
        ("frames_total", &[("kind", "upload")][..], 17.0),
        ("frames_total", &[("kind", "invite")], 1.0),
        (
            "bytes_up_bucket",
            &[("frame", "upload"), ("pow2", "0")],
            1.0,
        ),
        (
            "bytes_up_bucket",
            &[("frame", "upload"), ("pow2", "15")],
            1.0,
        ),
        ("bytes_up_count", &up, 2.0),
        ("bytes_up_sum", &up, 20_016.0),
        ("bytes_up_min", &up, 0.0),
        ("bytes_up_max", &up, 20_016.0),
        ("gluefl_phase_nanos_total", &[("phase", "encode")], 1_000.0),
        ("gluefl_phase_spans_total", &[("phase", "encode")], 1.0),
        ("gluefl_phase_spans_total", &[("phase", "fold")], 0.0),
    ] {
        assert_eq!(snap.value(name, labels), Some(value), "{name}{labels:?}");
    }
    let buckets = snap.samples.iter().filter(|s| s.name == "bytes_up_bucket");
    assert_eq!(buckets.count(), 2, "only non-empty buckets are exported");
}
