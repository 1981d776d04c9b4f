//! The recorder hub: counters, histograms and per-phase span tables.

use crate::expo::{Sample, Snapshot};
use crate::journal::{Event, EventKind, Journal};
use crate::phase::{Phase, PHASE_COUNT};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of power-of-two histogram buckets. Bucket `k` counts values
/// whose bit length is `k` (i.e. `v == 0` lands in bucket 0, `v` in
/// `[2^(k-1), 2^k)` lands in bucket `k`); everything of 2³⁰ and above
/// collapses into the last bucket.
pub const HIST_BUCKETS: usize = 32;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Shared cells of one histogram: bucket counts plus count/sum/min/max.
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter handle.
///
/// Cloning is cheap (an [`Arc`] bump); increments are single relaxed
/// atomic adds, safe from any thread.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A power-of-two-bucket histogram handle (see [`HIST_BUCKETS`]).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.cells.observe(v);
    }
}

struct CounterEntry {
    name: String,
    labels: Vec<(String, String)>,
    cell: Arc<AtomicU64>,
}

struct HistEntry {
    name: String,
    labels: Vec<(String, String)>,
    cells: Arc<HistCells>,
}

#[derive(Default)]
struct Registry {
    counters: Vec<CounterEntry>,
    hists: Vec<HistEntry>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The recorder hub. See the [crate docs](crate) for the full picture.
///
/// All recording methods take `&self` and are safe from any thread;
/// share one hub with `Arc<Telemetry>`. Instrumented code holds an
/// `Option` of it and skips everything when `None`.
pub struct Telemetry {
    origin: Instant,
    phase_nanos: [AtomicU64; PHASE_COUNT],
    phase_spans: [AtomicU64; PHASE_COUNT],
    registry: Mutex<Registry>,
    journal: Journal,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A hub whose clock starts at zero now, with the default journal
    /// capacity ([`Journal::DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_spans: std::array::from_fn(|_| AtomicU64::new(0)),
            registry: Mutex::new(Registry::default()),
            journal: Journal::new(Journal::DEFAULT_CAPACITY),
        }
    }

    /// Monotonic nanoseconds since the hub was created; saturates at
    /// `u64::MAX` (~584 years).
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The hub's event journal.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Registers (or finds) the counter `name{labels}` and returns a
    /// handle. Repeated calls with the same name and labels return
    /// handles to the same cell.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = owned_labels(labels);
        let mut reg = self.registry.lock().unwrap();
        if let Some(e) = reg
            .counters
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return Counter {
                cell: Arc::clone(&e.cell),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        reg.counters.push(CounterEntry {
            name: name.to_string(),
            labels,
            cell: Arc::clone(&cell),
        });
        Counter { cell }
    }

    /// Registers (or finds) the histogram `name{labels}`.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = owned_labels(labels);
        let mut reg = self.registry.lock().unwrap();
        if let Some(e) = reg
            .hists
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return Histogram {
                cells: Arc::clone(&e.cells),
            };
        }
        let cells = Arc::new(HistCells::new());
        reg.hists.push(HistEntry {
            name: name.to_string(),
            labels,
            cells: Arc::clone(&cells),
        });
        Histogram { cells }
    }

    /// Adds one finished span of `dur_nanos` under `phase` and journals
    /// it. `client` is the client id, or `-1` when the span is not
    /// client-scoped.
    pub fn record_phase(&self, phase: Phase, dur_nanos: u64, round: u32, client: i64) {
        self.phase_nanos[phase.index()].fetch_add(dur_nanos, Ordering::Relaxed);
        self.phase_spans[phase.index()].fetch_add(1, Ordering::Relaxed);
        self.event(round, client, EventKind::Span { phase, dur_nanos });
    }

    /// Starts a span; its duration records under `phase` when the guard
    /// drops.
    pub fn span(&self, phase: Phase, round: u32) -> Span<'_> {
        Span {
            tel: self,
            phase,
            round,
            start: self.now_nanos(),
        }
    }

    /// Total nanoseconds recorded under `phase` so far.
    #[must_use]
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()].load(Ordering::Relaxed)
    }

    /// Number of spans recorded under `phase` so far.
    #[must_use]
    pub fn phase_spans(&self, phase: Phase) -> u64 {
        self.phase_spans[phase.index()].load(Ordering::Relaxed)
    }

    /// Stamps `kind` with the hub clock and appends it to the journal.
    pub fn event(&self, round: u32, client: i64, kind: EventKind) {
        self.journal.record(Event {
            nanos: self.now_nanos(),
            round,
            client,
            kind,
        });
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// `(name, labels)` so it is independent of registration and merge
    /// order.
    ///
    /// Values are exported as `f64`; counters above 2⁵³ would lose
    /// precision there, which no counter in this workspace approaches.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        for p in Phase::ALL {
            samples.push(Sample::new(
                "gluefl_phase_nanos_total",
                &[("phase", p.name())],
                self.phase_nanos(p) as f64,
            ));
            samples.push(Sample::new(
                "gluefl_phase_spans_total",
                &[("phase", p.name())],
                self.phase_spans(p) as f64,
            ));
        }
        let reg = self.registry.lock().unwrap();
        for e in &reg.counters {
            samples.push(Sample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: e.cell.load(Ordering::Relaxed) as f64,
            });
        }
        for e in &reg.hists {
            let count = e.cells.count.load(Ordering::Relaxed);
            for (k, b) in e.cells.buckets.iter().enumerate() {
                let c = b.load(Ordering::Relaxed);
                if c > 0 {
                    let mut labels = e.labels.clone();
                    labels.push(("pow2".to_string(), k.to_string()));
                    samples.push(Sample {
                        name: format!("{}_bucket", e.name),
                        labels,
                        value: c as f64,
                    });
                }
            }
            samples.push(Sample {
                name: format!("{}_count", e.name),
                labels: e.labels.clone(),
                value: count as f64,
            });
            samples.push(Sample {
                name: format!("{}_sum", e.name),
                labels: e.labels.clone(),
                value: e.cells.sum.load(Ordering::Relaxed) as f64,
            });
            if count > 0 {
                samples.push(Sample {
                    name: format!("{}_min", e.name),
                    labels: e.labels.clone(),
                    value: e.cells.min.load(Ordering::Relaxed) as f64,
                });
                samples.push(Sample {
                    name: format!("{}_max", e.name),
                    labels: e.labels.clone(),
                    value: e.cells.max.load(Ordering::Relaxed) as f64,
                });
            }
        }
        drop(reg);
        samples.push(Sample::new(
            "gluefl_journal_events_total",
            &[],
            self.journal.recorded() as f64,
        ));
        samples.push(Sample::new(
            "gluefl_journal_dropped_total",
            &[],
            self.journal.dropped() as f64,
        ));
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// A live span; records its duration when dropped.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span<'a> {
    tel: &'a Telemetry,
    phase: Phase,
    round: u32,
    start: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let dur = self.tel.now_nanos().saturating_sub(self.start);
        self.tel.record_phase(self.phase, dur, self.round, -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_dedup_by_name_and_labels() {
        let tel = Telemetry::new();
        let a = tel.counter("x_total", &[("k", "v")]);
        let b = tel.counter("x_total", &[("k", "v")]);
        let c = tel.counter("x_total", &[("k", "w")]);
        a.add(2);
        b.add(3);
        c.inc();
        // One cell behind `a` and `b`, another behind `c`.
        assert_eq!((a.get(), b.get()), (5, 5));
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let tel = Telemetry::new();
        tel.record_phase(Phase::Fold, 250, 3, 7);
        drop(tel.span(Phase::Fold, 3));
        assert_eq!(tel.phase_spans(Phase::Fold), 2);
        let events = tel.journal().events();
        let durs: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::Span { phase, dur_nanos } => {
                    assert_eq!((phase, e.round), (Phase::Fold, 3));
                    dur_nanos
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(durs.len(), 2);
        assert_eq!((durs[0], events[0].client), (250, 7));
        // The guard's span is not client-scoped and adds what it measured.
        assert_eq!(events[1].client, -1);
        assert_eq!(tel.phase_nanos(Phase::Fold), 250 + durs[1]);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }
}
