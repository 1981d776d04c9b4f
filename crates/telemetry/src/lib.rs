//! Telemetry core for the GlueFL workspace — vendored-style, zero
//! external dependencies, matching the `vendor/` shim philosophy.
//!
//! The crate provides four pieces that the rest of the stack composes:
//!
//! * **A clock seam** ([`Clock`]): monotonic by default, injectable
//!   ([`Clock::manual`]) so tests can advance time deterministically.
//! * **A recorder** ([`Telemetry`]): named counters, gauges, and
//!   power-of-two histograms plus a fixed per-[`Phase`] span table.
//!   Handles are shared atomic cells, so `gluefl-pool` workers record
//!   through them directly; counters and histogram sums are exact under
//!   any interleaving (tested in `tests/merge_props.rs`).
//! * **A bounded event journal** ([`Journal`]): a ring buffer of typed
//!   [`Event`]s (spans, grants, deadlines, stalls, skips, kills,
//!   decode errors, measured bytes) that overwrites the oldest entry
//!   when full and counts what it dropped. Events render as JSON
//!   lines or text.
//! * **Export surfaces**: [`Snapshot`] renders to Prometheus-style
//!   `name{label="value"} value` text exposition and parses back
//!   losslessly ([`Snapshot::parse_text`]), and [`Logger`] is the
//!   structured (text/JSON) replacement for ad-hoc `println!` in the
//!   binaries.
//!
//! # Zero overhead when disabled
//!
//! Instrumented code holds an `Option<Arc<Telemetry>>` (or
//! `Option<&Telemetry>`) and branches **once per phase or per frame**,
//! never per element. With `None` the entire layer is a handful of
//! predictable untaken branches per round (the round benchmark's
//! `telemetry.overhead_pct` is the measured cost of attaching one).
//! There is no global state and no feature flag to misconfigure: a
//! `Simulation` or transport server without a recorder attached simply
//! records nothing.
//!
//! # Example
//!
//! ```
//! use gluefl_telemetry::{Clock, Phase, Snapshot, Telemetry};
//!
//! let (clock, handle) = Clock::manual();
//! let tel = Telemetry::with_clock(clock);
//! let frames = tel.counter("wire_frames_total", &[("kind", "upload")]);
//! frames.add(3);
//! handle.advance(1_000);
//! tel.record_phase(Phase::Train, 1_000, 0, -1);
//! let text = tel.snapshot().render_text();
//! let parsed = Snapshot::parse_text(&text).unwrap();
//! assert_eq!(parsed, tel.snapshot());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod expo;
mod journal;
mod log;
mod phase;
mod recorder;

pub use clock::{Clock, ManualHandle};
pub use expo::{Sample, Snapshot};
pub use journal::{Dir, Event, EventKind, Journal};
pub use log::{Field, Level, LogFormat, Logger};
pub use phase::{Phase, PHASE_COUNT};
pub use recorder::{Counter, Gauge, Histogram, Span, Telemetry, HIST_BUCKETS};
