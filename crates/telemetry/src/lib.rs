//! Telemetry core for the GlueFL workspace — vendored-style, zero
//! external dependencies, matching the `vendor/` shim philosophy.
//!
//! The crate provides three pieces that the rest of the stack composes:
//!
//! * **A recorder** ([`Telemetry`]): named counters and power-of-two
//!   histograms plus a fixed per-[`Phase`] span table, timed on the
//!   monotonic clock from the hub's creation.
//!   Handles are shared atomic cells, so `gluefl-pool` workers record
//!   through them directly; counters and histogram sums are exact under
//!   any interleaving (tested in `tests/merge_props.rs`).
//! * **A bounded event journal** ([`Journal`]): a ring buffer of typed
//!   [`Event`]s (spans, grants, deadlines, stalls, skips, kills,
//!   decode errors, measured bytes) that overwrites the oldest entry
//!   when full and counts what it dropped. Events render as JSON
//!   lines ([`Event::to_json`]).
//! * **Export surfaces**: [`Snapshot`] renders to Prometheus-style
//!   `name{label="value"} value` text exposition, and [`Logger`] is the
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
//! use gluefl_telemetry::{Phase, Telemetry};
//!
//! let tel = Telemetry::new();
//! let frames = tel.counter("wire_frames_total", &[("kind", "upload")]);
//! frames.add(3);
//! tel.record_phase(Phase::Train, 1_000, 0, -1);
//! let snap = tel.snapshot();
//! assert_eq!(snap.value("wire_frames_total", &[("kind", "upload")]), Some(3.0));
//! assert!(snap
//!     .render_text()
//!     .contains("gluefl_phase_nanos_total{phase=\"train\"} 1000\n"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod expo;
mod journal;
mod log;
mod phase;
mod recorder;

pub use expo::{Sample, Snapshot};
pub use journal::{Dir, Event, EventKind, Journal};
pub use log::{Field, Level, LogFormat, Logger};
pub use phase::{Phase, PHASE_COUNT};
pub use recorder::{Counter, Histogram, Span, Telemetry, HIST_BUCKETS};
