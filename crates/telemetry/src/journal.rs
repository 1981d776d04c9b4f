//! The bounded ring-buffer event journal and its typed events.

use crate::phase::Phase;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Transfer direction of a measured frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client → server.
    Up,
    /// Server → client.
    Down,
}

impl Dir {
    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dir::Up => "up",
            Dir::Down => "down",
        }
    }
}

/// What happened. Every variant is `Copy` so journal entries never
/// allocate; string details are `&'static str` labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A finished phase span of `dur_nanos`.
    Span {
        /// Which phase the span measured.
        phase: Phase,
        /// Span duration in nanoseconds.
        dur_nanos: u64,
    },
    /// The server granted a client's upload offer.
    OfferGranted,
    /// A per-client deadline expired (`which` is `"offer"` or
    /// `"upload"`).
    DeadlineExpired {
        /// Which deadline: `"offer"` or `"upload"`.
        which: &'static str,
    },
    /// A connection went quiet mid-message past the stall grace.
    Stall,
    /// An upload was skipped (late, corrupt, or over-committed).
    UploadSkipped,
    /// A client connection was killed.
    ClientKilled,
    /// A frame failed to decode (`kind` names the typed error).
    DecodeError {
        /// Stable name of the wire error variant.
        kind: &'static str,
    },
    /// A frame was sent or received (`frame` names the frame kind).
    Bytes {
        /// Transfer direction.
        dir: Dir,
        /// Stable frame-kind name.
        frame: &'static str,
        /// Measured frame length in bytes.
        bytes: u64,
    },
    /// A round finished with `kept` uploads folded in.
    RoundDone {
        /// Uploads kept (folded into the aggregate).
        kept: u32,
    },
}

/// One journal entry: a clock stamp, scope, and an [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds on the recording hub's clock.
    pub nanos: u64,
    /// Round the event belongs to.
    pub round: u32,
    /// Client id, or `-1` when not client-scoped.
    pub client: i64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    fn fields(&self) -> (&'static str, Vec<(&'static str, String)>) {
        match self.kind {
            EventKind::Span { phase, dur_nanos } => (
                "span",
                vec![
                    ("phase", phase.name().to_string()),
                    ("dur_ns", dur_nanos.to_string()),
                ],
            ),
            EventKind::OfferGranted => ("offer_granted", Vec::new()),
            EventKind::DeadlineExpired { which } => {
                ("deadline_expired", vec![("which", which.to_string())])
            }
            EventKind::Stall => ("stall", Vec::new()),
            EventKind::UploadSkipped => ("upload_skipped", Vec::new()),
            EventKind::ClientKilled => ("client_killed", Vec::new()),
            EventKind::DecodeError { kind } => ("decode_error", vec![("kind", kind.to_string())]),
            EventKind::Bytes { dir, frame, bytes } => (
                "bytes",
                vec![
                    ("dir", dir.name().to_string()),
                    ("frame", frame.to_string()),
                    ("bytes", bytes.to_string()),
                ],
            ),
            EventKind::RoundDone { kept } => ("round_done", vec![("kept", kept.to_string())]),
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Every field value here is numeric or a fixed identifier, so no
    /// JSON string escaping is needed beyond quoting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (name, fields) = self.fields();
        let mut s = format!(
            "{{\"t_ns\":{},\"round\":{},\"client\":{},\"event\":\"{}\"",
            self.nanos, self.round, self.client, name
        );
        for (k, v) in fields {
            let quoted = v.parse::<f64>().is_err();
            if quoted {
                let _ = write!(s, ",\"{k}\":\"{v}\"");
            } else {
                let _ = write!(s, ",\"{k}\":{v}");
            }
        }
        s.push('}');
        s
    }
}

struct JournalInner {
    buf: VecDeque<Event>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`Event`]s.
///
/// When full, recording overwrites the oldest entry and bumps the
/// dropped counter — the journal never blocks or grows. The mutex is
/// held only for the push itself; hot loops that cannot afford even
/// that record through counter and histogram handles, which are
/// lock-free, and emit no journal events.
pub struct Journal {
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A journal holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(JournalInner {
                buf: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                recorded: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap();
        if inner.buf.len() == inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
        inner.recorded += 1;
    }

    /// A copy of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().buf.iter().copied().collect()
    }

    /// Total events ever recorded (including since-dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        Event {
            nanos: n,
            round: 1,
            client: -1,
            kind: EventKind::Stall,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let j = Journal::new(3);
        for n in 0..5 {
            j.record(ev(n));
        }
        let kept: Vec<u64> = j.events().iter().map(|e| e.nanos).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(j.recorded(), 5);
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn bytes_event_renders_as_json() {
        let e = Event {
            nanos: 42,
            round: 7,
            client: 3,
            kind: EventKind::Bytes {
                dir: Dir::Up,
                frame: "upload",
                bytes: 128,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":42,\"round\":7,\"client\":3,\"event\":\"bytes\",\
             \"dir\":\"up\",\"frame\":\"upload\",\"bytes\":128}"
        );
    }

    #[test]
    fn span_event_renders_phase_name() {
        let e = Event {
            nanos: 1,
            round: 0,
            client: -1,
            kind: EventKind::Span {
                phase: Phase::TopK,
                dur_nanos: 9,
            },
        };
        assert!(e.to_json().contains("\"phase\":\"topk\""));
        assert!(e.to_json().contains("\"dur_ns\":9"));
    }
}
