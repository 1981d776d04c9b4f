//! The benchmark's own spans.
//!
//! Spans are recorded from the benchmark's side of every call into the
//! program (`Simulation::step`, the generator's socket reads, writes
//! and `ClientNode` calls) — nothing is added inside the program. They
//! are kept in memory and written to `trace.json` when the run ends.
//! A span's self time is its duration minus what its children cover.

use crate::json::Value;
use std::time::Instant;

/// One span: a named interval with the span that caused it and the round
/// it belongs to (the identifier spans of one round share).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log on one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `at` in nanoseconds on the tracer's clock (0 for instants before
    /// its creation).
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet (a socket round ends when
    /// the next one's first `INVITE` arrives); close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start_ns: u64, round: u32) -> usize {
        self.push(name, start_ns, start_ns, None, round)
    }

    pub fn close(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of `parent` that none of its direct children cover.
    /// Children are assumed not to overlap each other (every span here is
    /// recorded by one thread around sequential calls).
    pub fn self_ns(&self, parent: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::dur_ns)
            .sum();
        self.spans[parent].dur_ns().saturating_sub(covered)
    }

    /// The spans as a JSON array, one object per span; `id` is the index
    /// `parent` refers to.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj()
                        .with("id", id)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Value::Null, Value::from))
                        .with("round", s.round)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_what_children_do_not_cover() {
        let mut t = Tracer::new();
        let step = t.push("step", 100, 1_100, None, 3);
        t.push("train", 100, 800, Some(step), 3);
        t.push("encode", 800, 1_000, Some(step), 3);
        let other = t.push("step", 2_000, 2_500, None, 4);
        t.push("train", 2_000, 2_100, Some(other), 4);
        assert_eq!(t.self_ns(step), 100);
        assert_eq!(t.self_ns(other), 400);
    }

    #[test]
    fn open_spans_close_later_and_serialize_with_parents() {
        let mut t = Tracer::new();
        let round = t.open("round", 10, 0);
        t.push("handle_invite", 20, 30, Some(round), 0);
        t.close(round, 50);
        assert_eq!(t.spans()[round].dur_ns(), 40);
        let json = t.to_json();
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            spans[1].get("name").and_then(Value::as_str),
            Some("handle_invite")
        );
    }

    #[test]
    fn clock_starts_at_creation_and_is_monotonic() {
        let before = Instant::now();
        let t = Tracer::new();
        let a = t.ns_at(Instant::now());
        let b = t.ns_at(Instant::now());
        assert!(b >= a);
        assert_eq!(t.ns_at(before), 0);
    }
}
