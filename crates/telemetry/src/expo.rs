//! Prometheus-style text exposition of a metric snapshot.

use std::fmt::Write as _;

/// One exported metric value: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Label pairs, in render order.
    pub labels: Vec<(String, String)>,
    /// The value. Rendered with Rust's shortest-round-trip `f64`
    /// formatting, so the text reads back as exactly this value.
    pub value: f64,
}

impl Sample {
    /// Convenience constructor from borrowed label pairs.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)], value: f64) -> Self {
        Self {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }
}

/// A point-in-time set of [`Sample`]s.
///
/// Snapshots from [`crate::Telemetry::snapshot`] are sorted by
/// `(name, labels)`, making them independent of registration and merge
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The samples, in render order.
    pub samples: Vec<Sample>,
}

fn escape_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

impl Snapshot {
    /// The value of `name` with exactly the given labels, if present.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), &(lk, lv))| k == lk && v == lv)
            })
            .map(|s| s.value)
    }

    /// Renders the snapshot as text exposition: one
    /// `name{key="value",...} value` line per sample (no `{}` when a
    /// sample has no labels). Label values are escaped (`\\`, `\"`,
    /// `\n`); values use shortest-round-trip `f64` formatting.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"");
                    escape_into(&mut out, v);
                    out.push('"');
                }
                out.push('}');
            }
            let _ = writeln!(out, " {}", s.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_matches_golden() {
        let snap = Snapshot {
            samples: vec![
                Sample::new("fractional", &[], 0.125),
                Sample::new("huge", &[], 9.007199254740992e15),
                Sample::new(
                    "labeled_total",
                    &[("kind", "upload"), ("codec", "f32")],
                    12.0,
                ),
                Sample::new("plain", &[], 3.0),
                Sample::new("tenth", &[], 0.1),
                Sample::new("tricky", &[("msg", "a \"b\"\\n\nc")], 1.0),
            ],
        };
        assert_eq!(
            snap.render_text(),
            "fractional 0.125\n\
             huge 9007199254740992\n\
             labeled_total{kind=\"upload\",codec=\"f32\"} 12\n\
             plain 3\n\
             tenth 0.1\n\
             tricky{msg=\"a \\\"b\\\"\\\\n\\nc\"} 1\n"
        );
    }

    #[test]
    fn value_lookup_matches_exact_labels() {
        let snap = Snapshot {
            samples: vec![Sample::new("m", &[("a", "1")], 5.0)],
        };
        assert_eq!(snap.value("m", &[("a", "1")]), Some(5.0));
        assert_eq!(snap.value("m", &[]), None);
        assert_eq!(snap.value("m", &[("a", "2")]), None);
    }
}
