//! The structured logger the binaries use instead of ad-hoc
//! `println!`: levelled `event key=value` lines in text or JSON.

use std::fmt::Write as _;
use std::io::Write as _;
use std::str::FromStr;

/// Log severity, in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Development noise.
    Debug,
    /// Normal operation.
    Info,
    /// Something degraded but handled (a skipped upload, a stall).
    Warn,
    /// Something failed.
    Error,
}

impl Level {
    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "debug" => Ok(Level::Debug),
            "info" => Ok(Level::Info),
            "warn" => Ok(Level::Warn),
            "error" => Ok(Level::Error),
            other => Err(format!(
                "unknown log level {other:?} (debug|info|warn|error)"
            )),
        }
    }
}

/// Output encoding, selected by `--log-format json|text`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `level event key=value ...` lines.
    #[default]
    Text,
    /// One JSON object per line.
    Json,
}

impl FromStr for LogFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format {other:?} (text|json)")),
        }
    }
}

/// A field value. Borrowed strings keep call sites allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// An unsigned integer rendered as `0x`-prefixed 16-digit hex
    /// (parameter fingerprints).
    Hex(u64),
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// True when a text-mode string value must be quoted to stay one field
/// on one line.
fn needs_quotes(t: &str) -> bool {
    t.is_empty()
        || t.chars()
            .any(|c| c.is_whitespace() || c.is_control() || matches!(c, '"' | '\\' | '='))
}

/// A levelled structured logger writing one line per event.
///
/// Text mode renders `level event key=value ...` (a string value that is
/// empty or holds whitespace, a quote, a backslash, `=` or a control
/// character is quoted and escaped, so one event stays one line and one
/// field per `key=`), JSON mode renders one object per line. Events
/// below the configured level are dropped before any formatting work.
#[derive(Debug)]
pub struct Logger {
    level: Level,
    format: LogFormat,
}

impl Logger {
    /// A logger writing to stdout.
    #[must_use]
    pub fn stdout(level: Level, format: LogFormat) -> Self {
        Self { level, format }
    }

    /// True if `level` would be emitted.
    #[must_use]
    pub fn enabled(&self, level: Level) -> bool {
        level >= self.level
    }

    /// Formats one event line without writing it (used by tests and by
    /// [`Logger::log`]).
    #[must_use]
    pub fn render(&self, level: Level, event: &str, fields: &[(&str, Field<'_>)]) -> String {
        match self.format {
            LogFormat::Text => {
                let mut s = format!("{} {}", level.name(), event);
                for (k, v) in fields {
                    let _ = match v {
                        Field::Str(t) if needs_quotes(t) => write!(s, " {k}={t:?}"),
                        Field::Str(t) => write!(s, " {k}={t}"),
                        Field::U64(n) => write!(s, " {k}={n}"),
                        Field::Hex(n) => write!(s, " {k}={n:#018x}"),
                    };
                }
                s
            }
            LogFormat::Json => {
                let mut s = format!("{{\"level\":\"{}\",\"event\":\"", level.name());
                json_escape_into(&mut s, event);
                s.push('"');
                for (k, v) in fields {
                    let _ = write!(s, ",\"{k}\":");
                    match v {
                        Field::Str(t) => {
                            s.push('"');
                            json_escape_into(&mut s, t);
                            s.push('"');
                        }
                        Field::U64(n) => {
                            let _ = write!(s, "{n}");
                        }
                        Field::Hex(n) => {
                            let _ = write!(s, "\"{n:#018x}\"");
                        }
                    }
                }
                s.push('}');
                s
            }
        }
    }

    /// Emits one event at `level` with the given fields.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Field<'_>)]) {
        if !self.enabled(level) {
            return;
        }
        let line = self.render(level, event, fields);
        let _ = writeln!(std::io::stdout().lock(), "{line}");
    }

    /// [`Logger::log`] at [`Level::Info`].
    pub fn info(&self, event: &str, fields: &[(&str, Field<'_>)]) {
        self.log(Level::Info, event, fields);
    }

    /// [`Logger::log`] at [`Level::Error`].
    pub fn error(&self, event: &str, fields: &[(&str, Field<'_>)]) {
        self.log(Level::Error, event, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_lines_keep_grepable_fields() {
        let log = Logger::stdout(Level::Info, LogFormat::Text);
        let line = log.render(
            Level::Info,
            "done",
            &[
                ("strategy", Field::Str("gluefl")),
                ("params_fnv", Field::Hex(0x2198)),
                ("skipped", Field::U64(0)),
                ("dead", Field::U64(0)),
            ],
        );
        assert_eq!(
            line,
            "info done strategy=gluefl params_fnv=0x0000000000002198 skipped=0 dead=0"
        );
        assert!(line.contains("skipped=0 dead=0"));
    }

    #[test]
    fn text_values_that_would_split_a_field_or_line_are_quoted() {
        let log = Logger::stdout(Level::Info, LogFormat::Text);
        let cases = [
            ("plain", "v=plain"),
            ("", "v=\"\""),
            ("a b", "v=\"a b\""),
            ("a\nb", "v=\"a\\nb\""),
            ("a\tb", "v=\"a\\tb\""),
            ("x=y", "v=\"x=y\""),
            ("say \"hi\"", "v=\"say \\\"hi\\\"\""),
            ("C:\\dir", "v=\"C:\\\\dir\""),
            ("bell\u{7}", "v=\"bell\\u{7}\""),
            ("127.0.0.1:9000", "v=127.0.0.1:9000"),
        ];
        for (value, field) in cases {
            let line = log.render(Level::Info, "e", &[("v", Field::Str(value))]);
            assert_eq!(line, format!("info e {field}"), "value {value:?}");
        }
    }

    #[test]
    fn json_lines_are_valid_objects() {
        let log = Logger::stdout(Level::Debug, LogFormat::Json);
        let line = log.render(
            Level::Warn,
            "client skipped",
            &[("id", Field::U64(3)), ("reason", Field::Str("stall \"x\""))],
        );
        assert_eq!(
            line,
            "{\"level\":\"warn\",\"event\":\"client skipped\",\"id\":3,\
             \"reason\":\"stall \\\"x\\\"\"}"
        );
    }

    #[test]
    fn level_filtering_drops_quiet_events() {
        let log = Logger::stdout(Level::Warn, LogFormat::Text);
        assert!(!log.enabled(Level::Info));
        assert!(log.enabled(Level::Warn));
        assert!(log.enabled(Level::Error));
    }

    #[test]
    fn levels_and_formats_parse() {
        assert_eq!("warn".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
        assert_eq!("json".parse::<LogFormat>().unwrap(), LogFormat::Json);
        assert!("xml".parse::<LogFormat>().is_err());
    }
}
