//! Structured, line-oriented logging: dependency-free key=value records
//! for the serving and ingest paths.
//!
//! The [`metrics`](crate::metrics) registry aggregates (*how much*), the
//! [`trace`](crate::trace) rings time-resolve (*when*); this module
//! attributes: one greppable line per noteworthy event, carrying the
//! request id that also rides the trace spans, so a slow-query record can
//! be joined against its `/trace` timeline by a single grep.
//!
//! # Record format
//!
//! One event is one line of space-separated `key=value` tokens:
//!
//! ```text
//! ts=1723110000.123 level=warn target=serve msg="slow query" id=42 route=/query/bfs total_us=18250
//! ```
//!
//! - `ts` is wall-clock UNIX seconds with millisecond precision.
//! - `level` is one of `error`/`warn`/`info`/`debug`.
//! - `target` names the emitting subsystem (`serve`, `pool`, ...).
//! - `msg` is always double-quoted; other string values are quoted and
//!   escaped via [`Record::field_str`], numeric values are bare via
//!   [`Record::field`]. Keys are `[a-z0-9_]+`. The CI gate validates this
//!   grammar with a python regex, so it is load-bearing, not cosmetic.
//!
//! # Design
//!
//! One gate, like `metrics` and `trace`: a runtime maximum level (one
//! relaxed atomic load per call site), defaulting to [`Level::Warn`] so
//! error and slow-query records are live out of the box while
//! per-request/per-batch chatter stays off until `--log info` /
//! `--log debug` opts in.
//!
//! A suppressed record costs one load and one branch; an emitted record
//! formats into a single `String` and writes it to the sink in one call
//! (stderr by default; a capture buffer under [`set_capture`] so tests
//! and the `fig_log_overhead` bench can observe lines without scraping a
//! child process).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Severity of a record, ordered: `Error < Warn < Info < Debug`. A record
/// is emitted when its level is at or above the runtime threshold (i.e.
/// numerically `<=` the configured maximum verbosity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A request or subsystem failed.
    Error = 1,
    /// Something degraded or crossed a threshold (slow queries).
    Warn = 2,
    /// Per-request / per-connection lifecycle records.
    Info = 3,
    /// High-volume diagnostics (per-batch dispatch records).
    Debug = 4,
}

impl Level {
    /// The lowercase name used in the `level=` token.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (`error`/`warn`/`info`/`debug`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

static CAPTURE: Mutex<Option<Vec<String>>> = Mutex::new(None);

/// Sets the runtime verbosity ceiling; `None` disables logging entirely.
/// Starts at [`Level::Warn`].
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
}

/// The current runtime verbosity ceiling (`None` = off).
pub fn max_level() -> Option<Level> {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        _ => None,
    }
}

/// Applies a level by CLI name: `off` disables, otherwise one of the
/// [`Level::parse`] names. Returns `false` (and changes nothing) for an
/// unknown name.
pub fn set_level_by_name(name: &str) -> bool {
    if name == "off" {
        set_max_level(None);
        return true;
    }
    match Level::parse(name) {
        Some(l) => {
            set_max_level(Some(l));
            true
        }
        None => false,
    }
}

/// Whether a record at `level` would currently be emitted — one relaxed
/// load.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Redirects emitted lines into an in-process buffer (drained by
/// [`drain_capture`]) instead of stderr. Tests and the log-overhead bench
/// use this to observe records without scraping a child process.
pub fn set_capture(on: bool) {
    let mut cap = CAPTURE.lock().expect("log capture poisoned");
    *cap = if on { Some(Vec::new()) } else { None };
}

/// Takes every line captured since the last drain (empty when capture is
/// off).
pub fn drain_capture() -> Vec<String> {
    let mut cap = CAPTURE.lock().expect("log capture poisoned");
    match cap.as_mut() {
        Some(lines) => std::mem::take(lines),
        None => Vec::new(),
    }
}

/// A structured record under construction. Obtained from [`record`] (or
/// the [`error`]/[`warn`]/[`info`]/[`debug`] shorthands); add fields,
/// then [`emit`](Self::emit). When the record's level is suppressed every
/// method is a no-op on a `None` buffer, so building costs nothing beyond
/// the initial level check.
#[must_use = "a record does nothing until .emit()"]
#[derive(Debug)]
pub struct Record {
    buf: Option<String>,
}

/// Starts a record at `level` from subsystem `target`. The `ts`, `level`
/// and `target` tokens are pre-filled; chain [`Record::msg`] and fields,
/// then [`Record::emit`].
#[inline]
pub fn record(level: Level, target: &str) -> Record {
    if !enabled(level) {
        return Record { buf: None };
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    Record { buf: Some(format!("ts={ts:.3} level={} target={target}", level.name())) }
}

/// Shorthand for [`record`]`(Level::Error, target)`.
#[inline]
pub fn error(target: &str) -> Record {
    record(Level::Error, target)
}

/// Shorthand for [`record`]`(Level::Warn, target)`.
#[inline]
pub fn warn(target: &str) -> Record {
    record(Level::Warn, target)
}

/// Shorthand for [`record`]`(Level::Info, target)`.
#[inline]
pub fn info(target: &str) -> Record {
    record(Level::Info, target)
}

/// Shorthand for [`record`]`(Level::Debug, target)`.
#[inline]
pub fn debug(target: &str) -> Record {
    record(Level::Debug, target)
}

impl Record {
    /// Sets the quoted `msg="..."` token (conventionally right after the
    /// `target` token; call it first).
    #[inline]
    pub fn msg(self, m: &str) -> Self {
        self.field_str("msg", m)
    }

    /// Appends `key=value` with a bare (unquoted) value — use for numbers
    /// and other values with no spaces or quotes.
    #[inline]
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            use std::fmt::Write;
            let _ = write!(buf, " {key}={value}");
        }
        self
    }

    /// Appends `key="value"` with the value quoted and escaped (quotes,
    /// backslashes and control characters never break the line grammar).
    #[inline]
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            use std::fmt::Write;
            let _ = write!(buf, " {key}=\"");
            for c in value.chars() {
                match c {
                    '"' => buf.push_str("\\\""),
                    '\\' => buf.push_str("\\\\"),
                    c if (c as u32) < 0x20 => buf.push(' '),
                    c => buf.push(c),
                }
            }
            buf.push('"');
        }
        self
    }

    /// Writes the finished line to the sink (stderr, or the capture
    /// buffer when [`set_capture`] is on). A suppressed record emits
    /// nothing.
    pub fn emit(self) {
        if let Some(line) = self.buf {
            let mut cap = CAPTURE.lock().expect("log capture poisoned");
            match cap.as_mut() {
                Some(lines) => lines.push(line),
                None => {
                    drop(cap);
                    eprintln!("{line}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the global level or capture buffer.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn level_names_round_trip() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn records_are_keyvalue_lines() {
        let _g = LOCK.lock().unwrap();
        set_capture(true);
        set_max_level(Some(Level::Debug));
        info("serve")
            .msg("slow query")
            .field("id", 42)
            .field_str("route", "/query/bfs")
            .field("total_us", 18_250)
            .emit();
        let lines = drain_capture();
        set_capture(false);
        set_max_level(Some(Level::Warn));
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("ts="), "got: {line}");
        assert!(line.contains(" level=info target=serve msg=\"slow query\""), "got: {line}");
        assert!(line.ends_with("id=42 route=\"/query/bfs\" total_us=18250"), "got: {line}");
    }

    #[test]
    fn suppressed_levels_emit_nothing() {
        let _g = LOCK.lock().unwrap();
        set_capture(true);
        set_max_level(Some(Level::Warn));
        debug("pool").msg("hidden").emit();
        info("pool").msg("hidden too").emit();
        warn("pool").msg("visible").emit();
        error("pool").msg("visible").emit();
        let lines = drain_capture();
        set_capture(false);
        assert_eq!(lines.len(), 2, "got: {lines:?}");
        assert!(!enabled(Level::Info) && enabled(Level::Warn));
    }

    #[test]
    fn off_disables_everything_and_names_parse() {
        let _g = LOCK.lock().unwrap();
        set_capture(true);
        assert!(set_level_by_name("off"));
        assert_eq!(max_level(), None);
        error("serve").msg("dropped").emit();
        assert!(drain_capture().is_empty());
        assert!(set_level_by_name("debug"));
        assert_eq!(max_level(), Some(Level::Debug));
        assert!(!set_level_by_name("verbose"));
        assert_eq!(max_level(), Some(Level::Debug), "unknown name must not change the level");
        set_capture(false);
        set_max_level(Some(Level::Warn));
    }

    #[test]
    fn string_values_are_escaped() {
        let _g = LOCK.lock().unwrap();
        set_capture(true);
        set_max_level(Some(Level::Warn));
        warn("serve").msg("a\"b\\c\nd").emit();
        let lines = drain_capture();
        set_capture(false);
        assert!(lines[0].contains("msg=\"a\\\"b\\\\c d\""), "got: {}", lines[0]);
    }
}
