//! Leveled structured logging with an `AMPSCHED_LOG` environment filter.
//!
//! Lines go to stderr as `[level] target: message key=value ...`. The
//! maximum level is read once from `AMPSCHED_LOG`
//! (`off|error|warn|info|debug`, case-insensitive) and defaults to
//! [`Level::Warn`] — the same stderr behavior the workspace had when
//! cache warnings were raw `eprintln!` calls. `AMPSCHED_LOG=error`
//! silences warnings in batch sweeps; `AMPSCHED_LOG=debug` opens the
//! firehose.
//!
//! ```
//! ampsched_obs::log::set_max_level(Some(ampsched_obs::Level::Info));
//! ampsched_obs::info!("doctest", "hello {}", "world"; answer = 42);
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Severity of a log event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious but recoverable conditions (the default maximum).
    Warn = 2,
    /// High-level progress events.
    Info = 3,
    /// Detailed diagnostics for debugging.
    Debug = 4,
}

impl Level {
    /// The lowercase name used in log lines and `AMPSCHED_LOG`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse an `AMPSCHED_LOG` value. `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;
/// Maximum level that passes the filter; 0 silences everything.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn max_level() -> u8 {
    let v = MAX_LEVEL.load(Ordering::Relaxed);
    if v != UNINIT {
        return v;
    }
    let from_env = match std::env::var("AMPSCHED_LOG") {
        Ok(s) if s.trim().eq_ignore_ascii_case("off") => 0,
        Ok(s) => Level::parse(&s).map(|l| l as u8).unwrap_or(Level::Warn as u8),
        Err(_) => Level::Warn as u8,
    };
    // Racing initializers compute the same value; last store wins.
    MAX_LEVEL.store(from_env, Ordering::Relaxed);
    from_env
}

/// Override the maximum level, bypassing `AMPSCHED_LOG`. `None` silences
/// all logging. Intended for tests and embedding tools.
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
}

/// Whether an event at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= max_level()
}

/// Optional in-memory capture of formatted lines, used by tests to assert
/// on log output without scraping stderr.
static CAPTURE: Mutex<Option<Vec<String>>> = Mutex::new(None);

/// Start capturing log lines in memory (they still go to stderr).
pub fn capture_start() {
    *CAPTURE.lock().expect("log capture lock") = Some(Vec::new());
}

/// Stop capturing and return everything captured since [`capture_start`].
pub fn capture_take() -> Vec<String> {
    CAPTURE
        .lock()
        .expect("log capture lock")
        .take()
        .unwrap_or_default()
}

/// Format and emit one event. Not called directly — use the
/// [`error!`](macro@crate::error), [`warn!`](macro@crate::warn),
/// [`info!`](macro@crate::info), and [`debug!`](macro@crate::debug)
/// macros, which check [`enabled`] first so arguments are not formatted
/// when filtered.
pub fn write(level: Level, target: &str, args: std::fmt::Arguments<'_>, fields: &[(&str, String)]) {
    use std::fmt::Write as _;
    let mut line = format!("[{}] {target}: {args}", level.name());
    for (k, v) in fields {
        let _ = write!(line, " {k}={v}");
    }
    eprintln!("{line}");
    crate::ring::event("log", line.clone());
    if let Some(buf) = CAPTURE.lock().expect("log capture lock").as_mut() {
        buf.push(line);
    }
}

/// Emit an event at an explicit [`Level`]. The general form behind the
/// per-level macros: `log!(level, target, fmt, args...; key = value, ...)`.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $target:expr, $fmt:literal $(, $arg:expr)* $(; $($k:ident = $v:expr),+)? $(,)?) => {{
        let lvl = $lvl;
        if $crate::log::enabled(lvl) {
            $crate::log::write(
                lvl,
                $target,
                format_args!($fmt $(, $arg)*),
                &[$($((stringify!($k), format!("{}", $v)),)+)?],
            );
        }
    }};
}

/// Emit an [`Level::Error`] event: `error!("target", "fmt {}", x; key = v)`.
#[macro_export]
macro_rules! error {
    ($($rest:tt)*) => { $crate::log!($crate::Level::Error, $($rest)*) };
}

/// Emit a [`Level::Warn`] event: `warn!("target", "fmt {}", x; key = v)`.
#[macro_export]
macro_rules! warn {
    ($($rest:tt)*) => { $crate::log!($crate::Level::Warn, $($rest)*) };
}

/// Emit a [`Level::Info`] event: `info!("target", "fmt {}", x; key = v)`.
#[macro_export]
macro_rules! info {
    ($($rest:tt)*) => { $crate::log!($crate::Level::Info, $($rest)*) };
}

/// Emit a [`Level::Debug`] event: `debug!("target", "fmt {}", x; key = v)`.
#[macro_export]
macro_rules! debug {
    ($($rest:tt)*) => { $crate::log!($crate::Level::Debug, $($rest)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn filter_and_capture() {
        let _ring = crate::ring::test_lock();
        set_max_level(Some(Level::Info));
        capture_start();
        crate::info!("test.log", "visible {}", 1; k = 7);
        crate::debug!("test.log", "filtered out");
        let lines = capture_take();
        assert_eq!(lines, vec!["[info] test.log: visible 1 k=7".to_string()]);
        set_max_level(Some(Level::Warn));
    }
}
