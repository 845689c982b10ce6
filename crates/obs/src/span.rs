//! RAII wall-clock timing spans with Chrome trace-event export.
//!
//! A span measures one region of *host* time (never simulated time). The
//! [`span!`](macro@crate::span) macro returns a guard; dropping it records a
//! complete event. Spans nest naturally — about://tracing stacks
//! same-thread events by timestamp containment, so no explicit parent
//! bookkeeping is needed.
//!
//! Recording is off by default: starting a span is then a single relaxed
//! atomic load and the guard does not read the clock at all. The
//! experiments CLI enables recording for `--profile` and
//! `--trace-events` runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Master switch; when false spans cost one atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default cap on buffered events: a runaway instrumentation loop
/// degrades to a counter instead of exhausting memory.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Current cap on buffered events (see [`set_event_cap`]).
static EVENT_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_EVENT_CAP);

/// Spans dropped at the cap since the last [`clear`]. Mirrored into the
/// `obs.spans.dropped` metrics counter; kept separately so the trace
/// export can emit a truncation marker without a registry lookup.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Enable or disable span recording process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resize the buffered-event cap (minimum 1). Already-buffered events
/// are kept even if they exceed a smaller new cap; only new recordings
/// are refused. Intended for tests and embedding tools.
pub fn set_event_cap(cap: usize) {
    EVENT_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Current cap on buffered events.
pub fn event_cap() -> usize {
    EVENT_CAP.load(Ordering::Relaxed)
}

/// Spans silently refused at the cap since the last [`clear`]. Also
/// counted by the `obs.spans.dropped` metrics counter.
pub fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host microseconds since the process-wide obs epoch. Shared with the
/// [flight recorder](crate::ring) so span and ring timestamps line up.
pub(crate) fn micros_since_epoch() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Stable small integer per OS thread for the trace `tid` field.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One completed span.
#[derive(Debug, Clone)]
struct SpanEvent {
    name: &'static str,
    label: Option<String>,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
}

fn events() -> &'static Mutex<Vec<SpanEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Guard for an in-flight span; records a complete event on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    label: Option<String>,
    start_us: u64,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_us = micros_since_epoch();
        crate::ring::event("span", self.name.to_string());
        let mut buf = events().lock().expect("span buffer lock");
        if buf.len() >= event_cap() {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            crate::counter!("obs.spans.dropped");
            return;
        }
        buf.push(SpanEvent {
            name: self.name,
            label: self.label.take(),
            tid: current_tid(),
            ts_us: self.start_us,
            dur_us: end_us.saturating_sub(self.start_us),
        });
    }
}

/// Start a span named `name`. Prefer the [`span!`](macro@crate::span) macro.
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None)
}

/// Start a span with a per-instance label (e.g. the workload pair).
/// Aggregation keys on `name` alone; the label shows up in trace events.
pub fn span_labeled(name: &'static str, label: String) -> SpanGuard {
    span_inner(name, Some(label))
}

fn span_inner(name: &'static str, label: Option<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            label: None,
            start_us: 0,
            active: false,
        };
    }
    SpanGuard {
        name,
        label,
        start_us: micros_since_epoch(),
        active: true,
    }
}

/// Total duration and hit count per span name, sorted by name — what
/// `ampsched-util`'s `Profiler::add_busy` takes, so span totals merge
/// straight into `--profile` reports as busy time.
pub fn aggregate() -> Vec<(String, Duration, u64)> {
    let buf = events().lock().expect("span buffer lock");
    let mut totals: Vec<(String, Duration, u64)> = Vec::new();
    for ev in buf.iter() {
        match totals.iter_mut().find(|(n, _, _)| n == ev.name) {
            Some((_, d, c)) => {
                *d += Duration::from_micros(ev.dur_us);
                *c += 1;
            }
            None => totals.push((ev.name.to_string(), Duration::from_micros(ev.dur_us), 1)),
        }
    }
    totals.sort_by(|a, b| a.0.cmp(&b.0));
    totals
}

/// Number of events currently buffered.
pub fn event_count() -> usize {
    events().lock().expect("span buffer lock").len()
}

/// Discard all buffered events and reset the dropped-span count.
pub fn clear() {
    events().lock().expect("span buffer lock").clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Write all buffered events to `path` in Chrome trace-event JSON
/// (load the file in about://tracing or <https://ui.perfetto.dev>).
/// Buffered [profiler](crate::profiler) samples are spliced in as
/// counter tracks (simulated-cycle timestamps under their own pid).
/// Returns the number of events written.
pub fn write_trace_events(path: &std::path::Path) -> std::io::Result<usize> {
    use ampsched_util::Json;
    let buf = events().lock().expect("span buffer lock");
    let mut all: Vec<Json> = buf
        .iter()
        .map(|ev| {
            let name = match &ev.label {
                Some(l) => format!("{} {}", ev.name, l),
                None => ev.name.to_string(),
            };
            Json::obj([
                ("name", Json::from(name)),
                ("cat", Json::from("ampsched")),
                ("ph", Json::from("X")),
                ("ts", Json::from(ev.ts_us)),
                ("dur", Json::from(ev.dur_us)),
                ("pid", Json::from(std::process::id())),
                ("tid", Json::from(ev.tid)),
            ])
        })
        .collect();
    drop(buf);
    // Truncation is never silent: if the cap refused spans, plant a
    // global instant marker so the viewer shows the trace is partial.
    let dropped = dropped_count();
    if dropped > 0 {
        all.push(Json::obj([
            (
                "name",
                Json::from(format!("TRUNCATED: {dropped} spans dropped at cap")),
            ),
            ("cat", Json::from("ampsched")),
            ("ph", Json::from("i")),
            ("s", Json::from("g")),
            ("ts", Json::from(micros_since_epoch())),
            ("pid", Json::from(std::process::id())),
            ("tid", Json::from(current_tid())),
        ]));
    }
    all.extend(crate::profiler::trace_counter_events());
    let count = all.len();
    let trace = Json::obj([
        ("traceEvents", Json::Arr(all)),
        ("displayTimeUnit", Json::from("ms")),
    ]);
    std::fs::write(path, trace.render())?;
    Ok(count)
}

/// Start a span: `let _s = obs::span!("system.run");` or, with a label,
/// `obs::span!("run_pair", pair.label())`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::span($name)
    };
    ($name:literal, $label:expr) => {
        $crate::span::span_labeled($name, ::std::string::String::from($label))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the enable switch and event buffer are
    // process-global, so parallel test functions would race.
    #[test]
    fn span_recording_lifecycle() {
        let _ring = crate::ring::test_lock();
        set_enabled(false);
        {
            let _s = span("test.span.off");
        }
        set_enabled(true);
        {
            let _a = span("test.span.outer");
            let _b = span_labeled("test.span.inner", "x".to_string());
            let _c = span_labeled("test.span.inner", "y".to_string());
        }
        set_enabled(false);
        let agg = aggregate();
        assert!(!agg.iter().any(|(n, _, _)| n == "test.span.off"));
        let inner = agg.iter().find(|(n, _, _)| n == "test.span.inner");
        assert_eq!(inner.map(|(_, _, c)| *c), Some(2));
        let outer = agg.iter().find(|(n, _, _)| n == "test.span.outer");
        assert_eq!(outer.map(|(_, _, c)| *c), Some(1));

        // Overflowing the cap is counted and marked, never silent.
        clear();
        assert_eq!(dropped_count(), 0);
        set_enabled(true);
        set_event_cap(2);
        for _ in 0..5 {
            let _s = span("test.span.overflow");
        }
        set_enabled(false);
        assert_eq!(event_count(), 2, "cap bounds the buffer");
        assert_eq!(dropped_count(), 3, "overflow is counted");
        let path = std::env::temp_dir().join(format!(
            "ampsched-span-truncation-test-{}.json",
            std::process::id()
        ));
        write_trace_events(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("TRUNCATED: 3 spans dropped at cap"),
            "trace export carries a truncation marker"
        );
        let _ = std::fs::remove_file(&path);
        set_event_cap(DEFAULT_EVENT_CAP);
        clear();
        assert_eq!(dropped_count(), 0, "clear resets the dropped count");
    }
}
