//! Tracing wrappers for the traced run, and the process's obs counters.
//!
//! The wrappers delegate every call unchanged, so a traced run makes the
//! same calls and produces the same bytes as an untraced one; they only
//! add up what passes through them. Each repetition is its own process,
//! so process-wide totals are per-repetition totals.

use ampsched_core::{
    Decision, DecisionExplain, Scheduler, TopoDecision, TopoScheduler, TopoSnapshot, WindowSnapshot,
};
use ampsched_isa::MicroOp;
use ampsched_trace::Workload;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static SCHED_NS: AtomicU64 = AtomicU64::new(0);
static SCHED_CALLS: AtomicU64 = AtomicU64::new(0);
static OPS_PULLED: AtomicU64 = AtomicU64::new(0);

/// Host nanoseconds spent inside scheduler decision calls so far.
pub fn sched_ns() -> u64 {
    SCHED_NS.load(Relaxed)
}

/// Scheduler decision calls (`on_window` + `on_epoch`) so far.
pub fn sched_calls() -> u64 {
    SCHED_CALLS.load(Relaxed)
}

/// Ops pulled through [`CountingWorkload`]s that have been dropped.
pub fn ops_pulled() -> u64 {
    OPS_PULLED.load(Relaxed)
}

fn timed_call<R>(f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    SCHED_NS.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    SCHED_CALLS.fetch_add(1, Relaxed);
    r
}

/// A pair scheduler whose decision calls are timed.
pub struct TimedSched(pub Box<dyn Scheduler>);

impl Scheduler for TimedSched {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn window_insts(&self) -> Option<u64> {
        self.0.window_insts()
    }
    fn on_window(&mut self, snap: &WindowSnapshot) -> Decision {
        timed_call(|| self.0.on_window(snap))
    }
    fn on_epoch(&mut self, snap: &WindowSnapshot) -> Decision {
        timed_call(|| self.0.on_epoch(snap))
    }
    fn explain_last(&self) -> Option<DecisionExplain> {
        self.0.explain_last()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

/// A topology scheduler whose decision calls are timed.
pub struct TimedTopoSched(pub Box<dyn TopoScheduler>);

impl TopoScheduler for TimedTopoSched {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn window_insts(&self) -> Option<u64> {
        self.0.window_insts()
    }
    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        timed_call(|| self.0.on_window(snap))
    }
    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        timed_call(|| self.0.on_epoch(snap))
    }
    fn explain_last(&self) -> Option<DecisionExplain> {
        self.0.explain_last()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

/// A workload that counts the ops pulled from it. It reads no clock and
/// touches no shared state per op: the count is published once, on drop.
pub struct CountingWorkload {
    inner: Box<dyn Workload>,
    pulled: u64,
}

/// Wrap `inner` in a [`CountingWorkload`].
pub fn counting(inner: Box<dyn Workload>) -> Box<dyn Workload> {
    Box::new(CountingWorkload { inner, pulled: 0 })
}

impl Workload for CountingWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_op(&mut self) -> MicroOp {
        self.pulled += 1;
        self.inner.next_op()
    }
    fn current_phase(&self) -> usize {
        self.inner.current_phase()
    }
}

impl Drop for CountingWorkload {
    fn drop(&mut self) {
        OPS_PULLED.fetch_add(self.pulled, Relaxed);
    }
}

/// The obs instruments a repetition reads, by their registered names.
pub struct Obs(ampsched_obs::metrics::Snapshot);

impl Obs {
    /// Snapshot every registered instrument now.
    pub fn now() -> Obs {
        Obs(ampsched_obs::metrics::snapshot())
    }

    /// A counter's value (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counters_with_prefix(&self, prefix: &str) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram's sample sum (0 if never registered).
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.0
            .hists
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.sum)
    }

    /// The deterministic work counts every repetition of one workload
    /// must reproduce exactly, in a fixed order.
    pub fn deterministic_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "trace.chunks_materialized",
                self.counter("trace.arena.chunk.materialize"),
            ),
            ("trace.arena_hits", self.counter("trace.arena.hit")),
            ("trace.arena_misses", self.counter("trace.arena.miss")),
            ("system.sim_cycles", self.hist_sum("sim.run.cycles")),
            (
                "skip_cycles",
                self.hist_sum("sim.skip.joint_cycles") + self.hist_sum("sim.skip.single_cycles"),
            ),
            (
                "sched.calls",
                self.counter("sim.decision.window") + self.counter("sim.decision.epoch"),
            ),
            (
                "sched.predictor_queries",
                self.counters_with_prefix("sim.predictor.query."),
            ),
            ("system.swaps", self.counter("sim.swap")),
        ]
    }
}

/// A line of `/proc/<pid>/status` (`VmHWM`, `Threads`, ...) as a number:
/// kilobytes for the memory fields, a plain count otherwise.
pub fn proc_status(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status("self", "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}
