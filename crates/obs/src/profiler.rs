//! Sampled per-cycle pipeline profiler.
//!
//! Every Nth *simulated* cycle the system run loops record one
//! [`PipeSample`] per core: structure occupancies, the commits and cycles
//! since the run's previous sample, and a stall-cause code (the caller
//! defines the code space — `ampsched-cpu`'s `StallCause` — this crate
//! only buckets it). Each sample names its machine (an interned label,
//! [`machine_id`]) and carries a weight: the number of runs it stands
//! for, since lanes sharing one simulated machine share its samples.
//! Sampling is process-global like the [span](mod@crate::span)
//! collector: off by default, enabled by the experiments CLI for
//! `--profile` runs.
//!
//! The cadence is deterministic in simulated time: samples land at exact
//! multiples of the configured interval regardless of host speed, skip
//! jumps, or scheduler behavior, so two runs of the same experiment
//! produce identical samples. Skip-ahead regions are quiescent by
//! construction (no commit, dispatch, issue, or memory traffic), so the
//! run loops re-emit the then-current snapshot at each crossed sample
//! point — the stream looks exactly as if every cycle had been ticked.
//! [`summarize`] adds weighted integer sums and divides once, so a
//! summary depends neither on the order concurrent runs recorded their
//! samples in nor on whether runs shared a machine.
//!
//! Like every other instrument in this crate the profiler is read-only
//! with respect to simulation state: it observes values the pipeline
//! already maintains and feeds nothing back, so enabling it leaves
//! `--json` reports byte-identical (enforced by
//! `differential_telemetry` in `ampsched-experiments`).

use ampsched_util::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on caller-defined stall-cause codes (inclusive cap on
/// distinct causes; `ampsched-cpu` uses 5).
pub const MAX_STALL_CODES: usize = 8;

/// Cap on buffered samples: ~112 MiB of samples at most, after which the
/// profiler degrades to a drop counter instead of exhausting memory.
const MAX_SAMPLES: usize = 1 << 21;

/// One sampled pipeline observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeSample {
    /// Simulated cycle the sample was taken at (a multiple of the
    /// configured interval).
    pub cycle: u64,
    /// Interned label of the simulated machine ([`machine_id`]).
    pub machine: u16,
    /// Core index the sample describes.
    pub core: u8,
    /// Runs the sample stands for: the lanes sharing the machine.
    pub weight: u32,
    /// Caller-defined stall-cause code, `< MAX_STALL_CODES`.
    pub stall: u8,
    /// Occupied reorder-buffer slots.
    pub rob: u32,
    /// Integer issue-queue entries.
    pub isq_int: u32,
    /// Floating-point issue-queue entries.
    pub isq_fp: u32,
    /// Load-queue entries.
    pub lq: u32,
    /// Store-queue entries.
    pub sq: u32,
    /// Instructions the core committed since the run's previous sample
    /// (since the run's start, for its first).
    pub commits: u64,
    /// Cycles since the run's previous sample (since its start, for its
    /// first).
    pub cycles: u64,
    /// Peak sustainable issue slots per cycle on the core.
    pub issue_slots: u32,
}

/// Sampling interval in simulated cycles; 0 = disabled.
static INTERVAL: AtomicU64 = AtomicU64::new(0);

fn samples() -> &'static Mutex<Vec<PipeSample>> {
    static SAMPLES: OnceLock<Mutex<Vec<PipeSample>>> = OnceLock::new();
    SAMPLES.get_or_init(|| Mutex::new(Vec::new()))
}

fn machines() -> &'static Mutex<Vec<String>> {
    static MACHINES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    MACHINES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Enable sampling every `interval` simulated cycles (0 disables).
pub fn set_interval(interval: u64) {
    INTERVAL.store(interval, Ordering::Relaxed);
}

/// Current sampling interval; 0 when disabled. Run loops read this once
/// at run start — the disabled cost is one relaxed load per run, not
/// per cycle.
pub fn interval() -> u64 {
    INTERVAL.load(Ordering::Relaxed)
}

/// The id samples of machine `label` carry; the same label always gets
/// the same id within a process.
pub fn machine_id(label: &str) -> u16 {
    let mut table = machines().lock().expect("profiler machine lock");
    match table.iter().position(|l| l == label) {
        Some(id) => id as u16,
        None => {
            table.push(label.to_string());
            (table.len() - 1) as u16
        }
    }
}

/// Record one sample. Drops (and counts) past the buffer cap.
pub fn record(sample: PipeSample) {
    debug_assert!((sample.stall as usize) < MAX_STALL_CODES);
    let mut buf = samples().lock().expect("profiler buffer lock");
    if buf.len() >= MAX_SAMPLES {
        crate::counter!("obs.profiler.dropped");
        return;
    }
    buf.push(sample);
}

/// Copy of every buffered sample, in recording order.
pub fn snapshot() -> Vec<PipeSample> {
    samples().lock().expect("profiler buffer lock").clone()
}

/// Discard all buffered samples.
pub fn clear() {
    samples().lock().expect("profiler buffer lock").clear();
}

/// Aggregated view of one core of one machine, over every run sampled
/// on it, each sample counted `weight` times.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSummary {
    /// Label of the machine the core belongs to.
    pub machine: String,
    /// Core index.
    pub core: u8,
    /// Samples aggregated, weighted.
    pub samples: u64,
    /// Mean reorder-buffer occupancy.
    pub mean_rob: f64,
    /// Mean integer issue-queue occupancy.
    pub mean_isq_int: f64,
    /// Mean floating-point issue-queue occupancy.
    pub mean_isq_fp: f64,
    /// Mean load-queue occupancy.
    pub mean_lq: f64,
    /// Mean store-queue occupancy.
    pub mean_sq: f64,
    /// Committed instructions per issue slot per cycle over the sampled
    /// part of every run (Σ commits / Σ cycles × issue slots, weighted)
    /// — the steady-state issue-width utilization.
    pub issue_utilization: f64,
    /// Weighted sample counts per stall-cause code. Sums to `samples` —
    /// every sample lands in exactly one bucket (cause totality).
    pub stall_counts: [u64; MAX_STALL_CODES],
}

/// Aggregate `samples` per (machine, core), sorted by machine label and
/// core index. Every sum is an integer and each mean is one division at
/// the end, so the result does not depend on the order of `samples`.
pub fn summarize(samples: &[PipeSample]) -> Vec<CoreSummary> {
    let labels = machines().lock().expect("profiler machine lock").clone();
    // Weighted sums: samples, the five occupancies, commits and
    // slot-cycles; then the stall buckets.
    type Sums = ([u64; 8], [u64; MAX_STALL_CODES]);
    let mut sums: BTreeMap<(&str, u8), Sums> = BTreeMap::new();
    for s in samples {
        let machine = labels.get(s.machine as usize).map_or("?", String::as_str);
        let (acc, stalls) = sums.entry((machine, s.core)).or_default();
        let w = s.weight as u64;
        let o = [s.rob, s.isq_int, s.isq_fp, s.lq, s.sq].map(u64::from);
        let terms = [1, o[0], o[1], o[2], o[3], o[4], s.commits, s.cycles * s.issue_slots as u64];
        for (a, term) in acc.iter_mut().zip(terms) {
            *a += w * term;
        }
        stalls[(s.stall as usize).min(MAX_STALL_CODES - 1)] += w;
    }
    sums.into_iter()
        .map(|((machine, core), (acc, stalls))| {
            let mean = |i: usize| acc[i] as f64 / acc[0] as f64;
            CoreSummary {
                machine: machine.to_string(),
                core,
                samples: acc[0],
                mean_rob: mean(1),
                mean_isq_int: mean(2),
                mean_isq_fp: mean(3),
                mean_lq: mean(4),
                mean_sq: mean(5),
                issue_utilization: if acc[7] > 0 { acc[6] as f64 / acc[7] as f64 } else { 0.0 },
                stall_counts: stalls,
            }
        })
        .collect()
}

/// Render per-(machine, core) summaries as JSON. `cause_names` maps stall codes to
/// display names (shorter tables leave trailing codes as `cause<N>`).
pub fn summary_json(summaries: &[CoreSummary], cause_names: &[&str]) -> Json {
    Json::arr(summaries.iter().map(|c| {
        let named = |i: usize| -> String {
            cause_names
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("cause{i}"))
        };
        Json::obj([
            ("machine", Json::from(c.machine.as_str())),
            ("core", Json::from(c.core as u64)),
            ("samples", Json::from(c.samples)),
            ("mean_rob", Json::from(c.mean_rob)),
            ("mean_isq_int", Json::from(c.mean_isq_int)),
            ("mean_isq_fp", Json::from(c.mean_isq_fp)),
            ("mean_lq", Json::from(c.mean_lq)),
            ("mean_sq", Json::from(c.mean_sq)),
            ("issue_utilization", Json::from(c.issue_utilization)),
            (
                "stalls",
                Json::Obj(
                    c.stall_counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, n)| *n > 0)
                        .map(|(i, n)| (named(i), Json::from(*n)))
                        .collect(),
                ),
            ),
        ])
    }))
}

/// Chrome trace-event counter tracks for the buffered samples: one
/// `"ph":"C"` event per sample with the occupancies as series, under a
/// synthetic pid so the simulated-time axis does not interleave with
/// host-time spans. Returns the events as JSON values for
/// [`span::write_trace_events`](crate::span::write_trace_events) to
/// splice into its output.
pub fn trace_counter_events() -> Vec<Json> {
    let labels = machines().lock().expect("profiler machine lock").clone();
    let buf = samples().lock().expect("profiler buffer lock");
    buf.iter()
        .map(|s| {
            Json::obj([
                (
                    "name",
                    Json::from(format!("pipeline {} core{}", labels[s.machine as usize], s.core)),
                ),
                ("cat", Json::from("ampsched.pipeline")),
                ("ph", Json::from("C")),
                // Counter tracks use the simulated cycle as the
                // timestamp; pid 0 keeps them on their own process row.
                ("ts", Json::from(s.cycle)),
                ("pid", Json::from(0u64)),
                ("tid", Json::from((s.machine as u64) << 8 | s.core as u64)),
                (
                    "args",
                    Json::obj([
                        ("rob", Json::from(s.rob as u64)),
                        ("isq_int", Json::from(s.isq_int as u64)),
                        ("isq_fp", Json::from(s.isq_fp as u64)),
                        ("lq", Json::from(s.lq as u64)),
                        ("sq", Json::from(s.sq as u64)),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the interval switch and sample buffer are process-global,
    // so parallel test functions would race.
    #[test]
    fn profiler_lifecycle() {
        clear();
        assert_eq!(interval(), 0, "sampling starts disabled");
        set_interval(64);
        assert_eq!(interval(), 64);
        let machine = machine_id("test-machine");
        assert_eq!(machine_id("test-machine"), machine, "labels intern once");
        // Core c commits 32 × (c+1) instructions per 64 cycles; the last
        // boundary stands for two runs sharing the machine.
        for (cycle, weight) in [(64u64, 1u32), (128, 1), (192, 2)] {
            for core in 0..2u8 {
                record(PipeSample {
                    cycle,
                    machine,
                    core,
                    weight,
                    stall: core, // distinct causes per core
                    rob: 10 * (core as u32 + 1),
                    isq_int: 4,
                    isq_fp: 2,
                    lq: 1,
                    sq: 0,
                    commits: 32 * (core as u64 + 1),
                    cycles: 64,
                    issue_slots: 5,
                });
            }
        }
        set_interval(0);
        let mut recorded = snapshot();
        assert_eq!(recorded.len(), 6);
        let summaries = summarize(&recorded);
        assert_eq!(summaries.len(), 2);
        for (i, c) in summaries.iter().enumerate() {
            assert_eq!((c.machine.as_str(), c.core), ("test-machine", i as u8));
            assert_eq!(c.samples, 4, "weighted: 1 + 1 + 2");
            assert_eq!(c.mean_rob, 10.0 * (i as f64 + 1.0));
            // Totality: every sample lands in exactly one stall bucket.
            assert_eq!(c.stall_counts.iter().sum::<u64>(), c.samples);
            assert_eq!(c.stall_counts[i], 4);
            // Σ commits / (Σ cycles × slots): core0 32/(64×5) = 0.1.
            assert_eq!(c.issue_utilization, 0.1 * (i as f64 + 1.0));
        }
        recorded.reverse();
        assert_eq!(summarize(&recorded), summaries, "order-independent");
        let json = summary_json(&summaries, &["a", "b"]).render();
        assert!(json.contains("\"a\"") && json.contains("\"b\""));
        assert!(json.contains("\"machine\":\"test-machine\""), "{json}");
        let events = trace_counter_events();
        assert_eq!(events.len(), 6);
        assert!(events[0].render().contains("\"ph\":\"C\""));
        assert!(events[0].render().contains("pipeline test-machine core0"));
        clear();
        assert!(snapshot().is_empty());
    }
}
