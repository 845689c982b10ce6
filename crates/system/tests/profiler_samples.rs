//! Sampled pipeline profiler: cadence determinism and stall totality,
//! exercised through the real run loops.
//!
//! The profiler's contract is that the sample stream is a function of
//! *simulated* time only: samples land at exact interval multiples, the
//! fast path re-emits frozen snapshots across skip-ahead regions, and a
//! reference-path run of the same experiment produces the byte-identical
//! stream. That makes profiles comparable across kernels and runs — and
//! doubles as another differential check on the fast path, since a
//! divergent snapshot means divergent microarchitectural state.

use ampsched_core::TopoRoundRobin;
use ampsched_cpu::{CoreConfig, STALL_CAUSE_NAMES};
use ampsched_mem::MemConfig;
use ampsched_obs::profiler::{self, PipeSample};
use ampsched_system::{DualCoreSystem, SimPath, SingleCoreRunner, SystemConfig};
use ampsched_trace::{suite, TraceGenerator, Workload};

const INTERVAL: u64 = 512;

fn pair(a: &str, b: &str, seed: u64) -> [Box<dyn Workload>; 2] {
    [
        Box::new(TraceGenerator::for_thread(
            suite::by_name(a).expect("bench"),
            seed,
            0,
        )),
        Box::new(TraceGenerator::for_thread(
            suite::by_name(b).expect("bench"),
            seed,
            1,
        )),
    ]
}

/// Run the duo loop for a bounded horizon and return the sample stream.
fn duo_stream(sim_path: SimPath) -> Vec<PipeSample> {
    profiler::clear();
    let mut sys = DualCoreSystem::new(
        SystemConfig {
            // Short epochs so round-robin swaps (pipeline flushes) land
            // inside the sampled horizon.
            epoch_cycles: 20_000,
            sim_path,
            ..SystemConfig::default()
        },
        pair("gcc", "equake", 7),
    );
    let mut sched = TopoRoundRobin::every_epoch();
    let r = sys.run(&mut sched, u64::MAX / 2, 100_000);
    assert!(r.swaps > 0, "horizon must cross at least one swap");
    profiler::snapshot()
}

/// Run one workload alone through the single-core loop.
fn single_stream(sim_path: SimPath) -> Vec<PipeSample> {
    profiler::clear();
    let mut runner =
        SingleCoreRunner::new(CoreConfig::int_core(), MemConfig::default()).with_sim_path(sim_path);
    let mut w = TraceGenerator::for_thread(suite::by_name("mcf").expect("bench"), 11, 0);
    runner.run(&mut w, u64::MAX / 2, 10_000, 60_000);
    profiler::snapshot()
}

/// The interval switch and sample buffer are process-global, so this
/// file keeps everything in one test function (its own process under
/// the cargo harness) instead of racing parallel tests against them.
#[test]
fn sample_streams_are_deterministic_total_and_kernel_independent() {
    profiler::set_interval(INTERVAL);

    // --- Duo loop: fast vs reference, plus run-to-run determinism. ---
    let fast = duo_stream(SimPath::Fast);
    let fast2 = duo_stream(SimPath::Fast);
    let refr = duo_stream(SimPath::Reference);
    assert!(!fast.is_empty(), "sampling was enabled; stream must be non-empty");
    assert_eq!(fast, fast2, "same run must reproduce the same stream");
    assert_eq!(
        fast, refr,
        "fast-path stream (with skip re-emission) must equal the reference stream"
    );

    // Cadence: both cores sampled at every interval multiple the run
    // crossed — consecutive multiples, no gaps across skip regions.
    for core in 0..2u8 {
        let cycles: Vec<u64> = fast.iter().filter(|s| s.core == core).map(|s| s.cycle).collect();
        assert!(!cycles.is_empty(), "core {core} must be sampled");
        for (i, &c) in cycles.iter().enumerate() {
            assert_eq!(
                c,
                INTERVAL * (i as u64 + 1),
                "core {core} samples must land on consecutive interval multiples"
            );
        }
        // Committed counters are cumulative, so they never decrease.
        let committed: Vec<u64> =
            fast.iter().filter(|s| s.core == core).map(|s| s.committed).collect();
        assert!(committed.windows(2).all(|w| w[0] <= w[1]));
    }

    // Stall totality: every sample carries a decodable cause, and the
    // per-core aggregation buckets each sample exactly once.
    for s in &fast {
        assert!(
            (s.stall as usize) < STALL_CAUSE_NAMES.len(),
            "stall code {} has no name",
            s.stall
        );
    }
    let summaries = profiler::summarize();
    assert_eq!(summaries.len(), 2, "one summary per core");
    for c in &summaries {
        assert_eq!(
            c.stall_counts.iter().sum::<u64>(),
            c.samples,
            "every sample must land in exactly one stall bucket"
        );
        assert!(c.samples > 0);
    }

    // --- Single-core loop: same contract. ---
    let fast = single_stream(SimPath::Fast);
    let refr = single_stream(SimPath::Reference);
    assert!(!fast.is_empty());
    assert_eq!(fast, refr, "single-core fast stream must equal reference");
    for (i, s) in fast.iter().enumerate() {
        assert_eq!(s.core, 0);
        assert_eq!(s.cycle, INTERVAL * (i as u64 + 1));
        assert!((s.stall as usize) < STALL_CAUSE_NAMES.len());
    }

    profiler::set_interval(0);
    profiler::clear();
}
