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
//!
//! Lanes sharing a machine record its samples once, weighted by the
//! lanes sharing it, and a fork continues its parent's sampler: the
//! summaries of one `run_lanes` call equal those of its lanes run alone,
//! bit for bit and in any recording order.

use ampsched_core::{TopoRoundRobin, TopoScheduler, TopoStatic};
use ampsched_cpu::{CoreConfig, STALL_CAUSE_NAMES};
use ampsched_mem::MemConfig;
use ampsched_obs::profiler::{self, CoreSummary, PipeSample};
use ampsched_system::{
    DualCoreSystem, Lane, MulticoreSystem, SimPath, SingleCoreRunner, SystemConfig, Topology,
};
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

/// Short epochs so round-robin swaps (pipeline flushes) land inside the
/// sampled horizon.
fn short_epochs() -> SystemConfig {
    SystemConfig {
        epoch_cycles: 20_000,
        ..SystemConfig::default()
    }
}

/// Run the duo loop for a bounded horizon and return the sample stream.
fn duo_stream(sim_path: SimPath) -> Vec<PipeSample> {
    profiler::clear();
    let mut sys = DualCoreSystem::new(
        SystemConfig {
            sim_path,
            ..short_epochs()
        },
        pair("gcc", "equake", 7),
    );
    let mut sched = TopoRoundRobin::every_epoch();
    let r = sys.run(&mut sched, u64::MAX / 2, 100_000);
    assert!(r.swaps > 0, "horizon must cross at least one swap");
    profiler::snapshot()
}

/// The lanes' schedulers: two round-robins that share the machine all
/// run, and a static lane that forks off at the first epoch.
fn lane_schedulers() -> Vec<Box<dyn TopoScheduler>> {
    vec![
        Box::new(TopoRoundRobin::every_epoch()),
        Box::new(TopoRoundRobin::every_epoch()),
        Box::new(TopoStatic),
    ]
}

/// The lanes run together in one `run_lanes` call, and the samples.
fn lanes_stream() -> Vec<PipeSample> {
    profiler::clear();
    let lanes = lane_schedulers()
        .into_iter()
        .map(|scheduler| Lane {
            scheduler,
            workloads: pair("gcc", "equake", 7).into(),
        })
        .collect();
    let (duo, limit) = (Topology::duo(), u64::MAX / 2);
    let runs = MulticoreSystem::run_lanes(short_epochs(), &duo, lanes, limit, 100_000, || ());
    assert!(runs[0].swaps > 0 && runs[2].swaps == 0, "the static lane must fork off");
    profiler::snapshot()
}

/// The same lanes, each run alone, and the samples of all of them.
fn isolated_stream() -> Vec<PipeSample> {
    profiler::clear();
    for mut sched in lane_schedulers() {
        let workloads = pair("gcc", "equake", 7).into();
        let mut sys = MulticoreSystem::new(short_epochs(), &Topology::duo(), workloads);
        sys.run(&mut *sched, u64::MAX / 2, 100_000);
    }
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
        // A lone run from cycle 0: full weight, and every sample covers
        // the interval since the previous one.
        assert!(fast.iter().all(|s| s.weight == 1 && s.cycles == INTERVAL));
    }
    let duo = profiler::machine_id(&Topology::duo().label());
    assert!(fast.iter().all(|s| s.machine == duo), "duo samples name the duo machine");

    // Stall totality: every sample carries a decodable cause, and the
    // per-core aggregation buckets each sample exactly once.
    for s in &fast {
        assert!(
            (s.stall as usize) < STALL_CAUSE_NAMES.len(),
            "stall code {} has no name",
            s.stall
        );
    }
    let summaries = profiler::summarize(&fast);
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
    // One machine per core config, apart from the duo's cores.
    let single = profiler::summarize(&fast);
    assert_eq!(single.len(), 1);
    assert_eq!((single[0].machine.as_str(), single[0].core), ("INT", 0));
    let mut both = fast.clone();
    both.extend(duo_stream(SimPath::Fast));
    let machines: Vec<(String, u8)> =
        profiler::summarize(&both).into_iter().map(|c| (c.machine, c.core)).collect();
    let duo = Topology::duo().label();
    assert_eq!(machines, [(duo.clone(), 0), (duo, 1), ("INT".to_string(), 0)]);

    // --- Lanes: weighted samples describe the isolated runs. ---
    let mut lanes = lanes_stream();
    let isolated = isolated_stream();
    let weights: Vec<u32> = lanes.iter().map(|s| s.weight).collect();
    for w in [3, 2] {
        assert!(weights.contains(&w), "a weight-{w} sample: three lanes, then a fork");
    }
    let total = |s: &[PipeSample]| s.iter().map(|s| s.weight as u64).sum::<u64>();
    assert!(lanes.len() < isolated.len(), "the shared prefix is sampled once");
    assert_eq!(total(&lanes), total(&isolated));
    let together = profiler::summarize(&lanes);
    let alone = profiler::summarize(&isolated);
    assert_eq!(together.len(), 2, "one summary per duo core");
    let means = |c: &CoreSummary| {
        [c.mean_rob, c.mean_isq_int, c.mean_isq_fp, c.mean_lq, c.mean_sq, c.issue_utilization]
            .map(f64::to_bits)
    };
    for (t, a) in together.iter().zip(&alone) {
        assert_eq!((&t.machine, t.core), (&a.machine, a.core));
        assert_eq!(t.samples, a.samples, "weighted sample count on core {}", t.core);
        assert_eq!(t.stall_counts, a.stall_counts, "weighted stalls on core {}", t.core);
        assert_eq!(means(t), means(a), "means and utilization on core {}", t.core);
        assert!(t.issue_utilization > 0.0);
    }
    assert_eq!(together, alone);
    lanes.reverse();
    assert_eq!(profiler::summarize(&lanes), together, "recording order does not matter");

    profiler::set_interval(0);
    profiler::clear();
}
