//! Trace-provisioning differential harness: a full multiprogrammed run
//! whose instruction streams are replayed from the shared trace arena
//! must be bit-identical to the same run with live per-run generators —
//! same per-thread metrics, same cycle count, same swaps, and the same
//! choice at every individual decision point — for several seeds and all
//! three scheduler families the paper evaluates. This is the guarantee
//! that lets every figure default to `--trace-path arena`.

use ampsched_cpu::CoreConfig;
use ampsched_experiments::common::{run_pair, sample_pairs, Params, SchedKind};
use ampsched_experiments::profiling;
use ampsched_system::single::run_alone_with;
use ampsched_system::TopoRunResult;
use ampsched_trace::{suite, TracePath};

fn assert_bit_identical(arena: &TopoRunResult, stream: &TopoRunResult, ctx: &str) {
    assert_eq!(arena.scheduler, stream.scheduler, "{ctx}");
    assert_eq!(arena.cycles, stream.cycles, "cycles diverged: {ctx}");
    assert_eq!(arena.swaps, stream.swaps, "swaps diverged: {ctx}");
    assert_eq!(
        arena.window_decisions, stream.window_decisions,
        "window decisions diverged: {ctx}"
    );
    assert_eq!(
        arena.epoch_decisions, stream.epoch_decisions,
        "epoch decisions diverged: {ctx}"
    );
    assert_eq!(
        arena.decisions, stream.decisions,
        "per-decision-point trace diverged: {ctx}"
    );
    // ThreadMetrics equality covers instructions, cycles, and the exact
    // joule totals (same activity counters through the same f64 ops).
    assert_eq!(arena.threads, stream.threads, "thread metrics diverged: {ctx}");
}

#[test]
fn arena_and_stream_provisioning_agree_on_full_runs() {
    let preds = profiling::quick_predictors();
    for seed in [2012u64, 7, 99] {
        let mut params = Params::quick();
        params.seed = seed;
        // Long enough to cross several arena chunk boundaries (8192 ops
        // per chunk) and at least one epoch.
        params.run_insts = 120_000;
        params.system.epoch_cycles = 100_000;
        let pairs = sample_pairs(2, seed);
        let kinds = [
            SchedKind::proposed_default(&params),
            SchedKind::HpeMatrix,
            SchedKind::RoundRobin(1),
        ];
        for pair in &pairs {
            for kind in &kinds {
                let mut arena_params = params.clone();
                arena_params.trace_path = TracePath::Arena;
                let arena = run_pair(pair, kind, preds, &arena_params);

                let mut stream_params = params.clone();
                stream_params.trace_path = TracePath::Stream;
                let stream = run_pair(pair, kind, preds, &stream_params);

                let ctx = format!("seed {seed} pair {} kind {kind:?}", pair.label());
                assert_bit_identical(&arena, &stream, &ctx);
                assert!(arena.cycles > 0, "{ctx}");
            }
        }
    }
}

/// The persistent cache (`--trace-cache`) must never change results:
/// the same pair/scheduler run is bit-identical with no cache, with a
/// cold cache (generate + persist), with a warm cache (replay from
/// disk), and after every cache file has been deliberately corrupted
/// (detect, delete, regenerate).
#[test]
fn persistent_cache_runs_are_bit_identical_cold_warm_and_corrupted() {
    use ampsched_trace::{arena, persist};
    let preds = profiling::quick_predictors();
    let dir = std::env::temp_dir().join(format!("ampsched-diff-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut params = Params::quick();
    params.run_insts = 120_000;
    params.system.epoch_cycles = 100_000;
    let pair = &sample_pairs(2, 2012)[1];
    let kind = SchedKind::proposed_default(&params);

    let reference = run_pair(pair, &kind, preds, &params);
    arena::clear();

    let mut cached = params.clone();
    cached.trace_cache = Some(dir.clone());
    let cold = run_pair(pair, &kind, preds, &cached);
    assert_bit_identical(&cold, &reference, "cold cache vs uncached");
    arena::flush();
    arena::clear();

    let valid = persist::scan(&dir).iter().filter(|r| r.is_valid()).count();
    assert_eq!(valid, 2, "one cache file per thread after the cold run");
    let warm = run_pair(pair, &kind, preds, &cached);
    assert_bit_identical(&warm, &reference, "warm cache vs uncached");
    arena::clear();

    // Flip one payload byte in every cache file: loads must fail, the
    // stale files must be deleted, and the run must regenerate the exact
    // same streams.
    for report in persist::scan(&dir) {
        let mut image = std::fs::read(&report.path).expect("read cache file");
        let at = image.len() - 100;
        image[at] ^= 0x10;
        std::fs::write(&report.path, &image).expect("plant corruption");
    }
    assert!(
        persist::scan(&dir).iter().all(|r| !r.is_valid()),
        "corrupted files must fail validation"
    );
    let regenerated = run_pair(pair, &kind, preds, &cached);
    assert_bit_identical(&regenerated, &reference, "corrupted cache vs uncached");
    arena::flush();
    arena::clear();
    assert_eq!(
        persist::scan(&dir).iter().filter(|r| r.is_valid()).count(),
        2,
        "corrupted files replaced by valid regenerations"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arena_and_stream_provisioning_agree_on_single_core_runs() {
    // The single-core path (profiling, fig1, morphing) goes through
    // `run_alone_with` rather than `run_pair`; check it separately.
    let params = Params::quick();
    for name in ["gcc", "fpstress", "mcf"] {
        let spec = suite::by_name(name).expect("benchmark");
        let run = |path: TracePath| {
            let mut w = path.workload_for_thread(spec.clone(), params.seed, 0);
            run_alone_with(
                CoreConfig::fp_core(),
                params.system.mem,
                params.system.sim_path,
                &mut *w,
                60_000,
                params.profile_interval_cycles,
            )
        };
        let arena = run(TracePath::Arena);
        let stream = run(TracePath::Stream);
        assert_eq!(arena.totals, stream.totals, "{name}: totals diverged");
        assert_eq!(arena.samples, stream.samples, "{name}: samples diverged");
    }
}
