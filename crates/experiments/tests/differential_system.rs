//! System-level differential harness: a full multiprogrammed run under
//! the fast kernel (optimized tick + skip-ahead) must be bit-identical to
//! the same run under the frozen reference kernel — same per-thread
//! metrics, same cycle count, same swaps, and the same choice at every
//! individual decision point — for several seeds and all three scheduler
//! families the paper evaluates.

use ampsched_experiments::common::{run_pair, sample_pairs, Params, SchedKind};
use ampsched_experiments::profiling;
use ampsched_system::{SimPath, TopoRunResult};

fn assert_bit_identical(fast: &TopoRunResult, reference: &TopoRunResult, ctx: &str) {
    assert_eq!(fast.scheduler, reference.scheduler, "{ctx}");
    assert_eq!(fast.cycles, reference.cycles, "cycles diverged: {ctx}");
    assert_eq!(fast.swaps, reference.swaps, "swaps diverged: {ctx}");
    assert_eq!(fast.migrations, reference.migrations, "migrations diverged: {ctx}");
    assert_eq!(
        fast.window_decisions, reference.window_decisions,
        "window decisions diverged: {ctx}"
    );
    assert_eq!(
        fast.epoch_decisions, reference.epoch_decisions,
        "epoch decisions diverged: {ctx}"
    );
    assert_eq!(
        fast.decisions, reference.decisions,
        "per-decision-point trace diverged: {ctx}"
    );
    // ThreadMetrics equality covers instructions, cycles, and the exact
    // joule totals (same activity counters through the same f64 ops).
    assert_eq!(fast.threads, reference.threads, "thread metrics diverged: {ctx}");
}

#[test]
fn fast_and_reference_kernels_agree_on_full_runs() {
    let preds = profiling::quick_predictors();
    for seed in [2012u64, 7, 99] {
        let mut params = Params::quick();
        params.seed = seed;
        // Keep the per-cycle reference runs affordable while still
        // crossing many window boundaries and at least one epoch.
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
                let mut fast_params = params.clone();
                fast_params.system.sim_path = SimPath::Fast;
                let fast = run_pair(pair, kind, preds, &fast_params);

                let mut ref_params = params.clone();
                ref_params.system.sim_path = SimPath::Reference;
                let reference = run_pair(pair, kind, preds, &ref_params);

                let ctx = format!("seed {seed} pair {} kind {kind:?}", pair.label());
                assert_bit_identical(&fast, &reference, &ctx);
                assert!(fast.cycles > 0, "{ctx}");
            }
        }
    }
}
