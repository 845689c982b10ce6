//! Golden regression run: a tiny deterministic two-thread experiment
//! whose qualitative outcome matches the paper and whose decision-point
//! counts are pinned exactly.
//!
//! The pair is deliberately misplaced (intstress starts on the FP core,
//! fpstress on the INT core). The proposed scheme corrects it within a
//! few fine-grained windows, HPE corrects it at the first OS epoch, and
//! Round Robin keeps ping-ponging — so the IPC/Watt ranking must be
//! Proposed > HPE > RR.
//!
//! The exact counts below are golden values harvested from the
//! deterministic simulator. The proposed scheme evaluates a window
//! decision every `window × threads = 2000` committed instructions
//! combined (the ISSUE's `run_insts / 5000` estimate is the same idea at
//! paper scale), so any change to the commit stream shifts these counts —
//! which is exactly what this test is meant to catch. If a model change
//! is *intentional*, re-harvest and update the constants.

use ampsched_experiments::common::{run_pair, Pair, Params, SchedKind};
use ampsched_experiments::profiling;
use ampsched_trace::suite;

fn golden_params() -> Params {
    let mut params = Params::quick();
    params.run_insts = 300_000;
    params.system.epoch_cycles = 100_000;
    params
}

fn golden_pair() -> Pair {
    Pair {
        a: suite::by_name("intstress").expect("intstress exists"),
        b: suite::by_name("fpstress").expect("fpstress exists"),
        seed: 2012,
    }
}

#[test]
fn golden_misplaced_pair_ranking_and_decision_counts() {
    let params = golden_params();
    let pair = golden_pair();
    let preds = profiling::quick_predictors();

    let proposed = run_pair(&pair, &SchedKind::proposed_default(&params), preds, &params);
    let hpe = run_pair(&pair, &SchedKind::HpeMatrix, preds, &params);
    let rr = run_pair(&pair, &SchedKind::RoundRobin(1), preds, &params);

    // IPC/Watt ranking, strict: Proposed > HPE > RR on this pair.
    let sum = |r: &ampsched_system::TopoRunResult| {
        let p = r.ipc_per_watt();
        p[0] + p[1]
    };
    let (p, h, r) = (sum(&proposed), sum(&hpe), sum(&rr));
    assert!(p > h, "proposed ({p:.4}) must beat HPE ({h:.4})");
    assert!(h > r, "HPE ({h:.4}) must beat Round Robin ({r:.4})");

    // Exact decision-point counts (golden; see module docs).
    assert_eq!(proposed.window_decisions, 265, "proposed window decisions");
    assert_eq!(proposed.epoch_decisions, 1, "proposed epoch decisions");
    assert_eq!(proposed.swaps, 1, "proposed fixes the misplacement once");
    assert_eq!(proposed.decisions.len(), 266, "full decision trace length");

    assert_eq!(hpe.window_decisions, 0, "HPE decides only at epochs");
    assert_eq!(hpe.epoch_decisions, 2, "HPE epoch decisions");
    assert_eq!(hpe.swaps, 1, "HPE fixes the misplacement at epoch 1");

    assert_eq!(rr.epoch_decisions, 2, "RR epoch decisions");
    assert_eq!(rr.swaps, 2, "RR swaps blindly every epoch");

    // Exact cycle counts (golden): the fast kernel must keep producing
    // the very same simulation, cycle for cycle.
    assert_eq!(proposed.cycles, 168_370, "proposed run length");
    assert_eq!(hpe.cycles, 219_895, "HPE run length");
    assert_eq!(rr.cycles, 251_322, "RR run length");
}
