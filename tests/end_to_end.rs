//! End-to-end integration tests spanning every crate: workload models →
//! core timing → memory → power → scheduling → metrics.

use ampsched::experiments::common::{Predictors, SchedKind};
use ampsched::prelude::*;
use ampsched::sched::{ExtendedConfig, ReplaySchedule};

fn pair(a: &str, b: &str, seed: u64) -> [Box<dyn Workload>; 2] {
    [
        Box::new(TraceGenerator::for_thread(
            suite::by_name(a).expect("benchmark"),
            seed,
            0,
        )),
        Box::new(TraceGenerator::for_thread(
            suite::by_name(b).expect("benchmark"),
            seed,
            1,
        )),
    ]
}

fn quick_cfg() -> SystemConfig {
    SystemConfig {
        epoch_cycles: 200_000,
        ..SystemConfig::default()
    }
}

fn quick_system(workloads: [Box<dyn Workload>; 2]) -> DualCoreSystem {
    DualCoreSystem::new(quick_cfg(), workloads)
}

#[test]
fn proposed_scheduler_corrects_a_misplaced_pair_end_to_end() {
    // intstress starts on the FP core, fpstress on the INT core — the
    // worst possible initial assignment.
    let mut sys =
        MulticoreSystem::new(quick_cfg(), &Topology::duo(), pair("intstress", "fpstress", 5).into());
    let mut sched = TopoProposed::with_defaults(2);
    let r = sys.run(&mut sched, 300_000, 30_000_000);
    assert!(r.swaps >= 1);
    assert_eq!(sys.assignment().core_of(0), Some(1), "intstress must end on the INT core");

    // Compare against never swapping, same workloads and seeds.
    let mut sys2 = quick_system(pair("intstress", "fpstress", 5));
    let mut stat = TopoStatic;
    let r2 = sys2.run(&mut stat, 300_000, 30_000_000);
    let speedup = weighted_speedup(&r.ipc_per_watt(), &r2.ipc_per_watt());
    assert!(
        speedup > 1.25,
        "correcting the worst-case assignment should win big: {speedup}"
    );
}

#[test]
fn all_five_schedulers_complete_on_the_same_pair() {
    let preds = {
        // A tiny synthetic predictor is enough for the smoke test.
        let pts: Vec<ampsched::sched::ProfilePoint> = (0..=10)
            .flat_map(|i| {
                (0..=(10 - i)).map(move |f| ampsched::sched::ProfilePoint {
                    int_pct: i as f64 * 10.0,
                    fp_pct: f as f64 * 10.0,
                    ppw_int_core: (1.0 + 0.012 * i as f64 * 10.0 - 0.02 * f as f64 * 10.0)
                        .max(0.2),
                    ppw_fp_core: 1.0,
                })
            })
            .collect();
        Predictors {
            matrix: RatioMatrix::from_points(&pts),
            surface: RatioSurface::from_points(&pts),
        }
    };
    // Every scheme the experiments can name, built the way they build
    // it for the paper's machine.
    let kinds = [
        SchedKind::Static,
        SchedKind::RoundRobin(1),
        SchedKind::HpeMatrix,
        SchedKind::HpeSurface,
        SchedKind::MatrixFine,
        SchedKind::Proposed(ProposedConfig::default()),
        SchedKind::Extended(ExtendedConfig::default()),
        SchedKind::Sampling(2),
        SchedKind::Tpe,
        SchedKind::CampStatic,
        SchedKind::CampDynamic,
        SchedKind::Oracle(ReplaySchedule::from_plan(&[AssignmentMap::pair(true)], None)),
    ];
    let mut schedulers: Vec<Box<dyn Scheduler>> = kinds.iter().map(|k| k.build(&preds)).collect();
    for sched in &mut schedulers {
        let mut sys = quick_system(pair("apsi", "gzip", 11));
        let r = sys.run(&mut **sched, 150_000, 20_000_000);
        assert!(
            r.threads[0].instructions + r.threads[1].instructions >= 150_000,
            "{} did not finish",
            r.scheduler
        );
        assert!(r.threads[0].joules > 0.0);
        assert!(r.ipc_per_watt().iter().all(|p| *p > 0.0), "{}", r.scheduler);
    }
}

#[test]
fn runs_are_bit_deterministic_across_constructions() {
    let run = || {
        let mut sys = quick_system(pair("mpeg2_dec", "twolf", 21));
        let mut sched = TopoProposed::with_defaults(2);
        sys.run(&mut sched, 250_000, 25_000_000)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.swaps, b.swaps);
    assert_eq!(a.threads[0].instructions, b.threads[0].instructions);
    assert_eq!(a.threads[1].instructions, b.threads[1].instructions);
    assert_eq!(a.threads[0].joules.to_bits(), b.threads[0].joules.to_bits());
}

#[test]
fn fairness_swap_shares_the_int_core_between_two_int_threads() {
    // Two INT-heavy threads: only the fairness rule can swap them.
    let mut sys = quick_system(pair("bitcount", "sha", 3));
    let mut sched = TopoProposed::new(
        ProposedConfig {
            fairness_interval_cycles: 200_000,
            ..ProposedConfig::default()
        },
        2,
    );
    let r = sys.run(&mut sched, 1_000_000, 50_000_000);
    assert!(
        r.swaps >= 2,
        "same-flavor pair must be rotated for fairness, got {} swaps",
        r.swaps
    );
    // Both threads should make comparable progress (fairness).
    let (i0, i1) = (r.threads[0].instructions, r.threads[1].instructions);
    let balance = i0.min(i1) as f64 / i0.max(i1) as f64;
    assert!(balance > 0.4, "progress balance {balance} too skewed");
}

#[test]
fn swap_overhead_sweep_is_monotone_in_total_cycles_for_round_robin() {
    // With an unconditional swapper, higher overhead must not make runs
    // finish in fewer cycles.
    let mut cycles = Vec::new();
    for ovh in [100u64, 10_000, 50_000] {
        let mut sys = DualCoreSystem::new(
            SystemConfig {
                epoch_cycles: 100_000,
                swap_overhead_cycles: ovh,
                ..SystemConfig::default()
            },
            pair("gzip", "susan", 9),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 200_000, 50_000_000);
        cycles.push(r.cycles);
    }
    assert!(
        cycles[0] <= cycles[1] && cycles[1] <= cycles[2],
        "cycles must grow with swap overhead: {cycles:?}"
    );
}

#[test]
fn energy_attribution_is_conserved_under_heavy_swapping() {
    // Short epochs so Round Robin swaps many times within the run.
    let mut sys = DualCoreSystem::new(
        SystemConfig {
            epoch_cycles: 50_000,
            ..SystemConfig::default()
        },
        pair("mixstress", "pi", 17),
    );
    let mut sched = TopoRoundRobin::every_epoch();
    let r = sys.run(&mut sched, 400_000, 40_000_000);
    assert!(r.swaps > 3, "RR must swap repeatedly");
    // Total energy is positive and split across both threads.
    assert!(r.threads[0].joules > 0.0 && r.threads[1].joules > 0.0);
    // Watts in a plausible physical range for these cores.
    for t in &r.threads {
        let w = t.watts();
        assert!((0.5..6.0).contains(&w), "implausible power {w} W");
    }
}

#[test]
fn facade_prelude_compiles_and_reaches_every_crate() {
    // Touch one item per re-exported crate through the facade.
    let _ = ampsched::isa::OpClass::FpMul;
    let _ = ampsched::mem::MemConfig::default();
    let _ = ampsched::cpu::CoreConfig::int_core();
    let _ = ampsched::power::EnergyModel::new(
        &ampsched::cpu::CoreConfig::fp_core(),
        &ampsched::mem::MemConfig::default(),
    );
    let _ = ampsched::sched::SwapRules::default();
    let _ = ampsched::metrics::Table::new(&["a"]);
    let _ = ampsched::workloads::suite::all();
    let _ = ampsched::experiments::common::Params::quick();
}
