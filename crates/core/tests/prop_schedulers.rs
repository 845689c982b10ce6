//! Property tests on the paper's dual-core machine (FP core 0, INT core
//! 1, two threads): every scheduler is total (never panics), bounded in
//! its swap rate, and deterministic over arbitrary counter sequences.
//! Runs on the in-tree `util::check` harness with a fixed seed.

use ampsched_core::{
    AssignmentMap, CoreTraits, ExtendedScheduler, HpePredictor, MatrixFineScheduler,
    ProfilePoint, ProposedConfig, RatioMatrix, RatioSurface, SamplingScheduler, ThreadWindow, TopoDecision,
    TopoHpe, TopoProposed, TopoRoundRobin, TopoScheduler, TopoSnapshot, TopoStatic,
    TopoThreadObs,
};
use ampsched_util::check::{Checker, Source};
use ampsched_util::{prop_assert, prop_assert_eq};

const SEED: u64 = 0x5c4e_0004;

fn checker() -> Checker {
    Checker::new(SEED).cases(32).suite("core_schedulers")
}

fn predictor_points() -> Vec<ProfilePoint> {
    let mut pts = Vec::new();
    for i in 0..=10 {
        for f in 0..=(10 - i) {
            let int_pct = i as f64 * 10.0;
            let fp_pct = f as f64 * 10.0;
            pts.push(ProfilePoint {
                int_pct,
                fp_pct,
                ppw_int_core: (1.0 + 0.012 * int_pct - 0.02 * fp_pct).max(0.2),
                ppw_fp_core: 1.0,
            });
        }
    }
    pts
}

fn arb_window(s: &mut Source) -> ThreadWindow {
    let a = s.f64_in(0.0, 100.0);
    let b = s.f64_in(0.0, 100.0);
    let instructions = s.u64_in(0, 5000);
    let cycles = s.u64_in(1, 10_000);
    let joules = s.f64_in(0.0, 0.01);
    // Force a valid partition: int + fp <= 100.
    let int_pct = a.min(100.0 - b.min(100.0));
    ThreadWindow {
        int_pct,
        fp_pct: b.min(100.0 - int_pct),
        mem_pct: 0.0,
        branch_pct: 0.0,
        instructions,
        cycles,
        joules,
    }
}

fn duo_core(index: usize, fp: bool) -> CoreTraits {
    CoreTraits {
        index,
        fp_flavored: fp,
        frequency_ghz: 2.0,
        int_throughput: if fp { 2.0 } else { 6.0 },
        fp_throughput: if fp { 4.0 } else { 1.0 },
        dispatch_width: 2,
    }
}

/// A dual-core snapshot with the given thread windows and assignment.
fn duo_snapshot(cycle: u64, assignment: AssignmentMap, windows: [ThreadWindow; 2]) -> TopoSnapshot {
    TopoSnapshot {
        cycle,
        cores: vec![duo_core(0, true), duo_core(1, false)],
        threads: windows
            .iter()
            .enumerate()
            .map(|(t, &window)| TopoThreadObs {
                window,
                total_instructions: 0,
                core: assignment.core_of(t),
            })
            .collect(),
        assignment,
    }
}

fn arb_snapshot(s: &mut Source) -> TopoSnapshot {
    let t0 = arb_window(s);
    let t1 = arb_window(s);
    let cycle = s.u64_in(0, 100_000_000);
    let swapped = s.bool();
    duo_snapshot(cycle, AssignmentMap::pair(swapped), [t0, t1])
}

fn all_schedulers() -> Vec<Box<dyn TopoScheduler>> {
    let pts = predictor_points();
    let matrix = RatioMatrix::from_points(&pts);
    let surface = RatioSurface::from_points(&pts);
    vec![
        Box::new(TopoStatic),
        Box::new(TopoRoundRobin::every_epoch()),
        Box::new(TopoRoundRobin::new(2)),
        Box::new(TopoHpe::new(HpePredictor::Matrix(matrix.clone()))),
        Box::new(TopoHpe::new(HpePredictor::Surface(surface))),
        Box::new(MatrixFineScheduler::new(HpePredictor::Matrix(matrix), 2)),
        Box::new(TopoProposed::with_defaults(2)),
        Box::new(ExtendedScheduler::with_defaults(2)),
        Box::new(SamplingScheduler::new(2)),
    ]
}

/// Whether a decision on a dual-core snapshot is a valid outcome: stay,
/// or move to one of the two dual-core assignments.
fn is_duo_decision(d: &TopoDecision) -> bool {
    match d {
        TopoDecision::Stay => true,
        TopoDecision::Reassign(next) => {
            *next == AssignmentMap::pair(false) || *next == AssignmentMap::pair(true)
        }
    }
}

fn swaps(d: &TopoDecision, snap: &TopoSnapshot) -> bool {
    d.changes(&snap.assignment)
}

/// No scheduler panics or returns garbage on any snapshot sequence,
/// and resetting restores initial behaviour.
#[test]
fn schedulers_are_total_and_resettable() {
    checker().run(
        "schedulers_are_total_and_resettable",
        |s: &mut Source| s.vec_with(1, 59, arb_snapshot),
        |snaps| {
            for sched in &mut all_schedulers() {
                let mut first: Vec<TopoDecision> = Vec::with_capacity(snaps.len());
                for s in snaps {
                    let dw = sched.on_window(s);
                    let de = sched.on_epoch(s);
                    prop_assert!(is_duo_decision(&dw));
                    prop_assert!(is_duo_decision(&de));
                    first.push(dw);
                }
                sched.reset();
                let second: Vec<TopoDecision> = snaps
                    .iter()
                    .map(|s| {
                        let dw = sched.on_window(s);
                        let _ = sched.on_epoch(s);
                        dw
                    })
                    .collect();
                prop_assert_eq!(
                    first,
                    second,
                    "{} must be deterministic after reset",
                    sched.name()
                );
            }
            Ok(())
        },
    );
}

/// The proposed scheme can never swap more than once per history
/// depth worth of windows (the vote ring must refill).
#[test]
fn proposed_swap_rate_bounded_by_history() {
    checker().run(
        "proposed_swap_rate_bounded_by_history",
        |s: &mut Source| s.vec_with(20, 119, arb_snapshot),
        |snaps| {
            let mut sched = TopoProposed::with_defaults(2);
            let depth = ProposedConfig::default().history_depth as u64;
            let mut count = 0u64;
            for s in snaps {
                // Keep fairness out of the picture: short-cycle snapshots.
                let mut s = s.clone();
                s.cycle %= 1_000_000;
                if swaps(&sched.on_window(&s), &s) {
                    count += 1;
                }
            }
            prop_assert!(
                count <= snaps.len() as u64 / depth + 1,
                "{count} swaps in {} windows exceeds the vote-ring bound",
                snaps.len()
            );
            Ok(())
        },
    );
}

/// HPE never oscillates: for any *fixed* pair of compositions, once it
/// has swapped it must not swap again on the same (role-exchanged)
/// observations — regardless of how extreme the flavors are.
#[test]
fn hpe_cannot_ping_pong_on_stationary_compositions() {
    checker().run(
        "hpe_cannot_ping_pong_on_stationary_compositions",
        |s: &mut Source| (arb_window(s), arb_window(s)),
        |(t0, t1)| {
            let pts = predictor_points();
            let mut hpe = TopoHpe::new(HpePredictor::Matrix(RatioMatrix::from_points(&pts)));
            let mut assignment = AssignmentMap::pair(false);
            let mut count = 0;
            for cycle in 0..20u64 {
                let snap = duo_snapshot(cycle * 4_000_000, assignment.clone(), [*t0, *t1]);
                if let TopoDecision::Reassign(next) = hpe.on_epoch(&snap) {
                    count += 1;
                    assignment = next;
                }
            }
            prop_assert!(
                count <= 1,
                "stationary compositions must produce at most one swap, got {count}"
            );
            Ok(())
        },
    );
}

/// Round Robin's swap count is exactly floor(epochs / interval).
#[test]
fn round_robin_counts_exactly() {
    checker().run(
        "round_robin_counts_exactly",
        |s: &mut Source| {
            let n_epochs = s.u32_in(1, 100);
            let interval = s.u32_in(1, 5);
            let snap = arb_snapshot(s);
            (n_epochs, interval, snap)
        },
        |(n_epochs, interval, snap)| {
            let mut rr = TopoRoundRobin::new(*interval);
            let mut count = 0u32;
            for _ in 0..*n_epochs {
                if swaps(&rr.on_epoch(snap), snap) {
                    count += 1;
                }
            }
            prop_assert_eq!(count, n_epochs / interval);
            Ok(())
        },
    );
}
