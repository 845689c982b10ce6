//! Property suite for the generalized scheduler zoo: every
//! [`TopoScheduler`] must honor the topology contracts documented in
//! `ampsched_core::topo` on arbitrary machine shapes and counter
//! streams —
//!
//! 1. **Validity**: every `Reassign` is a valid partial bijection of the
//!    same shape — each thread maps to at most one core slot, no core is
//!    double-booked, and the map is work-conserving.
//! 2. **Epoch boundaries**: window decisions never change the parked
//!    set; only epoch decisions may park or unpark threads.
//! 3. **Determinism**: replaying the same snapshot stream through a
//!    fresh (or `reset()`) instance reproduces the decision stream
//!    exactly.
//!
//! Runs on the in-tree `util::check` harness with a fixed seed; failing
//! shapes shrink and persist to `results/corpus/core_topo_schedulers.json`.

use ampsched_core::{
    AssignmentMap, CampScheduler, CoreTraits, ExtendedScheduler, HpePredictor,
    MatrixFineScheduler, OracleScheduler, ProfilePoint, RatioMatrix, ReplaySchedule,
    SamplingScheduler, ThreadWindow, TopoDecision, TopoHpe, TopoProposed, TopoRoundRobin,
    TopoScheduler, TopoSnapshot, TopoStatic, TopoThreadObs, TpeScheduler,
};
use ampsched_util::check::{Checker, Source};
use ampsched_util::{prop_assert, prop_assert_eq};

const SEED: u64 = 0x7090_0002;

fn checker() -> Checker {
    Checker::new(SEED).cases(if cfg!(debug_assertions) { 24 } else { 64 }).suite("core_topo_schedulers")
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

/// Every zoo member, built fresh for a topology with `threads` threads.
fn zoo(threads: usize) -> Vec<Box<dyn TopoScheduler>> {
    let matrix = RatioMatrix::from_points(&predictor_points());
    vec![
        Box::new(TopoStatic),
        Box::new(TopoRoundRobin::every_epoch()),
        Box::new(TopoRoundRobin::new(3)),
        Box::new(TopoProposed::with_defaults(threads)),
        Box::new(TopoHpe::new(HpePredictor::Matrix(matrix.clone()))),
        Box::new(MatrixFineScheduler::new(HpePredictor::Matrix(matrix), threads)),
        Box::new(ExtendedScheduler::with_defaults(threads)),
        Box::new(SamplingScheduler::new(2)),
        Box::new(TpeScheduler::new()),
        Box::new(CampScheduler::camp_static(threads)),
        Box::new(CampScheduler::camp_dynamic(threads)),
    ]
}

fn arb_traits(s: &mut Source, index: usize) -> CoreTraits {
    CoreTraits {
        index,
        fp_flavored: s.bool(),
        frequency_ghz: s.f64_in(0.5, 4.0),
        int_throughput: s.f64_in(0.5, 8.0),
        fp_throughput: s.f64_in(0.5, 8.0),
        dispatch_width: s.u8_in(1, 5),
    }
}

fn arb_window(s: &mut Source, running: bool) -> ThreadWindow {
    if !running {
        // Parked the whole period: the system reports an all-zero mix
        // window spanning the period.
        return ThreadWindow { cycles: s.u64_in(1, 100_000), ..ThreadWindow::default() };
    }
    let a = s.f64_in(0.0, 100.0);
    let b = s.f64_in(0.0, 100.0);
    let int_pct = a.min(100.0 - b.min(100.0));
    ThreadWindow {
        int_pct,
        fp_pct: b.min(100.0 - int_pct),
        mem_pct: 0.0,
        branch_pct: 0.0,
        instructions: s.u64_in(0, 50_000),
        cycles: s.u64_in(1, 100_000),
        joules: s.f64_in(0.0, 0.01),
    }
}

/// A machine shape plus a replayable stream of per-step counter draws.
#[derive(Debug, Clone)]
struct Scenario {
    cores: Vec<CoreTraits>,
    threads: usize,
    /// Pre-drawn per-step, per-thread (running-window, parked-window)
    /// pairs so a replay sees the identical counter stream.
    steps: Vec<Vec<(ThreadWindow, ThreadWindow)>>,
    /// Initial shuffle: pairs of thread ids to swap from the baseline.
    shuffle: Vec<(usize, usize)>,
}

fn gen_scenario(s: &mut Source) -> Scenario {
    let n_cores = s.usize_in(1, 9);
    let threads = s.usize_in(1, 17);
    let n_steps = s.usize_in(4, 13);
    Scenario {
        cores: (0..n_cores).map(|i| arb_traits(s, i)).collect(),
        threads,
        steps: (0..n_steps)
            .map(|_| (0..threads).map(|_| (arb_window(s, true), arb_window(s, false))).collect())
            .collect(),
        shuffle: (0..s.usize_in(0, 4))
            .map(|_| (s.usize_in(0, threads), s.usize_in(0, threads)))
            .collect(),
    }
}

fn start_assignment(sc: &Scenario) -> AssignmentMap {
    let mut map = AssignmentMap::baseline(sc.cores.len(), sc.threads);
    for &(a, b) in &sc.shuffle {
        if a != b {
            map.swap_threads(a, b);
        }
    }
    map
}

/// One recorded decision: (step, was_epoch, resulting thread→core table).
type DecisionLog = Vec<(usize, bool, Vec<Option<usize>>)>;

/// Drive one scheduler through the scenario like the system would:
/// snapshots carry the *current* assignment, `Reassign`s are adopted,
/// and every step alternates windows with epochs (every 3rd step is an
/// epoch). Contract violations fail the property inline; the adopted
/// decision stream is returned for determinism comparison.
fn drive(
    sched: &mut dyn TopoScheduler,
    sc: &Scenario,
) -> Result<DecisionLog, String> {
    let mut assignment = start_assignment(sc);
    let mut log = Vec::new();
    let mut cycle = 10_000u64;
    for (step, draws) in sc.steps.iter().enumerate() {
        let is_epoch = step % 3 == 2;
        let threads: Vec<TopoThreadObs> = (0..sc.threads)
            .map(|t| {
                let core = assignment.core_of(t);
                let (running, parked) = draws[t];
                TopoThreadObs {
                    window: if core.is_some() { running } else { parked },
                    total_instructions: (step as u64 + 1) * 10_000 + t as u64 * 777,
                    core,
                }
            })
            .collect();
        let snap = TopoSnapshot {
            cycle,
            assignment: assignment.clone(),
            cores: sc.cores.clone(),
            threads,
        };
        let decision = if is_epoch { sched.on_epoch(&snap) } else { sched.on_window(&snap) };
        if let TopoDecision::Reassign(next) = decision {
            if next.cores() != assignment.cores() || next.threads() != assignment.threads() {
                return Err(format!("[{}] step {step}: reassignment changed the shape", sched.name()));
            }
            next.validate().map_err(|e| {
                format!("[{}] step {step}: invalid reassignment: {e}", sched.name())
            })?;
            if !is_epoch && !next.same_parked_set(&assignment) {
                return Err(format!(
                    "[{}] step {step}: window decision changed the parked set",
                    sched.name()
                ));
            }
            assignment = next;
        }
        log.push((
            step,
            is_epoch,
            (0..sc.threads).map(|t| assignment.core_of(t)).collect(),
        ));
        cycle += 50_000;
    }
    Ok(log)
}

/// Contracts 1 + 2: every decision from every zoo member is a valid,
/// shape-preserving assignment, and window decisions never repark.
#[test]
fn zoo_decisions_are_valid_and_respect_epoch_boundaries() {
    checker().run("zoo_contracts", gen_scenario, |sc| {
        for mut sched in zoo(sc.threads) {
            match drive(&mut *sched, sc) {
                Ok(log) => prop_assert_eq!(log.len(), sc.steps.len(), "every step logged"),
                Err(msg) => prop_assert!(false, "{}", msg),
            }
        }
        Ok(())
    });
}

/// Contract 3: the decision stream is a pure function of the snapshot
/// stream — a fresh instance and a `reset()` instance both reproduce it.
#[test]
fn zoo_decision_streams_are_deterministic() {
    checker().run("zoo_determinism", gen_scenario, |sc| {
        for (i, mut sched) in zoo(sc.threads).into_iter().enumerate() {
            let first = drive(&mut *sched, sc);
            let mut fresh = zoo(sc.threads).swap_remove(i);
            let second = drive(&mut *fresh, sc);
            prop_assert_eq!(&first, &second, "fresh instance must replay identically");
            sched.reset();
            let third = drive(&mut *sched, sc);
            prop_assert_eq!(&first, &third, "reset() instance must replay identically");
        }
        Ok(())
    });
}

/// A random valid assignment for the scenario's shape: the baseline
/// perturbed by a handful of thread swaps (swaps preserve validity, and
/// a parked↔running swap changes the parked set, which is exactly the
/// hostile input the oracle's window guard must reject).
fn arb_assignment(s: &mut Source, cores: usize, threads: usize) -> AssignmentMap {
    let mut map = AssignmentMap::baseline(cores, threads);
    for _ in 0..s.usize_in(0, 6) {
        let a = s.usize_in(0, threads);
        let b = s.usize_in(0, threads);
        if a != b {
            map.swap_threads(a, b);
        }
    }
    map
}

/// A scenario plus a shape-matched random replay schedule for the
/// clairvoyant oracle, with entries both valid and hostile (`None`
/// holes, parked-set changes at window cadence).
#[derive(Debug, Clone)]
struct OracleScenario {
    scenario: Scenario,
    schedule: ReplaySchedule,
}

fn gen_oracle_scenario(s: &mut Source) -> OracleScenario {
    let scenario = gen_scenario(s);
    let (cores, threads) = (scenario.cores.len(), scenario.threads);
    let entry = |s: &mut Source| {
        s.bool().then(|| arb_assignment(s, cores, threads))
    };
    let n = scenario.steps.len();
    let schedule = ReplaySchedule {
        window_insts: Some(s.u64_in(1_000, 100_000)),
        windows: (0..s.usize_in(0, n + 2)).map(|_| entry(s)).collect(),
        epochs: (0..s.usize_in(0, n + 2)).map(|_| entry(s)).collect(),
    };
    OracleScenario { scenario, schedule }
}

/// The oracle scheduler honors the same contracts as the rest of the
/// zoo even on adversarial schedules: shape-mismatched or reparking
/// entries degrade to `Stay`, never to an invalid adoption, and the
/// replay is deterministic across fresh and `reset()` instances.
#[test]
fn oracle_replay_honors_contracts_and_is_deterministic() {
    checker().run("oracle_replay", gen_oracle_scenario, |os| {
        let mut sched = OracleScheduler::new(os.schedule.clone());
        let first = drive(&mut sched, &os.scenario);
        match &first {
            Ok(log) => prop_assert_eq!(log.len(), os.scenario.steps.len(), "every step logged"),
            Err(msg) => prop_assert!(false, "{}", msg),
        }
        let mut fresh = OracleScheduler::new(os.schedule.clone());
        let second = drive(&mut fresh, &os.scenario);
        prop_assert_eq!(&first, &second, "fresh oracle must replay identically");
        sched.reset();
        let third = drive(&mut sched, &os.scenario);
        prop_assert_eq!(&first, &third, "reset() oracle must replay identically");
        Ok(())
    });
}

/// A schedule built for a *different* shape never perturbs the run: the
/// oracle detects the mismatch per entry and stays put, so the decision
/// log matches the static scheduler's exactly.
#[test]
fn oracle_rejects_foreign_shapes_wholesale() {
    checker().run("oracle_foreign_shape", gen_scenario, |sc| {
        // Entries sized for one more core and one more thread than the
        // scenario actually has.
        let foreign = AssignmentMap::baseline(sc.cores.len() + 1, sc.threads + 1);
        let schedule = ReplaySchedule {
            window_insts: Some(10_000),
            windows: vec![Some(foreign.clone()); sc.steps.len()],
            epochs: vec![Some(foreign); sc.steps.len()],
        };
        let mut oracle = OracleScheduler::new(schedule);
        let oracle_log = drive(&mut oracle, sc);
        let static_log = drive(&mut TopoStatic, sc);
        prop_assert_eq!(&oracle_log, &static_log, "foreign entries must all degrade to Stay");
        Ok(())
    });
}

/// The oversubscription contract concretely: on a 2-core × 4-thread
/// shape, repeated window decisions from every zoo member leave the
/// parked pair untouched, while round-robin epochs cycle every thread
/// through the park slots.
#[test]
fn window_decisions_never_unpark_on_oversubscribed_shapes() {
    let traits = |index: usize, fp: bool| CoreTraits {
        index,
        fp_flavored: fp,
        frequency_ghz: 2.0,
        int_throughput: if fp { 2.0 } else { 6.0 },
        fp_throughput: if fp { 4.0 } else { 1.0 },
        dispatch_width: 2,
    };
    let cores = vec![traits(0, true), traits(1, false)];
    let assignment = AssignmentMap::baseline(2, 4);
    for mut sched in zoo(4) {
        for step in 0..6u64 {
            // Extreme, step-varying compositions: INT-heavy on the FP
            // core and vice versa, the strongest possible temptation for
            // any window policy to reach for a parked thread.
            let threads: Vec<TopoThreadObs> = (0..4)
                .map(|t| {
                    let running = assignment.core_of(t).is_some();
                    let window = if running {
                        ThreadWindow {
                            int_pct: if t == 0 { 85.0 } else { 3.0 },
                            fp_pct: if t == 0 { 2.0 } else { 70.0 },
                            instructions: 1_000 + 100 * step + t as u64,
                            cycles: 5_000,
                            joules: 1e-6,
                            ..ThreadWindow::default()
                        }
                    } else {
                        ThreadWindow { cycles: 5_000, ..ThreadWindow::default() }
                    };
                    TopoThreadObs {
                        window,
                        total_instructions: 10_000 * (t as u64 + 1),
                        core: assignment.core_of(t),
                    }
                })
                .collect();
            let snap = TopoSnapshot {
                cycle: 10_000 + step * 5_000,
                assignment: assignment.clone(),
                cores: cores.clone(),
                threads,
            };
            if let TopoDecision::Reassign(next) = sched.on_window(&snap) {
                next.validate().expect("window reassignment must be valid");
                assert!(
                    next.same_parked_set(&assignment),
                    "[{}] window decision reparked",
                    sched.name()
                );
            }
        }
    }
}
