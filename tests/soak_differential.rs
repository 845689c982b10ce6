//! Long-horizon system-level soak: the fast kernel (SoA tick, issue
//! horizons, wake caches, quiescence skip-ahead) must stay bit-identical
//! to the frozen reference kernel over *millions* of cycles of real
//! multiprogrammed execution — through epoch boundaries, window
//! decisions, and swap storms that flush pipelines mid-flight.
//!
//! Two layers:
//!
//! 1. A deterministic grid (3 seeds × 3 scheduler families, ≥1M cycles
//!    each in release) driven in lockstep chunks, comparing per-core
//!    state digests and committed-instruction counts at every checkpoint
//!    so a divergence is localized to a few thousand cycles, not a
//!    40-second run.
//! 2. A randomized scenario sweep under the property harness: shrinking
//!    on failure, with failing inputs persisted to
//!    `results/corpus/soak_differential.json` and replayed first on
//!    every later run.
//!
//! Both layers run twice through one lockstep driver: on the paper's
//! dual-core machine (`Topology::duo()`) and on a 4+4 big.LITTLE shape.

use ampsched::prelude::*;
use ampsched_util::check::{Checker, Source};
use ampsched_util::prop_assert;

/// Release soak horizon (per combo); debug builds shrink ~20×, keeping
/// `cargo test` affordable while release CI still soaks ≥1M cycles.
const SOAK_CYCLES: u64 = if cfg!(debug_assertions) { 60_000 } else { 1_200_000 };

/// Lockstep checkpoint granularity: both systems advance this many
/// cycles, then digests must match. Chunks also bound how far a
/// divergence can hide.
const CHUNK: u64 = 4096;

/// Swap-storm scheduler: requests a swap at *every* decision point, the
/// worst case for swap bookkeeping — each swap flushes both pipelines,
/// drops quiescence certificates, and restarts the wake caches.
struct StormScheduler {
    window: u64,
}

impl TopoScheduler for StormScheduler {
    fn name(&self) -> &'static str {
        "storm"
    }
    fn window_insts(&self) -> Option<u64> {
        Some(self.window)
    }
    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        swap(snap)
    }
    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        swap(snap)
    }
}

/// Exchange the two threads of a dual-core snapshot.
fn swap(snap: &TopoSnapshot) -> TopoDecision {
    let mut next = snap.assignment.clone();
    next.swap_threads(0, 1);
    TopoDecision::Reassign(next)
}

/// Factory for fresh scheduler instances — each soak side gets its own.
type MakeSched = dyn Fn() -> Box<dyn TopoScheduler>;

fn workloads(benches: &[&str], seed: u64) -> Vec<Box<dyn Workload>> {
    benches
        .iter()
        .enumerate()
        .map(|(t, name)| {
            Box::new(TraceGenerator::for_thread(
                suite::by_name(name).expect("benchmark"),
                seed,
                t,
            )) as Box<dyn Workload>
        })
        .collect()
}

fn system(
    sim_path: ampsched_system::SimPath,
    topo: &Topology,
    benches: &[&str],
    seed: u64,
) -> MulticoreSystem {
    MulticoreSystem::new(
        SystemConfig {
            // Short epochs so a soak crosses many epoch decisions.
            epoch_cycles: 50_000,
            sim_path,
            ..SystemConfig::default()
        },
        topo,
        workloads(benches, seed),
    )
}

/// Drive a fast and a reference system over the same workloads in
/// lockstep chunks of `CHUNK` cycles, asserting digest, counter,
/// swap/migration and thread→core assignment equality at every
/// checkpoint. Both systems are chunked identically, so the
/// (chunk-relative) window/epoch bookkeeping matches by construction.
/// Returns the checkpoint count.
fn soak_lockstep(
    topo: &Topology,
    benches: &[&str],
    seed: u64,
    make_sched: &MakeSched,
    cycles: u64,
) -> Result<u64, String> {
    let mut fast = system(ampsched_system::SimPath::Fast, topo, benches, seed);
    let mut refc = system(ampsched_system::SimPath::Reference, topo, benches, seed);
    let mut fast_sched = make_sched();
    let mut ref_sched = make_sched();
    let mut checkpoints = 0u64;
    while fast.cycle() < cycles {
        // Instruction target far above what a chunk can commit: the
        // chunk boundary is the cycle budget, identical on both sides.
        fast.run(&mut *fast_sched, u64::MAX / 2, CHUNK);
        refc.run(&mut *ref_sched, u64::MAX / 2, CHUNK);
        checkpoints += 1;
        let cp = format!(
            "topology {} threads {} seed {seed} sched {} cycle {}",
            topo.label(),
            benches.join("+"),
            fast_sched.name(),
            fast.cycle()
        );
        if fast.cycle() != refc.cycle() {
            return Err(format!("cycle counts diverged at checkpoint: {cp}"));
        }
        if fast.core_digests() != refc.core_digests() {
            return Err(format!("core state digests diverged: {cp}"));
        }
        if fast.thread_instructions() != refc.thread_instructions() {
            return Err(format!("committed instruction counts diverged: {cp}"));
        }
        if fast.swaps() != refc.swaps() || fast.migrations() != refc.migrations() {
            return Err(format!("swap/migration counts diverged: {cp}"));
        }
        if fast.assignment() != refc.assignment() {
            return Err(format!("assignments diverged: {cp}"));
        }
    }
    Ok(checkpoints)
}

/// The deterministic grid: 3 seeds × 3 scheduler families, each soaked
/// for `SOAK_CYCLES` with per-chunk digest equality. The storm scheduler
/// swaps at every window (an intentional worst case); round-robin swaps
/// every epoch; the proposed scheme swaps on its own rules.
#[test]
fn soak_grid_fast_matches_reference() {
    let pairs = [("gcc", "equake"), ("mcf", "swim"), ("intstress", "fpstress")];
    let schedulers: [(&str, &MakeSched); 3] = [
        ("storm", &|| Box::new(StormScheduler { window: 20_000 })),
        ("rr", &|| Box::new(TopoRoundRobin::every_epoch())),
        ("static", &|| Box::new(TopoStatic)),
    ];
    let duo = Topology::duo();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let seed = 2012 + i as u64;
        for (label, make) in &schedulers {
            let checkpoints = soak_lockstep(&duo, &[a, b], seed, *make, SOAK_CYCLES)
                .unwrap_or_else(|msg| panic!("[{label}] {msg}"));
            assert!(
                checkpoints >= SOAK_CYCLES / CHUNK,
                "soak must cover the full horizon ({checkpoints} checkpoints)"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// N-core tier: the generalized MulticoreSystem soaked fast-vs-reference
// on a big.LITTLE 4+4 shape under the zoo schedulers that move threads
// the most (TPE re-ranks every epoch, CAMP-dynamic re-matches every
// epoch, round-robin rotates unconditionally).
// ---------------------------------------------------------------------------

const NCORE_BENCHES: [&str; 8] =
    ["gcc", "equake", "mcf", "swim", "gsm", "intstress", "fpstress", "branchstress"];

/// Deterministic N-core grid: a stock 4+4 big.LITTLE running eight
/// threads, soaked for the full horizon under each mobile scheduler.
#[test]
fn soak_ncore_grid_fast_matches_reference() {
    let topo = Topology::big_little(4, 4, 8);
    let schedulers: [(&str, &MakeSched); 3] = [
        ("tpe", &|| Box::new(TpeScheduler::new())),
        ("camp-dynamic", &|| Box::new(CampScheduler::camp_dynamic(8))),
        ("rr", &|| Box::new(TopoRoundRobin::every_epoch())),
    ];
    for (i, (label, make)) in schedulers.iter().enumerate() {
        let checkpoints =
            soak_lockstep(&topo, &NCORE_BENCHES, 2012 + i as u64, *make, SOAK_CYCLES)
                .unwrap_or_else(|msg| panic!("[{label}] {msg}"));
        assert!(
            checkpoints >= SOAK_CYCLES / CHUNK,
            "soak must cover the full horizon ({checkpoints} checkpoints)"
        );
    }
}

#[derive(Debug, Clone)]
struct NcoreScenario {
    /// Benchmark per thread (fuzzed length 5–8: both under- and
    /// oversubscription of the 4+4 shape).
    benches: Vec<&'static str>,
    seed: u64,
    // 0 = tpe, 1 = camp-dynamic, 2 = round-robin.
    sched: u8,
    cycles: u64,
}

fn gen_ncore_scenario(s: &mut Source) -> NcoreScenario {
    let n_threads = s.usize_in(5, 9);
    NcoreScenario {
        benches: (0..n_threads)
            .map(|_| NCORE_BENCHES[s.usize_in(0, NCORE_BENCHES.len())])
            .collect(),
        seed: s.u64_in(1, 1 << 32),
        sched: s.u8_in(0, 3),
        cycles: s.u64_in(50_000, if cfg!(debug_assertions) { 60_000 } else { 300_000 }),
    }
}

/// Randomized N-core scenarios on the fuzzed 4+4 topology: random thread
/// sets, trace seeds, scheduler, and horizon, shrunk and corpus-persisted
/// alongside the pair scenarios.
#[test]
fn soak_ncore_fuzzed_scenarios_fast_matches_reference() {
    Checker::new(0x50a7_0002)
        .cases(if cfg!(debug_assertions) { 3 } else { 8 })
        .suite("soak_differential")
        .run("ncore_soak_scenarios", gen_ncore_scenario, |sc| {
            let threads = sc.benches.len();
            let topo = Topology::big_little(4, 4, threads);
            let make: Box<MakeSched> = match sc.sched {
                0 => Box::new(|| Box::new(TpeScheduler::new()) as Box<dyn TopoScheduler>),
                1 => Box::new(move || {
                    Box::new(CampScheduler::camp_dynamic(threads)) as Box<dyn TopoScheduler>
                }),
                _ => Box::new(|| Box::new(TopoRoundRobin::every_epoch()) as Box<dyn TopoScheduler>),
            };
            match soak_lockstep(&topo, &sc.benches, sc.seed, &*make, sc.cycles) {
                Ok(n) => prop_assert!(n > 0, "soak must advance"),
                Err(msg) => prop_assert!(false, "{}", msg),
            }
            Ok(())
        });
}

#[derive(Debug, Clone)]
struct SoakScenario {
    bench_a: &'static str,
    bench_b: &'static str,
    seed: u64,
    // 0 = storm, 1 = round-robin, 2 = static.
    sched: u8,
    storm_window: u64,
    cycles: u64,
}

fn gen_scenario(s: &mut Source) -> SoakScenario {
    let names = ["gcc", "equake", "mcf", "swim", "gsm", "intstress", "fpstress", "branchstress"];
    SoakScenario {
        bench_a: names[s.usize_in(0, names.len())],
        bench_b: names[s.usize_in(0, names.len())],
        seed: s.u64_in(1, 1 << 32),
        sched: s.u8_in(0, 3),
        storm_window: s.u64_in(2_000, 40_000),
        cycles: s.u64_in(50_000, if cfg!(debug_assertions) { 60_000 } else { 400_000 }),
    }
}

/// Randomized scenarios under the property harness: random benchmark
/// pairs, trace seeds, scheduler, storm cadence, and horizon. On failure
/// the harness shrinks toward a minimal scenario and records it in the
/// corpus (`results/corpus/soak_differential.json`), so regressions
/// replay instantly in later runs.
#[test]
fn soak_fuzzed_scenarios_fast_matches_reference() {
    Checker::new(0x50a7_0001)
        .cases(if cfg!(debug_assertions) { 4 } else { 10 })
        .suite("soak_differential")
        .run("soak_scenarios", gen_scenario, |sc| {
            let make: Box<MakeSched> = match sc.sched {
                0 => {
                    let w = sc.storm_window;
                    Box::new(move || Box::new(StormScheduler { window: w }) as Box<dyn TopoScheduler>)
                }
                1 => Box::new(|| Box::new(TopoRoundRobin::every_epoch()) as Box<dyn TopoScheduler>),
                _ => Box::new(|| Box::new(TopoStatic) as Box<dyn TopoScheduler>),
            };
            let benches = [sc.bench_a, sc.bench_b];
            match soak_lockstep(&Topology::duo(), &benches, sc.seed, &*make, sc.cycles) {
                Ok(n) => prop_assert!(n > 0, "soak must advance"),
                Err(msg) => prop_assert!(false, "{}", msg),
            }
            Ok(())
        });
}
