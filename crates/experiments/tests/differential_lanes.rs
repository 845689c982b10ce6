//! Lane differential: running several schedulers as lanes of one
//! simulation (`run_pairs`, `MulticoreSystem::run_lanes`) must give each
//! scheduler exactly the run it gets alone — every count equal and every
//! f64 equal bit for bit — and must record the same `sim.*` telemetry and
//! the same trace-arena traffic as the separate runs.
//!
//! The sweep covers 18 seeded pairs with kind lists drawn from the whole
//! pair-scheduler pool, swap overheads of 100, 1000 and 100k cycles, L1
//! flushing on swaps, and both kernel paths; N-core shapes with parked
//! threads run the zoo through the generic loop. Scripted schedulers
//! force the edge cases of the fork rule: lanes that move to the same
//! assignment together, a window swap in the iteration of an epoch
//! decision, a three-way split, and forks at the last cycles before
//! `max_cycles`. Each kind gets one `experiments.run_pair` span, and the
//! spans never overlap. Scaling's zoo runs as lanes on each of its five
//! default shapes (`scaling::run_shape`) and must equal the isolated
//! runs, shape by shape, with the same `sim.*` telemetry and arena
//! traffic. CI's `differential` job runs it in release mode at quick
//! scale; a debug build runs fewer, shorter pairs, N-core and scaling
//! runs.

use ampsched_core::{
    AssignmentMap, ExtendedConfig, ProposedConfig, TopoDecision, TopoScheduler, TopoSnapshot,
};
use ampsched_experiments::common::{run_pairs, sample_pairs, Pair, Params, Predictors, SchedKind};
use ampsched_experiments::{profiling, scaling};
use ampsched_isa::MicroOp;
use ampsched_obs::{metrics, span};
use ampsched_system::{
    DecisionKind, DualCoreSystem, Lane, MulticoreSystem, SimPath, SystemConfig, TopoRunResult,
    Topology,
};
use ampsched_trace::{arena, suite, Workload};
use ampsched_util::{Json, StdRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tests here compare trace-arena traffic, and the arena is
/// process-wide: they run one at a time.
static ARENA: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ARENA.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every f64 of a result, as bits, in a fixed order.
fn f64_bits(r: &TopoRunResult) -> Vec<u64> {
    let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
    let mut bits = Vec::new();
    for t in &r.threads {
        bits.extend([t.joules.to_bits(), t.frequency_hz.to_bits()]);
    }
    for d in &r.decisions {
        for t in &d.threads {
            bits.extend([t.int_pct, t.fp_pct, t.ipc, t.ipc_per_watt].map(f64::to_bits));
        }
        bits.extend([d.realized_speedup, d.mispredict, d.regret].map(opt));
        if let Some(e) = d.explain {
            bits.extend([e.ratio_on_fp, e.ratio_on_int, e.predicted_speedup].map(opt));
        }
    }
    bits
}

fn assert_same(lane: &TopoRunResult, alone: &TopoRunResult, ctx: &str) {
    assert_eq!(format!("{lane:?}"), format!("{alone:?}"), "lane run differs from its isolated run: {ctx}");
    assert_eq!(f64_bits(lane), f64_bits(alone), "f64 bits differ: {ctx}");
}

/// The pair-scheduler pool kind lists are drawn from.
fn pool(params: &Params) -> Vec<SchedKind> {
    let mut kinds: Vec<SchedKind> = [500u64, 1000, 2000]
        .iter()
        .flat_map(|&window| {
            [5usize, 10].map(|history_depth| {
                SchedKind::Proposed(ProposedConfig {
                    window,
                    history_depth,
                    fairness_interval_cycles: params.system.epoch_cycles,
                    ..ProposedConfig::default()
                })
            })
        })
        .collect();
    kinds.extend([
        SchedKind::HpeMatrix,
        SchedKind::HpeSurface,
        SchedKind::RoundRobin(1),
        SchedKind::RoundRobin(2),
        SchedKind::Static,
        SchedKind::MatrixFine,
        SchedKind::Extended(ExtendedConfig::default()),
        SchedKind::Sampling(1),
        SchedKind::Sampling(2),
    ]);
    kinds
}

/// One pair's isolated run of `kind`: its own cold system.
fn alone(pair: &Pair, kind: &SchedKind, preds: &Predictors, params: &Params) -> TopoRunResult {
    let mut sys = DualCoreSystem::new(params.system, pair.workloads(params));
    sys.run(&mut *kind.build(preds), params.run_insts, params.max_cycles)
}

#[test]
fn pair_lanes_match_isolated_runs() {
    let _serial = serial();
    let preds = profiling::quick_predictors();
    let debug = cfg!(debug_assertions);
    let mut base = Params::quick();
    base.run_insts = if debug { 30_000 } else { 60_000 };
    base.system.epoch_cycles = 40_000;
    let pool = pool(&base);
    let mut rng = StdRng::seed_from_u64(25);
    let pairs = sample_pairs(if debug { 6 } else { 18 }, 4242);
    let mut forked = 0;
    for (i, pair) in pairs.iter().enumerate() {
        let mut params = base.clone();
        params.system.swap_overhead_cycles = [100, 1000, 100_000][i % 3];
        params.system.flush_l1_on_swap = i % 4 == 1;
        // The frozen reference kernel ticks every cycle: a few short runs.
        if i % 6 == 5 {
            params.system.sim_path = SimPath::Reference;
            params.run_insts = base.run_insts.min(25_000);
        }
        let n = 2 + rng.gen_range(0..4usize);
        let kinds: Vec<SchedKind> =
            (0..n).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect();
        let ctx = |k: usize| {
            format!(
                "pair {} ({:?}, swap {} cycles, flush_l1 {}) lane {k} of {kinds:?}",
                pair.label(),
                params.system.sim_path,
                params.system.swap_overhead_cycles,
                params.system.flush_l1_on_swap
            )
        };
        let lanes = run_pairs(pair, &kinds, preds, &params);
        assert_eq!(lanes.len(), kinds.len());
        for (k, kind) in kinds.iter().enumerate() {
            assert_same(&lanes[k], &alone(pair, kind, preds, &params), &ctx(k));
        }
        if lanes.windows(2).any(|w| w[0].cycles != w[1].cycles || w[0].swaps != w[1].swaps) {
            forked += 1;
        }
    }
    let min_forked = if debug { 2 } else { 8 };
    assert!(forked >= min_forked, "too few pairs diverged to exercise forks: {forked}");
}

#[test]
fn grouped_and_isolated_calls_record_the_same_telemetry_and_arena_traffic() {
    let _serial = serial();
    let preds = profiling::quick_predictors();
    let mut params = Params::quick();
    params.run_insts = 50_000;
    params.system.epoch_cycles = 40_000;
    let kinds = [
        SchedKind::proposed_default(&params),
        SchedKind::HpeMatrix,
        SchedKind::RoundRobin(1),
        SchedKind::RoundRobin(1),
    ];
    for pair in sample_pairs(3, 77) {
        arena::clear();
        let (isolated, solo) = metrics::scoped(|| {
            kinds.iter().map(|k| alone(&pair, k, preds, &params)).collect::<Vec<_>>()
        });
        arena::clear();
        let (grouped, together) = metrics::scoped(|| run_pairs(&pair, &kinds, preds, &params));
        for (k, (lane, alone)) in grouped.iter().zip(&isolated).enumerate() {
            assert_same(lane, alone, &format!("pair {} lane {k}", pair.label()));
        }
        let sim = |s: &metrics::Snapshot| format!("{:?}", s.filtered("sim."));
        assert_eq!(sim(&together), sim(&solo), "sim.* telemetry differs for {}", pair.label());
        assert!(sim(&solo).contains("sim.skip.joint"), "runs must skip");
        for name in ["trace.arena.hit", "trace.arena.miss"] {
            let ctx = format!("{name} for {}", pair.label());
            assert_eq!(counter(&together, name), counter(&solo, name), "{ctx}");
        }
    }
}

#[test]
fn each_kind_gets_one_run_pair_span_and_the_spans_never_overlap() {
    let _serial = serial();
    let preds = profiling::quick_predictors();
    let mut params = Params::quick();
    params.run_insts = 50_000;
    params.system.epoch_cycles = 40_000;
    // The second RR(1) never splits from the first.
    let kinds = [
        SchedKind::proposed_default(&params),
        SchedKind::RoundRobin(1),
        SchedKind::RoundRobin(1),
        SchedKind::HpeMatrix,
    ];
    let pair = &sample_pairs(1, 5)[0];
    span::clear();
    span::set_enabled(true);
    let runs = run_pairs(pair, &kinds, preds, &params);
    span::set_enabled(false);
    let path = std::env::temp_dir().join(format!("ampsched-lane-spans-{}.json", std::process::id()));
    span::write_trace_events(&path).expect("export spans");
    let text = std::fs::read_to_string(&path).expect("read spans");
    std::fs::remove_file(&path).ok();
    span::clear();
    let doc = Json::parse(&text).expect("trace JSON");
    let name = format!("experiments.run_pair {}", pair.label());
    let mut spans: Vec<(u64, u64)> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events")
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some(name.as_str()))
        .map(|e| {
            let field = |k| e.get(k).and_then(Json::as_u64).expect("ts and dur");
            (field("ts"), field("dur"))
        })
        .collect();
    assert_eq!(spans.len(), kinds.len(), "one span per kind");
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].0 + w[0].1 <= w[1].0, "spans overlap: {spans:?}");
    }
    assert!(runs[1].cycles == runs[2].cycles && spans.iter().any(|&(_, dur)| dur <= 1));
}

/// The N-core shapes: at least four cores, with parked threads.
fn shapes() -> Vec<Topology> {
    vec![
        Topology::big_little(2, 2, 6),
        Topology::big_little(1, 3, 5),
        Topology::big_little(3, 2, 7),
    ]
}

fn shape_workloads(topo: &Topology, seed: u64, params: &Params) -> Vec<Box<dyn Workload>> {
    let pool = suite::all();
    (0..topo.threads)
        .map(|t| params.workload_for_thread(pool[(seed as usize + 5 * t) % pool.len()].clone(), seed, t))
        .collect()
}

#[test]
fn n_core_zoo_lanes_match_isolated_runs() {
    let _serial = serial();
    let mut params = Params::quick();
    params.system.epoch_cycles = 30_000;
    let zoo = [
        SchedKind::proposed_default(&params),
        SchedKind::RoundRobin(1),
        SchedKind::RoundRobin(2),
        SchedKind::Static,
        SchedKind::Tpe,
        SchedKind::CampStatic,
        SchedKind::CampDynamic,
    ];
    for (i, topo) in shapes().iter().enumerate() {
        let seed = 900 + i as u64;
        let mut system = params.system;
        system.swap_overhead_cycles = [1000, 100_000, 100][i];
        system.flush_l1_on_swap = i == 2;
        let target = if cfg!(debug_assertions) { 40_000 } else { 80_000 };
        let lanes = zoo
            .iter()
            .map(|k| Lane {
                scheduler: k.build_topo(topo.threads, None),
                workloads: shape_workloads(topo, seed, &params),
            })
            .collect();
        let grouped = MulticoreSystem::run_lanes(system, topo, lanes, target, params.max_cycles, || ());
        for (k, kind) in zoo.iter().enumerate() {
            let mut sys = MulticoreSystem::new(system, topo, shape_workloads(topo, seed, &params));
            let isolated = sys.run(&mut *kind.build_topo(topo.threads, None), target, params.max_cycles);
            assert_same(&grouped[k], &isolated, &format!("{} lane {k} ({kind:?})", topo.label()));
        }
    }
}

#[test]
fn scaling_zoo_lanes_match_isolated_runs_on_every_default_shape() {
    let _serial = serial();
    let mut params = Params::quick();
    if cfg!(debug_assertions) {
        params.run_insts = 20_000;
    }
    let zoo = scaling::default_schedulers(&params);
    let system = scaling::sweep_system(&params);
    let mut forked = 0;
    for shape in scaling::default_shapes() {
        let topo = shape.topology();
        arena::clear();
        let (isolated, solo) = metrics::scoped(|| {
            zoo.iter()
                .map(|(_, kind)| {
                    let mut sys = MulticoreSystem::new(system, &topo, shape.workloads(&params));
                    let mut sched = kind.build_topo(shape.threads, None);
                    sys.run(&mut *sched, params.run_insts, params.max_cycles)
                })
                .collect::<Vec<_>>()
        });
        arena::clear();
        let (grouped, together) = metrics::scoped(|| scaling::run_shape(&shape, &zoo, &params));
        for (k, (lane, alone)) in grouped.iter().zip(&isolated).enumerate() {
            assert_same(lane, alone, &format!("{} lane {k} ({})", topo.label(), zoo[k].0));
        }
        let sim = |s: &metrics::Snapshot| format!("{:?}", s.filtered("sim."));
        assert_eq!(sim(&together), sim(&solo), "sim.* telemetry differs on {}", topo.label());
        for name in ["trace.arena.hit", "trace.arena.miss", "trace.arena.chunk.materialize"] {
            let ctx = format!("{name} on {}", topo.label());
            assert_eq!(counter(&together, name), counter(&solo, name), "{ctx}");
        }
        let lane_cycles: u64 = isolated.iter().map(|r| r.cycles).sum();
        assert_eq!(counter(&together, "kernel.lanes.lane_cycles"), lane_cycles);
        assert!(counter(&together, "kernel.lanes.sim_cycles") <= lane_cycles);
        forked += usize::from(counter(&together, "kernel.lanes.forks") > 0);
    }
    assert!(forked >= 3, "too few shapes forked: {forked}");
}

/// A counter's value in `s`, 0 when absent.
fn counter(s: &metrics::Snapshot, name: &str) -> u64 {
    s.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// A scheduler that plays a fixed plan: each step reassigns at the first
/// decision point of its kind at or after its cycle, once, in order.
struct Scripted {
    name: &'static str,
    window: Option<u64>,
    plan: Vec<(DecisionKind, u64, AssignmentMap)>,
    next: usize,
}

impl Scripted {
    fn new(name: &'static str, window: Option<u64>, plan: Vec<(DecisionKind, u64, AssignmentMap)>) -> Self {
        Scripted { name, window, plan, next: 0 }
    }

    fn decide(&mut self, kind: DecisionKind, snap: &TopoSnapshot) -> TopoDecision {
        match self.plan.get(self.next) {
            Some((k, at, to)) if *k == kind && snap.cycle >= *at => {
                self.next += 1;
                TopoDecision::Reassign(to.clone())
            }
            _ => TopoDecision::Stay,
        }
    }
}

impl TopoScheduler for Scripted {
    fn name(&self) -> &'static str {
        self.name
    }
    fn window_insts(&self) -> Option<u64> {
        self.window
    }
    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.decide(DecisionKind::Window, snap)
    }
    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.decide(DecisionKind::Epoch, snap)
    }
}

/// A workload that counts the ops pulled from it into a shared tally.
struct Counted(Box<dyn Workload>, Arc<AtomicU64>);

impl Workload for Counted {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn next_op(&mut self) -> MicroOp {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.next_op()
    }
    fn current_phase(&self) -> usize {
        self.0.current_phase()
    }
}

/// Run `scripts` as lanes and alone over `topo`; assert each lane equals
/// its isolated run and return the lanes' results with the ops each
/// lane's own workloads handed out.
fn scripted_runs(
    topo: &Topology,
    system: SystemConfig,
    scripts: &dyn Fn() -> Vec<Scripted>,
    target: u64,
    max_cycles: u64,
) -> Vec<(TopoRunResult, u64)> {
    let params = Params::quick();
    let seed = 31;
    let tallies: Vec<Arc<AtomicU64>> = scripts().iter().map(|_| Arc::default()).collect();
    let lanes = scripts()
        .into_iter()
        .zip(&tallies)
        .map(|(s, tally)| Lane {
            scheduler: Box::new(s),
            workloads: shape_workloads(topo, seed, &params)
                .into_iter()
                .map(|w| Box::new(Counted(w, tally.clone())) as Box<dyn Workload>)
                .collect(),
        })
        .collect();
    let grouped = MulticoreSystem::run_lanes(system, topo, lanes, target, max_cycles, || ());
    for (k, mut script) in scripts().into_iter().enumerate() {
        let mut sys = MulticoreSystem::new(system, topo, shape_workloads(topo, seed, &params));
        let isolated = sys.run(&mut script, target, max_cycles);
        assert_same(&grouped[k], &isolated, &format!("{} scripted lane {k}", topo.label()));
    }
    grouped
        .into_iter()
        .zip(tallies)
        .map(|(r, t)| (r, t.load(Ordering::Relaxed)))
        .collect()
}

fn swapped(topo: &Topology, a: usize, b: usize) -> AssignmentMap {
    let mut map = AssignmentMap::baseline(topo.cores.len(), topo.threads);
    map.swap_threads(a, b);
    map
}

fn changed_at(r: &TopoRunResult, kind: DecisionKind, cycle: u64) -> bool {
    r.decisions.iter().any(|d| d.changed && d.kind == kind && d.cycle == cycle)
}

#[test]
fn lanes_moving_to_the_same_assignment_stay_merged() {
    let _serial = serial();
    let topo = Topology::big_little(2, 2, 6);
    let system = SystemConfig { epoch_cycles: 20_000, ..SystemConfig::default() };
    // Both move thread 0 out for parked thread 4 at the second epoch, then
    // back at the fourth; they differ only in name and window.
    let plan = || {
        vec![
            (DecisionKind::Epoch, 40_000, swapped(&topo, 0, 4)),
            (DecisionKind::Epoch, 80_000, AssignmentMap::baseline(4, 6)),
        ]
    };
    let scripts = || {
        vec![
            Scripted::new("a", None, plan()),
            Scripted::new("b", Some(700), plan()),
            Scripted::new("c", None, plan()),
        ]
    };
    let runs = scripted_runs(&topo, system, &scripts, 60_000, 150_000);
    assert!(runs.iter().all(|(r, _)| r.swaps == 2));
    assert!(runs[0].1 > 0, "the first lane's workloads drive the machine");
    assert_eq!(runs[1].1, 0, "a lane that never diverges never reads its own workloads");
    assert_eq!(runs[2].1, 0, "a lane that never diverges never reads its own workloads");
}

#[test]
fn a_window_swap_in_an_epoch_iteration_forks_before_the_epoch_decision() {
    let _serial = serial();
    let topo = Topology::big_little(2, 2, 6);
    let mut exercised = 0;
    for epoch in [10_000u64, 12_000, 15_000, 20_000, 25_000] {
        let system = SystemConfig { epoch_cycles: epoch, ..SystemConfig::default() };
        // Lane 0 keeps everything; lane 1 swaps two running threads at
        // the first window at or after the second epoch boundary, then
        // parks thread 1 at the epoch decision of the same iteration;
        // lane 2 does only the epoch move.
        let scripts = || {
            vec![
                Scripted::new("keep", Some(1), Vec::new()),
                Scripted::new(
                    "window-then-epoch",
                    Some(1),
                    vec![
                        (DecisionKind::Window, 2 * epoch, swapped(&topo, 0, 2)),
                        (DecisionKind::Epoch, 2 * epoch, {
                            let mut m = swapped(&topo, 0, 2);
                            m.swap_threads(1, 5);
                            m
                        }),
                    ],
                ),
                Scripted::new(
                    "epoch-only",
                    None,
                    vec![(DecisionKind::Epoch, 2 * epoch, swapped(&topo, 1, 5))],
                ),
            ]
        };
        let runs = scripted_runs(&topo, system, &scripts, 1_000_000, 4 * epoch);
        let r = &runs[1].0;
        if changed_at(r, DecisionKind::Window, 2 * epoch) && changed_at(r, DecisionKind::Epoch, 2 * epoch) {
            exercised += 1;
        }
        assert_eq!(runs[0].0.swaps, 0);
        assert!(runs[1].1 > 0 && runs[2].1 > 0, "both diverging lanes fork");
    }
    assert!(exercised >= 2, "a window swap must share an iteration with an epoch decision");
}

#[test]
fn one_decision_point_can_split_a_group_three_ways() {
    let _serial = serial();
    let topo = Topology::big_little(1, 3, 5);
    let system = SystemConfig {
        epoch_cycles: 25_000,
        swap_overhead_cycles: 100_000,
        flush_l1_on_swap: true,
        ..SystemConfig::default()
    };
    let at = |to| vec![(DecisionKind::Epoch, 50_000, to)];
    let scripts = || {
        vec![
            Scripted::new("x", None, at(swapped(&topo, 0, 4))),
            Scripted::new("stay", None, Vec::new()),
            Scripted::new("y", None, at(swapped(&topo, 1, 3))),
            Scripted::new("x-too", Some(2000), at(swapped(&topo, 0, 4))),
            Scripted::new("stay-too", Some(900), Vec::new()),
        ]
    };
    let runs = scripted_runs(&topo, system, &scripts, 1_000_000, 200_000);
    assert!(runs[0].1 > 0 && runs[1].1 > 0 && runs[2].1 > 0, "three groups run");
    assert_eq!(runs[3].1, 0, "x-too stays with x");
    assert_eq!(runs[4].1, 0, "stay-too stays with stay");
}

#[test]
fn forks_at_the_last_cycles_before_max_cycles_finish_correctly() {
    let _serial = serial();
    let topo = Topology::duo();
    for sim_path in [SimPath::Fast, SimPath::Reference] {
        for max_cycles in [30_000u64, 30_001, 40_000] {
            let system = SystemConfig { epoch_cycles: 10_000, sim_path, ..SystemConfig::default() };
            let mut hits = 0;
            for last in [max_cycles - 1, max_cycles] {
                let scripts = || {
                    vec![
                        Scripted::new("keep", Some(1), Vec::new()),
                        Scripted::new(
                            "late",
                            Some(1),
                            vec![(DecisionKind::Window, last, AssignmentMap::pair(true))],
                        ),
                    ]
                };
                let runs = scripted_runs(&topo, system, &scripts, 1_000_000, max_cycles);
                let late = &runs[1].0;
                assert_eq!(late.cycles, max_cycles);
                if late.decisions.iter().any(|d| d.changed && d.cycle >= max_cycles - 1) {
                    hits += 1;
                    assert!(runs[1].1 > 0, "the late lane forked");
                }
            }
            assert!(hits >= 1, "no fork within one cycle of max_cycles {max_cycles} ({sim_path:?})");
        }
    }
}
