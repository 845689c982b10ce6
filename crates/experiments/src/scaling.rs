//! Scaling sweep: cores × threads × scheduler over generalized
//! topologies.
//!
//! The paper evaluates one fixed 2-core × 2-thread machine; this
//! experiment asks how the scheduler zoo behaves as the machine and the
//! workload grow — symmetric big.LITTLE shapes, a lopsided 1fp+3int
//! shape, and an oversubscribed shape where threads outnumber cores and
//! epoch decisions must rotate the parked set. Every scheme swept here
//! is predictor-free (no offline profiling phase), so the whole sweep
//! runs standalone. Each shape's zoo runs as lanes of one simulation
//! from one cold machine, and the shapes run in parallel.

use ampsched_metrics::{improvement_pct, Table};
use ampsched_system::{Lane, SystemConfig, Topology, TopoRunResult};
use ampsched_trace::{BenchmarkSpec, Workload};
use ampsched_util::rng::StdRng;
use ampsched_util::Json;

use crate::common::{self, Params, SchedKind};
use crate::runner::parallel_map;

/// One machine shape of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeSpec {
    /// FP-flavored cores.
    pub fp: usize,
    /// INT-flavored cores.
    pub int: usize,
    /// Co-running threads (may exceed `fp + int`).
    pub threads: usize,
}

impl ShapeSpec {
    /// The machine of this shape.
    pub fn topology(&self) -> Topology {
        Topology::big_little(self.fp, self.int, self.threads)
    }

    /// The seed of this shape's thread set and workloads.
    fn seed(&self, params: &Params) -> u64 {
        params.seed ^ ((self.fp as u64) << 24 | (self.int as u64) << 16 | self.threads as u64)
    }

    /// The benchmarks this shape's threads run, by thread id.
    fn thread_set(&self, params: &Params) -> Vec<BenchmarkSpec> {
        sample_workloads(self.threads, self.seed(params))
    }

    /// Fresh workloads for this shape's threads, deterministic in the
    /// shape and `params.seed`, provisioned per `params`.
    pub fn workloads(&self, params: &Params) -> Vec<Box<dyn Workload>> {
        let seed = self.seed(params);
        self.thread_set(params)
            .into_iter()
            .enumerate()
            .map(|(t, spec)| params.workload_for_thread(spec, seed, t))
            .collect()
    }
}

/// The sweep's default shape grid: the paper's duo as anchor, two
/// symmetric scale-ups, a lopsided shape, and an oversubscribed shape.
pub fn default_shapes() -> Vec<ShapeSpec> {
    vec![
        ShapeSpec { fp: 1, int: 1, threads: 2 },
        ShapeSpec { fp: 2, int: 2, threads: 4 },
        ShapeSpec { fp: 4, int: 4, threads: 8 },
        ShapeSpec { fp: 1, int: 3, threads: 4 },
        ShapeSpec { fp: 2, int: 2, threads: 6 },
    ]
}

/// The predictor-free scheduler zoo the sweep compares.
pub fn default_schedulers(params: &Params) -> Vec<(String, SchedKind)> {
    vec![
        ("proposed".into(), SchedKind::proposed_default(params)),
        ("round-robin".into(), SchedKind::RoundRobin(1)),
        ("static".into(), SchedKind::Static),
        ("tpe".into(), SchedKind::Tpe),
        ("camp-static".into(), SchedKind::CampStatic),
        ("camp-dynamic".into(), SchedKind::CampDynamic),
    ]
}

/// One (shape, scheduler) cell's observed totals.
#[derive(Debug, Clone)]
pub struct SchedulerCell {
    /// Scheduler name (from the running scheme).
    pub scheduler: String,
    /// Cycles the run took.
    pub cycles: u64,
    /// Reassignment events.
    pub swaps: u64,
    /// Individual thread migrations.
    pub migrations: u64,
    /// Window decision points evaluated.
    pub window_decisions: u64,
    /// Epoch decision points evaluated.
    pub epoch_decisions: u64,
    /// Sum of per-thread IPC (system throughput).
    pub total_ipc: f64,
    /// Per-thread IPC/Watt, by thread id.
    pub ipc_per_watt: Vec<f64>,
    /// Weighted IPC/Watt improvement over the static baseline on the
    /// same shape, %, averaged over threads the static baseline actually
    /// ran (parked-forever threads have no baseline and are excluded).
    pub weighted_vs_static_pct: Option<f64>,
}

/// One shape's row of the sweep.
#[derive(Debug, Clone)]
pub struct ShapeResult {
    /// `Topology::label()` of the shape.
    pub label: String,
    /// The shape swept.
    pub shape: ShapeSpec,
    /// Benchmark names, by thread id.
    pub workloads: Vec<String>,
    /// One cell per scheduler, in sweep order.
    pub cells: Vec<SchedulerCell>,
}

/// Full sweep output.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Epoch length the sweep actually ran with (see [`sweep_system`]).
    pub epoch_cycles: u64,
    /// One entry per shape, in grid order.
    pub shapes: Vec<ShapeResult>,
}

/// The system configuration the sweep runs with: the caller's config
/// with a densified OS epoch.
///
/// Half the zoo decides only at epoch boundaries, and at the paper's
/// 2 ms epoch a bounded-instruction run ends before the first boundary —
/// every epoch scheme would degenerate to static and the sweep would
/// measure nothing. An 8× denser epoch (floored at 25k cycles) gives
/// each run several decision points at every `--quick`/`--medium`/full
/// scale while window-cadence schemes are unaffected.
pub fn sweep_system(params: &Params) -> SystemConfig {
    // Densify the context-switch period relative to the *instruction
    // budget*, not the configured epoch: an epoch-cadence scheduler
    // that never reaches an epoch boundary silently degenerates to
    // static, and a `--quick` run (20k instructions, ~20–45k cycles)
    // ends long before the paper's epoch. A quarter of the budget,
    // clamped to [5_000, epoch_cycles], yields several epochs per run
    // at any preset while never exceeding the paper's period.
    SystemConfig {
        epoch_cycles: (params.run_insts / 4).clamp(5_000, params.system.epoch_cycles),
        ..params.system
    }
}

/// Deterministically draw `n` benchmarks (distinct while the pool
/// allows) for one shape's thread set.
fn sample_workloads(n: usize, seed: u64) -> Vec<BenchmarkSpec> {
    let pool = ampsched_trace::suite::all();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let i = rng.gen_range(0..pool.len());
        if picked.len() < pool.len() && picked.contains(&i) {
            continue;
        }
        picked.push(i);
    }
    picked.into_iter().map(|i| pool[i].clone()).collect()
}

/// Run every scheduler on `shape` as lanes of one simulation from the
/// same cold machine ([`common::run_lanes`]), and return the runs in
/// scheduler order. Each lane gets one `experiments.run_shape <label>`
/// span.
pub fn run_shape(
    shape: &ShapeSpec,
    schedulers: &[(String, SchedKind)],
    params: &Params,
) -> Vec<TopoRunResult> {
    let topo = shape.topology();
    let label = topo.label();
    let lanes = schedulers
        .iter()
        .map(|(_, kind)| Lane {
            scheduler: kind.build_topo(shape.threads, None),
            workloads: shape.workloads(params),
        })
        .collect();
    let runs = common::run_lanes(sweep_system(params), &topo, lanes, params, || {
        ampsched_obs::span!("experiments.run_shape", label.as_str())
    });
    // Observation only, like emit_run on the pair path.
    for run in &runs {
        crate::telemetry::emit_topo_run(&label, "scaling", shape.seed(params), run);
    }
    runs
}

/// Run the sweep over the default grids.
pub fn run(params: &Params) -> ScalingResult {
    run_grid(params, &default_shapes(), &default_schedulers(params))
}

/// Run the sweep over explicit shape and scheduler grids: one
/// [`run_shape`] per shape.
pub fn run_grid(
    params: &Params,
    shapes: &[ShapeSpec],
    schedulers: &[(String, SchedKind)],
) -> ScalingResult {
    // A shape's work grows with its threads, so the pool claims the
    // shapes with the most threads first and no worker is left with a
    // large shape at the end; results return to grid order below.
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(shapes[s].threads));
    let claimed = parallel_map(&order, |&s| run_shape(&shapes[s], schedulers, params));
    let mut by_shape: Vec<_> = order.into_iter().zip(claimed).collect();
    by_shape.sort_unstable_by_key(|&(s, _)| s);
    let shapes_out = shapes
        .iter()
        .zip(by_shape)
        .map(|(shape, (_, runs))| {
            // The static baseline for vs-static ratios on this shape.
            let static_ppw: Option<Vec<f64>> = schedulers
                .iter()
                .position(|(name, _)| name == "static")
                .map(|i| runs[i].ipc_per_watt());
            let cells = runs
                .iter()
                .map(|r| {
                    let ppw = r.ipc_per_watt();
                    let weighted_vs_static_pct = static_ppw.as_ref().and_then(|base| {
                        // Threads parked for the whole static run have
                        // zero baseline IPC/Watt; ratios are undefined
                        // there, so average over the threads static ran.
                        let ratios: Vec<f64> = ppw
                            .iter()
                            .zip(base)
                            .filter(|(_, b)| **b > 0.0)
                            .map(|(v, b)| v / b)
                            .collect();
                        if ratios.is_empty() {
                            None
                        } else {
                            Some(improvement_pct(
                                ratios.iter().sum::<f64>() / ratios.len() as f64,
                            ))
                        }
                    });
                    SchedulerCell {
                        scheduler: r.scheduler.clone(),
                        cycles: r.cycles,
                        swaps: r.swaps,
                        migrations: r.migrations,
                        window_decisions: r.window_decisions,
                        epoch_decisions: r.epoch_decisions,
                        total_ipc: r.total_ipc(),
                        ipc_per_watt: ppw,
                        weighted_vs_static_pct,
                    }
                })
                .collect();
            ShapeResult {
                label: shape.topology().label(),
                shape: *shape,
                workloads: shape.thread_set(params).iter().map(|b| b.name.to_string()).collect(),
                cells,
            }
        })
        .collect();
    ScalingResult {
        epoch_cycles: sweep_system(params).epoch_cycles,
        shapes: shapes_out,
    }
}

/// Serialize the sweep for the `--json` report path.
pub fn to_json(r: &ScalingResult) -> Json {
    Json::obj([
        ("epoch_cycles", Json::from(r.epoch_cycles)),
        (
        "shapes",
        Json::arr(r.shapes.iter().map(|s| {
            Json::obj([
                ("label", Json::from(s.label.as_str())),
                ("fp_cores", Json::from(s.shape.fp as u64)),
                ("int_cores", Json::from(s.shape.int as u64)),
                ("threads", Json::from(s.shape.threads as u64)),
                (
                    "workloads",
                    Json::arr(s.workloads.iter().map(|w| Json::from(w.as_str()))),
                ),
                (
                    "schedulers",
                    Json::arr(s.cells.iter().map(|c| {
                        Json::obj([
                            ("scheduler", Json::from(c.scheduler.as_str())),
                            ("cycles", Json::from(c.cycles)),
                            ("swaps", Json::from(c.swaps)),
                            ("migrations", Json::from(c.migrations)),
                            ("window_decisions", Json::from(c.window_decisions)),
                            ("epoch_decisions", Json::from(c.epoch_decisions)),
                            ("total_ipc", Json::from(c.total_ipc)),
                            (
                                "ipc_per_watt",
                                Json::arr(c.ipc_per_watt.iter().map(|&v| Json::from(v))),
                            ),
                            (
                                "weighted_vs_static_pct",
                                c.weighted_vs_static_pct
                                    .map(Json::from)
                                    .unwrap_or(Json::Null),
                            ),
                        ])
                    })),
                ),
            ])
        })),
    )])
}

/// Render the sweep as one table per shape.
pub fn render(r: &ScalingResult) -> String {
    let mut out = String::new();
    for s in &r.shapes {
        out.push_str(&format!(
            "{} — threads: {}\n",
            s.label,
            s.workloads.join(", ")
        ));
        let mut t = Table::new(&[
            "scheduler",
            "cycles",
            "swaps",
            "migr",
            "total IPC",
            "vs static (%)",
        ]);
        for c in &s.cells {
            t.row(&[
                c.scheduler.clone(),
                c.cycles.to_string(),
                c.swaps.to_string(),
                c.migrations.to_string(),
                format!("{:.3}", c.total_ipc),
                c.weighted_vs_static_pct
                    .map(|v| format!("{v:+.1}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        let mut p = Params::quick();
        // Several epochs per run so the epoch-cadence schemes decide.
        p.run_insts = 200_000;
        p.max_cycles = 2_000_000;
        p.system.epoch_cycles = 50_000;
        p
    }

    #[test]
    fn sweep_covers_grid_and_renders() {
        let params = tiny_params();
        let shapes = [
            ShapeSpec { fp: 1, int: 1, threads: 2 },
            ShapeSpec { fp: 1, int: 2, threads: 4 },
        ];
        let schedulers = default_schedulers(&params);
        let r = run_grid(&params, &shapes, &schedulers);
        assert_eq!(r.shapes.len(), 2);
        for (s, shape) in r.shapes.iter().zip(&shapes) {
            assert_eq!(s.cells.len(), 6);
            assert_eq!(s.workloads.len(), shape.threads);
            for c in &s.cells {
                assert!(c.cycles > 0);
                assert_eq!(c.ipc_per_watt.len(), shape.threads);
                assert!(c.total_ipc > 0.0);
            }
            // Round robin rotates; static never does.
            let by_name = |n: &str| s.cells.iter().find(|c| c.scheduler == n).unwrap();
            assert_eq!(by_name("static").swaps, 0);
            assert!(by_name("round-robin").swaps > 0);
            assert_eq!(
                by_name("static").weighted_vs_static_pct,
                Some(0.0),
                "static vs itself is identically zero"
            );
        }
        let text = render(&r);
        assert!(text.contains("1fp+1int-2t"));
        assert!(text.contains("camp-dynamic"));
        let json = to_json(&r);
        assert_eq!(
            json.get("shapes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let params = tiny_params();
        let shapes = [ShapeSpec { fp: 1, int: 1, threads: 3 }];
        let schedulers = vec![
            ("tpe".to_string(), SchedKind::Tpe),
            ("round-robin".to_string(), SchedKind::RoundRobin(1)),
        ];
        let a = run_grid(&params, &shapes, &schedulers);
        let b = run_grid(&params, &shapes, &schedulers);
        assert_eq!(to_json(&a).render(), to_json(&b).render());
    }

    #[test]
    fn a_shapes_lane_accounting_is_exact() {
        let mut params = Params::quick();
        params.run_insts = 20_000;
        let shape = ShapeSpec { fp: 2, int: 2, threads: 6 };
        let (runs, snap) = ampsched_obs::metrics::scoped(|| {
            run_shape(&shape, &default_schedulers(&params), &params)
        });
        // Six lanes represent 350,480 cycles; four forks leave 281,987
        // to simulate, with at most four machines alive at once.
        let pinned =
            [("forks", 4), ("lane_cycles", 350_480), ("peak_machines", 4), ("sim_cycles", 281_987)];
        let want: Vec<(String, u64)> =
            pinned.iter().map(|&(n, v)| (format!("kernel.lanes.{n}"), v)).collect();
        assert_eq!(snap.filtered("kernel.lanes.").counters, want);
        assert_eq!(runs.iter().map(|r| r.cycles).sum::<u64>(), 350_480);
    }

    #[test]
    fn workload_sampling_is_deterministic_and_distinct() {
        let a = sample_workloads(8, 99);
        let b = sample_workloads(8, 99);
        let names =
            |v: &[BenchmarkSpec]| v.iter().map(|s| s.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        let set: std::collections::HashSet<_> = names(&a).into_iter().collect();
        assert_eq!(set.len(), 8, "distinct draws while the pool allows");
    }
}
