//! The batch workloads, one fresh process per repetition.
//!
//! `fig7_quick` is `ampsched --quick --json FILE fig7`: offline profiling
//! of the nine representative benchmarks on both cores (its set-up), then
//! 8 pairs × {proposed, HPE-matrix, round robin} on `DualCoreSystem`.
//! `scaling_quick` is `ampsched --quick --json FILE scaling`: 5 shapes ×
//! 6 zoo schedulers on `MulticoreSystem`, no profiling. Its set-up is
//! the CLI's start-up: from spawning a fresh process to its having built
//! the inputs `scaling::run` simulates (the quick parameters, the default
//! shape grid and the default scheduler zoo).
//!
//! An untraced repetition times the program's own calls —
//! `profiling::predictors`, `fig78::run_sweep`, `scaling::run_grid` over
//! the default grids (which is `scaling::run`) — and renders the report
//! as the CLI does. Each simulation run is one operation; its latency is
//! read from the program's own `experiments.run_pair` and
//! `experiments.run_shape` spans. The run that starts first over a pair's
//! or shape's input streams is *cold*: it materializes them in the trace
//! arena. The later runs over the same streams are *warm*: they replay
//! them.
//!
//! A traced repetition must put counting workloads and timed schedulers
//! where the program builds its systems, so it restates `run_pair`,
//! `profile_benchmark` and the scaling cell loop with those wrappers. Its
//! report must hash to the same pinned digest, and its deterministic
//! counts must equal the untraced repetitions', so a traced path that
//! drifts from the program fails the run.
//!
//! Both simulate the quick configuration at the default seed, whose
//! reports are digest-pinned, so every run does identical work. `--seed`
//! does not change them: across simulation seeds the quick fig7 run
//! takes from 6.7 s to 8.3 s, a spread wider than any bound the
//! benchmark could keep.

use crate::check::{self, Tally};
use crate::probe::{self, Obs, TimedSched, TimedTopoSched};
use crate::{over_budget, rep_plan, Opts, Outcome, Rep, Workload};
use ampsched_core::{ProfilePoint, TopoScheduler};
use ampsched_cpu::CoreConfig;
use ampsched_experiments::common::{sample_pairs, Pair, Params, Predictors, SchedKind};
use ampsched_experiments::fig78::{self, PairOutcome, SweepResult};
use ampsched_experiments::profiling::{self, BenchmarkProfile};
use ampsched_experiments::runner::parallel_map;
use ampsched_experiments::scaling::{self, ScalingResult, SchedulerCell, ShapeResult, ShapeSpec};
use ampsched_experiments::{report, telemetry};
use ampsched_metrics::improvement_pct;
use ampsched_obs::span;
use ampsched_system::{
    DualCoreSystem, MulticoreSystem, RunResult, SingleCoreRunner, SystemConfig, TopoRunResult,
    Topology,
};
use ampsched_trace::arena::CHUNK_OPS;
use ampsched_trace::{suite, timing, BenchmarkSpec};
use ampsched_util::{Json, StdRng};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Host seconds per planned repetition; sets how many repetitions fill
/// `--seconds`: at 30 s, 5 fig7 repetitions (6–7.5 s each on a 2-CPU
/// host) and 8 scaling ones (3–4 s each). A fixed count gives every run
/// of one build the same work and sample counts.
fn nominal_rep_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::Fig7Quick => 6.0,
        _ => 3.75,
    }
}

/// The line a scaling start-up prints once it has built its inputs.
const READY: &str = "ready";

/// Scaling start-ups per untraced run, back to back before the first
/// repetition: a start-up right after a repetition's exit takes ≈ 1.6×
/// as long as one after another start-up, so the two are not mixed.
const STARTUPS: usize = 20;

/// Measure `opts.workload`: the planned repetitions, each in a fresh
/// process, aggregated into one outcome.
pub fn measure(opts: &Opts) -> Outcome {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let started = Instant::now();
    let n = (opts.seconds as f64 / nominal_rep_seconds(opts.workload)) as usize;
    let mut tally = Tally::default();
    let mut reps = Vec::new();
    let mut digests = Vec::new();
    let mut startups = Vec::new();
    if opts.workload == Workload::ScalingQuick && !opts.trace {
        for _ in 0..STARTUPS {
            match start_up(&exe) {
                Ok(took) => startups.push(took),
                Err(e) => eprintln!("perfbench: start-up failed: {e}"),
            }
        }
    }
    for (i, traced) in rep_plan(n.max(2), opts.trace).into_iter().enumerate() {
        if over_budget(started, opts.seconds, i) {
            break;
        }
        match run_rep(&exe, opts.workload, traced) {
            Ok((rep, digest, digest_ok)) => {
                tally.record(digest_ok);
                reps.push(rep);
                digests.push(Json::from(digest));
            }
            Err(e) => {
                eprintln!("perfbench: {} repetition failed: {e}", opts.workload.name());
                tally.record(false);
            }
        }
    }
    let details = vec![("report_digests".to_string(), Json::Arr(digests))];
    Outcome::from_reps(&reps, &startups, tally, true, details)
}

/// Time one scaling start-up (`rep scaling_quick start`): from the spawn
/// to its [`READY`] line. Waits for the process to exit.
fn start_up(exe: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["rep", Workload::ScalingQuick.name(), "start"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    let took = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() || line.trim_end() != READY {
        return Err(format!("exited with {status} after {line:?}"));
    }
    Ok(took)
}

/// Run a repetition process (`rep <workload> <0|1>`), wait for it and
/// return its result line.
fn spawn_rep(exe: &Path, workload: Workload, traced: bool) -> Result<String, String> {
    let out = Command::new(exe)
        .args(["rep", workload.name(), if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "result is not UTF-8")?;
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "no result line".to_string())
}

/// Run one measured repetition in a fresh process; returns it with its
/// report digest and whether that matched the pinned one.
fn run_rep(exe: &Path, workload: Workload, traced: bool) -> Result<(Rep, String, bool), String> {
    let line = spawn_rep(exe, workload, traced)?;
    let doc = Json::parse(&line).map_err(|e| format!("result line: {e:?}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("missing {k}"))
    };
    let list = |k: &str| -> Vec<f64> {
        doc.get(k)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let rep = Rep {
        traced,
        setup_s: doc.get("setup_s").and_then(Json::as_f64),
        wall_s: num("wall_s")?,
        rss_mb: num("rss_mb")?,
        cold_ms: list("cold_ms"),
        warm_ms: list("warm_ms"),
        layers: doc
            .get("layers")
            .and_then(Json::as_obj)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
        counts: doc.get("counts").cloned().unwrap_or(Json::Null),
    };
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let digest_ok = doc.get("digest_ok").and_then(Json::as_bool) == Some(true);
    Ok((rep, digest, digest_ok))
}

/// Entry point of a repetition process: `rep <workload> <0|1|start>`,
/// an untraced or traced repetition, or (scaling only) a start-up that
/// exits once it has built its inputs.
pub fn rep_main(args: &[String]) -> ! {
    let mode = args.get(1).map(String::as_str);
    if args.first().map(String::as_str) == Some("scaling_quick") && mode == Some("start") {
        std::hint::black_box(scaling_inputs());
        let mut out = std::io::stdout().lock();
        writeln!(out, "{READY}")
            .and_then(|()| out.flush())
            .expect("write to parent");
        std::process::exit(0);
    }
    let traced = mode == Some("1");
    // Spans cost a clock read per simulation run; on in both kinds of
    // repetition so the tracing overhead compares like with like.
    span::set_enabled(true);
    let rep = match args.first().and_then(|w| Workload::parse(w)) {
        Some(Workload::Fig7Quick) => fig7(traced),
        Some(Workload::ScalingQuick) => scaling(traced),
        _ => {
            eprintln!("perfbench rep: expected fig7_quick or scaling_quick");
            std::process::exit(2);
        }
    };
    match rep {
        Ok(measured) => println!("{}", measured.render().render()),
        Err(e) => {
            eprintln!("perfbench rep: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The report the CLI writes for `command` with its one `section`.
fn report_bytes(command: &str, params: &Params, section: &str, body: Json) -> Vec<u8> {
    report::assemble(
        command,
        params,
        vec![(section.to_string(), body)],
        telemetry::summary_json(),
    )
    .render_pretty()
    .into_bytes()
}

/// Per-run latencies, cold and warm, in ms, from the program's own spans
/// named `name`. A span's label is the pair or shape it ran; per label,
/// the run that started first is cold and the rest are warm.
fn span_latencies(name: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("span directory: {e}"))?;
    let path = dir.join(format!("spans-{}.json", std::process::id()));
    let written = span::write_trace_events(&path).map_err(|e| format!("span export: {e}"));
    let text = written.and_then(|_| std::fs::read_to_string(&path).map_err(|e| e.to_string()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    let doc = Json::parse(&text?).map_err(|e| format!("span export: {e:?}"))?;
    let mut runs: Vec<(String, u64, u64)> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            let label = e
                .get("name")?
                .as_str()?
                .strip_prefix(name)?
                .strip_prefix(' ')?;
            Some((
                label.to_string(),
                e.get("ts")?.as_u64()?,
                e.get("dur")?.as_u64()?,
            ))
        })
        .collect();
    if runs.is_empty() {
        return Err(format!("no {name} spans recorded"));
    }
    runs.sort();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (i, (label, _, dur_us)) in runs.iter().enumerate() {
        let first = i == 0 || runs[i - 1].0 != *label;
        if first { &mut cold } else { &mut warm }.push(*dur_us as f64 / 1e3);
    }
    Ok((cold, warm))
}

/// Simulation totals over a traced sweep's runs.
#[derive(Default)]
struct SimTotals {
    /// Host time of every run, summed over threads.
    busy: Duration,
    cycles: u64,
    insts: u64,
    swaps: u64,
    migrations: u64,
}

impl SimTotals {
    fn add(&mut self, took: Duration, cycles: u64, insts: u64, swaps: u64, migrations: u64) {
        self.busy += took;
        self.cycles += cycles;
        self.insts += insts;
        self.swaps += swaps;
        self.migrations += migrations;
    }
}

/// Offline-profiling totals (traced runs only).
#[derive(Default)]
struct Profiled {
    /// Host time of every profiling run, summed over threads.
    busy: Duration,
    cycles: u64,
}

/// What one repetition measured, before it is rendered for the parent.
struct Measured {
    /// Set-up seconds, when the repetition times its own set-up.
    setup_s: Option<f64>,
    wall: Duration,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    report: Vec<u8>,
    digest: u64,
    layers: Vec<(&'static str, f64)>,
}

impl Measured {
    /// An untraced repetition: no per-layer values.
    fn untraced(
        setup_s: Option<f64>,
        (report, wall): (Vec<u8>, Duration),
        span: &str,
        digest: u64,
    ) -> Result<Measured, String> {
        let (cold_ms, warm_ms) = span_latencies(span)?;
        Ok(Measured {
            setup_s,
            wall,
            cold_ms,
            warm_ms,
            report,
            digest,
            layers: Vec::new(),
        })
    }

    fn render(self) -> Json {
        let counts = Obs::now().deterministic_counts();
        let numbers = |v: Vec<f64>| Json::arr(v.into_iter().map(Json::from));
        fn named<T: Into<Json>>(v: Vec<(&str, T)>) -> Json {
            Json::Obj(
                v.into_iter()
                    .map(|(k, v)| (k.to_string(), v.into()))
                    .collect(),
            )
        }
        Json::obj([
            ("setup_s", self.setup_s.map_or(Json::Null, Json::from)),
            ("wall_s", Json::from(self.wall.as_secs_f64())),
            ("cold_ms", numbers(self.cold_ms)),
            ("warm_ms", numbers(self.warm_ms)),
            ("rss_mb", Json::from(probe::own_peak_rss_mb())),
            ("digest", Json::from(check::digest_hex(&self.report))),
            (
                "digest_ok",
                Json::from(check::matches_digest(&self.report, self.digest)),
            ),
            ("counts", named(counts)),
            ("layers", named(self.layers)),
        ])
    }
}

/// Per-layer self times and counts of a traced repetition. `trace_busy`
/// is all trace-provisioning time of the repetition; `trace_in_runs` and
/// `trace_in_profiling` the parts inside the sweep's and profiling's runs.
fn layers(
    trace_busy: Duration,
    trace_in_runs: Duration,
    sim: &SimTotals,
    prof: &Profiled,
    trace_in_profiling: Duration,
    report_busy: Duration,
) -> Vec<(&'static str, f64)> {
    let obs = Obs::now();
    let chunks = obs.counter("trace.arena.chunk.materialize");
    let (hits, misses) = (
        obs.counter("trace.arena.hit"),
        obs.counter("trace.arena.miss"),
    );
    let pulled = probe::ops_pulled();
    let (sched_ns, calls) = (probe::sched_ns(), probe::sched_calls());
    let sched_busy = sched_ns as f64 / 1e9;
    let system_busy = sim.busy.as_secs_f64() - sched_busy - trace_in_runs.as_secs_f64();
    let mut out = vec![
        ("trace.busy_s", trace_busy.as_secs_f64()),
        ("trace.chunks_materialized", chunks as f64),
        ("trace.ops_pulled", pulled as f64),
        (
            "trace.useful_ratio",
            ratio(pulled, chunks * CHUNK_OPS as u64),
        ),
        ("trace.arena_hit_ratio", ratio(hits, hits + misses)),
        ("system.busy_s", system_busy),
        ("system.sim_cycles", sim.cycles as f64),
        ("system.sim_insts", sim.insts as f64),
        (
            "system.host_ns_per_cycle",
            system_busy * 1e9 / sim.cycles.max(1) as f64,
        ),
        (
            "system.skip_ratio",
            ratio(obs.hist_sum("sim.skip.joint_cycles"), sim.cycles),
        ),
        ("system.swaps", sim.swaps as f64),
        ("system.migrations", sim.migrations as f64),
        ("sched.busy_s", sched_busy),
        ("sched.calls", calls as f64),
        ("sched.ns_per_call", ratio(sched_ns, calls)),
        (
            "sched.predictor_queries",
            obs.counters_with_prefix("sim.predictor.query.") as f64,
        ),
        ("report.busy_s", report_busy.as_secs_f64()),
    ];
    if prof.cycles > 0 {
        let busy = prof.busy.as_secs_f64() - trace_in_profiling.as_secs_f64();
        out.extend([
            ("profiling.busy_s", busy),
            ("profiling.sim_cycles", prof.cycles as f64),
            (
                "profiling.host_ns_per_cycle",
                busy * 1e9 / prof.cycles as f64,
            ),
            (
                "profiling.skip_ratio",
                ratio(obs.hist_sum("sim.skip.single_cycles"), prof.cycles),
            ),
        ]);
    }
    out
}

/// One `fig7_quick` repetition.
fn fig7(traced: bool) -> Result<Measured, String> {
    let params = Params::quick();
    if !traced {
        let (preds, setup) = timed(|| profiling::predictors(&params));
        let run = timed(|| {
            let sweep = fig78::run_sweep(&params, &preds);
            report_bytes("fig7", &params, "sweep", fig78::to_json(&sweep))
        });
        return Measured::untraced(
            Some(setup.as_secs_f64()),
            run,
            "experiments.run_pair",
            check::FIG7_QUICK_DIGEST,
        );
    }

    let trace_start = timing::total();
    let ((preds, prof), setup) = timed(|| traced_predictors(&params));
    let setup_s = Some(setup.as_secs_f64());
    let trace_in_profiling = timing::total() - trace_start;

    // `fig78::run_sweep`, with `traced_run_pair` for `run_pair`.
    let t0 = Instant::now();
    let pairs = sample_pairs(params.num_pairs, params.seed);
    let kinds = [
        SchedKind::proposed_default(&params),
        SchedKind::HpeMatrix,
        SchedKind::RoundRobin(1),
    ];
    let runs = parallel_map(&pairs, |pair| {
        kinds
            .each_ref()
            .map(|kind| timed(|| traced_run_pair(pair, kind, &preds, &params)))
    });
    let trace_in_runs = timing::total() - trace_start - trace_in_profiling;
    let mut sim = SimTotals::default();
    let mut outcomes = Vec::with_capacity(pairs.len());
    for (pair, [proposed, hpe, rr]) in pairs.iter().zip(runs) {
        for (r, took) in [&proposed, &hpe, &rr] {
            let insts = r.threads.iter().map(|t| t.instructions).sum();
            // A pair swap moves both threads.
            sim.add(*took, r.cycles, insts, r.swaps, 2 * r.swaps);
        }
        outcomes.push(PairOutcome {
            label: pair.label(),
            proposed: proposed.0,
            hpe: hpe.0,
            rr: rr.0,
        });
    }
    let (report, report_busy) = timed(|| {
        report_bytes(
            "fig7",
            &params,
            "sweep",
            fig78::to_json(&SweepResult { outcomes }),
        )
    });
    let wall = t0.elapsed();
    Ok(Measured {
        setup_s,
        wall,
        cold_ms: Vec::new(),
        warm_ms: Vec::new(),
        report,
        digest: check::FIG7_QUICK_DIGEST,
        layers: layers(
            timing::total() - trace_start,
            trace_in_runs,
            &sim,
            &prof,
            trace_in_profiling,
            report_busy,
        ),
    })
}

/// `common::run_pair` with counting workloads and a timed scheduler.
fn traced_run_pair(
    pair: &Pair,
    kind: &SchedKind,
    preds: &Predictors,
    params: &Params,
) -> RunResult {
    let [w0, w1] = pair.workloads(params);
    let mut sys = DualCoreSystem::new(params.system, [probe::counting(w0), probe::counting(w1)]);
    let mut sched = TimedSched(kind.build(preds));
    let result = sys.run(&mut sched, params.run_insts, params.max_cycles);
    telemetry::emit_run(&pair.label(), pair.seed, &result);
    result
}

/// `profiling::predictors` with counting workloads, also returning the
/// profiling runs' host time and simulated cycles.
fn traced_predictors(params: &Params) -> (Predictors, Profiled) {
    let names: Vec<&'static str> = suite::representative_nine()
        .iter()
        .map(|b| b.name)
        .collect();
    let runs = parallel_map(&names, |name| timed(|| traced_profile(name, params)));
    let mut total = Profiled::default();
    let mut profiles = Vec::with_capacity(runs.len());
    for ((profile, cycles), took) in runs {
        total.busy += took;
        total.cycles += cycles;
        profiles.push(profile);
    }
    (profiling::build_predictors(&profiles), total)
}

/// `profiling::profile_benchmark` with counting workloads, also
/// returning the simulated cycles of both runs.
fn traced_profile(name: &str, params: &Params) -> (BenchmarkProfile, u64) {
    let spec = suite::by_name(name).expect("representative benchmark exists");
    let run = |core_cfg: CoreConfig| {
        let mut w = probe::counting(params.workload_for_thread(spec.clone(), params.seed, 0));
        let mut runner = SingleCoreRunner::new(core_cfg, params.system.mem)
            .with_sim_path(params.system.sim_path);
        runner.run(
            &mut *w,
            params.profile_insts,
            params.profile_interval_cycles,
            params.max_cycles,
        )
    };
    let fp = run(CoreConfig::fp_core());
    let int = run(CoreConfig::int_core());
    let n = fp.samples.len().min(int.samples.len());
    let points = (0..n)
        .filter_map(|k| {
            let (sf, si) = (&fp.samples[k], &int.samples[k]);
            let (pf, pi) = (sf.ipc_per_watt(), si.ipc_per_watt());
            (pf > 0.0 && pi > 0.0).then_some(ProfilePoint {
                int_pct: sf.int_pct,
                fp_pct: sf.fp_pct,
                ppw_int_core: pi,
                ppw_fp_core: pf,
            })
        })
        .collect();
    let profile = BenchmarkProfile {
        name: name.to_string(),
        points,
    };
    (profile, fp.totals.cycles + int.totals.cycles)
}

/// `scaling::run`'s inputs: the quick parameters, shapes and schedulers.
type ScalingInputs = (Params, Vec<ShapeSpec>, Vec<(String, SchedKind)>);

fn scaling_inputs() -> ScalingInputs {
    let params = Params::quick();
    let shapes = scaling::default_shapes();
    let schedulers = scaling::default_schedulers(&params);
    (params, shapes, schedulers)
}

/// One `scaling_quick` repetition.
fn scaling(traced: bool) -> Result<Measured, String> {
    let (params, shapes, schedulers) = scaling_inputs();
    if !traced {
        let run = timed(|| {
            let result = scaling::run_grid(&params, &shapes, &schedulers);
            report_bytes("scaling", &params, "scaling", scaling::to_json(&result))
        });
        return Measured::untraced(
            None,
            run,
            "experiments.run_shape",
            check::SCALING_QUICK_DIGEST,
        );
    }

    // `scaling::run_grid`, with `traced_cell` for its private `run_cell`.
    let trace_start = timing::total();
    let t0 = Instant::now();
    let system = scaling::sweep_system(&params);
    let inputs: Vec<ShapeInput> = shapes
        .iter()
        .map(|&shape| ShapeInput::new(shape, &params))
        .collect();
    let grid: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..schedulers.len()).map(move |k| (s, k)))
        .collect();
    let runs = parallel_map(&grid, |&(s, k)| {
        timed(|| traced_cell(&inputs[s], &schedulers[k].1, system, &params))
    });
    let trace_in_runs = timing::total() - trace_start;
    let mut sim = SimTotals::default();
    for (r, took) in &runs {
        let insts = r.threads.iter().map(|t| t.instructions).sum();
        sim.add(*took, r.cycles, insts, r.swaps, r.migrations);
    }
    let (report, report_busy) = timed(|| {
        let runs: Vec<TopoRunResult> = runs.into_iter().map(|(r, _)| r).collect();
        let result = scaling_result(&inputs, &schedulers, system, &runs);
        report_bytes("scaling", &params, "scaling", scaling::to_json(&result))
    });
    let wall = t0.elapsed();
    Ok(Measured {
        setup_s: None,
        wall,
        cold_ms: Vec::new(),
        warm_ms: Vec::new(),
        report,
        digest: check::SCALING_QUICK_DIGEST,
        layers: layers(
            timing::total() - trace_start,
            trace_in_runs,
            &sim,
            &Profiled::default(),
            Duration::ZERO,
            report_busy,
        ),
    })
}

/// One shape of the scaling sweep with its topology and the thread set
/// the experiment draws for it.
struct ShapeInput {
    shape: ShapeSpec,
    topo: Topology,
    seed: u64,
    specs: Vec<BenchmarkSpec>,
}

impl ShapeInput {
    fn new(shape: ShapeSpec, params: &Params) -> ShapeInput {
        let seed = params.seed
            ^ ((shape.fp as u64) << 24 | (shape.int as u64) << 16 | shape.threads as u64);
        ShapeInput {
            shape,
            topo: Topology::big_little(shape.fp, shape.int, shape.threads),
            seed,
            specs: sample_workloads(shape.threads, seed),
        }
    }
}

/// The scaling experiment's thread-set draw: `n` benchmarks, distinct
/// while the pool allows.
fn sample_workloads(n: usize, seed: u64) -> Vec<BenchmarkSpec> {
    let pool = suite::all();
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

/// One (shape, scheduler) cell of the scaling sweep with counting
/// workloads and a timed scheduler.
fn traced_cell(
    input: &ShapeInput,
    kind: &SchedKind,
    system: SystemConfig,
    params: &Params,
) -> TopoRunResult {
    let workloads = input
        .specs
        .iter()
        .enumerate()
        .map(|(t, spec)| probe::counting(params.workload_for_thread(spec.clone(), input.seed, t)))
        .collect();
    let mut sys = MulticoreSystem::new(system, &input.topo, workloads);
    let mut sched: Box<dyn TopoScheduler> =
        Box::new(TimedTopoSched(kind.build_topo(input.shape.threads, None)));
    let result = sys.run(&mut *sched, params.run_insts, params.max_cycles);
    telemetry::emit_topo_run(&input.topo.label(), "scaling", input.seed, &result);
    result
}

/// Fold the cells' runs into the experiment's result: per shape, every
/// scheduler's totals and its weighted IPC/Watt change against static,
/// averaged over the threads static ran.
fn scaling_result(
    shapes: &[ShapeInput],
    schedulers: &[(String, SchedKind)],
    system: SystemConfig,
    runs: &[TopoRunResult],
) -> ScalingResult {
    let shapes = shapes
        .iter()
        .zip(runs.chunks(schedulers.len()))
        .map(|(input, runs)| {
            let static_ppw: Option<Vec<f64>> = schedulers
                .iter()
                .position(|(name, _)| name == "static")
                .map(|i| runs[i].ipc_per_watt());
            let cells = runs
                .iter()
                .map(|r| {
                    let ppw = r.ipc_per_watt();
                    let weighted_vs_static_pct = static_ppw.as_ref().and_then(|base| {
                        let ratios: Vec<f64> = ppw
                            .iter()
                            .zip(base)
                            .filter(|(_, b)| **b > 0.0)
                            .map(|(v, b)| v / b)
                            .collect();
                        (!ratios.is_empty()).then(|| {
                            improvement_pct(ratios.iter().sum::<f64>() / ratios.len() as f64)
                        })
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
                label: input.topo.label(),
                shape: input.shape,
                workloads: input.specs.iter().map(|b| b.name.to_string()).collect(),
                cells,
            }
        })
        .collect();
    ScalingResult {
        epoch_cycles: system.epoch_cycles,
        shapes,
    }
}
