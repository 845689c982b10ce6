//! `ampsched` — regenerate every table and figure of the paper.
//!
//! ```text
//! ampsched [--quick|--medium] [--pairs N] [--insts N] [--seed N] [--sim-path fast|reference]
//!          [--trace-path arena|stream] [--trace-cache DIR] [--profile] [--profile-sample N]
//!          [--telemetry FILE] [--trace-events FILE]
//!          [--csv FILE] [--json FILE] <command>
//!
//! commands:
//!   tables        Tables I and II (live core configurations)
//!   workloads     inventory of the 37 workload models
//!   fig1          IPC/Watt of six workloads on each core type
//!   fig3          profiled ratio matrix
//!   fig4          fitted regression surface
//!   fig6          window-size x history-depth sensitivity
//!   fig7          per-pair improvements vs HPE
//!   fig8          per-pair improvements vs Round Robin
//!   fig9          worst/average/best summary (+ swap-rate stat)
//!   overhead      swap-overhead sensitivity (Section VI-C)
//!   rr-interval   Round Robin 2ms vs 4ms decision interval
//!   derive-rules  re-derive the Figure 5 thresholds (Section VI-A)
//!   ablation      design-choice ablation battery
//!   morphing      core-morphing extension comparison (cf. \[5\])
//!   scaling       N-core x M-thread scheduler-zoo sweep (predictor-free)
//!   regret        every scheduler vs the clairvoyant oracle (DP + replay)
//!   trace-cache   maintain the --trace-cache dir (stats|verify|gc)
//!   obs-summary   aggregate a --telemetry JSONL file per scheduler
//!   serve         scheduling-as-a-service daemon (HTTP, cached results)
//!   serve-bench   replay a request corpus against a running daemon
//!   all           everything above, in order
//! ```
//!
//! Presets apply first and flags may come in any order: the run-parameter
//! flags are a `/run` request's `params` members (`--quick` is
//! `"scale": "quick"`, `--profile-insts N` is `"profile_insts": N`) and
//! resolve through the same `Params::resolve`.
//!
//! `--trace-cache DIR` makes the trace arena durable: a cold run writes
//! each materialized stream to a checksummed chunk file under DIR, and
//! warm runs load instead of regenerating — bit-identical either way,
//! with corrupt or stale files deleted and regenerated.
//!
//! `--telemetry FILE` streams every scheduler decision as one JSON
//! object per line (the audit trail: predictor inputs, outputs, swap
//! cost, post-hoc misprediction); `ampsched obs-summary FILE` reads the
//! stream back. `--trace-events FILE` records host-time spans and writes
//! a Chrome trace-event file (open in about://tracing or Perfetto).
//! Both are pure observations: report output is byte-identical with or
//! without them.
//!
//! `--profile` also samples pipeline state (ROB/ISQ/LSQ occupancy,
//! issue-width utilization, stall cause at the ROB head) every 8192
//! simulated cycles; `--profile-sample N` changes the cadence, and on
//! its own enables just the sampler. Per-core summaries land in the
//! timing report, a `pipeline` section of the bench artifact, and — with
//! `--trace-events` — counter tracks in the Chrome trace. Sampling is
//! read-only: `--json` reports stay byte-identical with it enabled.
//!
//! `ampsched serve` turns the same experiment drivers into a daemon:
//! `POST /run` with `{"experiment": ..., "params": {...}}` answers with
//! exactly the bytes the CLI's `--json` would have written, cached by a
//! canonical hash of the resolved parameters (`--addr`, `--workers`,
//! `--cache-entries`, `--cache-dir`, `--deadline-ms`). `ampsched
//! serve-bench` replays a corpus against it and measures warm-vs-cold
//! latency (`--corpus`, `--repeat`, `--json`). EXPERIMENTS.md is the
//! full reference; DESIGN.md §14 the architecture.

use ampsched_experiments::{
    common::{self, Params}, obs_summary, profiling, report, serve, telemetry, trace_cache,
};
use ampsched_trace::{arena, timing};
use ampsched_util::timer::{resolve_out_dir, Profiler};
use ampsched_util::Json;
use std::path::Path;
use std::time::Instant;

/// What `all` runs, in order; each name is its `--profile` phase.
/// fig7/8/9 share one sweep.
const ALL: &[&str] = &[
    "tables", "fig1", "fig3", "fig4", "derive-rules", "fig6", "figs789", "overhead",
    "rr-interval", "ablation", "morphing", "scaling",
];

fn usage() -> ! {
    eprintln!(
        "usage: ampsched [--quick|--medium] [--pairs N] [--insts N] [--profile-insts N] [--seed N] \
         [--sim-path fast|reference] [--trace-path arena|stream] [--trace-cache DIR] [--profile] \
         [--profile-sample N] [--telemetry FILE] [--trace-events FILE] [--csv FILE] [--json FILE] \
         <{}|trace-cache|obs-summary|serve|serve-bench|all>\n\
         \n\
         trace-cache actions: ampsched --trace-cache DIR trace-cache <stats|verify|gc>\n\
         obs-summary usage:   ampsched obs-summary FILE   (FILE from a --telemetry run)\n\
         serve flags:         ampsched serve [--addr HOST:PORT] [--workers N] [--cache-entries N] \
         [--cache-dir DIR] [--deadline-ms N] [--trace-cache DIR] [--access-log FILE] \
         [--flight-recorder FILE]\n\
         serve-bench flags:   ampsched serve-bench [--addr HOST:PORT] [--corpus FILE] [--repeat N] [--json FILE]",
        report::COMMANDS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Run-parameter flags as `/run` request members, and their spelling
    // for `serve`'s refusal.
    let mut overrides: Vec<(String, Json)> = Vec::new();
    let mut run_flags: Vec<&str> = Vec::new();
    // Side-channel output flags, spelled for `serve`'s refusal.
    let mut side_flags: Vec<&str> = Vec::new();
    let mut command: Option<String> = None;
    let mut action: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut profile = false;
    let mut profile_sample: Option<u64> = None;
    let mut telemetry: Option<std::path::PathBuf> = None;
    let mut trace_events: Option<std::path::PathBuf> = None;
    // `serve` / `serve-bench` knobs (ignored by other commands).
    let mut serve_addr: Option<String> = None;
    let mut serve_workers: Option<usize> = None;
    let mut serve_cache_entries: Option<usize> = None;
    let mut serve_cache_dir: Option<std::path::PathBuf> = None;
    let mut serve_deadline_ms: Option<u64> = None;
    let mut serve_access_log: Option<std::path::PathBuf> = None;
    let mut serve_flight_recorder: Option<std::path::PathBuf> = None;
    let mut bench_corpus: Option<std::path::PathBuf> = None;
    let mut bench_repeat: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--quick" | "--medium") => {
                overrides.push(("scale".to_string(), Json::from(&flag[2..])));
                run_flags.push(flag);
            }
            "--telemetry" => {
                side_flags.push("--telemetry");
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                telemetry = Some(std::path::PathBuf::from(file));
            }
            "--trace-events" => {
                side_flags.push("--trace-events");
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                trace_events = Some(std::path::PathBuf::from(file));
            }
            "--profile" => {
                side_flags.push("--profile");
                profile = true;
            }
            "--profile-sample" => {
                side_flags.push("--profile-sample");
                i += 1;
                profile_sample =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--csv" => {
                side_flags.push("--csv");
                i += 1;
                csv_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--addr" => {
                i += 1;
                serve_addr = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--workers" => {
                i += 1;
                serve_workers =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--cache-entries" => {
                i += 1;
                serve_cache_entries =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--cache-dir" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--deadline-ms" => {
                i += 1;
                serve_deadline_ms =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--access-log" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_access_log = Some(std::path::PathBuf::from(file));
            }
            "--flight-recorder" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_flight_recorder = Some(std::path::PathBuf::from(file));
            }
            "--corpus" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                bench_corpus = Some(std::path::PathBuf::from(file));
            }
            "--repeat" => {
                i += 1;
                bench_repeat =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--json" => {
                side_flags.push("--json");
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            // Every other `--name VALUE` is the request member `name`
            // (`-` spelled `_`); `Params::resolve` checks the name and
            // the value. Text that reads as an integer is passed as a
            // number. `scale` is spelled `--quick`/`--medium` only.
            flag if flag.starts_with("--") && !flag.contains('_') && flag != "--scale" => {
                i += 1;
                let text = args.get(i).unwrap_or_else(|| usage());
                let value = text
                    .parse::<u64>()
                    .map_or_else(|_| Json::from(text.as_str()), Json::from);
                overrides.push((flag[2..].replace('-', "_"), value));
                run_flags.push(flag);
            }
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            // `trace-cache` takes one action word (stats|verify|gc);
            // `obs-summary` takes the telemetry file to read.
            c if matches!(command.as_deref(), Some("trace-cache") | Some("obs-summary"))
                && action.is_none()
                && !c.starts_with('-') =>
            {
                action = Some(c.to_string())
            }
            _ => usage(),
        }
        i += 1;
    }
    let params = Params::resolve(&overrides, &Params::default()).unwrap_or_else(|e| {
        eprintln!("ampsched: {e}");
        usage()
    });
    let command = command.unwrap_or_else(|| usage());

    // Cache maintenance runs standalone: no profiling, no simulation.
    if command == "trace-cache" {
        let Some(dir) = &params.trace_cache else {
            eprintln!("trace-cache: no cache directory (pass --trace-cache DIR)");
            std::process::exit(2);
        };
        let action = action
            .as_deref()
            .and_then(trace_cache::Action::from_flag)
            .unwrap_or_else(|| {
                eprintln!("trace-cache: expected an action: stats | verify | gc");
                usage()
            });
        let outcome = trace_cache::run(action, dir);
        print!("{}", outcome.rendered);
        if let Some(path) = &json_path {
            let doc = Json::obj([
                ("command", Json::from("trace-cache")),
                ("trace_cache", outcome.json),
            ]);
            std::fs::write(path, doc.render_pretty()).expect("write json report");
            eprintln!("[json report written to {path}]");
        }
        std::process::exit(if outcome.healthy { 0 } else { 1 });
    }

    // Telemetry aggregation also runs standalone: read back a JSONL
    // audit trail, no profiling, no simulation.
    if command == "obs-summary" {
        let Some(file) = &action else {
            eprintln!("obs-summary: expected a telemetry file: ampsched obs-summary FILE");
            usage()
        };
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("obs-summary: cannot read {file}: {e}");
            std::process::exit(1);
        });
        let summaries = obs_summary::summarize(&text).unwrap_or_else(|e| {
            eprintln!("obs-summary: {file}: {e}");
            std::process::exit(1);
        });
        println!("Telemetry summary — {file}\n");
        println!("{}", obs_summary::render(&summaries));
        if let Some(path) = &json_path {
            let doc = Json::obj([
                ("command", Json::from("obs-summary")),
                ("obs_summary", obs_summary::to_json(&summaries)),
            ]);
            std::fs::write(path, doc.render_pretty()).expect("write json report");
            eprintln!("[json report written to {path}]");
        }
        std::process::exit(0);
    }

    // The daemon runs standalone: it owns its own profiling (per job)
    // and never uses the CLI's csv/json/profile plumbing. Each job
    // resolves its parameters from its own request and inherits only
    // the daemon's trace-cache directory, so any other run-parameter
    // flag would be silently ignored: refuse it.
    if command == "serve" {
        let ignored: Vec<&str> =
            run_flags.into_iter().filter(|f| *f != "--trace-cache").collect();
        if !ignored.is_empty() {
            eprintln!(
                "serve: {} would be ignored: jobs take run parameters from the request's \"params\" \
                 (only --trace-cache applies to the daemon)",
                ignored.join(", ")
            );
            std::process::exit(2);
        }
        // Jobs answer over HTTP: the daemon writes no report, CSV,
        // telemetry stream, trace events or profile, so those flags
        // would create no file.
        if !side_flags.is_empty() {
            eprintln!(
                "serve: {} would be ignored: the daemon writes no reports, telemetry, trace events \
                 or profiles (see --access-log and --flight-recorder)",
                side_flags.join(", ")
            );
            std::process::exit(2);
        }
        let mut config = serve::ServeConfig::default();
        if let Some(addr) = serve_addr {
            config.addr = addr;
        }
        if let Some(n) = serve_workers {
            config.workers = n.max(1);
        }
        if let Some(n) = serve_cache_entries {
            config.cache_entries = n.max(1);
        }
        config.cache_dir = serve_cache_dir;
        if let Some(ms) = serve_deadline_ms {
            config.deadline_ms = ms.max(1);
        }
        config.access_log = serve_access_log;
        config.flight_recorder = serve_flight_recorder;
        config.base = params;
        let server = serve::Server::bind(config).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        });
        // The one line scripts parse for the (possibly ephemeral) port.
        println!(
            "ampsched serve listening on {}",
            server.local_addr().expect("bound address")
        );
        if let Err(e) = server.run() {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
        eprintln!("[serve: drained and stopped]");
        std::process::exit(0);
    }

    // So does the bench client: it talks to a daemon, it never
    // simulates.
    if command == "serve-bench" {
        let config = serve::bench::BenchConfig {
            addr: serve_addr.unwrap_or_else(|| "127.0.0.1:7199".to_string()),
            corpus: bench_corpus,
            repeat: bench_repeat.unwrap_or(5),
            json_out: json_path.clone(),
        };
        if let Err(e) = serve::bench::run(&config) {
            eprintln!("serve-bench: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }

    // Every standalone command has exited. Reject unknown commands before
    // the (expensive) profiling phase and before any side-channel file
    // is opened.
    let commands: Vec<&str> = match command.as_str() {
        "all" => ALL.to_vec(),
        c if report::COMMANDS.contains(&c) => vec![c],
        _ => {
            eprintln!("unknown command: {command}");
            usage();
        }
    };

    // Observability side channels: the JSONL decision stream and host-time
    // span recording. Both observe the run without feeding back into it.
    if let Some(file) = &telemetry {
        if let Err(e) = ampsched_obs::telemetry::install(file) {
            eprintln!("cannot open telemetry file {}: {e}", file.display());
            std::process::exit(2);
        }
    }
    if profile || trace_events.is_some() {
        ampsched_obs::span::set_enabled(true);
    }
    // Pipeline sampling: `--profile` turns it on at the default cadence,
    // sampling a pair's shared prefix once as it is simulated;
    // `--profile-sample N` overrides the interval, runs every pair's
    // kinds alone so each run's samples are its own, and also works on
    // its own (summary to stdout, no bench artifact).
    if profile || profile_sample.is_some() {
        ampsched_obs::profiler::set_interval(profile_sample.unwrap_or(8192).max(1));
    }
    common::set_solo_runs(profile_sample.is_some());

    let t0 = Instant::now();
    // Per-phase wall-clock accounting for `--profile`; shaped like a bench
    // report so `scripts/bench_diff` can compare two runs. Trace
    // provisioning time (arena materialize+decode, or sampled live
    // generation on `--trace-path stream`) is accumulated globally by the
    // trace crate and reported as the synthetic "trace" benchmark.
    let mut prof = Profiler::new();
    if profile {
        timing::reset();
        timing::set_stream_sampling(true);
    }
    let preds = if command == "all" || report::needs_predictors(&command) {
        eprintln!("[profiling {} representative benchmarks ...]", 9);
        Some(prof.time("profiling", || profiling::predictors(&params)))
    } else {
        None
    };

    // Machine-readable report sections, keyed by figure; written as one
    // JSON document at exit when --json is given.
    let mut json_sections = Vec::new();
    for cmd in commands {
        let run = || {
            report::run(cmd, &params, preds.as_ref()).expect("a known command with its predictors")
        };
        let sections = if profile { prof.time(cmd, run) } else { run() };
        for section in sections {
            print!("{}", section.text);
            if let (Some(csv), Some(path)) = (&section.csv, &csv_path) {
                std::fs::write(path, csv).expect("write csv");
                eprintln!("[per-pair results written to {path}]");
            }
            json_sections.extend(section.json);
        }
    }
    // Persist any streams materialized this run before reporting, so the
    // next process starts warm even when no doubling write-back or
    // eviction fired.
    if params.trace_cache.is_some() {
        arena::flush();
    }
    // Flush the JSONL audit trail before reporting so the file is
    // complete when the process exits.
    if let Some(file) = &telemetry {
        ampsched_obs::telemetry::close();
        eprintln!("[telemetry stream written to {}]", file.display());
    }
    if let Some(file) = &trace_events {
        match ampsched_obs::span::write_trace_events(file) {
            Ok(n) => eprintln!("[{n} trace events written to {}]", file.display()),
            Err(e) => eprintln!("cannot write trace events to {}: {e}", file.display()),
        }
    }
    let sim_path_name = params.system.sim_path.name();
    let trace_path_name = params.trace_path.name();
    if let Some(path) = &json_path {
        // One assembly path with the serve daemon (report::assemble):
        // the byte-identity contract between `--json` files and served
        // responses starts here. The telemetry block is restricted to
        // the deterministic `sim.*` namespace so the report stays
        // byte-identical across trace provisioning modes, cache
        // temperature, and telemetry flags.
        let doc = report::assemble(
            &command,
            &params,
            json_sections,
            telemetry::summary_json(),
        );
        std::fs::write(path, doc.render_pretty()).expect("write json report");
        eprintln!("[json report written to {path}]");
    }
    if profile {
        let trace_time = timing::total();
        prof.add("trace", trace_time);
        // Fold recorded spans in under a `span.` prefix: new per-name
        // phases appear alongside the coarse command timings, and
        // `bench_diff` skips names the baseline lacks, so span-derived
        // phases never break profile comparisons.
        for (name, dur, _count) in ampsched_obs::span::aggregate() {
            prof.add(&format!("span.{name}"), dur);
        }
        println!("Timing report ({command}, {sim_path_name} kernel, {trace_path_name} traces)\n");
        println!("{}", prof.render());
        let pipeline = render_pipeline_summary();
        if !pipeline.is_empty() {
            println!("{pipeline}");
        }
        if let Some(lanes) = render_lane_accounting() {
            println!("{lanes}\n");
        }
        let wall = t0.elapsed();
        println!(
            "trace provisioning: {:.3}s = {:.1}% of {:.1}s wall-clock ({trace_path_name})\n",
            trace_time.as_secs_f64(),
            100.0 * trace_time.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            wall.as_secs_f64()
        );
        let dir = resolve_out_dir(Path::new("results/bench"));
        std::fs::create_dir_all(&dir).expect("create results/bench");
        // With a persistent cache the warm/cold distinction dominates the
        // trace phase, so it becomes part of the artifact identity: the
        // run is warm when it loaded any stream from the cache.
        let cache_state = params.trace_cache.is_some().then(|| {
            let loaded = ampsched_obs::metrics::snapshot()
                .counters
                .iter()
                .any(|(name, n)| name == "trace.cache.load" && *n > 0);
            if loaded { "warm" } else { "cold" }
        });
        let state_suffix = cache_state.map(|s| format!("-{s}")).unwrap_or_default();
        let out = dir.join(format!(
            "profile-{command}-{sim_path_name}-{trace_path_name}{state_suffix}.json"
        ));
        let target = match cache_state {
            Some(s) => format!("ampsched {command} ({sim_path_name}, {trace_path_name}, {s} cache)"),
            None => format!("ampsched {command} ({sim_path_name}, {trace_path_name})"),
        };
        // Fold the sampled pipeline summary into the artifact alongside
        // the wall-clock phases: `bench_diff` only reads `benchmarks`, so
        // the extra section never perturbs timing comparisons.
        let mut doc = prof.to_bench_json(&target);
        if ampsched_obs::profiler::sample_count() > 0 {
            if let Json::Obj(sections) = &mut doc {
                sections.push((
                    "pipeline".to_string(),
                    ampsched_obs::profiler::summary_json(&ampsched_cpu::STALL_CAUSE_NAMES),
                ));
            }
        }
        std::fs::write(&out, doc.render_pretty()).expect("write profile json");
        eprintln!("[profile written to {}]", out.display());
    } else if profile_sample.is_some() {
        // `--profile-sample` without `--profile`: report the sampled
        // pipeline state without the timing machinery or artifacts.
        let pipeline = render_pipeline_summary();
        if !pipeline.is_empty() {
            println!("{pipeline}");
        }
    }
    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

/// The `kernel.lanes.*` lane accounting on one line; `None` when no run
/// went through `MulticoreSystem::run_lanes`.
fn render_lane_accounting() -> Option<String> {
    let snap = ampsched_obs::metrics::snapshot().filtered("kernel.lanes.");
    let get = |name: &str| snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let lane_cycles = get("kernel.lanes.lane_cycles");
    let sim_cycles = get("kernel.lanes.sim_cycles");
    (lane_cycles > 0).then(|| {
        format!(
            "lanes: {sim_cycles} cycles simulated for {lane_cycles} lane-cycles ({:.1}%), \
             {} forks, {} machines alive at the per-call peaks (summed)",
            100.0 * sim_cycles as f64 / lane_cycles as f64,
            get("kernel.lanes.forks"),
            get("kernel.lanes.peak_machines"),
        )
    })
}

/// Aligned text table of the sampled per-core pipeline summaries; empty
/// when the profiler recorded nothing (sampling off, or the run was too
/// short to cross an interval boundary).
fn render_pipeline_summary() -> String {
    let summaries = ampsched_obs::profiler::summarize();
    if summaries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Pipeline samples (every {} cycles)\n",
        ampsched_obs::profiler::interval()
    ));
    out.push_str(&format!(
        "{:<5} {:>8} {:>7} {:>8} {:>7} {:>6} {:>6} {:>6}  top stall\n",
        "core", "samples", "rob", "isq_int", "isq_fp", "lq", "sq", "util"
    ));
    for c in &summaries {
        let (top_code, top_n) = c
            .stall_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, n)| *n)
            .map(|(i, n)| (i, *n))
            .unwrap_or((0, 0));
        let top_name = ampsched_cpu::STALL_CAUSE_NAMES
            .get(top_code)
            .copied()
            .unwrap_or("?");
        out.push_str(&format!(
            "{:<5} {:>8} {:>7.1} {:>8.1} {:>7.1} {:>6.1} {:>6.1} {:>5.1}%  {} ({:.0}%)\n",
            c.core,
            c.samples,
            c.mean_rob,
            c.mean_isq_int,
            c.mean_isq_fp,
            c.mean_lq,
            c.mean_sq,
            100.0 * c.issue_utilization,
            top_name,
            100.0 * top_n as f64 / (c.samples as f64).max(1.0),
        ));
    }
    out
}
