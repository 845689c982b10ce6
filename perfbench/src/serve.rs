//! The `serve_mixed` workload: a fresh `ampsched serve` daemon per
//! session, driven by one closed-loop client over at most two
//! connections.
//!
//! A session sends:
//! - one cold miss per cell, in a fixed order: three fig1-sized cells
//!   (golden fig1, and fig1 at two simulation seeds drawn from
//!   `--seed`), the golden morphing cell, then golden scaling, scaling at
//!   a drawn seed, and golden fig7;
//! - a pair of identical requests on two concurrent connections for
//!   fig1 and for scaling at another drawn seed, which the cache must
//!   coalesce into one run each;
//! - then warm repeats over all cells, in an order drawn from `--seed`,
//!   each answered from the cache.
//!
//! The cold set puts golden morphing (≈ 110–210 ms on a 2-CPU host) at
//! the median with four fig1-sized misses (≈ 40–80 ms) below it and four
//! scaling and fig7 misses (≈ 170 ms and up) above it. With several
//! morphing cells of near-equal cost at the median, the median flipped
//! between them and moved 21% from seed to seed. The order is fixed
//! because cells share trace streams in the daemon's arena, so a cell's
//! cost depends on the cells before it.
//!
//! Warm hits skip trace, system and scheduler entirely, so they isolate
//! the front end; cold misses put the simulator behind HTTP. Golden
//! cells must be byte-identical to the committed goldens, every other
//! body to the report a fresh CLI-equivalent process writes for the same
//! request.

use crate::check::{self, Tally};
use crate::probe::{self, Obs};
use crate::stats;
use crate::{over_budget, rep_plan, Opts, Outcome, Rep};
use ampsched_experiments::common::Params;
use ampsched_experiments::serve::{self, http, protocol, ServeConfig};
use ampsched_experiments::{report, telemetry};
use ampsched_trace::timing;
use ampsched_util::{Json, StdRng};
use std::io::{BufRead, BufReader, Lines, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The golden report files are pinned at these parameters.
const PINNED_PARAMS: &str =
    r#""scale": "quick", "pairs": 2, "insts": 20000, "profile_insts": 200000"#;

/// Cold cells in the order they are sent: the experiment, and `None`
/// for the golden-pinned default seed or `Some(k)` for the seed drawn
/// from `--seed` plus `k`.
const COLD_CELLS: [(&str, Option<u64>); 7] = [
    ("fig1", None),
    ("fig1", Some(0)),
    ("fig1", Some(2)),
    ("morphing", None),
    ("scaling", None),
    ("scaling", Some(0)),
    ("fig7", None),
];

/// Cells sent as a pair of concurrent identical requests, at the drawn
/// seed plus one.
const COALESCED_CELLS: [&str; 2] = ["fig1", "scaling"];

/// Warm hits per run, spread over its sessions; the tail is read at
/// p99.2 (rank 1240 of 1250).
const WARM_PER_RUN: usize = 1250;

/// Host seconds per planned session: 5 sessions at 30 s, each ≈ 2.5 s of
/// cold cells plus 250 warm hits at ≈ 10 ms on a 2-CPU host.
const NOMINAL_SESSION_SECONDS: f64 = 6.0;

/// Daemon start-ups per run on top of one per session.
const EXTRA_SETUP_SAMPLES: usize = 15;

/// Per-layer metrics of layers the daemon enters that neither its access
/// log nor its obs instruments record: profiling and scheduling run
/// inside the sim phase with no timer around them, ops are pulled with no
/// counter, and no `sim.*` instrument counts instructions or migrations.
const UNMEASURED: &[&str] = &[
    "trace.ops_pulled",
    "trace.useful_ratio",
    "profiling.busy_s",
    "profiling.sim_cycles",
    "profiling.host_ns_per_cycle",
    "profiling.skip_ratio",
    "system.sim_insts",
    "system.migrations",
    "sched.busy_s",
    "sched.ns_per_call",
];

/// A request body with the bytes its response must carry.
struct Cell {
    body: String,
    expected: Vec<u8>,
}

fn body(experiment: &str, seed: Option<u64>) -> String {
    let seed = seed.map(|s| format!(", \"seed\": {s}")).unwrap_or_default();
    format!("{{\"experiment\": \"{experiment}\", \"params\": {{{PINNED_PARAMS}{seed}}}}}")
}

/// The simulation seed drawn from `--seed` (never the golden default;
/// three apart per seed so the `+ k` cells of two seeds never meet).
fn cell_seed(seed: u64) -> u64 {
    1_000_000_000 + 3 * (seed % 1_000_000_000)
}

/// Build the cold and coalesced cells with their expected bytes: goldens
/// from the repository, the rest from a fresh `cli` process each.
fn cells(exe: &Path, seed: u64) -> Result<(Vec<Cell>, Vec<Cell>), String> {
    let computed = |experiment: &str, sim_seed: u64| -> Result<Cell, String> {
        let body = body(experiment, Some(sim_seed));
        let out = Command::new(exe)
            .args(["cli", &body])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cli {experiment}: {e}"))?;
        if !out.status.success() {
            return Err(format!("cli {experiment} exited with {}", out.status));
        }
        Ok(Cell {
            body,
            expected: out.stdout,
        })
    };
    let cold = COLD_CELLS
        .iter()
        .map(|&(experiment, offset)| match offset {
            None => Ok(Cell {
                body: body(experiment, None),
                expected: check::golden(experiment)
                    .map_err(|e| format!("golden {experiment}: {e}"))?,
            }),
            Some(k) => computed(experiment, cell_seed(seed) + k),
        })
        .collect::<Result<_, String>>()?;
    let coalesced = COALESCED_CELLS
        .iter()
        .map(|experiment| computed(experiment, cell_seed(seed) + 1))
        .collect::<Result<_, _>>()?;
    Ok((cold, coalesced))
}

/// Entry point of the `cli` process: write the report `ampsched --json`
/// writes for one request body, computed in this fresh process.
pub fn cli_main(args: &[String]) -> ! {
    let body = args.first().map(String::as_str).unwrap_or_default();
    let spec = protocol::parse_request(body.as_bytes(), &Params::default()).unwrap_or_else(|e| {
        eprintln!("perfbench cli: {e}");
        std::process::exit(2);
    });
    let sections = report::compute_sections(&spec.experiment, &spec.params).unwrap_or_else(|e| {
        eprintln!("perfbench cli: {e}");
        std::process::exit(2);
    });
    let doc = report::assemble(
        &spec.experiment,
        &spec.params,
        sections,
        telemetry::summary_json(),
    );
    let mut out = std::io::stdout().lock();
    out.write_all(doc.render_pretty().as_bytes())
        .and_then(|()| out.flush())
        .expect("write report");
    std::process::exit(0);
}

/// Entry point of the `daemon` process: `ampsched serve --addr
/// 127.0.0.1:0 [--access-log FILE]`. Prints its address, serves until
/// `POST /shutdown`, then prints its own work counts.
pub fn daemon_main(args: &[String]) -> ! {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        access_log: args.first().map(PathBuf::from),
        ..ServeConfig::default()
    };
    let server = serve::Server::bind(config).unwrap_or_else(|e| {
        eprintln!("perfbench daemon: cannot bind: {e}");
        std::process::exit(1);
    });
    // The parent holds this process's stdin open; end of input means
    // the parent is gone, so drain and exit rather than outlive it. The
    // watcher stays blocked in `read` on a normal shutdown and ends with
    // the process.
    let shutdown = server.shutdown_handle();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    println!("listening {}", server.local_addr().expect("bound address"));
    std::io::stdout().flush().expect("write to parent");
    if let Err(e) = server.run() {
        eprintln!("perfbench daemon: {e}");
        std::process::exit(1);
    }
    let obs = Obs::now();
    let counts: Vec<(String, Json)> = obs
        .deterministic_counts()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::from(v)))
        .collect();
    println!(
        "{}",
        Json::obj([
            ("trace_busy_s", Json::from(timing::total().as_secs_f64())),
            (
                "skip_joint_cycles",
                Json::from(obs.hist_sum("sim.skip.joint_cycles")),
            ),
            ("counts", Json::Obj(counts)),
        ])
        .render()
    );
    std::process::exit(0);
}

/// A running daemon child. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    /// Held open for the daemon's lifetime; see `daemon_main`.
    _stdin: ChildStdin,
    stdout: Lines<BufReader<ChildStdout>>,
    addr: String,
}

impl Daemon {
    /// Spawn a daemon and wait for its first `200` on `/healthz`;
    /// returns it with the time that took.
    fn start(exe: &Path, access_log: Option<&Path>) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(log) = access_log {
            cmd.arg(log);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut daemon = Daemon {
            _stdin: child.stdin.take().expect("piped stdin"),
            child,
            stdout,
            addr: String::new(),
        };
        daemon.addr = match daemon.stdout.next() {
            Some(Ok(l)) => l
                .strip_prefix("listening ")
                .ok_or(format!("unexpected daemon line {l:?}"))?
                .to_string(),
            other => return Err(format!("daemon did not start: {other:?}")),
        };
        while start.elapsed() < Duration::from_secs(30) {
            if let Ok((200, _, _)) = http::request(&daemon.addr, "GET", "/healthz", b"") {
                return Ok((daemon, start.elapsed()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("daemon never answered /healthz".to_string())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `POST /shutdown`, wait for the drain, and read the daemon's
    /// closing stats line.
    fn stop(mut self) -> Result<Json, String> {
        http::request(&self.addr, "POST", "/shutdown", b"")?;
        let line = self.stdout.next();
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let line = line.and_then(Result::ok).ok_or("daemon printed no stats")?;
        Json::parse(&line).map_err(|e| format!("daemon stats: {e:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/run` response as the client saw it.
struct Reply {
    ms: f64,
    /// `X-Cache` value (`miss`, `hit`, `coalesced`), or `error`.
    cache: String,
    /// HTTP status, 0 when the request failed in transport.
    status: u16,
    body: Vec<u8>,
}

/// Send one cell and time it.
fn send(addr: &str, cell: &Cell) -> Reply {
    let t = Instant::now();
    let response = http::request(addr, "POST", "/run", cell.body.as_bytes());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match response {
        Ok((status, headers, body)) => Reply {
            ms,
            cache: headers
                .iter()
                .find(|(n, _)| n == "x-cache")
                .map_or("-", |(_, v)| v.as_str())
                .to_string(),
            status,
            body,
        },
        Err(e) => {
            eprintln!("perfbench: request failed: {e}");
            Reply {
                ms,
                cache: "error".to_string(),
                status: 0,
                body: Vec::new(),
            }
        }
    }
}

/// Send one cell, time it, and check its status and bytes into `tally`.
fn post(addr: &str, cell: &Cell, tally: &mut Tally) -> Reply {
    let reply = send(addr, cell);
    tally.check_response(reply.status, &cell.expected, &reply.body);
    reply
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// One `POST /run` line of the access log.
struct LogLine {
    outcome: String,
    total_us: u64,
    phases: Vec<(String, u64)>,
}

impl LogLine {
    fn phase_us(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, us)| us as f64)
    }
}

fn read_access_log(path: &Path) -> Result<Vec<LogLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("access log: {e}"))?;
    let mut lines = Vec::new();
    for l in text.lines() {
        let doc = Json::parse(l).map_err(|e| format!("access log line: {e:?}"))?;
        if doc.get("route").and_then(Json::as_str) != Some("POST /run") {
            continue;
        }
        lines.push(LogLine {
            outcome: doc
                .get("outcome")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            total_us: doc.get("total_us").and_then(Json::as_u64).unwrap_or(0),
            phases: doc
                .get("phases")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| {
                    Some((p.get("name")?.as_str()?.to_string(), p.get("us")?.as_u64()?))
                })
                .collect(),
        });
    }
    Ok(lines)
}

/// Run one session on a fresh daemon; returns it with whether every
/// response had the cache outcome the script implies.
fn session(
    exe: &Path,
    (cold, coalesced): &(Vec<Cell>, Vec<Cell>),
    seed: u64,
    warm_n: usize,
    access_log: Option<&Path>,
    tally: &mut Tally,
) -> Result<(Rep, bool), String> {
    let traced = access_log.is_some();
    let (daemon, setup) = Daemon::start(exe, access_log)?;
    let pid = daemon.pid();
    let mut threads_peak = 0u64;
    let mut sample_threads = || {
        if traced {
            threads_peak = threads_peak.max(probe::proc_status(&pid, "Threads").unwrap_or(0));
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // Client latency of each /run request in order, and whether it was
    // one of a concurrent pair (their log lines may come in either order).
    let mut sent: Vec<(f64, bool)> = Vec::new();
    let mut outcomes = Vec::new();
    let mut as_scripted = true;
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());

    let t0 = Instant::now();
    for cell in cold {
        sample_threads();
        let r = post(&daemon.addr, cell, tally);
        as_scripted &= r.cache == "miss";
        cold_ms.push(r.ms);
        sent.push((r.ms, false));
        outcomes.push(r.cache);
    }
    for cell in coalesced {
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| send(&daemon.addr, cell));
            let b = scope.spawn(|| send(&daemon.addr, cell));
            while traced && !(a.is_finished() && b.is_finished()) {
                sample_threads();
                std::thread::sleep(Duration::from_millis(1));
            }
            (a.join(), b.join())
        });
        let mut pair = Vec::new();
        for joined in [a, b] {
            let r = joined.map_err(|_| "request thread panicked".to_string())?;
            tally.check_response(r.status, &cell.expected, &r.body);
            pair.push(r);
        }
        pair.sort_by(|x, y| x.cache.cmp(&y.cache));
        as_scripted &= pair[0].cache == "coalesced" && pair[1].cache == "miss";
        cold_ms.push(pair[1].ms);
        for r in pair {
            sent.push((r.ms, true));
            outcomes.push(r.cache);
        }
    }
    let all: Vec<&Cell> = cold.iter().chain(coalesced).collect();
    let order = shuffled(all.len(), &mut rng);
    for i in 0..warm_n {
        sample_threads();
        let r = post(&daemon.addr, all[order[i % all.len()]], tally);
        as_scripted &= r.cache == "hit";
        warm_ms.push(r.ms);
        sent.push((r.ms, false));
        outcomes.push(r.cache);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_mb = probe::proc_status(&pid, "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0);
    let stats = daemon.stop()?;
    let layers = match access_log {
        Some(path) => serve_layers(
            &read_access_log(path)?,
            &sent,
            &outcomes,
            &stats,
            threads_peak,
        ),
        None => Vec::new(),
    };
    let outcome_count = |o: &str| Json::from(outcomes.iter().filter(|x| *x == o).count());
    let mut counts = stats
        .get("counts")
        .and_then(Json::as_obj)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    counts.extend(
        ["miss", "hit", "coalesced"].map(|o| (format!("serve.cache.{o}"), outcome_count(o))),
    );
    let rep = Rep {
        traced,
        setup_s: Some(setup.as_secs_f64()),
        wall_s,
        rss_mb,
        cold_ms,
        warm_ms,
        layers: layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counts: Json::Obj(counts),
    };
    Ok((rep, as_scripted))
}

/// Per-layer values of a traced session from its access log, the
/// client's own timings, and the daemon's closing counts.
fn serve_layers(
    log: &[LogLine],
    sent: &[(f64, bool)],
    outcomes: &[String],
    daemon: &Json,
    threads_peak: u64,
) -> Vec<(&'static str, f64)> {
    let count = |k: &str| {
        daemon
            .get("counts")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let median_phase = |lines: &mut dyn Iterator<Item = &LogLine>, phase: &str| {
        let v: Vec<f64> = lines.filter_map(|l| l.phase_us(phase)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let misses = || log.iter().filter(|l| l.outcome == "miss");
    let sum_phases = |lines: &mut dyn Iterator<Item = &LogLine>, names: &[&str]| -> f64 {
        lines
            .flat_map(|l| names.iter().filter_map(|n| l.phase_us(n)))
            .sum::<f64>()
            / 1e6
    };
    // Requests were sent one at a time except the concurrent pairs, so
    // log lines and client timings line up by position outside them.
    let accept_wait: Vec<f64> = sent
        .iter()
        .zip(log)
        .filter(|((_, paired), _)| !paired)
        .map(|((ms, _), line)| ms - line.total_us as f64 / 1e3)
        .collect();
    let hits = outcomes.iter().filter(|o| *o == "hit").count();
    let coalesced = outcomes.iter().filter(|o| *o == "coalesced").count();
    let trace_busy = daemon
        .get("trace_busy_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let sim_busy = sum_phases(&mut misses(), &["sim"]);
    let sim_cycles = count("system.sim_cycles");
    let (arena_hits, arena_misses) = (count("trace.arena_hits"), count("trace.arena_misses"));
    let skip = daemon
        .get("skip_joint_cycles")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("trace.busy_s", trace_busy),
        (
            "trace.chunks_materialized",
            count("trace.chunks_materialized") as f64,
        ),
        (
            "trace.arena_hit_ratio",
            ratio(arena_hits, arena_hits + arena_misses),
        ),
        // Inside the daemon profiling and scheduling run within the sim
        // phase, so they count to the system layer here.
        ("system.busy_s", sim_busy - trace_busy),
        (
            "system.host_ns_per_cycle",
            (sim_busy - trace_busy) * 1e9 / sim_cycles.max(1) as f64,
        ),
        ("system.sim_cycles", sim_cycles as f64),
        ("system.skip_ratio", ratio(skip, sim_cycles)),
        ("system.swaps", count("system.swaps") as f64),
        ("sched.calls", count("sched.calls") as f64),
        (
            "sched.predictor_queries",
            count("sched.predictor_queries") as f64,
        ),
        ("report.busy_s", sum_phases(&mut misses(), &["serialize"])),
        (
            "serve.busy_s",
            sum_phases(&mut log.iter(), &["parse", "cache-claim", "write"]),
        ),
        (
            "serve.accept_wait_ms",
            stats::median(&accept_wait).unwrap_or(0.0),
        ),
        ("serve.parse_us", median_phase(&mut log.iter(), "parse")),
        (
            "serve.cache_claim_us",
            median_phase(&mut log.iter(), "cache-claim"),
        ),
        ("serve.write_us", median_phase(&mut log.iter(), "write")),
        ("serve.hit_ratio", ratio(hits as u64, outcomes.len() as u64)),
        ("serve.coalesced", coalesced as f64),
        ("serve.threads_peak", threads_peak as f64),
        (
            "serve.queue_wait_ms",
            median_phase(&mut misses(), "queue-wait") / 1e3,
        ),
        ("serve.sim_ms", median_phase(&mut misses(), "sim") / 1e3),
        (
            "serve.serialize_us",
            median_phase(&mut misses(), "serialize"),
        ),
    ]
}

/// Measure `serve_mixed`: the planned sessions, each on a fresh daemon.
pub fn measure(opts: &Opts) -> Outcome {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut tally = Tally::default();
    let cells = match cells(&exe, opts.seed) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("perfbench: cannot build the request cells: {e}");
            tally.record(false);
            return Outcome {
                tally,
                consistent: false,
                metrics: Vec::new(),
                details: Vec::new(),
                unmeasured: UNMEASURED,
            };
        }
    };
    let n = (opts.seconds as f64 / NOMINAL_SESSION_SECONDS) as usize;
    let plan = rep_plan(n.max(2), opts.trace);
    let warm_n = WARM_PER_RUN.div_ceil(plan.len());
    let run_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(std::process::id().to_string());
    let started = Instant::now();
    // Start-ups beyond one per session, so the set-up median rests on
    // more than a handful of millisecond-scale samples.
    let mut setups = Vec::new();
    if !opts.trace {
        for _ in 0..EXTRA_SETUP_SAMPLES {
            match Daemon::start(&exe, None).and_then(|(d, took)| d.stop().map(|_| took)) {
                Ok(took) => setups.push(took.as_secs_f64()),
                Err(e) => eprintln!("perfbench: set-up sample failed: {e}"),
            }
        }
    }
    let mut reps = Vec::new();
    let mut scripted = true;
    for (i, traced) in plan.into_iter().enumerate() {
        if over_budget(started, opts.seconds, i) {
            break;
        }
        let log = traced.then(|| run_dir.join(format!("access-{i}.jsonl")));
        if let Some(log) = &log {
            std::fs::create_dir_all(log.parent().expect("log has a directory"))
                .expect("create the access-log directory");
        }
        match session(&exe, &cells, opts.seed, warm_n, log.as_deref(), &mut tally) {
            Ok((rep, as_scripted)) => {
                scripted &= as_scripted;
                reps.push(rep);
            }
            Err(e) => {
                eprintln!("perfbench: serve session failed: {e}");
                tally.record(false);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(run_dir.parent().expect("run dir has a parent"));
    Outcome {
        unmeasured: UNMEASURED,
        ..Outcome::from_reps(&reps, &setups, tally, scripted, Vec::new())
    }
}
