//! End-to-end smoke tests: run the `ampsched` binary on tiny workloads
//! and assert each command exits cleanly and emits a well-formed JSON
//! report with the documented schema.

use ampsched_util::Json;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `ampsched <extra args> --json <tmp> <command>` and parse the report.
/// Every call gets its own directory: tests run concurrently, several
/// run the same command, and each call removes its directory afterwards.
fn run_with_json(command: &str, extra: &[&str]) -> Json {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ampsched-smoke-{}-{}-{}",
        command,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("report.json");

    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(extra)
        .arg("--json")
        .arg(&json_path)
        .arg(command)
        .output()
        .expect("run ampsched");
    assert!(
        out.status.success(),
        "ampsched {command} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("report file written");
    std::fs::remove_dir_all(&dir).ok();
    let doc = Json::parse(&text).expect("report must be well-formed JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some(command));
    doc
}

/// Small-but-meaningful scale: 2 pairs, 20k-instruction runs, 200k
/// profiling instructions (enough for one interval per benchmark).
const QUICK: &[&str] = &["--quick", "--pairs", "2", "--insts", "20000", "--profile-insts", "200000"];

#[test]
fn ampsched_fig1_emits_well_formed_json_report() {
    let doc = run_with_json("fig1", &["--quick", "--insts", "20000"]);
    let params = doc.get("params").expect("params section");
    assert_eq!(params.get("run_insts").and_then(Json::as_u64), Some(20000));
    assert_eq!(params.get("sim_path").and_then(Json::as_str), Some("fast"));
    assert_eq!(params.get("trace_path").and_then(Json::as_str), Some("arena"));

    let rows = doc.get("fig1").and_then(Json::as_arr).expect("fig1 section");
    assert_eq!(rows.len(), 6, "Figure 1 covers six workloads");
    for row in rows {
        assert!(row.get("workload").and_then(Json::as_str).is_some());
        let a = row.get("ppw_core_a").and_then(Json::as_f64).expect("ppw_core_a");
        let b = row.get("ppw_core_b").and_then(Json::as_f64).expect("ppw_core_b");
        assert!(a > 0.0 && b > 0.0, "IPC/Watt must be positive");
        let ratio = row.get("ratio").and_then(Json::as_f64).expect("ratio");
        assert!((ratio - b / a).abs() < 1e-9);
    }
}

#[test]
fn ampsched_fig3_emits_matrix_grid() {
    let doc = run_with_json("fig3", QUICK);
    let cells = doc.get("fig3").and_then(Json::as_arr).expect("fig3 section");
    assert_eq!(cells.len(), 25, "5x5 bin grid");
    let mut profiled = 0;
    for c in cells {
        let int_pct = c.get("int_pct").and_then(Json::as_f64).expect("int_pct");
        let fp_pct = c.get("fp_pct").and_then(Json::as_f64).expect("fp_pct");
        assert!((0.0..=100.0).contains(&int_pct) && (0.0..=100.0).contains(&fp_pct));
        assert!(c.get("ratio").and_then(Json::as_f64).expect("ratio") > 0.0);
        if c.get("profiled").and_then(Json::as_bool) == Some(true) {
            profiled += 1;
        }
    }
    assert!(profiled > 0, "some cells must be directly profiled");
}

#[test]
fn ampsched_fig4_emits_surface_coefficients() {
    let doc = run_with_json("fig4", QUICK);
    let beta = doc
        .get("fig4")
        .and_then(|s| s.get("beta"))
        .and_then(Json::as_arr)
        .expect("fig4.beta");
    assert_eq!(beta.len(), 6, "quadratic surface has six coefficients");
    for b in beta {
        assert!(b.as_f64().expect("coefficient").is_finite());
    }
}

#[test]
fn ampsched_fig6_emits_sensitivity_grid() {
    let doc = run_with_json("fig6", QUICK);
    let pts = doc.get("fig6").and_then(Json::as_arr).expect("fig6 section");
    assert_eq!(pts.len(), 6, "3 windows x 2 histories");
    for p in pts {
        assert!(p.get("window").and_then(Json::as_u64).is_some());
        assert!(p.get("history").and_then(Json::as_u64).is_some());
        assert!(p
            .get("weighted_improvement_pct")
            .and_then(Json::as_f64)
            .expect("improvement")
            .is_finite());
    }
}

#[test]
fn ampsched_overhead_emits_sweep_points() {
    let doc = run_with_json("overhead", QUICK);
    let pts = doc
        .get("overhead")
        .and_then(Json::as_arr)
        .expect("overhead section");
    assert_eq!(pts.len(), 5, "five swept overheads");
    let overheads: Vec<u64> = pts
        .iter()
        .map(|p| p.get("overhead_cycles").and_then(Json::as_u64).expect("cycles"))
        .collect();
    assert_eq!(overheads, vec![100, 1_000, 10_000, 100_000, 1_000_000]);
    for p in pts {
        assert!(p
            .get("weighted_improvement_pct")
            .and_then(Json::as_f64)
            .expect("improvement")
            .is_finite());
    }
}

#[test]
fn ampsched_rr_interval_emits_results_per_pair() {
    let doc = run_with_json("rr-interval", QUICK);
    let section = doc.get("rr_interval").expect("rr_interval section");
    assert!(section
        .get("rr1_vs_rr2_weighted_pct")
        .and_then(Json::as_f64)
        .expect("average")
        .is_finite());
    let per_pair = section
        .get("per_pair")
        .and_then(Json::as_arr)
        .expect("per_pair");
    assert_eq!(per_pair.len(), 2, "--pairs 2");
    for p in per_pair {
        assert!(p.get("pair").and_then(Json::as_str).expect("label").contains('+'));
        assert!(p.get("weighted_pct").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn ampsched_ablation_emits_all_variants() {
    let doc = run_with_json("ablation", QUICK);
    let rows = doc
        .get("ablation")
        .and_then(Json::as_arr)
        .expect("ablation section");
    assert_eq!(rows.len(), 11, "full ablation battery");
    let variants: Vec<&str> = rows
        .iter()
        .map(|r| r.get("variant").and_then(Json::as_str).expect("variant"))
        .collect();
    assert!(variants.iter().any(|v| v.contains("no fairness swap")));
    assert!(variants.iter().any(|v| v.contains("round-robin")));
    for r in rows {
        assert!(r
            .get("weighted_vs_static_pct")
            .and_then(Json::as_f64)
            .expect("score")
            .is_finite());
        assert!(r.get("swaps_per_run").and_then(Json::as_f64).expect("swaps") >= 0.0);
    }
}

#[test]
fn ampsched_morphing_emits_four_config_rows() {
    let doc = run_with_json("morphing", &["--quick", "--insts", "20000"]);
    let rows = doc
        .get("morphing")
        .and_then(Json::as_arr)
        .expect("morphing section");
    assert_eq!(rows.len(), 9, "nine representative benchmarks");
    for r in rows {
        assert!(r.get("workload").and_then(Json::as_str).is_some());
        for key in ["ipc", "ppw"] {
            let vals = r.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(vals.len(), 4, "FP, INT, MORPH+, MORPH-");
            for v in vals {
                assert!(v.as_f64().expect("value") > 0.0);
            }
        }
        assert!(r.get("seq_speedup").and_then(Json::as_f64).expect("speedup") > 0.0);
        assert!(r.get("ppw_ratio").and_then(Json::as_f64).expect("ratio") > 0.0);
    }
}

#[test]
fn ampsched_scaling_emits_shape_grid_with_zoo_schedulers() {
    let doc = run_with_json("scaling", QUICK);
    let section = doc.get("scaling").expect("scaling section");
    let epoch = section.get("epoch_cycles").and_then(Json::as_u64).expect("epoch_cycles");
    // --quick: 20k instructions / 4, clamped to the [5_000, epoch] band.
    assert!((5_000..=400_000).contains(&epoch), "densified sweep epoch, got {epoch}");
    let shapes = section.get("shapes").and_then(Json::as_arr).expect("shapes");
    assert_eq!(shapes.len(), 5, "default shape grid");
    let labels: Vec<&str> = shapes
        .iter()
        .map(|s| s.get("label").and_then(Json::as_str).expect("label"))
        .collect();
    for required in ["2fp+2int-4t", "4fp+4int-8t", "1fp+3int-4t"] {
        assert!(labels.contains(&required), "grid must cover {required}: {labels:?}");
    }
    for shape in shapes {
        let threads = shape.get("threads").and_then(Json::as_u64).expect("threads") as usize;
        let workloads = shape.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(workloads.len(), threads, "one benchmark per thread");
        let cells = shape.get("schedulers").and_then(Json::as_arr).expect("schedulers");
        let names: Vec<&str> = cells
            .iter()
            .map(|c| c.get("scheduler").and_then(Json::as_str).expect("scheduler"))
            .collect();
        for required in ["proposed", "round-robin", "static", "tpe", "camp-static", "camp-dynamic"]
        {
            assert!(names.contains(&required), "zoo must include {required}: {names:?}");
        }
        for c in cells {
            assert!(c.get("cycles").and_then(Json::as_u64).expect("cycles") > 0);
            // The densified epoch guarantees every scheduler actually
            // reaches context-switch boundaries even under --quick; a
            // zero here means the epoch-cadence zoo silently degenerated
            // to static (the regression this sweep config exists to avoid).
            assert!(
                c.get("epoch_decisions").and_then(Json::as_u64).expect("epoch_decisions") > 0,
                "every run must cross at least one epoch boundary"
            );
            let ppw = c.get("ipc_per_watt").and_then(Json::as_arr).expect("ipc_per_watt");
            assert_eq!(ppw.len(), threads, "one IPC/Watt per thread");
            let vs = c.get("weighted_vs_static_pct").expect("vs-static field present");
            if let Some(v) = vs.as_f64() {
                assert!(v.is_finite());
            }
            let scheduler = c.get("scheduler").and_then(Json::as_str).unwrap();
            if scheduler == "static" {
                assert_eq!(c.get("swaps").and_then(Json::as_u64), Some(0));
                assert_eq!(c.get("migrations").and_then(Json::as_u64), Some(0));
                assert_eq!(vs.as_f64(), Some(0.0), "static vs itself is zero");
            }
            assert!(
                c.get("migrations").and_then(Json::as_u64).expect("migrations")
                    >= c.get("swaps").and_then(Json::as_u64).expect("swaps"),
                "each reassignment moves at least one thread"
            );
        }
    }
}

#[test]
fn ampsched_scaling_report_is_deterministic() {
    let a = run_with_json("scaling", QUICK);
    let b = run_with_json("scaling", QUICK);
    assert_eq!(
        a.get("scaling").expect("scaling section").render_pretty(),
        b.get("scaling").expect("scaling section").render_pretty(),
        "two identical invocations must produce identical reports"
    );
}

#[test]
fn ampsched_profile_flag_writes_bench_report() {
    let dir = std::env::temp_dir().join(format!("ampsched-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // An absolute results dir keeps the test from writing into the repo.
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(["--quick", "--insts", "20000", "--sim-path", "reference", "--profile", "fig1"])
        .env("CARGO_MANIFEST_DIR", &dir)
        .output()
        .expect("run ampsched");
    assert!(
        out.status.success(),
        "ampsched --profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Timing report"), "missing timing report:\n{stdout}");
    let report = dir.join("results/bench/profile-fig1-reference-arena.json");
    // The binary anchors results/ at the workspace root it derives from
    // CARGO_MANIFEST_DIR, which we pointed at the temp dir.
    let text = std::fs::read_to_string(&report).expect("profile json written");
    let doc = Json::parse(&text).expect("profile json parses");
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks array");
    assert!(
        benches.iter().any(|b| b.get("name").and_then(Json::as_str) == Some("fig1")),
        "fig1 phase must be timed"
    );
    assert!(
        benches.iter().any(|b| b.get("name").and_then(Json::as_str) == Some("trace")),
        "trace provisioning must be timed"
    );
    for b in benches {
        assert!(b.get("mean_ns").and_then(Json::as_f64).expect("mean_ns") > 0.0);
    }

    // With a persistent cache the artifact is labelled by whether the
    // run loaded any stream from it: a fresh directory is cold, the next
    // run on it warm.
    let cache = dir.join("trace-cache");
    let labelled = |s: &str| dir.join(format!("results/bench/profile-fig1-fast-arena-{s}.json"));
    for state in ["cold", "warm"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
            .args(["--quick", "--insts", "20000", "--profile", "--trace-cache"])
            .arg(&cache)
            .arg("fig1")
            .env("CARGO_MANIFEST_DIR", &dir)
            .output()
            .expect("run ampsched");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(labelled(state).exists(), "the {state} run must write its {state} profile");
        if state == "cold" {
            assert!(!labelled("warm").exists(), "a fresh cache directory is cold");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ampsched_flag_order_does_not_matter() {
    // Run-parameter flags resolve like a request's `params` members: the
    // preset applies first wherever it is spelled, so flags before
    // `--quick` are kept, and side-channel flags too.
    let dir = temp_dir("flag-order");
    let cache = dir.join("trace-cache").display().to_string();
    let telemetry = dir.join("decisions.jsonl");
    let run = |args: &[&str], report: &str| {
        let report = dir.join(report);
        let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
            .args(args)
            .arg("--json")
            .arg(&report)
            .arg("fig1")
            .output()
            .expect("run ampsched");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(std::fs::read(&report).expect("report written")).expect("UTF-8")
    };
    let late = run(
        &[
            "--sim-path", "reference", "--trace-cache", &cache, "--telemetry",
            &telemetry.display().to_string(), "--quick", "--pairs", "2", "--insts", "20000",
            "--profile-insts", "200000",
        ],
        "late.json",
    );
    let telemetry_written = telemetry.exists();
    let first = run(
        &[
            "--quick", "--pairs", "2", "--insts", "20000", "--profile-insts", "200000",
            "--sim-path", "reference", "--trace-cache", &cache,
        ],
        "first.json",
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(telemetry_written, "--telemetry before --quick must still be honoured");
    assert_eq!(late, first, "flag order must not change the report");
    let doc = Json::parse(&late).expect("report parses");
    let params = doc.get("params").expect("params section");
    assert_eq!(params.get("sim_path").and_then(Json::as_str), Some("reference"));
    assert_eq!(params.get("run_insts").and_then(Json::as_u64), Some(20000));
    assert_eq!(params.get("trace_cache").and_then(Json::as_str), Some(cache.as_str()));
}

#[test]
fn ampsched_serve_refuses_run_parameter_flags_it_would_ignore() {
    // A port already taken: a daemon that got past the flag check fails
    // to bind and exits 1 instead of serving.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port");
    let addr = taken.local_addr().expect("bound address").to_string();
    let dir = temp_dir("serve-flags");
    let cache = dir.join("trace-cache");
    let serve = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ampsched"))
            .args(args)
            .arg("--trace-cache")
            .arg(&cache)
            .args(["serve", "--addr", &addr])
            .output()
            .expect("run ampsched")
    };
    let refused = serve(&["--quick", "--pairs", "2"]);
    let accepted = serve(&[]);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--quick, --pairs"), "{stderr}");
    assert!(!stderr.contains("cannot bind"), "{stderr}");
    // --trace-cache is the daemon's own: it passes the check.
    let stderr = String::from_utf8_lossy(&accepted.stderr);
    assert_eq!(accepted.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot bind"), "{stderr}");
}

#[test]
fn ampsched_refuses_two_scale_presets() {
    // `--medium --quick` is `scale` given twice: neither wins silently.
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(["--medium", "--quick", "fig1"])
        .output()
        .expect("run ampsched");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("\"scale\" given more than once"), "{stderr}");
}

#[test]
fn ampsched_serve_refuses_side_channel_flags() {
    // The daemon answers over HTTP and writes none of these files, so
    // each flag would be silently ignored: exit 2 before binding (the
    // port is taken, so a daemon past the check would exit 1).
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port");
    let addr = taken.local_addr().expect("bound address").to_string();
    let dir = temp_dir("serve-side-flags");
    let path = |name: &str| dir.join(name).display().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(["--telemetry", &path("decisions.jsonl"), "--trace-events", &path("trace.json")])
        .args(["--profile", "--profile-sample", "500"])
        .args(["--csv", &path("pairs.csv"), "--json", &path("report.json")])
        .args(["serve", "--addr", &addr])
        .output()
        .expect("run ampsched");
    let written = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--telemetry, --trace-events, --profile, --profile-sample, --csv, --json"),
        "{stderr}"
    );
    assert!(!stderr.contains("cannot bind"), "{stderr}");
    assert_eq!(written, 0, "a refused daemon creates no file");
}

#[test]
fn ampsched_trace_path_stream_matches_arena_report() {
    // The two provisioning paths must be observationally identical at the
    // CLI level: byte-identical figure sections in the JSON report.
    let arena = run_with_json("fig1", &["--quick", "--insts", "20000", "--trace-path", "arena"]);
    let stream = run_with_json("fig1", &["--quick", "--insts", "20000", "--trace-path", "stream"]);
    assert_eq!(
        arena.get("params").and_then(|p| p.get("trace_path")).and_then(Json::as_str),
        Some("arena")
    );
    assert_eq!(
        stream.get("params").and_then(|p| p.get("trace_path")).and_then(Json::as_str),
        Some("stream")
    );
    assert_eq!(
        arena.get("fig1").expect("fig1 section").render_pretty(),
        stream.get("fig1").expect("fig1 section").render_pretty(),
        "arena and stream provisioning must produce identical results"
    );
}

/// A fresh, empty temp directory for one test.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ampsched-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn ampsched_csv_writes_one_row_per_pair() {
    let dir = temp_dir("csv");
    let csv = dir.join("pairs.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(QUICK)
        .arg("--csv")
        .arg(&csv)
        .arg("fig7")
        .output()
        .expect("run ampsched");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&csv).expect("csv written");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "pair,ppw_proposed_t0,ppw_proposed_t1,ppw_hpe_t0,ppw_hpe_t1,ppw_rr_t0,ppw_rr_t1,\
         weighted_vs_hpe_pct,geometric_vs_hpe_pct,weighted_vs_rr_pct,geometric_vs_rr_pct,\
         swaps_proposed,swaps_hpe,swaps_rr"
    );
    assert_eq!(lines.len(), 1 + 2, "header plus one row per pair (--pairs 2)");
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), 14, "{row}");
        assert!(row.split(',').next().unwrap().contains('+'), "{row}");
    }
}

#[test]
fn ampsched_text_only_commands_print_their_headings() {
    for (command, headings) in [
        ("tables", &["Table I — core structure sizes", "Table II — execution units"][..]),
        ("workloads", &["Workload inventory (37 models, Section IV)"][..]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
            .arg(command)
            .output()
            .expect("run ampsched");
        assert!(out.status.success(), "{command}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        for h in headings {
            assert!(stdout.contains(h), "{command} must print {h:?}:\n{stdout}");
        }
    }
}

#[test]
fn ampsched_unknown_command_exits_2_before_opening_telemetry() {
    let dir = temp_dir("unknown");
    let telemetry = dir.join("decisions.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .arg("--telemetry")
        .arg(&telemetry)
        .arg("no-such-command")
        .output()
        .expect("run ampsched");
    let created = telemetry.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command: no-such-command"));
    assert!(!created, "an unknown command must not create the telemetry file");
}
