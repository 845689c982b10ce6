//! Telemetry bit-identity: enabling `--telemetry` and `--trace-events`
//! must not change a single byte of the `--json` report, and the JSONL
//! stream they produce must be well-formed and aggregatable.
//!
//! This is the subsystem's core contract — observability is read-only
//! with respect to the simulation. A violation here means an instrument
//! leaked into simulation state (or perturbed float evaluation order),
//! which would silently invalidate every cross-configuration comparison
//! in the paper reproduction.

use ampsched_experiments::obs_summary;
use ampsched_util::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const SCALE: &[&str] = &["--quick", "--pairs", "2", "--insts", "20000", "--profile-insts", "200000"];

fn run_fig7(json_path: &Path, telemetry: Option<(&Path, &Path)>, extra: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ampsched"));
    cmd.args(SCALE).arg("--json").arg(json_path);
    if let Some((jsonl, events)) = telemetry {
        cmd.arg("--telemetry").arg(jsonl);
        cmd.arg("--trace-events").arg(events);
    }
    cmd.args(extra);
    let out = cmd.arg("fig7").output().expect("run ampsched fig7");
    assert!(
        out.status.success(),
        "ampsched fig7 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A fresh directory per call: tests run concurrently and each removes
/// its own directory, so no two calls may share one.
fn tmp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ampsched-difftel-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn telemetry_flags_do_not_change_the_json_report() {
    let dir = tmp_dir();
    let plain = dir.join("plain.json");
    let instrumented = dir.join("instrumented.json");
    let jsonl = dir.join("decisions.jsonl");
    let events = dir.join("trace.json");

    run_fig7(&plain, None, &[]);
    run_fig7(&instrumented, Some((&jsonl, &events)), &[]);

    // The headline guarantee: byte identity of the full report,
    // including the embedded sim.* telemetry block and the per-run
    // decision arrays.
    let a = std::fs::read(&plain).expect("plain report");
    let b = std::fs::read(&instrumented).expect("instrumented report");
    assert!(
        a == b,
        "--telemetry/--trace-events changed the --json report ({} vs {} bytes)",
        a.len(),
        b.len()
    );

    // The report embeds the sim.* counter namespace and nothing else.
    let doc = Json::parse(&String::from_utf8(a).expect("utf8")).expect("report parses");
    let counters = doc
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(Json::as_obj)
        .expect("telemetry.counters");
    assert!(!counters.is_empty(), "sim.* counters must be populated");
    assert!(counters.iter().all(|(n, _)| n.starts_with("sim.")));
    assert!(counters.iter().any(|(n, _)| n == "sim.decision.window"));
    assert!(counters.iter().any(|(n, _)| n == "sim.swap"));

    // Capped decision arrays ride in the sweep section for every run.
    let pairs = doc
        .get("sweep")
        .and_then(|s| s.get("pairs"))
        .and_then(Json::as_arr)
        .expect("sweep.pairs");
    assert_eq!(pairs.len(), 2);
    for pair in pairs {
        for scheme in ["proposed", "hpe", "rr"] {
            let d = pair
                .get(scheme)
                .and_then(|r| r.get("decisions"))
                .unwrap_or_else(|| panic!("{scheme} decisions block"));
            let total = d.get("total").and_then(Json::as_u64).expect("total");
            let records = d.get("records").and_then(Json::as_arr).expect("records");
            let truncated = d.get("truncated").and_then(Json::as_bool).expect("truncated");
            assert!(records.len() as u64 <= total);
            assert_eq!(truncated, (records.len() as u64) < total);
            assert!(records.len() <= 20, "capped at first/last 10");
        }
    }

    // The JSONL stream: every line is a self-describing JSON object the
    // aggregator accepts, and the proposed scheme's decision records
    // carry the predictor audit trail.
    let text = std::fs::read_to_string(&jsonl).expect("jsonl written");
    assert!(!text.is_empty(), "telemetry stream must not be empty");
    let summaries = obs_summary::summarize(&text).expect("stream aggregates cleanly");
    let proposed = summaries
        .iter()
        .find(|s| s.scheduler == "proposed")
        .expect("proposed scheduler in stream");
    assert!(proposed.runs >= 2, "one run record per pair");
    assert!(proposed.decisions > 0);
    let mut saw_explained_decision = false;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).expect("line parses");
        if doc.get("type").and_then(Json::as_str) == Some("decision")
            && doc.get("scheduler").and_then(Json::as_str) == Some("proposed")
        {
            let explain = doc.get("explain").expect("explain field");
            if explain.get("source").and_then(Json::as_str) == Some("rules") {
                assert!(explain.get("vote_depth").and_then(Json::as_u64).is_some());
                saw_explained_decision = true;
            }
        }
    }
    assert!(saw_explained_decision, "proposed decisions must carry explain records");

    // The Chrome trace-event file is well-formed and non-trivial.
    let trace = Json::parse(&std::fs::read_to_string(&events).expect("trace events written"))
        .expect("trace events parse");
    let evs = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!evs.is_empty(), "spans must have been recorded");
    assert!(evs.iter().any(|e| {
        e.get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("experiments.run_pair"))
    }));
    for e in evs {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert!(e.get("dur").and_then(Json::as_u64).is_some());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampling profiler observes pipeline state the simulation already
/// maintains; turning it on must not move a single byte of the `--json`
/// report. A violation means a sample write leaked back into simulation
/// state (or perturbed evaluation order), which would make every
/// `--profile` run incomparable with unprofiled results.
#[test]
fn pipeline_profiler_does_not_change_the_json_report() {
    let dir = tmp_dir().join("profiler");
    std::fs::create_dir_all(&dir).expect("subdir");
    let plain = dir.join("plain.json");
    let sampled = dir.join("sampled.json");
    let events = dir.join("trace.json");
    let jsonl = dir.join("decisions.jsonl");

    run_fig7(&plain, None, &[]);
    // A deliberately aggressive cadence: every 64 simulated cycles, so
    // tens of thousands of samples cross the run loops' skip-ahead
    // re-emission paths.
    run_fig7(&sampled, Some((&jsonl, &events)), &["--profile-sample", "64"]);

    let a = std::fs::read(&plain).expect("plain report");
    let b = std::fs::read(&sampled).expect("sampled report");
    assert!(
        a == b,
        "--profile-sample changed the --json report ({} vs {} bytes)",
        a.len(),
        b.len()
    );

    // With sampling on, the Chrome trace export gains pipeline counter
    // tracks ("ph":"C") alongside the usual duration spans.
    let trace = Json::parse(&std::fs::read_to_string(&events).expect("trace events written"))
        .expect("trace events parse");
    let evs = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let counters: Vec<_> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .collect();
    assert!(!counters.is_empty(), "sampling must emit counter tracks");
    for c in &counters {
        assert_eq!(
            c.get("cat").and_then(Json::as_str),
            Some("ampsched.pipeline"),
            "counter tracks carry the pipeline category"
        );
        let args = c.get("args").expect("counter args");
        for series in ["rob", "isq_int", "isq_fp", "lq", "sq"] {
            assert!(args.get(series).and_then(Json::as_u64).is_some());
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
