//! The serve worker pool simulates distinct cold cells at the same time,
//! and each response is still byte-identical to its `golden_compat`
//! report: a job's `sim.*` telemetry holds its own events and none of
//! the job running beside it.
//!
//! fig1 and scaling report disjoint `sim.*` sets (single-core skips vs
//! N-core runs, decisions and swaps), so any leak between them changes
//! bytes. Span recording timestamps the simulations: fig1 runs only
//! `system.run_single` spans and scaling only `experiments.run_shape`
//! spans, so one overlapping pair proves the two jobs simulated at once.
//! The test has this process to itself, so no other run records spans.

use ampsched_experiments::common::Params;
use ampsched_experiments::serve::cache::{Claim, ResultCache, WaitOutcome};
use ampsched_experiments::serve::protocol::{canonical_hash, parse_request};
use ampsched_experiments::serve::queue::{Job, JobQueue, WorkerPool};
use ampsched_util::Json;
use std::sync::Arc;
use std::time::Duration;

/// Host-µs `(start, end)` of every span in a Chrome trace whose name
/// (label excluded) is `name`.
fn spans(trace: &Json, name: &str) -> Vec<(u64, u64)> {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    events
        .iter()
        .filter(|e| {
            let full = e.get("name").and_then(Json::as_str).unwrap_or_default();
            full.split(' ').next() == Some(name)
        })
        .map(|e| {
            let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
            (ts, ts + e.get("dur").and_then(Json::as_u64).expect("dur"))
        })
        .collect()
}

#[test]
fn two_workers_simulate_distinct_cold_cells_at_once_with_golden_bytes() {
    ampsched_obs::span::set_enabled(true);
    let queue = Arc::new(JobQueue::new());
    let cache = Arc::new(ResultCache::new(8, None));
    let pool = WorkerPool::spawn(2, Arc::clone(&queue), Arc::clone(&cache));

    // Both cells are pinned `golden_compat` cells. Taking each wait slot
    // before queueing its job means neither result can be missed.
    let waits: Vec<_> = ["fig1", "scaling"]
        .into_iter()
        .map(|command| {
            let body = format!(
                r#"{{"experiment":"{command}","params":{{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}}}"#
            );
            let spec = parse_request(body.as_bytes(), &Params::default()).expect("valid request");
            let key = canonical_hash(&spec);
            assert!(matches!(cache.claim(key), Claim::Owner), "{command}: cold cell");
            let Claim::Wait(slot) = cache.claim(key) else {
                panic!("{command}: a claimed cell is pending");
            };
            assert!(queue.push(Job::new(key, spec, None)));
            (command, slot)
        })
        .collect();

    for (command, slot) in waits {
        let WaitOutcome::Ready(bytes) = slot.wait(Duration::from_secs(600)) else {
            panic!("{command}: job did not produce bytes");
        };
        let golden = std::fs::read(format!(
            "{}/tests/golden/compat/{command}.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("read golden");
        assert!(
            *bytes == golden,
            "{command}: served bytes differ from the golden:\n{}",
            String::from_utf8_lossy(&bytes)
        );
    }
    pool.join();

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_parallel_trace.json");
    ampsched_obs::span::write_trace_events(&path).expect("write trace events");
    let trace =
        Json::parse(&std::fs::read_to_string(&path).expect("read trace")).expect("trace JSON");
    let fig1 = spans(&trace, "system.run_single");
    let scaling = spans(&trace, "experiments.run_shape");
    assert!(
        !fig1.is_empty() && !scaling.is_empty(),
        "both jobs record spans"
    );
    assert!(
        fig1.iter()
            .any(|a| scaling.iter().any(|b| a.0 < b.1 && b.0 < a.1)),
        "the two jobs never simulated at the same time: fig1 {fig1:?}, scaling {scaling:?}"
    );
}
