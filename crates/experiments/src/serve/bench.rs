//! `ampsched serve-bench`: replay a request corpus against a running
//! daemon and measure warm-vs-cold behavior.
//!
//! Each corpus line is one `/run` request body (JSONL). The bench sends
//! every request once against a cold cache cell ("cold": the job
//! actually runs), then `repeat` more times ("warm": answered from the
//! cache), and reports per-request mean latency plus warm throughput.
//! A first answer whose `X-Cache` is not `miss` (the daemon already had
//! the cell) is no cold sample: that lane shows `—` for cold and
//! speedup, and the artifact has no `serve/cold/` entry for it.
//! Cold-vs-warm is the service's value proposition made measurable: the
//! warm mean should sit orders of magnitude under the cold mean.
//!
//! With `--json FILE` the bench writes an artifact in the repo's
//! standard bench schema (`results/bench/README.md`) — `target`,
//! `benchmarks[].{name, samples, mean_ns}` — plus a `source` field
//! (`"serve-bench"`) so `bench_diff` and the registry can tell service
//! measurements from `--profile` phase timings. Warm entries also carry
//! exact nearest-rank `p50_ns`/`p95_ns`/`p99_ns` over the raw samples
//! (`bench_diff` reads only the fields it knows, so the extra keys are
//! compatible by construction). The bench writes no other file: the
//! committed `BENCH_serve.json` ledger is refreshed only by naming it
//! with `--json`.

use super::http;
use ampsched_util::Json;
use std::time::Instant;

/// What `ampsched serve-bench` needs, resolved from CLI flags.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Daemon address to replay against (`127.0.0.1:7199`).
    pub addr: String,
    /// JSONL corpus path; `None` uses [`default_corpus`].
    pub corpus: Option<std::path::PathBuf>,
    /// Warm repetitions per request (`5`).
    pub repeat: usize,
    /// Bench artifact path (none = stderr table only).
    pub json_out: Option<String>,
}

/// The built-in corpus: the pinned quick-scale cells the rest of the
/// repo already exercises (`golden_compat` pins their bytes), so a
/// bare `ampsched serve-bench` measures meaningful, reproducible work.
pub fn default_corpus() -> Vec<String> {
    [
        r#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#,
        r#"{"experiment":"morphing","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#,
        r#"{"experiment":"scaling","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#,
    ]
    .map(String::from)
    .to_vec()
}

/// One measured request stream: the request body and its cold/warm
/// latencies in nanoseconds. `cold_ns` is `None` when the first answer
/// was not a cache miss.
struct Lane {
    name: String,
    body: String,
    cold_ns: Option<u64>,
    warm_ns: Vec<u64>,
}

/// Load the corpus: one JSON request body per non-empty line.
fn load_corpus(config: &BenchConfig) -> Result<Vec<String>, String> {
    match &config.corpus {
        None => Ok(default_corpus()),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read corpus {}: {e}", path.display()))?;
            let lines: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if lines.is_empty() {
                return Err(format!("corpus {} has no requests", path.display()));
            }
            Ok(lines)
        }
    }
}

/// Best-effort lane name from the request body (`<experiment>` or the
/// line index if the body is unparseable — the server will 400 it and
/// the bench will report that instead).
fn lane_name(body: &str, index: usize) -> String {
    Json::parse(body)
        .ok()
        .as_ref()
        .and_then(|j| j.get("experiment"))
        .and_then(Json::as_str)
        .map(|e| format!("req{index}:{e}"))
        .unwrap_or_else(|| format!("req{index}"))
}

/// Exact nearest-rank (p50, p95, p99) of `samples`: the `q`-quantile
/// is `sorted[ceil(q·n) − 1]`, always one of the measured values.
/// `(0, 0, 0)` when there are no samples.
fn sample_quantiles(samples: &[u64]) -> (u64, u64, u64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| {
        let i = (q * sorted.len() as f64).ceil() as usize;
        sorted.get(i.max(1) - 1).copied().unwrap_or(0)
    };
    (rank(0.50), rank(0.95), rank(0.99))
}

/// Send one `/run` and return its latency and whether the answer was a
/// cache miss (`X-Cache: miss`), insisting on a 200.
fn timed_run(addr: &str, body: &str) -> Result<(u64, bool), String> {
    let start = Instant::now();
    let (status, headers, resp) = http::request(addr, "POST", "/run", body.as_bytes())?;
    let ns = start.elapsed().as_nanos() as u64;
    if status != 200 {
        let detail = String::from_utf8_lossy(&resp);
        return Err(format!("server answered {status}: {}", detail.trim()));
    }
    let miss = headers.iter().any(|(n, v)| n == "x-cache" && v == "miss");
    Ok((ns, miss))
}

/// Run the bench: cold pass, warm passes, table on stderr, optional
/// JSON artifact. Returns an error string suitable for `eprintln!` +
/// nonzero exit.
pub fn run(config: &BenchConfig) -> Result<(), String> {
    let corpus = load_corpus(config)?;
    let repeat = config.repeat.max(1);
    eprintln!(
        "[serve-bench: {} request(s) against {}, {} warm repetition(s)]",
        corpus.len(),
        config.addr,
        repeat
    );

    let mut lanes: Vec<Lane> = Vec::with_capacity(corpus.len());
    for (i, body) in corpus.iter().enumerate() {
        let name = lane_name(body, i);
        let (ns, miss) =
            timed_run(&config.addr, body).map_err(|e| format!("{name} (cold): {e}"))?;
        lanes.push(Lane {
            name,
            body: body.clone(),
            cold_ns: miss.then_some(ns),
            warm_ns: Vec::with_capacity(repeat),
        });
    }
    let warm_started = Instant::now();
    for _ in 0..repeat {
        for lane in &mut lanes {
            let (ns, _) = timed_run(&config.addr, &lane.body)
                .map_err(|e| format!("{} (warm): {e}", lane.name))?;
            lane.warm_ns.push(ns);
        }
    }
    let warm_wall = warm_started.elapsed();
    let warm_requests = lanes.len() * repeat;

    eprintln!(
        "{:<24} {:>14} {:>14} {:>10} {:>10} {:>9}",
        "request", "cold", "warm mean", "warm p50", "warm p99", "speedup"
    );
    for lane in &lanes {
        let warm_mean = lane.warm_ns.iter().sum::<u64>() / lane.warm_ns.len() as u64;
        let (p50, _p95, p99) = sample_quantiles(&lane.warm_ns);
        let (cold, speedup) = match lane.cold_ns {
            Some(ns) => (format_ns(ns), format!("{:.1}x", ns as f64 / warm_mean.max(1) as f64)),
            None => ("—".to_string(), "—".to_string()),
        };
        eprintln!(
            "{:<24} {:>14} {:>14} {:>10} {:>10} {:>9}",
            lane.name,
            cold,
            format_ns(warm_mean),
            format_ns(p50),
            format_ns(p99),
            speedup
        );
    }
    eprintln!(
        "[warm throughput: {:.0} req/s over {} requests]",
        warm_requests as f64 / warm_wall.as_secs_f64().max(1e-9),
        warm_requests
    );

    if let Some(path) = &config.json_out {
        std::fs::write(path, artifact(&lanes).render_pretty())
            .map_err(|e| format!("cannot write bench artifact {path}: {e}"))?;
        eprintln!("[bench artifact written to {path}]");
    }
    Ok(())
}

/// Render the bench-schema artifact for the measured lanes. Warm
/// entries carry the quantile fields; cold entries are single samples,
/// so quantiles would be noise, and a lane without a cold sample has
/// none.
fn artifact(lanes: &[Lane]) -> Json {
    let mut benchmarks = Vec::new();
    for lane in lanes {
        if let Some(cold_ns) = lane.cold_ns {
            benchmarks.push(Json::obj([
                ("name", Json::from(format!("serve/cold/{}", lane.name))),
                ("samples", Json::from(1u64)),
                ("mean_ns", Json::from(cold_ns)),
            ]));
        }
        let warm_mean = lane.warm_ns.iter().sum::<u64>() / lane.warm_ns.len() as u64;
        let (p50, p95, p99) = sample_quantiles(&lane.warm_ns);
        benchmarks.push(Json::obj([
            ("name", Json::from(format!("serve/warm/{}", lane.name))),
            ("samples", Json::from(lane.warm_ns.len())),
            ("mean_ns", Json::from(warm_mean)),
            ("p50_ns", Json::from(p50)),
            ("p95_ns", Json::from(p95)),
            ("p99_ns", Json::from(p99)),
        ]));
    }
    Json::obj([
        ("target", Json::from("ampsched serve")),
        ("source", Json::from("serve-bench")),
        ("benchmarks", Json::Arr(benchmarks)),
    ])
}

/// Human-readable nanoseconds (`412ns`, `3.1us`, `2.4ms`, `1.7s`).
fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_parses_and_names() {
        for (i, body) in default_corpus().iter().enumerate() {
            assert!(Json::parse(body).is_ok(), "corpus line {i} must be valid JSON");
            let name = lane_name(body, i);
            assert!(name.starts_with(&format!("req{i}:")), "{name}");
        }
    }

    #[test]
    fn lane_name_degrades_gracefully() {
        assert_eq!(lane_name("not json", 3), "req3");
        assert_eq!(lane_name(r#"{"experiment":"fig1"}"#, 0), "req0:fig1");
    }

    #[test]
    fn sample_quantiles_are_exact_nearest_rank() {
        assert_eq!(
            sample_quantiles(&[10_000, 12_000, 15_000]),
            (12_000, 15_000, 15_000)
        );
        // Bimodal samples keep both modes exact, in any input order.
        assert_eq!(
            sample_quantiles(&[100, 100, 100, 100_000]),
            (100, 100_000, 100_000)
        );
        assert_eq!(
            sample_quantiles(&[100_000, 100, 100, 100]),
            (100, 100_000, 100_000)
        );
        assert_eq!(sample_quantiles(&[7]), (7, 7, 7));
        assert_eq!(sample_quantiles(&[]), (0, 0, 0));
    }

    #[test]
    fn artifact_carries_quantile_fields_on_warm_lanes() {
        let lanes = vec![Lane {
            name: "req0:fig1".to_string(),
            body: String::new(),
            cold_ns: Some(5_000_000),
            warm_ns: vec![10_000, 12_000, 15_000],
        }];
        let doc = artifact(&lanes);
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("serve-bench"));
        let benches = doc.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(benches.len(), 2);
        let cold = &benches[0];
        assert_eq!(
            cold.get("name").and_then(Json::as_str),
            Some("serve/cold/req0:fig1")
        );
        assert!(cold.get("p50_ns").is_none(), "cold is a single sample");
        let warm = &benches[1];
        assert_eq!(warm.get("samples").and_then(Json::as_u64), Some(3));
        let field = |key: &str| warm.get(key).and_then(Json::as_u64);
        assert_eq!(field("mean_ns"), Some(12_333));
        assert_eq!(field("p50_ns"), Some(12_000));
        assert_eq!(field("p95_ns"), Some(15_000));
        assert_eq!(field("p99_ns"), Some(15_000));
    }

    #[test]
    fn artifact_omits_the_cold_entry_of_a_lane_that_was_already_warm() {
        let lanes = vec![
            Lane {
                name: "req0:fig1".to_string(),
                body: String::new(),
                cold_ns: None,
                warm_ns: vec![10_000, 12_000],
            },
            Lane {
                name: "req1:scaling".to_string(),
                body: String::new(),
                cold_ns: Some(7_000_000),
                warm_ns: vec![9_000],
            },
        ];
        let doc = artifact(&lanes);
        let names: Vec<&str> = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|b| b.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            names,
            ["serve/warm/req0:fig1", "serve/cold/req1:scaling", "serve/warm/req1:scaling"]
        );
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(5), "5ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_400_000), "2.4ms");
        assert_eq!(format_ns(1_700_000_000), "1.7s");
    }
}
