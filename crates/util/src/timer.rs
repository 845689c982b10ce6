//! Wall-clock phase profiling and bench-result diffing.
//!
//! [`Profiler`] accumulates per-phase elapsed time for `ampsched
//! --profile` and renders it as a table or as a `{"benchmarks": [...]}`
//! JSON document under `results/bench/`. [`diff_benchmarks`] pairs two
//! such documents by name — profiler runs, `serve-bench` artifacts, or
//! any file with the same `name`/`mean_ns` entries — and
//! [`render_diff_labeled`] prints the comparison `scripts/bench_diff`
//! gates on.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Anchor a relative output directory at the workspace root.
///
/// Cargo runs test executables with the *package* directory as the
/// working directory, and `cargo run -p` points `CARGO_MANIFEST_DIR` at
/// the package too, so resolving against either would scatter `results/`
/// files across `crates/*`. Walk up from `CARGO_MANIFEST_DIR` (or the
/// cwd) to the outermost directory that still has a `Cargo.toml` — the
/// workspace root — and resolve against that. Absolute paths pass
/// through.
pub fn resolve_out_dir(dir: &std::path::Path) -> std::path::PathBuf {
    if dir.is_absolute() {
        return dir.to_path_buf();
    }
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::current_dir().ok());
    let Some(start) = start else {
        return dir.to_path_buf();
    };
    let mut root = start.as_path();
    for anc in start.ancestors() {
        if anc.join("Cargo.toml").is_file() {
            root = anc;
        }
    }
    root.join(dir)
}

/// A coarse wall-clock phase profiler for `--profile` style reports.
///
/// Accumulates total elapsed time and call counts per named phase, in
/// first-seen order, and renders either a plain-text table or a
/// `{"benchmarks": [...]}` JSON document that [`diff_benchmarks`] can
/// compare against another run.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Vec<(String, Duration, u64)>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Time one call of `f` under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed());
        out
    }

    /// Add an externally measured duration to `name`.
    pub fn add(&mut self, name: &str, d: Duration) {
        match self.phases.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, total, calls)) => {
                *total += d;
                *calls += 1;
            }
            None => self.phases.push((name.to_string(), d, 1)),
        }
    }

    /// Phases recorded so far: `(name, total, calls)`.
    pub fn phases(&self) -> &[(String, Duration, u64)] {
        &self.phases
    }

    /// An aligned text table of the recorded phases.
    pub fn render(&self) -> String {
        let total: f64 = self.phases.iter().map(|(_, d, _)| d.as_secs_f64()).sum();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>8} {:>7}\n",
            "phase", "total", "calls", "share"
        ));
        for (name, d, calls) in &self.phases {
            let secs = d.as_secs_f64();
            out.push_str(&format!(
                "{:<28} {:>12} {:>8} {:>6.1}%\n",
                name,
                fmt_ns(secs * 1e9),
                calls,
                if total > 0.0 { 100.0 * secs / total } else { 0.0 },
            ));
        }
        out.push_str(&format!("{:<28} {:>12}\n", "total", fmt_ns(total * 1e9)));
        out
    }

    /// The phases as a `{"target", "benchmarks": [{"name", "samples",
    /// "mean_ns"}]}` results document (each phase's `mean_ns` is its
    /// *total* nanoseconds, `samples` its call count).
    pub fn to_bench_json(&self, target: &str) -> Json {
        Json::obj([
            ("target", Json::from(target)),
            (
                "benchmarks",
                Json::arr(self.phases.iter().map(|(name, d, calls)| {
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("samples", Json::from(*calls)),
                        ("mean_ns", Json::from(d.as_nanos() as f64)),
                    ])
                })),
            ),
        ])
    }
}

/// One benchmark's before/after mean, produced by [`diff_benchmarks`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark (or profiler phase) name present in both runs.
    pub name: String,
    /// Mean ns/iter in the "before" document.
    pub before_ns: f64,
    /// Mean ns/iter in the "after" document.
    pub after_ns: f64,
}

impl BenchDelta {
    /// How many times faster "after" is (`before / after`; > 1 is an
    /// improvement).
    pub fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }

    /// Signed percentage change (`(after - before) / before * 100`;
    /// positive is a regression).
    pub fn change_pct(&self) -> f64 {
        (self.after_ns - self.before_ns) / self.before_ns * 100.0
    }
}

/// Pair up benchmarks by name across two `{"benchmarks": [...]}`
/// results documents (e.g. two [`Profiler::to_bench_json`] runs) and
/// return their mean-ns deltas, in the order of the "before" document. Names present
/// in only one document are skipped. Errs when a document is not shaped
/// like a results file.
pub fn diff_benchmarks(before: &Json, after: &Json) -> Result<Vec<BenchDelta>, String> {
    let means = |doc: &Json, which: &str| -> Result<Vec<(String, f64)>, String> {
        doc.get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{which}: missing \"benchmarks\" array"))?
            .iter()
            .map(|b| {
                let name = b
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{which}: benchmark without a name"))?;
                let mean = b
                    .get("mean_ns")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which}: '{name}' has no mean_ns"))?;
                Ok((name.to_string(), mean))
            })
            .collect()
    };
    let before = means(before, "before")?;
    let after = means(after, "after")?;
    Ok(before
        .into_iter()
        .filter_map(|(name, before_ns)| {
            let (_, after_ns) = after.iter().find(|(n, _)| *n == name)?;
            Some(BenchDelta {
                name,
                before_ns,
                after_ns: *after_ns,
            })
        })
        .collect())
}

/// A text table of [`BenchDelta`]s, flagging entries past
/// `max_regress_pct`, with `before_label`/`after_label` as the headers of
/// the two runs' columns — e.g. `"cold"`/`"warm"` when diffing
/// persistent-trace-cache profiles. Labels longer than a column are
/// truncated to keep the table aligned.
pub fn render_diff_labeled(
    deltas: &[BenchDelta],
    max_regress_pct: f64,
    before_label: &str,
    after_label: &str,
) -> String {
    let clip = |s: &str| -> String { s.chars().take(12).collect() };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>9} {:>9}\n",
        "benchmark",
        clip(before_label),
        clip(after_label),
        "speedup",
        "change"
    ));
    for d in deltas {
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>8.2}x {:>+8.1}%{}\n",
            d.name,
            fmt_ns(d.before_ns),
            fmt_ns(d.after_ns),
            d.speedup(),
            d.change_pct(),
            if d.change_pct() > max_regress_pct {
                "  REGRESSION"
            } else {
                ""
            },
        ));
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_out_dir_anchors_relative_paths_at_the_workspace_root() {
        let abs = std::env::temp_dir().join("ampsched-out");
        assert_eq!(resolve_out_dir(&abs), abs, "absolute paths pass through");

        let crate_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let workspace = crate_dir.parent().and_then(|p| p.parent()).unwrap();
        let manifest = std::fs::read_to_string(workspace.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"), "{}", workspace.display());
        assert_eq!(
            resolve_out_dir(std::path::Path::new("results/corpus")),
            workspace.join("results/corpus")
        );
    }

    #[test]
    fn profiler_accumulates_and_diffs() {
        let mut p = Profiler::new();
        p.add("kernel", Duration::from_nanos(100));
        p.add("kernel", Duration::from_nanos(300));
        p.add("report", Duration::from_nanos(50));
        assert_eq!(p.phases().len(), 2);
        assert_eq!(p.phases()[0].2, 2, "two kernel calls");
        let v = p.time("timed", || 7);
        assert_eq!(v, 7);
        let table = p.render();
        assert!(table.contains("kernel") && table.contains("total"), "{table}");

        let before = p.to_bench_json("run-a");
        let mut q = Profiler::new();
        q.add("kernel", Duration::from_nanos(200));
        q.add("report", Duration::from_nanos(60));
        let after = q.to_bench_json("run-b");
        let deltas = diff_benchmarks(&before, &after).unwrap();
        let k = deltas.iter().find(|d| d.name == "kernel").unwrap();
        assert!((k.speedup() - 2.0).abs() < 1e-9, "400ns -> 200ns is 2x");
        assert!((k.change_pct() + 50.0).abs() < 1e-9);
        // "timed" only exists in before: skipped, not an error.
        assert!(deltas.iter().all(|d| d.name != "timed"));
        let rendered = render_diff_labeled(&deltas, 10.0, "before", "after");
        let r = deltas.iter().find(|d| d.name == "report").unwrap();
        assert!(r.change_pct() > 10.0 && rendered.contains("REGRESSION"), "{rendered}");
    }

    #[test]
    fn diff_rejects_malformed_documents() {
        let good = Json::obj([("benchmarks", Json::arr([]))]);
        let bad = Json::obj([("nope", Json::from(1u64))]);
        assert!(diff_benchmarks(&good, &bad).is_err());
        assert!(diff_benchmarks(&bad, &good).is_err());
        assert!(diff_benchmarks(&good, &good).unwrap().is_empty());
    }

    #[test]
    fn diff_tolerates_extra_benchmark_fields() {
        // serve-bench artifacts carry p50_ns/p95_ns/p99_ns alongside
        // the core schema; the differ reads only what it knows.
        let entry = |mean: u64| {
            Json::obj([
                ("name", Json::from("serve/warm/req0:fig1")),
                ("samples", Json::from(5u64)),
                ("mean_ns", Json::from(mean)),
                ("p50_ns", Json::from(mean - 10)),
                ("p95_ns", Json::from(mean + 10)),
                ("p99_ns", Json::from(mean + 20)),
            ])
        };
        let before = Json::obj([
            ("source", Json::from("serve-bench")),
            ("benchmarks", Json::arr([entry(1000)])),
        ]);
        let after = Json::obj([
            ("source", Json::from("serve-bench")),
            ("benchmarks", Json::arr([entry(500)])),
        ]);
        let deltas = diff_benchmarks(&before, &after).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!((deltas[0].speedup() - 2.0).abs() < 1e-9);
    }
}
