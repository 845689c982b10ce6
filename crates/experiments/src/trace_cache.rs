//! The `ampsched trace-cache` subcommand: inspect, verify, and collect
//! a cache directory — the trace arena's `.atc` chunk files
//! (`--trace-cache <dir>`, `ampsched-trace`'s `persist` module) and the
//! serve daemon's `.cell` result files (`serve --cache-dir <dir>`),
//! both in the `ampsched_util::cellfile` format (DESIGN.md §10).

use std::path::Path;

use ampsched_trace::persist;
use ampsched_util::cellfile::{self, FileReport, Format};
use ampsched_util::Json;

use crate::serve::cache;

/// Every cell kind a cache directory can hold.
const FORMATS: [&Format; 2] = [&persist::FORMAT, &cache::FORMAT];

/// One `trace-cache` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Summarize the cache: file count, chunks, ops, bytes.
    Stats,
    /// Fully validate every cache file (checksums + decodability).
    Verify,
    /// Delete invalid cache files and leftover temporaries.
    Gc,
}

impl Action {
    /// Parse a `trace-cache` action word.
    pub fn from_flag(s: &str) -> Option<Action> {
        match s {
            "stats" => Some(Action::Stats),
            "verify" => Some(Action::Verify),
            "gc" => Some(Action::Gc),
            _ => None,
        }
    }
}

/// Outcome of one [`run`]: the rendered report and whether the cache was
/// fully healthy (`verify` exits nonzero when it was not).
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report for stdout.
    pub rendered: String,
    /// JSON section for `--json` reports.
    pub json: Json,
    /// `false` when `verify` found invalid files.
    pub healthy: bool,
}

/// Execute a cache maintenance action against `dir`.
pub fn run(action: Action, dir: &Path) -> Outcome {
    let reports = cellfile::scan(dir, &FORMATS);
    let is_cell = |r: &FileReport| r.path.extension().is_some_and(|x| x == cache::FORMAT.ext);
    let (cells, valid): (Vec<&FileReport>, Vec<&FileReport>) =
        reports.iter().filter(|r| r.is_valid()).partition(|r| is_cell(r));
    let invalid: Vec<_> = reports.iter().filter(|r| !r.is_valid()).collect();
    let total_bytes: u64 = valid.iter().map(|r| r.bytes).sum();
    let total_chunks: usize = valid.iter().map(|r| r.records).sum();
    let total_ops: u64 = valid.iter().map(|r| r.count).sum();
    let cell_bytes: u64 = cells.iter().map(|r| r.bytes).sum();
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;

    let mut out = String::new();
    out.push_str(&format!(
        "trace cache at {} — {} file(s), {} chunk(s), {} ops, {:.2} MiB; {} serve cell(s), {:.2} MiB\n",
        dir.display(),
        valid.len(),
        total_chunks,
        total_ops,
        mib(total_bytes),
        cells.len(),
        mib(cell_bytes),
    ));
    let mut json_pairs = vec![
        ("dir".to_string(), Json::from(dir.display().to_string())),
        ("files".to_string(), Json::from(valid.len())),
        ("chunks".to_string(), Json::from(total_chunks)),
        ("ops".to_string(), Json::from(total_ops)),
        ("bytes".to_string(), Json::from(total_bytes)),
        ("cells".to_string(), Json::from(cells.len())),
        ("cell_bytes".to_string(), Json::from(cell_bytes)),
        ("invalid".to_string(), Json::from(invalid.len())),
    ];
    match action {
        Action::Stats => {
            for r in valid.iter().chain(&cells) {
                let name = r.path.file_name().map(|n| n.to_string_lossy().into_owned());
                let name = name.unwrap_or_default();
                out.push_str(&if is_cell(r) {
                    format!("  {name:<56} serve cell {:>10} bytes\n", r.bytes)
                } else {
                    format!("  {name:<56} {:>6} chunks {:>10} ops\n", r.records, r.count)
                });
            }
            if !invalid.is_empty() {
                out.push_str(&format!(
                    "  {} invalid file(s) present — run `trace-cache verify` for details\n",
                    invalid.len()
                ));
            }
        }
        Action::Verify => {
            for r in &reports {
                match &r.error {
                    None => out.push_str(&format!("  ok      {}\n", r.path.display())),
                    Some(e) => out.push_str(&format!("  INVALID {} — {e}\n", r.path.display())),
                }
            }
            out.push_str(&format!(
                "verify: {} ok, {} invalid\n",
                valid.len() + cells.len(),
                invalid.len()
            ));
        }
        Action::Gc => {
            let (removed, reclaimed) = cellfile::gc(dir, &FORMATS);
            out.push_str(&format!(
                "gc: removed {removed} invalid file(s), reclaimed {reclaimed} bytes\n"
            ));
            json_pairs.push(("removed".to_string(), Json::from(removed)));
            json_pairs.push(("reclaimed_bytes".to_string(), Json::from(reclaimed)));
        }
    }
    Outcome {
        rendered: out,
        json: Json::Obj(json_pairs),
        // Only `verify` treats invalid files as unhealthy; `stats` just
        // reports and `gc` repairs.
        healthy: action != Action::Verify || invalid.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_trace::{suite, ReplaySource, Workload as _};

    #[test]
    fn action_parsing() {
        assert_eq!(Action::from_flag("stats"), Some(Action::Stats));
        assert_eq!(Action::from_flag("verify"), Some(Action::Verify));
        assert_eq!(Action::from_flag("gc"), Some(Action::Gc));
        assert_eq!(Action::from_flag("prune"), None);
    }

    #[test]
    fn stats_verify_gc_lifecycle() {
        let dir = std::env::temp_dir().join(format!("ampsched-tc-cmd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Populate one real stream, then plant one corrupt file.
        {
            let spec = suite::by_name("dijkstra").unwrap();
            let mut r = ReplaySource::for_thread_cached(spec, 0xcafe_0001, 0, Some(&dir));
            for _ in 0..ampsched_trace::arena::CHUNK_OPS {
                r.next_op();
            }
        }
        ampsched_trace::arena::flush();
        std::fs::write(dir.join("junk-0-0-0-0.atc"), b"garbage").unwrap();

        let stats = run(Action::Stats, &dir);
        assert!(stats.healthy, "stats never fails the run");
        assert!(stats.rendered.contains("1 file(s)"), "{}", stats.rendered);
        assert_eq!(stats.json.get("files").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.json.get("invalid").and_then(Json::as_u64), Some(1));

        let verify = run(Action::Verify, &dir);
        assert!(!verify.healthy, "verify must flag the corrupt file");
        assert!(verify.rendered.contains("INVALID"), "{}", verify.rendered);

        let gc = run(Action::Gc, &dir);
        assert!(gc.healthy);
        assert_eq!(gc.json.get("removed").and_then(Json::as_u64), Some(1));

        let after = run(Action::Verify, &dir);
        assert!(after.healthy, "cache is healthy after gc: {}", after.rendered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_cells_are_walked_by_the_same_scan() {
        use crate::serve::cache::{cell_path, Claim, ResultCache};
        let dir = std::env::temp_dir().join(format!("ampsched-tc-cells-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = ResultCache::new(4, Some(dir.clone()));
        assert!(matches!(cells.claim(0x51), Claim::Owner));
        cells.fulfill(0x51, std::sync::Arc::new(b"report".to_vec()));
        // A cell from an earlier build: `AMPCELL\x01` magic, no version.
        std::fs::write(cell_path(&dir, 0x52), b"AMPCELL\x01 and an older build's report").unwrap();

        let stats = run(Action::Stats, &dir);
        let field = |o: &Outcome, k: &str| o.json.get(k).and_then(Json::as_u64);
        assert_eq!(field(&stats, "cells"), Some(1), "{}", stats.rendered);
        assert_eq!(field(&stats, "files"), Some(0), "a cell is not a trace file");
        assert_eq!(field(&stats, "invalid"), Some(1));
        assert!(stats.rendered.contains("serve cell"), "{}", stats.rendered);

        let verify = run(Action::Verify, &dir);
        assert!(!verify.healthy);
        assert!(verify.rendered.contains("0000000000000052.cell — bad magic"), "{}", verify.rendered);

        let gc = run(Action::Gc, &dir);
        assert_eq!(field(&gc, "removed"), Some(1));
        let after = run(Action::Verify, &dir);
        assert!(after.healthy, "{}", after.rendered);
        assert!(after.rendered.contains("verify: 1 ok, 0 invalid"), "{}", after.rendered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
