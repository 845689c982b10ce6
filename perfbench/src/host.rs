//! Host context printed with every result, and the release-build gate.

use crate::check::repo_root;
use crate::Opts;
use ampsched_util::Json;

/// The model has never been compared with measurements of real hardware.
pub const MODEL_NOTE: &str = "model unvalidated against hardware; no error figure";

/// Exit without a result unless this is an optimized build: a debug
/// build's timings say nothing about the released program.
pub fn refuse_debug_build() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(3);
    }
}

/// The context line: who measured what, on which host and kernel path.
pub fn context(opts: &Opts) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([(
        "context",
        Json::obj([
            ("workload", Json::from(opts.workload.name())),
            ("seed", Json::from(opts.seed)),
            ("seconds", Json::from(opts.seconds)),
            ("trace", Json::from(opts.trace)),
            ("nproc", Json::from(nproc)),
            (
                "git_rev",
                git_rev().map_or(Json::Null, |rev| Json::from(rev.as_str())),
            ),
            ("build", Json::from("release")),
            ("sim_path", Json::from("fast")),
            ("trace_path", Json::from("arena")),
            ("model", Json::from(MODEL_NOTE)),
        ]),
    )])
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}
