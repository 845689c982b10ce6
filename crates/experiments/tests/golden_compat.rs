//! Byte-compatibility lockdown of the `--json` report surface.
//!
//! `tests/golden/compat/` holds one committed report per CLI command,
//! all generated at the pinned quick scale (`--quick --pairs 2 --insts
//! 20000 --profile-insts 200000`). This test re-runs the binary with the
//! exact same arguments and requires the fresh report to be
//! **byte-identical** to the committed file — locking the duo/single
//! experiment surface across refactors (the N-core generalization of the
//! system layer rode under this net).
//!
//! The `--json` reports keep only the first and last decision records of
//! each run, so the commands whose schedulers decide (fig6, fig7,
//! ablation, scaling, regret) also write their complete `--telemetry`
//! decision stream, pinned by [`STREAM_DIGESTS`]. Scaling's stream is the
//! N-core `topo_decision` dialect: parked threads, `null` cores and
//! multi-thread `migrated` arrays. Runs execute in parallel and
//! interleave their lines in completion order, so the digest is the
//! FNV-1a 64 of the stream's lines sorted bytewise, each followed by a
//! newline.
//!
//! If a simulator change is *intentional*, regenerate the goldens with
//! `target/release/ampsched --quick --pairs 2 --insts 20000
//! --profile-insts 200000 --json crates/experiments/tests/golden/compat/<cmd>.json <cmd>`
//! and update the stream digests this test prints on mismatch; say so
//! in the commit message.

use ampsched_util::hash::fnv64;
use std::path::Path;
use std::process::Command;

const PINNED_ARGS: &[&str] =
    &["--quick", "--pairs", "2", "--insts", "20000", "--profile-insts", "200000"];

/// Every command with a committed golden, in dependency-free order.
const COMMANDS: &[&str] = &[
    "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "overhead", "rr-interval",
    "ablation", "morphing", "scaling", "regret",
];

/// Order-independent digest of each pinned command's full `--telemetry`
/// JSONL decision stream.
const STREAM_DIGESTS: &[(&str, u64)] = &[
    ("fig6", 0x010d_a445_a980_c143),
    ("fig7", 0x8a0c_5e66_f825_b6f7),
    ("ablation", 0x0494_57d2_4bfb_7c06),
    ("scaling", 0x9c4f_c5c5_b802_0032),
    ("regret", 0x6f96_8933_3a69_c905),
];

/// FNV-1a 64 of the stream's lines, sorted bytewise.
fn stream_digest(jsonl: &[u8]) -> u64 {
    let mut lines: Vec<&[u8]> = jsonl.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    lines.sort_unstable();
    let mut sorted = Vec::with_capacity(jsonl.len() + 1);
    for line in lines {
        sorted.extend_from_slice(line);
        sorted.push(b'\n');
    }
    fnv64(&sorted)
}

#[test]
fn json_reports_are_byte_identical_to_committed_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat");
    let tmp = std::env::temp_dir().join(format!("ampsched-compat-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let mut mismatches = Vec::new();
    for cmd in COMMANDS {
        let golden_path = golden_dir.join(format!("{cmd}.json"));
        let fresh_path = tmp.join(format!("{cmd}.json"));
        let stream_path = tmp.join(format!("{cmd}.jsonl"));
        let stream_pin = STREAM_DIGESTS.iter().find(|(c, _)| c == cmd).map(|&(_, d)| d);
        let mut command = Command::new(env!("CARGO_BIN_EXE_ampsched"));
        command.args(PINNED_ARGS).arg("--json").arg(&fresh_path);
        if stream_pin.is_some() {
            command.arg("--telemetry").arg(&stream_path);
        }
        let out = command.arg(cmd).output().expect("run ampsched");
        assert!(
            out.status.success(),
            "ampsched {cmd} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = std::fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
        let fresh = std::fs::read(&fresh_path).expect("fresh report written");
        if let Some(pinned) = stream_pin {
            let stream = std::fs::read(&stream_path).expect("telemetry stream written");
            let digest = stream_digest(&stream);
            if digest != pinned {
                mismatches.push(format!(
                    "{cmd}: decision stream digest {digest:#018x}, pinned {pinned:#018x}"
                ));
            }
        }
        if golden != fresh {
            // Localize the divergence for the failure message.
            let at = golden
                .iter()
                .zip(fresh.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(golden.len().min(fresh.len()));
            let ctx = |bytes: &[u8]| {
                let lo = at.saturating_sub(60);
                let hi = (at + 60).min(bytes.len());
                String::from_utf8_lossy(&bytes[lo..hi]).into_owned()
            };
            mismatches.push(format!(
                "{cmd}: first divergence at byte {at}\n  golden: …{}…\n  fresh:  …{}…",
                ctx(&golden),
                ctx(&fresh)
            ));
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
    assert!(
        mismatches.is_empty(),
        "{} of {} reports and streams diverged from the committed goldens:\n{}",
        mismatches.len(),
        COMMANDS.len() + STREAM_DIGESTS.len(),
        mismatches.join("\n")
    );
}
