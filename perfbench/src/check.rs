//! The output-correctness gate.
//!
//! Batch reports must hash to the digests pinned below; served bodies
//! must equal their expected bytes exactly. Any mismatch is a failed
//! operation, so it raises the error rate rather than only a warning.

use ampsched_util::hash::fnv64;
use std::path::PathBuf;

/// FNV-1a 64 of the `ampsched --quick --json FILE fig7` report at the
/// default seed (2012), fast kernel, arena traces.
pub const FIG7_QUICK_DIGEST: u64 = 0xbe48_bc56_1636_ceb2;

/// FNV-1a 64 of the `ampsched --quick --json FILE scaling` report at the
/// default seed (2012), fast kernel, arena traces.
pub const SCALING_QUICK_DIGEST: u64 = 0x2dac_f091_ab25_35bf;

/// Hex spelling of a report digest.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Whether `bytes` hash to the pinned `digest`.
pub fn matches_digest(bytes: &[u8], digest: u64) -> bool {
    fnv64(bytes) == digest
}

/// Running count of checked operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong byte.
    pub failed: u64,
}

impl Tally {
    /// Count one response: it passes only with status 200 and a body
    /// byte-identical to `want`. Returns whether it passed.
    pub fn check_response(&mut self, status: u16, want: &[u8], got: &[u8]) -> bool {
        self.record(status == 200 && want == got)
    }

    /// Count one operation that passed (`true`) or failed.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Failed share of attempted operations (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// The committed golden report of `command` at the pinned quick scale
/// (`--quick --pairs 2 --insts 20000 --profile-insts 200000`).
pub fn golden(command: &str) -> std::io::Result<Vec<u8>> {
    std::fs::read(
        repo_root()
            .join("crates/experiments/tests/golden/compat")
            .join(format!("{command}.json")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_is_a_failure() {
        let want = golden("fig1").expect("fig1 golden is committed");
        let mut tally = Tally::default();
        assert!(tally.check_response(200, &want, &want.clone()));
        for at in [0, want.len() / 2, want.len() - 1] {
            let mut got = want.clone();
            got[at] ^= 0x01;
            assert!(
                !tally.check_response(200, &want, &got),
                "flip at byte {at} went unnoticed"
            );
            assert!(!matches_digest(&got, fnv64(&want)));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(tally.error_rate(), 0.75);
    }

    #[test]
    fn wrong_status_truncated_or_extended_bodies_fail() {
        let want = b"{\"a\": 1}\n".to_vec();
        let mut tally = Tally::default();
        assert!(!tally.check_response(500, &want, &want));
        assert!(!tally.check_response(200, &want, &want[..want.len() - 1]));
        let mut longer = want.clone();
        longer.push(b'\n');
        assert!(!tally.check_response(200, &want, &longer));
        assert_eq!(tally.failed, 3);
    }
}
