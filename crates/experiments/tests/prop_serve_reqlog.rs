//! Property tests for the serve access log (`serve::reqlog`): whatever
//! a request's outcome — and whatever hostile bytes made it into its
//! route — every record renders as exactly one line that parses back to
//! a JSON object with the stable `ACCESS_LOG_KEYS` key set.

use ampsched_experiments::serve::reqlog::{access_line, ACCESS_LOG_KEYS};
use ampsched_obs::request::RequestRecord;
use ampsched_util::check::{Checker, Failure, Source};
use ampsched_util::{prop_assert, prop_assert_eq, Json};

/// Every outcome the serve layer can finish a request with.
const OUTCOMES: &[&str] = &[
    "hit",
    "disk-hit",
    "miss",
    "coalesced",
    "timeout",
    "failed",
    "bad-request",
    "draining",
    "read-timeout",
    "over-capacity",
    "ok",
];

/// Routes including hostile ones: raw newlines, quotes, backslashes,
/// tabs, and control bytes must all be escaped into the single line.
const ROUTES: &[&str] = &[
    "POST /run",
    "GET /healthz",
    "GET /metrics",
    "-",
    "POST /run\nX-Smuggled: 1",
    "GET /\"quoted\"\\path",
    "GET /\t\r\u{7}",
];

const PHASE_NAMES: &[&str] = &[
    "accept",
    "parse",
    "cache-claim",
    "queue-wait",
    "sim",
    "serialize",
    "wait",
    "write",
];

fn draw_record(s: &mut Source) -> RequestRecord {
    let id = format!("r-{:08}", s.u64_in(0, 100_000_000));
    let route = (*s.choice(ROUTES)).to_string();
    let outcome = (*s.choice(OUTCOMES)).to_string();
    let phases = (0..s.usize_in(0, PHASE_NAMES.len() + 1))
        .map(|_| (*s.choice(PHASE_NAMES), s.u64_in(0, 10_000_000)))
        .collect();
    // Meta is whatever subset the request got far enough to record.
    let mut meta: Vec<(&'static str, Json)> = Vec::new();
    if s.bool() {
        meta.push(("status", Json::from(s.u64_in(100, 600))));
    }
    if s.bool() {
        meta.push(("cache_key", Json::from(format!("{:016x}", s.u64_in(0, 1 << 62)))));
    }
    if s.bool() {
        meta.push(("bytes", Json::from(s.u64_in(0, 1 << 30))));
    }
    RequestRecord {
        id,
        route,
        outcome,
        total_us: s.u64_in(0, 1 << 40),
        phases,
        meta,
    }
}

#[test]
fn access_lines_are_single_parseable_lines_with_stable_keys() {
    Checker::new(0x5_e4f0)
        .cases(256)
        .suite("prop_serve_reqlog")
        .run(
            "access_lines_are_single_parseable_lines_with_stable_keys",
            draw_record,
            |rec| {
                let line = access_line(rec);
                prop_assert!(
                    !line.contains('\n') && !line.contains('\r'),
                    "line breaks must be escaped: {:?}",
                    line
                );
                let doc = Json::parse(&line)
                    .map_err(|e| Failure::Fail(format!("unparseable line {line:?}: {e}")))?;
                let keys: Vec<&str> = doc
                    .as_obj()
                    .ok_or_else(|| Failure::Fail("line is not an object".to_string()))?
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                prop_assert_eq!(keys, ACCESS_LOG_KEYS.to_vec());

                // The values round-trip through the escaping.
                prop_assert_eq!(doc.get("id").and_then(Json::as_str), Some(rec.id.as_str()));
                prop_assert_eq!(
                    doc.get("route").and_then(Json::as_str),
                    Some(rec.route.as_str())
                );
                prop_assert_eq!(
                    doc.get("outcome").and_then(Json::as_str),
                    Some(rec.outcome.as_str())
                );
                prop_assert_eq!(
                    doc.get("total_us").and_then(Json::as_u64),
                    Some(rec.total_us)
                );
                let phases = doc
                    .get("phases")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| Failure::Fail("phases missing".to_string()))?;
                prop_assert_eq!(phases.len(), rec.phases.len());
                for (got, want) in phases.iter().zip(&rec.phases) {
                    prop_assert_eq!(got.get("name").and_then(Json::as_str), Some(want.0));
                    prop_assert_eq!(got.get("us").and_then(Json::as_u64), Some(want.1));
                }
                Ok(())
            },
        );
}
