//! The serve access log: one JSONL line per completed request.
//!
//! Enabled by `--access-log FILE`. Each line is the compact render of
//! one JSON object with a *stable key set* — every key is present on
//! every line, whatever the outcome, so downstream `grep`/`jq` never
//! has to branch on shape:
//!
//! ```json
//! {"id":"r-00000000","route":"POST /run","outcome":"miss","status":200,
//!  "cache_key":"91cb3...","bytes":4096,"total_us":1234,
//!  "phases":[{"name":"accept","us":40},{"name":"parse","us":10}, ...]}
//! ```
//!
//! The single-line guarantee is the same one `--telemetry` gives: the
//! value is rendered by `ampsched_util::Json`, whose string escaping
//! turns raw newlines into `\n` escapes, so a line break can never
//! appear inside a record. `prop_serve_reqlog` holds both properties
//! (single line, stable keys) across fuzzed outcomes.

use ampsched_obs::request::RequestRecord;
use ampsched_util::Json;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// The keys every access-log line carries, in order. Exposed so the
/// property test asserts the exact set rather than re-deriving it.
pub const ACCESS_LOG_KEYS: [&str; 8] = [
    "id",
    "route",
    "outcome",
    "status",
    "cache_key",
    "bytes",
    "total_us",
    "phases",
];

/// Render one completed request as a compact single-line JSON record.
/// Metadata the request never got (`status`, `cache_key`, `bytes` on
/// early failures) falls back to `0` / `"-"` so the key set is stable.
pub fn access_line(rec: &RequestRecord) -> String {
    let meta = |key: &str| rec.meta.iter().find(|(n, _)| *n == key).map(|(_, v)| v.clone());
    let phases: Vec<Json> = rec
        .phases
        .iter()
        .map(|&(name, us)| Json::obj([("name", Json::from(name)), ("us", Json::from(us))]))
        .collect();
    Json::obj([
        ("id", Json::from(rec.id.as_str())),
        ("route", Json::from(rec.route.as_str())),
        ("outcome", Json::from(rec.outcome.as_str())),
        ("status", meta("status").unwrap_or_else(|| Json::from(0u64))),
        ("cache_key", meta("cache_key").unwrap_or_else(|| Json::from("-"))),
        ("bytes", meta("bytes").unwrap_or_else(|| Json::from(0u64))),
        ("total_us", Json::from(rec.total_us)),
        ("phases", Json::Arr(phases)),
    ])
    .render()
}

/// An open access log. Lines are flushed as they are written — the log
/// is an operator artifact, tailed while the daemon runs.
pub struct AccessLog {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl AccessLog {
    /// Create (truncating) the log file.
    pub fn create(path: &Path) -> std::io::Result<AccessLog> {
        let file = std::fs::File::create(path)?;
        Ok(AccessLog {
            out: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Append one request's line. Best effort: an I/O error is logged
    /// and dropped, never propagated into the response path.
    pub fn write(&self, rec: &RequestRecord) {
        let line = access_line(rec);
        let mut out = self.out.lock().expect("access log lock");
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            ampsched_obs::error!("serve.access_log", "write failed: {}", e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_line_is_single_line_with_stable_keys() {
        let rec = RequestRecord {
            id: "r-00000007".to_string(),
            route: "POST /run".to_string(),
            outcome: "miss".to_string(),
            total_us: 1234,
            phases: vec![("parse", 10), ("sim", 900)],
            meta: vec![
                ("status", Json::from(200u64)),
                ("cache_key", Json::from("00000000deadbeef")),
                ("bytes", Json::from(4096u64)),
            ],
        };
        let line = access_line(&rec);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("line parses");
        let obj = doc.as_obj().expect("line is an object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ACCESS_LOG_KEYS);
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(
            doc.get("cache_key").and_then(Json::as_str),
            Some("00000000deadbeef")
        );

        // A bare-bones failure record (no meta, hostile strings) still
        // yields one parseable line with the same keys.
        let hostile = RequestRecord {
            id: "r-00000008".to_string(),
            route: "POST /run\nX: y".to_string(),
            outcome: "bad-request".to_string(),
            total_us: 5,
            phases: vec![],
            meta: vec![],
        };
        let line = access_line(&hostile);
        assert!(!line.contains('\n'), "newline in route must be escaped");
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ACCESS_LOG_KEYS);
        assert_eq!(doc.get("cache_key").and_then(Json::as_str), Some("-"));
        assert_eq!(doc.get("bytes").and_then(Json::as_u64), Some(0));
    }
}
