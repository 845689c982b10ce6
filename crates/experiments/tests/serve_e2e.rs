//! End-to-end tests for `ampsched serve`: a real server on an ephemeral
//! port, real sockets, and the two contracts that make the daemon
//! trustworthy —
//!
//! 1. **Byte identity**: a served `/run` response equals, byte for
//!    byte, the committed `golden_compat` report for the same
//!    parameters (i.e. what the CLI's `--json` writes).
//! 2. **Caching**: a repeated request is answered from the cache —
//!    exactly one underlying simulation, the repeat O(1), and the hit
//!    visible in `/metrics`.

use ampsched_experiments::common::Params;
use ampsched_experiments::serve::{cache, http, protocol, Server, ServeConfig};
use ampsched_obs::metrics;
use ampsched_util::hash::crc32;
use ampsched_util::{cellfile, Json};
use std::time::Duration;

/// The pinned `golden_compat` fig1 cell, as a serve request. Matches
/// `ampsched --quick --pairs 2 --insts 20000 --profile-insts 200000
/// --json ... fig1` (PINNED_ARGS in golden_compat.rs).
const FIG1_BODY: &str = r#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#;

/// The same cell with every JSON member in a different order.
const FIG1_BODY_REORDERED: &str = r#"{"params":{"profile_insts":200000,"insts":20000,"pairs":2,"scale":"quick"},"experiment":"fig1"}"#;

/// The pinned `golden_compat` morphing cell, as a serve request.
const MORPHING_BODY: &str = r#"{"experiment":"morphing","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#;

/// Held by every test here that runs simulation jobs: the job and
/// cache counters are process-global, and one test asserts exact deltas.
static JOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Start a server on an ephemeral port with `base` defaults; returns
/// its address and a guard that shuts it down on drop.
fn start_server(config: ServeConfig) -> (String, ServerGuard) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (
        addr,
        ServerGuard {
            shutdown,
            handle: Some(handle),
        },
    )
}

struct ServerGuard {
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn counter_value(name: &str) -> u64 {
    metrics::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn served_response_is_byte_identical_to_the_cli_golden_and_cached() {
    let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_entries: 16,
        base: Params::default(),
        ..ServeConfig::default()
    };
    let (addr, _guard) = start_server(config);

    let execs_before = counter_value("serve.job.execute");
    let hits_before = counter_value("serve.cache.hit");

    // Cold request: the job actually runs.
    let (status, headers, body) =
        http::request(&addr, "POST", "/run", FIG1_BODY.as_bytes()).expect("cold request");
    assert_eq!(status, 200, "cold: {}", String::from_utf8_lossy(&body));
    let x_cache = headers
        .iter()
        .find(|(n, _)| n == "x-cache")
        .map(|(_, v)| v.as_str());
    assert_eq!(x_cache, Some("miss"), "first request must be a miss");

    // Byte identity against the committed golden the CLI test pins.
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/compat/fig1.json"
    ))
    .expect("read fig1 golden");
    assert_eq!(
        body, golden,
        "served fig1 bytes must equal the CLI --json golden"
    );

    // Warm request, different JSON field order: same cell, zero new
    // simulations, byte-identical bytes.
    let start = std::time::Instant::now();
    let (status2, headers2, body2) =
        http::request(&addr, "POST", "/run", FIG1_BODY_REORDERED.as_bytes())
            .expect("warm request");
    let warm_latency = start.elapsed();
    assert_eq!(status2, 200);
    let x_cache2 = headers2
        .iter()
        .find(|(n, _)| n == "x-cache")
        .map(|(_, v)| v.as_str());
    assert_eq!(x_cache2, Some("hit"), "reordered repeat must hit the cache");
    assert_eq!(body2, body, "cache hit must return byte-identical bytes");
    assert!(
        warm_latency < Duration::from_secs(5),
        "a cache hit must not re-simulate (took {warm_latency:?})"
    );

    // Exactly one underlying run; the hit is visible in the counters.
    assert_eq!(
        counter_value("serve.job.execute") - execs_before,
        1,
        "two requests, one simulation"
    );
    assert_eq!(counter_value("serve.cache.hit") - hits_before, 1);

    // /metrics exposes the same counters over HTTP.
    let (m_status, _, m_body) =
        http::request(&addr, "GET", "/metrics", b"").expect("metrics request");
    assert_eq!(m_status, 200);
    let m_doc = Json::parse(std::str::from_utf8(&m_body).unwrap()).expect("metrics JSON");
    let m_counters = m_doc
        .get("serve")
        .and_then(|s| s.get("counters"))
        .expect("serve.counters");
    assert!(
        m_counters
            .get("serve.cache.hit")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "/metrics must report the cache hit: {m_doc:?}"
    );

    // /healthz answers with gauges.
    let (h_status, _, h_body) =
        http::request(&addr, "GET", "/healthz", b"").expect("healthz request");
    assert_eq!(h_status, 200);
    let h_doc = Json::parse(std::str::from_utf8(&h_body).unwrap()).expect("healthz JSON");
    assert_eq!(h_doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(h_doc.get("workers").and_then(Json::as_u64), Some(2));
}

#[test]
fn error_paths_and_shutdown() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_entries: 4,
        base: Params::default(),
        ..ServeConfig::default()
    };
    let (addr, mut guard) = start_server(config);

    // Unknown route → 404.
    let (status, _, _) = http::request(&addr, "GET", "/nope", b"").expect("404 request");
    assert_eq!(status, 404);

    // Wrong method on a known route → 405.
    let (status, _, _) = http::request(&addr, "GET", "/run", b"").expect("405 request");
    assert_eq!(status, 405);

    // Invalid body → 400 with a JSON error.
    let (status, _, body) =
        http::request(&addr, "POST", "/run", b"{\"experiment\":\"nope\"}").expect("400 request");
    assert_eq!(status, 400);
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).expect("error JSON");
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown experiment"));

    let (status, _, _) =
        http::request(&addr, "POST", "/run", b"this is not json").expect("400 request");
    assert_eq!(status, 400);

    // POST /shutdown drains the server; the run() thread joins.
    let (status, _, _) = http::request(&addr, "POST", "/shutdown", b"").expect("shutdown");
    assert_eq!(status, 200);
    let handle = guard.handle.take().expect("server thread");
    let joined = {
        let start = std::time::Instant::now();
        loop {
            if handle.is_finished() {
                break true;
            }
            if start.elapsed() > Duration::from_secs(30) {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    assert!(joined, "server must drain and stop after POST /shutdown");
    handle.join().expect("server thread exits cleanly");
}

/// The committed `golden_compat` report for `name`.
fn golden(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/compat/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// POST `body` to `/run`, insisting on a 200; returns the `X-Cache`
/// header and the response bytes.
fn run_cell(addr: &str, body: &str) -> (String, Vec<u8>) {
    let (status, headers, bytes) =
        http::request(addr, "POST", "/run", body.as_bytes()).expect("run request");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    let x_cache = headers.iter().find(|(n, _)| n == "x-cache").map(|(_, v)| v.clone());
    (x_cache.expect("X-Cache header"), bytes)
}

/// The cache key a daemon with default parameters derives for `body`.
fn cell_key(body: &str) -> u64 {
    let spec = protocol::parse_request(body.as_bytes(), &Params::default()).expect("valid request");
    protocol::canonical_hash(&spec)
}

#[test]
fn disk_cells_survive_a_restart_and_stale_or_misnamed_cells_are_recomputed() {
    let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ampsched-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_entries: 16,
        base: Params::default(),
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (fig1_key, morphing_key) = (cell_key(FIG1_BODY), cell_key(MORPHING_BODY));
    let fig1_path = cache::cell_path(&dir, fig1_key);
    let morphing_path = cache::cell_path(&dir, morphing_key);

    // Daemon A computes the fig1 cell and spills it before shutting down.
    {
        let (addr, _guard) = start_server(config());
        assert_eq!(run_cell(&addr, FIG1_BODY), ("miss".to_string(), golden("fig1")));
    }
    assert!(fig1_path.exists(), "daemon A must leave its cell on disk");

    // Daemon B, same directory: answered from disk, byte-identical.
    {
        let (addr, _guard) = start_server(config());
        assert_eq!(run_cell(&addr, FIG1_BODY), ("disk-hit".to_string(), golden("fig1")));
    }

    // Plant a valid fig1 cell under morphing's name (key-echo mismatch)
    // and replace the fig1 cell with the earlier `AMPCELL\x01` format:
    // magic | len u64 | crc32 | payload, holding the right bytes.
    std::fs::copy(&fig1_path, &morphing_path).expect("plant misnamed cell");
    let fig1 = golden("fig1");
    let mut old_format = b"AMPCELL\x01".to_vec();
    old_format.extend_from_slice(&(fig1.len() as u64).to_le_bytes());
    old_format.extend_from_slice(&crc32(&fig1).to_le_bytes());
    old_format.extend_from_slice(&fig1);
    std::fs::write(&fig1_path, &old_format).expect("plant old-format cell");

    // Daemon C serves neither: both are misses, recomputed to their goldens.
    {
        let (addr, _guard) = start_server(config());
        assert_eq!(run_cell(&addr, FIG1_BODY), ("miss".to_string(), golden("fig1")));
        assert_eq!(run_cell(&addr, MORPHING_BODY), ("miss".to_string(), golden("morphing")));
    }

    // Both files were replaced by current-format cells echoing their keys.
    for (path, key, name) in [(&fig1_path, fig1_key, "fig1"), (&morphing_path, morphing_key, "morphing")] {
        let payloads = cellfile::load(path, &cache::FORMAT, &key.to_le_bytes())
            .unwrap_or_else(|e| panic!("{name} cell not replaced: {e}"));
        assert_eq!(payloads, vec![golden(name)], "{name} cell holds its own report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
