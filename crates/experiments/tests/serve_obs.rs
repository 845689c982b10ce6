//! Observability tests for `ampsched serve` (DESIGN.md §16): the obs
//! layer must be *read-only* — served bytes are byte-identical with
//! request tracing, `--access-log`, and the flight recorder all enabled
//! vs all disabled — and the artifacts it produces must be complete
//! (`/requestz` phase breakdown, access-log lines per outcome) and
//! deterministic (identical request sequences yield identical flight
//! recorder contents modulo timestamps).
//!
//! The request registry and flight recorder are process-global, so the
//! tests here serialize on one lock and reset both between runs.

use ampsched_experiments::common::Params;
use ampsched_experiments::serve::reqlog::ACCESS_LOG_KEYS;
use ampsched_experiments::serve::{http, ServeConfig, Server};
use ampsched_obs::{request as obs_request, ring as obs_ring};
use ampsched_util::Json;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: obs state is process-global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same pinned fig1 cell the e2e byte-identity test uses.
const FIG1_BODY: &str = r#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#;

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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ampsched-serve-obs-{}-{tag}", std::process::id()))
}

/// A request's `finish` is recorded *after* its response is written, so
/// a client that just read the body may be ahead of the registry. Wait
/// for the flight recorder's `request.finish` event for `id` — it is
/// emitted after the completed record lands, and before the access-log
/// line — then both artifacts are settled for that request.
fn wait_for_finish(id: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let done = obs_ring::snapshot().into_iter().any(|e| {
            e.kind == "request.finish" && e.detail.starts_with(id)
        });
        if done {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "request {id} never finished in the registry"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn phase_names(rec: &Json) -> Vec<String> {
    rec.get("phases")
        .and_then(Json::as_arr)
        .expect("phases array")
        .iter()
        .map(|p| p.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn obs_is_read_only_and_requestz_breaks_down_phases() {
    let _lock = lock();
    obs_request::reset();
    obs_ring::reset();

    let access_path = temp_path("access.jsonl");
    let flight_path = temp_path("flight.jsonl");
    let _ = std::fs::remove_file(&access_path);
    let _ = std::fs::remove_file(&flight_path);

    // Run 1: every observability flag on.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_entries: 16,
        base: Params::default(),
        access_log: Some(access_path.clone()),
        flight_recorder: Some(flight_path.clone()),
        ..ServeConfig::default()
    };
    let (addr, guard) = start_server(config);

    let (status, headers, body_on) =
        http::request(&addr, "POST", "/run", FIG1_BODY.as_bytes()).expect("cold request");
    assert_eq!(status, 200, "cold: {}", String::from_utf8_lossy(&body_on));
    let x_cache = headers
        .iter()
        .find(|(n, _)| n == "x-cache")
        .map(|(_, v)| v.as_str());
    assert_eq!(x_cache, Some("miss"));
    wait_for_finish("r-00000000");

    let (status2, _, body_hit) =
        http::request(&addr, "POST", "/run", FIG1_BODY.as_bytes()).expect("warm request");
    assert_eq!(status2, 200);
    assert_eq!(body_hit, body_on, "cache hit must be byte-identical");
    wait_for_finish("r-00000001");

    // The committed golden pins the CLI's --json bytes; the traced,
    // access-logged, flight-recorded response must equal them exactly.
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/compat/fig1.json"
    ))
    .expect("read fig1 golden");
    assert_eq!(
        body_on, golden,
        "obs-enabled served bytes must equal the CLI --json golden"
    );

    // /requestz: the completed miss shows the full pipeline timeline,
    // the hit shows the short-circuit one.
    let (rz_status, _, rz_body) =
        http::request(&addr, "GET", "/requestz", b"").expect("requestz");
    assert_eq!(rz_status, 200);
    let rz = Json::parse(std::str::from_utf8(&rz_body).unwrap()).expect("requestz JSON");
    let requests = rz.get("requests").and_then(Json::as_arr).expect("requests");
    let find = |id: &str| {
        requests
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("{id} missing from /requestz: {rz:?}"))
    };
    let miss = find("r-00000000");
    assert_eq!(miss.get("outcome").and_then(Json::as_str), Some("miss"));
    assert_eq!(miss.get("route").and_then(Json::as_str), Some("POST /run"));
    assert_eq!(
        phase_names(miss),
        ["accept", "parse", "cache-claim", "queue-wait", "sim", "serialize", "write"],
        "a miss must break down the whole pipeline"
    );
    assert_eq!(miss.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(
        miss.get("bytes").and_then(Json::as_u64),
        Some(body_on.len() as u64)
    );
    let key = miss.get("cache_key").and_then(Json::as_str).expect("cache_key");
    assert_eq!(key.len(), 16, "cache key is 16 hex chars: {key}");
    let hit = find("r-00000001");
    assert_eq!(hit.get("outcome").and_then(Json::as_str), Some("hit"));
    assert_eq!(phase_names(hit), ["accept", "parse", "cache-claim", "write"]);

    // /statusz: the probe itself is in flight when the snapshot is cut.
    let (sz_status, _, sz_body) =
        http::request(&addr, "GET", "/statusz", b"").expect("statusz");
    assert_eq!(sz_status, 200);
    let sz = Json::parse(std::str::from_utf8(&sz_body).unwrap()).expect("statusz JSON");
    assert_eq!(sz.get("workers").and_then(Json::as_u64), Some(2));
    assert!(sz.get("queue_depth").and_then(Json::as_u64).is_some());
    let inflight = sz.get("inflight").and_then(Json::as_arr).expect("inflight");
    assert!(
        inflight
            .iter()
            .any(|r| r.get("route").and_then(Json::as_str) == Some("GET /statusz")),
        "the statusz request observes itself in flight: {sz:?}"
    );

    // /debugz/flight: JSONL, every line parses, the lifecycle is there.
    let (fl_status, fl_headers, fl_body) =
        http::request(&addr, "GET", "/debugz/flight", b"").expect("flight");
    assert_eq!(fl_status, 200);
    assert!(fl_headers
        .iter()
        .any(|(n, v)| n == "content-type" && v == "application/x-ndjson"));
    let fl_text = std::str::from_utf8(&fl_body).unwrap();
    let mut kinds = Vec::new();
    for line in fl_text.lines().filter(|l| !l.is_empty()) {
        let e = Json::parse(line).unwrap_or_else(|err| panic!("bad flight line {line}: {err}"));
        kinds.push(e.get("kind").and_then(Json::as_str).unwrap().to_string());
    }
    for expected in ["request.begin", "request.finish", "job.execute"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "flight ring must hold {expected}: {kinds:?}"
        );
    }

    // Access log: one line per completed request, stable keys, both
    // outcomes present.
    let deadline = Instant::now() + Duration::from_secs(10);
    let lines: Vec<String> = loop {
        let text = std::fs::read_to_string(&access_path).unwrap_or_default();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines
            .iter()
            .filter(|l| l.contains("\"route\":\"POST /run\""))
            .count()
            >= 2
        {
            break lines;
        }
        assert!(Instant::now() < deadline, "access log never got 2 run lines");
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut outcomes = Vec::new();
    for line in &lines {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad access line {line}: {e}"));
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("access line is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ACCESS_LOG_KEYS, "stable key set on every line");
        outcomes.push(doc.get("outcome").and_then(Json::as_str).unwrap().to_string());
    }
    assert!(outcomes.iter().any(|o| o == "miss"), "{outcomes:?}");
    assert!(outcomes.iter().any(|o| o == "hit"), "{outcomes:?}");

    drop(guard);

    // Run 2: every observability flag off. Same request, same bytes.
    let config_off = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_entries: 16,
        base: Params::default(),
        ..ServeConfig::default()
    };
    let (addr_off, _guard_off) = start_server(config_off);
    let (status_off, _, body_off) =
        http::request(&addr_off, "POST", "/run", FIG1_BODY.as_bytes()).expect("plain request");
    assert_eq!(status_off, 200);
    assert_eq!(
        body_off, body_on,
        "served bytes must not depend on observability flags"
    );

    let _ = std::fs::remove_file(&access_path);
    let _ = std::fs::remove_file(&flight_path);
}

#[test]
fn flight_recorder_is_deterministic_modulo_timestamps() {
    let _lock = lock();

    // One serve run: reset the global obs state, replay the same
    // request sequence, and return the flight ring with wall-clock
    // timestamps masked out (ts_us is the only nondeterministic field).
    fn one_run(flight: &Path) -> Vec<String> {
        obs_request::reset();
        obs_ring::reset();
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_entries: 16,
            base: Params::default(),
            flight_recorder: Some(flight.to_path_buf()),
            ..ServeConfig::default()
        };
        let (addr, _guard) = start_server(config);
        for (i, body) in [FIG1_BODY, FIG1_BODY].iter().enumerate() {
            let (status, _, _) =
                http::request(&addr, "POST", "/run", body.as_bytes()).expect("run request");
            assert_eq!(status, 200);
            wait_for_finish(&format!("r-{i:08}"));
        }
        let (status, _, body) =
            http::request(&addr, "GET", "/debugz/flight", b"").expect("flight dump");
        assert_eq!(status, 200);
        std::str::from_utf8(&body)
            .unwrap()
            .lines()
            .filter(|l| !l.is_empty())
            .map(|line| {
                let e = Json::parse(line).expect("flight line");
                format!(
                    "{} {} {}",
                    e.get("seq").and_then(Json::as_u64).unwrap(),
                    e.get("kind").and_then(Json::as_str).unwrap(),
                    e.get("detail").and_then(Json::as_str).unwrap()
                )
            })
            .collect()
    }

    let p1 = temp_path("flight-det-1.jsonl");
    let p2 = temp_path("flight-det-2.jsonl");
    let run1 = one_run(&p1);
    let run2 = one_run(&p2);
    assert!(
        run1.iter().any(|l| l.contains("request.begin")),
        "ring must capture the lifecycle: {run1:?}"
    );
    assert!(run1.iter().any(|l| l.contains("job.execute")));
    assert_eq!(
        run1, run2,
        "identical request sequences must leave identical flight rings"
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}
