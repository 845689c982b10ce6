//! `ampsched serve`: the scheduling-as-a-service daemon.
//!
//! A long-running process that answers experiment requests over a
//! strict HTTP/1.1 subset ([`http`]), keyed by a canonical hash of the
//! resolved parameters ([`protocol`]), backed by a bounded coalescing
//! result cache ([`cache`]), computed by a fixed worker pool
//! ([`queue`]), and observable through `serve.*` instruments
//! ([`metrics`]). DESIGN.md §14 is the architecture document;
//! EXPERIMENTS.md is the operator reference.
//!
//! Routes:
//!
//! | route | meaning |
//! |---|---|
//! | `POST /run` | run (or re-serve) one experiment; body = job JSON |
//! | `GET /healthz` | liveness + queue/cache gauges |
//! | `GET /metrics` | `serve.*` instrument snapshot + latency quantiles |
//! | `GET /requestz` | last N completed requests with phase timelines |
//! | `GET /statusz` | the in-flight request set |
//! | `GET /debugz/flight` | flight-recorder ring dump (JSONL) |
//! | `POST /shutdown` | stop accepting, drain, exit |
//!
//! The front end is one thread blocked in `accept`, plus one handler
//! thread per connection up to [`ServeConfig::max_connections`]; past
//! the cap the acceptor itself answers `503` with `Retry-After`. Each
//! request must arrive whole within [`ServeConfig::read_timeout_ms`] of
//! its accept, or it is answered `408`. Shutdown only sets a flag; a
//! watcher thread wakes the acceptor by connecting to the daemon's own
//! address.
//!
//! Every accepted request gets a deterministic id (`r-` + accept
//! sequence number) and a per-phase timeline
//! (accept → parse → cache-claim → queue-wait → sim → serialize → write
//! for a cache miss) recorded in `ampsched_obs::request`; `--access-log`
//! writes one JSONL line per request from the same records ([`reqlog`]).
//!
//! Two guarantees the tests enforce end to end:
//!
//! - **Byte identity.** A `/run` response body is byte-for-byte the
//!   file `ampsched --json` would write for the same resolved
//!   parameters (`serve_e2e` compares against the `golden_compat`
//!   goldens; CI re-checks over a real socket with `cmp`).
//! - **Read-only service.** Serving never mutates experiment state:
//!   results come from a pure function of the request, cached by
//!   content address. The only writes the daemon performs are its own
//!   cache spills under `--cache-dir`.

pub mod bench;
pub mod cache;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod reqlog;

use crate::common::Params;
use ampsched_obs::{request as obs_request, ring as obs_ring};
use ampsched_util::Json;
use cache::{Claim, ResultCache, WaitOutcome};
use queue::{Job, JobQueue, WorkerPool};
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything `ampsched serve` needs to come up, resolved from CLI
/// flags (defaults in parentheses).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7199`). Use port 0 for an ephemeral
    /// port — the bound address is printed and available via
    /// [`Server::local_addr`].
    pub addr: String,
    /// Worker threads draining the job queue (`2`).
    pub workers: usize,
    /// In-memory result-cache capacity in cells (`64`).
    pub cache_entries: usize,
    /// Disk spill directory for the result cache (none).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-request deadline in milliseconds (`600_000`); an elapsed
    /// deadline answers 504 but the job still completes and caches.
    pub deadline_ms: u64,
    /// Base parameters requests resolve against — in practice the
    /// trace-cache directory from `--trace-cache`.
    pub base: Params,
    /// Access-log file (`--access-log`): one JSONL line per completed
    /// request (none).
    pub access_log: Option<std::path::PathBuf>,
    /// Flight-recorder dump file (`--flight-recorder`): the obs event
    /// ring is written here on a worker panic or a 504 (none). The ring
    /// itself records regardless — `GET /debugz/flight` always works.
    pub flight_recorder: Option<std::path::PathBuf>,
    /// Connections served at once (`64`), each on its own thread. The
    /// acceptor answers a connection past the cap `503` with
    /// `Retry-After: 1` and closes it. Settable only so the cap can be
    /// tested with tens of connections; no caller outside the tests
    /// changes it, and it has no CLI flag. The default is a picked
    /// value, not a measured one.
    pub max_connections: usize,
    /// Whole-request read deadline in milliseconds (`10_000`): head and
    /// body must arrive within it of the accept, or the request is
    /// answered `408` and its slot freed. Settable only so the deadline
    /// can be tested in well under a second; no caller outside the
    /// tests changes it, and it has no CLI flag. The default is a
    /// picked value, not a measured one.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7199".to_string(),
            workers: 2,
            cache_entries: 64,
            cache_dir: None,
            deadline_ms: 600_000,
            base: Params::default(),
            access_log: None,
            flight_recorder: None,
            max_connections: 64,
            read_timeout_ms: 10_000,
        }
    }
}

/// How often the shutdown watcher looks at the shutdown flag. The
/// watcher is the one wake path: `POST /shutdown` and a
/// [`Server::shutdown_handle`] store both only set the flag, and the
/// watcher's self-connect returns the acceptor from `accept` within
/// this interval. Off the request path.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// A bound (but not yet serving) daemon. `bind` then `run`; tests use
/// [`Server::local_addr`] between the two to learn the ephemeral port.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    shutdown: Arc<AtomicBool>,
    access_log: Option<Arc<reqlog::AccessLog>>,
}

impl Server {
    /// Bind the listen socket and construct the cache + queue. No
    /// thread is spawned yet. Binding also switches on the process-wide
    /// request registry and flight recorder — both are observation-only
    /// (served bytes stay byte-identical; `serve_obs` enforces it).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = Arc::new(ResultCache::new(
            config.cache_entries,
            config.cache_dir.clone(),
        ));
        let access_log = match &config.access_log {
            Some(path) => Some(Arc::new(reqlog::AccessLog::create(path)?)),
            None => None,
        };
        obs_request::set_enabled(true);
        obs_ring::set_enabled(true);
        obs_ring::set_dump_path(config.flight_recorder.clone());
        Ok(Server {
            listener,
            queue: Arc::new(JobQueue::new()),
            cache,
            shutdown: Arc::new(AtomicBool::new(false)),
            access_log,
            config,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return when set — the same
    /// flag `POST /shutdown` sets. For embedding the server in tests.
    /// A store is seen within 25 ms by the watcher thread,
    /// which then wakes the blocked acceptor.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until shutdown, then drain: stop accepting, wait for
    /// in-flight connections, let queued jobs finish, join the pool.
    pub fn run(self) -> std::io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let shutdown = Arc::clone(&self.shutdown);
        let watcher = std::thread::Builder::new()
            .name("serve-shutdown".to_string())
            .spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::park_timeout(SHUTDOWN_POLL);
                }
                // Return the acceptor from `accept` so it sees the flag.
                // Best effort: once the acceptor is gone it may fail.
                let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            })?;
        let pool = WorkerPool::spawn(
            self.config.workers,
            Arc::clone(&self.queue),
            Arc::clone(&self.cache),
        );
        let deadline = Duration::from_millis(self.config.deadline_ms.max(1));
        let ctx = Arc::new(ConnCtx {
            queue: Arc::clone(&self.queue),
            cache: Arc::clone(&self.cache),
            shutdown: Arc::clone(&self.shutdown),
            deadline,
            read_timeout: Duration::from_millis(self.config.read_timeout_ms.max(1)),
            workers: self.config.workers,
            base: self.config.base.clone(),
            access_log: self.access_log.clone(),
        });
        let conns = Arc::new(Conns::default());
        let result = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) => break Err(e),
            };
            let accepted = Instant::now();
            // The watcher connected to wake us; its stream, or a
            // client's that raced it, is dropped unanswered.
            if self.shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            let Some(slot) = Conns::enter(&conns, self.config.max_connections) else {
                reject_over_capacity(stream, &ctx, accepted);
                continue;
            };
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || {
                    handle_connection(stream, &ctx, accepted);
                    drop(slot);
                })
                .expect("spawn connection handler");
        };
        self.shutdown.store(true, Ordering::SeqCst);
        watcher.thread().unpark();
        // Drain: connections first (they may still enqueue), then the
        // queue and pool. A stuck connection cannot wedge shutdown
        // forever — its cache wait is bounded by the deadline.
        conns.wait_idle(deadline + Duration::from_secs(5));
        pool.join();
        let _ = watcher.join();
        result
    }
}

/// Where to connect to wake the acceptor: the bound address, with a
/// wildcard IP replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The live connection count: the acceptor's admission gate and what
/// the drain waits on.
#[derive(Default)]
struct Conns {
    live: Mutex<usize>,
    idle: Condvar,
}

/// One taken connection slot; dropping it frees the slot, also when
/// the handler panicked.
struct Slot(Arc<Conns>);

impl Conns {
    /// Take a slot, unless `max` are taken.
    fn enter(conns: &Arc<Conns>, max: usize) -> Option<Slot> {
        let mut live = conns.live.lock().expect("connection count poisoned");
        if *live >= max {
            return None;
        }
        *live += 1;
        Some(Slot(Arc::clone(conns)))
    }

    /// Block until no slot is taken, or `cap` has passed.
    fn wait_idle(&self, cap: Duration) {
        let live = self.live.lock().expect("connection count poisoned");
        let _ = self.idle.wait_timeout_while(live, cap, |live| *live > 0);
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Every update is one whole `+= 1` or `-= 1`, so a poisoned
        // count is still exact.
        let mut live = self.0.live.lock().unwrap_or_else(|e| e.into_inner());
        *live -= 1;
        if *live == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Answer a connection past [`ServeConfig::max_connections`] from the
/// acceptor, without blocking it: `503` with `Retry-After: 1`, then
/// close. A `POST /shutdown` whose request line has already arrived is
/// honoured instead, so a daemon whose slots are all held by parked
/// `/run` waiters can still be stopped; one whose bytes are still on
/// the way gets the 503 and gets through on its retry.
fn reject_over_capacity(mut stream: TcpStream, ctx: &ConnCtx, accepted: Instant) {
    if read_arrived(&stream).starts_with(b"POST /shutdown ") {
        ampsched_obs::counter!("serve.request");
        let obs = RequestObs::begin("POST /shutdown", "/shutdown", accepted, Instant::now());
        respond_shutdown(&mut stream, ctx, obs);
        return;
    }
    ampsched_obs::counter!("serve.error.over_capacity");
    let obs = RequestObs::begin("-", "-", accepted, accepted);
    respond_error(
        &mut stream,
        ctx,
        obs,
        (503, "Service Unavailable"),
        &[("Retry-After", "1")],
        "too many connections; retry later",
        "over-capacity",
    );
}

/// Most request bytes [`read_arrived`] takes off a socket.
const MAX_ARRIVED: usize = 64 * 1024;

/// Read, without blocking, the request bytes that have already arrived
/// on `stream` (up to [`MAX_ARRIVED`]). Closing a socket with unread
/// input sends a reset rather than FIN, and the reset can discard a
/// response the client has not read yet: before this read, a client
/// that sent its request to a full daemon lost the 503 in 200 of 200
/// tries. Bytes that arrive after the read can still cause a reset.
fn read_arrived(mut stream: &TcpStream) -> Vec<u8> {
    let mut arrived = Vec::new();
    if stream.set_nonblocking(true).is_err() {
        return arrived;
    }
    let mut buf = [0u8; 4096];
    while arrived.len() < MAX_ARRIVED {
        match stream.read(&mut buf) {
            Ok(n @ 1..) => arrived.extend_from_slice(&buf[..n]),
            _ => break,
        }
    }
    let _ = stream.set_nonblocking(false);
    arrived
}

/// What a connection handler needs from the server.
struct ConnCtx {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    shutdown: Arc<AtomicBool>,
    deadline: Duration,
    read_timeout: Duration,
    workers: usize,
    base: Params,
    access_log: Option<Arc<reqlog::AccessLog>>,
}

/// Per-request observability handle: the request-registry id (when
/// tracing is on) plus the timestamps the phase timeline hangs off.
/// Everything here is measurement — dropping all of it changes no
/// served byte.
struct RequestObs {
    id: Option<String>,
    accepted: Instant,
    started: Instant,
    route_hist: &'static str,
}

impl RequestObs {
    /// Open a record for a request on `path` labelled `route`
    /// (`"POST /run"`) and record its `accept` phase: from `accepted`,
    /// when `accept` returned the connection, to `started`, when its
    /// handler began reading.
    fn begin(route: &str, path: &str, accepted: Instant, started: Instant) -> RequestObs {
        let obs = RequestObs {
            id: obs_request::begin(route),
            accepted,
            started,
            route_hist: metrics::route_hist(path),
        };
        obs.phase("accept", started.duration_since(accepted));
        obs
    }

    /// Record one phase duration against this request.
    fn phase(&self, name: &'static str, took: Duration) {
        if let Some(id) = &self.id {
            obs_request::phase(id, name, took.as_micros() as u64);
        }
    }

    /// Attach a metadata field (cache key, etc.) to this request.
    fn annotate(&self, key: &'static str, value: Json) {
        if let Some(id) = &self.id {
            obs_request::annotate(id, key, value);
        }
    }

    /// Seal the request: record total latency since the accept in the
    /// per-route and per-outcome histogram families, move the record to
    /// the completed history, and write the access-log line.
    fn finish(self, ctx: &ConnCtx, outcome: &str, status: u16, bytes: usize) {
        let total_us = self.accepted.elapsed().as_micros() as u64;
        ampsched_obs::metrics::hist(self.route_hist).record(total_us);
        ampsched_obs::metrics::hist(metrics::outcome_hist(outcome)).record(total_us);
        if let Some(id) = &self.id {
            obs_request::annotate(id, "status", Json::from(status as u64));
            obs_request::annotate(id, "bytes", Json::from(bytes));
            if let Some(rec) = obs_request::finish(id, outcome, total_us) {
                if let Some(log) = &ctx.access_log {
                    log.write(&rec);
                }
            }
        }
    }
}

/// Serve exactly one request on `stream` (the protocol is one request
/// per connection, `Connection: close`), accepted at `accepted`.
fn handle_connection(mut stream: TcpStream, ctx: &ConnCtx, accepted: Instant) {
    let started = Instant::now();
    let read_deadline = accepted + ctx.read_timeout;
    let request = match http::read_request(&stream, read_deadline, &http::Limits::default()) {
        Ok(r) => r,
        Err(e) => {
            let outcome = if let http::HttpError::Timeout = e {
                ampsched_obs::counter!("serve.error.read_timeout");
                "read-timeout"
            } else {
                ampsched_obs::counter!("serve.error.bad_request");
                "bad-request"
            };
            let obs = RequestObs::begin("-", "-", accepted, started);
            obs.phase("parse", started.elapsed());
            respond_error(&mut stream, ctx, obs, e.status(), &[], &e.detail(), outcome);
            return;
        }
    };
    ampsched_obs::counter!("serve.request");
    let route = format!("{} {}", request.method, request.path);
    let obs = RequestObs::begin(&route, &request.path, accepted, started);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => handle_run(&mut stream, &request.body, ctx, obs),
        ("GET", "/healthz") => {
            obs.phase("parse", started.elapsed());
            let body =
                metrics::healthz_json(ctx.queue.depth(), &ctx.cache.stats(), ctx.workers)
                    .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/metrics") => {
            obs.phase("parse", started.elapsed());
            let body =
                metrics::metrics_json(ctx.queue.depth(), &ctx.cache.stats()).render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/requestz") => {
            obs.phase("parse", started.elapsed());
            let records: Vec<Json> =
                obs_request::completed().iter().map(|r| r.to_json()).collect();
            let body = Json::obj([
                ("capacity", Json::from(obs_request::DEFAULT_CAPACITY)),
                ("requests", Json::Arr(records)),
            ])
            .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/statusz") => {
            obs.phase("parse", started.elapsed());
            let inflight: Vec<Json> =
                obs_request::inflight().iter().map(|r| r.to_json()).collect();
            let body = Json::obj([
                ("inflight", Json::Arr(inflight)),
                ("queue_depth", Json::from(ctx.queue.depth())),
                ("workers", Json::from(ctx.workers)),
            ])
            .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/debugz/flight") => {
            obs.phase("parse", started.elapsed());
            let body = obs_ring::to_jsonl();
            respond_ok(&mut stream, ctx, obs, "application/x-ndjson", body.as_bytes());
        }
        ("POST", "/shutdown") => respond_shutdown(&mut stream, ctx, obs),
        (
            _,
            "/run" | "/healthz" | "/metrics" | "/requestz" | "/statusz" | "/debugz/flight"
            | "/shutdown",
        ) => {
            ampsched_obs::counter!("serve.error.bad_request");
            respond_error(
                &mut stream,
                ctx,
                obs,
                (405, "Method Not Allowed"),
                &[],
                "method not allowed for this route",
                "bad-request",
            );
        }
        _ => {
            ampsched_obs::counter!("serve.error.bad_request");
            respond_error(
                &mut stream,
                ctx,
                obs,
                (404, "Not Found"),
                &[],
                "no such route",
                "bad-request",
            );
        }
    }
}

/// Write a 200 response and seal the request with outcome `ok`.
fn respond_ok(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    obs: RequestObs,
    content_type: &str,
    body: &[u8],
) {
    let wt = Instant::now();
    let _ = http::write_response(stream, 200, "OK", content_type, &[], body);
    obs.phase("write", wt.elapsed());
    obs.finish(ctx, "ok", 200, body.len());
}

/// Answer `POST /shutdown`: set the shutdown flag, which the watcher
/// wakes the acceptor on, and say the daemon is draining. Closes like
/// [`respond_error`], since the acceptor answers it from the request
/// line alone when the daemon is full.
fn respond_shutdown(stream: &mut TcpStream, ctx: &ConnCtx, obs: RequestObs) {
    obs.phase("parse", obs.started.elapsed());
    ctx.shutdown.store(true, Ordering::SeqCst);
    let body: &[u8] = b"{\"status\": \"draining\"}\n";
    let wt = Instant::now();
    let _ = http::write_response(stream, 200, "OK", "application/json", &[], body);
    obs.phase("write", wt.elapsed());
    obs.finish(ctx, "draining", 200, body.len());
    read_arrived(stream);
}

/// Write a JSON error response, seal the request, and take the request
/// bytes already sent off the socket so that dropping it closes cleanly
/// ([`read_arrived`]): the client may still be sending when the error
/// is decided (a trickled head, an oversized body).
fn respond_error(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    obs: RequestObs,
    (status, reason): (u16, &str),
    headers: &[(&str, &str)],
    message: &str,
    outcome: &str,
) {
    let body = error_body(message);
    let wt = Instant::now();
    let _ = http::write_response(
        stream,
        status,
        reason,
        "application/json",
        headers,
        body.as_bytes(),
    );
    obs.phase("write", wt.elapsed());
    obs.finish(ctx, outcome, status, body.len());
    read_arrived(stream);
}

/// The `/run` path: validate, claim the cache cell, compute or wait,
/// answer. The `X-Cache` header says which way the request went.
///
/// Phase timeline by path (visible in `/requestz` and the access log):
/// hit/disk-hit → `accept, parse, cache-claim, write`; miss →
/// `accept, parse, cache-claim, queue-wait, sim, serialize, write` (the
/// middle three recorded by the worker against this request's id);
/// coalesced → `accept, parse, cache-claim, wait, write`.
fn handle_run(stream: &mut TcpStream, body: &[u8], ctx: &ConnCtx, obs: RequestObs) {
    let spec = match protocol::parse_request(body, &ctx.base) {
        Ok(spec) => spec,
        Err(msg) => {
            ampsched_obs::counter!("serve.error.bad_request");
            obs.phase("parse", obs.started.elapsed());
            respond_error(stream, ctx, obs, (400, "Bad Request"), &[], &msg, "bad-request");
            return;
        }
    };
    ampsched_obs::counter!("serve.run");
    obs.phase("parse", obs.started.elapsed());
    let key = protocol::canonical_hash(&spec);
    let key_header = format!("{key:016x}");
    obs.annotate("cache_key", Json::from(key_header.as_str()));
    let claim_start = Instant::now();
    let first_claim = ctx.cache.claim(key);
    obs.phase("cache-claim", claim_start.elapsed());
    let (claim, cache_state) = match first_claim {
        Claim::Hit(bytes) => {
            ampsched_obs::counter!("serve.cache.hit");
            (Some(bytes), "hit")
        }
        Claim::DiskHit(bytes) => {
            ampsched_obs::counter!("serve.cache.disk_hit");
            (Some(bytes), "disk-hit")
        }
        Claim::Owner => {
            ampsched_obs::counter!("serve.cache.miss");
            if !ctx.queue.push(Job::new(key, spec, obs.id.clone())) {
                ctx.cache.fail(key, "server is draining".to_string());
                respond_error(
                    stream,
                    ctx,
                    obs,
                    (503, "Service Unavailable"),
                    &[],
                    "server is draining",
                    "draining",
                );
                return;
            }
            (None, "miss")
        }
        Claim::Wait(_) => {
            ampsched_obs::counter!("serve.coalesce");
            (None, "coalesced")
        }
    };
    let outcome = match claim {
        Some(bytes) => WaitOutcome::Ready(bytes),
        // Owner and coalescer alike wait on the pending slot (the
        // owner's job is in the queue; re-claiming yields its slot, or
        // the finished bytes if a worker already got to it). The owner's
        // wait is accounted by the worker-recorded queue-wait/sim/
        // serialize phases; a coalescer records it as one `wait` phase.
        None => {
            let wait_start = Instant::now();
            let outcome = match ctx.cache.claim(key) {
                Claim::Hit(bytes) | Claim::DiskHit(bytes) => WaitOutcome::Ready(bytes),
                Claim::Wait(slot) => slot.wait(ctx.deadline),
                Claim::Owner => {
                    // The job failed between push and re-claim; don't run a
                    // second attempt inside a connection thread.
                    ctx.cache.fail(key, "job failed".to_string());
                    WaitOutcome::Failed("job failed; retry the request".to_string())
                }
            };
            if cache_state == "coalesced" {
                obs.phase("wait", wait_start.elapsed());
            }
            outcome
        }
    };
    let latency_us = obs.accepted.elapsed().as_micros() as u64;
    ampsched_obs::hist!("serve.latency_us", latency_us);
    match outcome {
        WaitOutcome::Ready(bytes) => {
            let wt = Instant::now();
            let _ = http::write_response(
                stream,
                200,
                "OK",
                "application/json",
                &[("X-Cache", cache_state), ("X-Cache-Key", &key_header)],
                &bytes,
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, cache_state, 200, bytes.len());
        }
        WaitOutcome::Failed(msg) => {
            ampsched_obs::counter!("serve.error.failed");
            respond_error(
                stream,
                ctx,
                obs,
                (500, "Internal Server Error"),
                &[("X-Cache", cache_state)],
                &msg,
                "failed",
            );
        }
        WaitOutcome::TimedOut => {
            ampsched_obs::counter!("serve.error.timeout");
            // Deadline expiry is a "what was going on?" moment: dump the
            // flight recorder (no-op without --flight-recorder).
            obs_ring::dump_now("request deadline expired (504)");
            respond_error(
                stream,
                ctx,
                obs,
                (504, "Gateway Timeout"),
                &[("X-Cache", cache_state)],
                "deadline elapsed; the job continues and will be cached",
                "timeout",
            );
        }
    }
}

/// A JSON error body: `{"error": "<message>"}`.
fn error_body(message: &str) -> String {
    ampsched_util::Json::obj([("error", ampsched_util::Json::from(message))]).render_pretty()
}
