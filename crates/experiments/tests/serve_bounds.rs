//! Bounds of the `ampsched serve` front end: a flood of idle
//! connections cannot grow the daemon past `max_connections` handler
//! threads (the excess is answered `503` with `Retry-After`), a
//! slowloris client is cut off with `408` at the whole-request read
//! deadline while a well-behaved request still gets its golden bytes,
//! a blocked acceptor wakes promptly for shutdown either way it is
//! asked, and `POST /shutdown` still stops a daemon whose every slot is
//! held.
//!
//! Connection counts stay in the tens. The tests serialize on one lock
//! because the flood test reads this process's thread count.

use ampsched_experiments::serve::{http, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAX_CONNECTIONS: usize = 4;
const READ_TIMEOUT_MS: u64 = 300;

/// The pinned `golden_compat` fig1 cell, as a serve request.
const FIG1_BODY: &str = r#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running in-process server: its address, its shutdown flag, and a
/// channel that receives once `run()` has returned.
struct Running {
    addr: String,
    shutdown: Arc<AtomicBool>,
    done: mpsc::Receiver<()>,
    handle: Option<JoinHandle<()>>,
}

impl Running {
    fn start() -> Running {
        Running::start_with(READ_TIMEOUT_MS)
    }

    fn start_with(read_timeout_ms: u64) -> Running {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: MAX_CONNECTIONS,
            read_timeout_ms,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr").to_string();
        let shutdown = server.shutdown_handle();
        let (tx, done) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
            let _ = tx.send(());
        });
        let (status, _, _) = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
        assert_eq!(status, 200);
        Running {
            addr,
            shutdown,
            done,
            handle: Some(handle),
        }
    }

    /// Wait up to `limit` for `run()` to return.
    fn stopped_within(&mut self, limit: Duration) -> bool {
        let stopped = self.done.recv_timeout(limit).is_ok();
        if stopped {
            self.handle
                .take()
                .expect("server thread")
                .join()
                .expect("server thread");
        }
        stopped
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Bounded, so a server that never stops fails its test rather
        // than hanging it.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            if self.done.recv_timeout(Duration::from_secs(10)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

/// This process's OS thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Read whatever response arrives on `stream` within `limit` and
/// return its status code and head. A reset after the response counts
/// as its end.
fn read_status(stream: &mut TcpStream, limit: Duration) -> (u16, String) {
    stream
        .set_read_timeout(Some(limit))
        .expect("set read timeout");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        raw.extend_from_slice(&buf[..n]);
    }
    let text = String::from_utf8_lossy(&raw);
    let head = text
        .split("\r\n\r\n")
        .next()
        .unwrap_or_default()
        .to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, head)
}

#[test]
fn a_flood_of_idle_connections_is_capped_and_the_excess_gets_503() {
    let _l = lock();
    let server = Running::start();
    let before = threads();
    let mut flood: Vec<TcpStream> = (0..4 * MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    let mut peak = threads();
    // A client that sends its request before reading still gets the
    // 503, not a reset: the acceptor reads what arrived before closing.
    let clean = (0..5).any(|_| {
        matches!(
            http::request(&server.addr, "GET", "/healthz", b""),
            Ok((503, headers, _)) if headers.iter().any(|(n, v)| n == "retry-after" && v == "1")
        )
    });
    assert!(clean, "a request past the cap must read a 503, not a reset");
    let mut rejected = 0;
    // The first connections hold every slot until the read deadline;
    // the rest are answered by the acceptor at once.
    for stream in flood.iter_mut().skip(MAX_CONNECTIONS) {
        let (status, head) = read_status(stream, Duration::from_secs(5));
        peak = peak.max(threads());
        if status == 503 {
            assert!(head.contains("\r\nRetry-After: 1"), "{head}");
            rejected += 1;
        }
    }
    assert!(rejected >= 1, "no connection past the cap was answered 503");
    assert!(
        peak <= before + MAX_CONNECTIONS + 2,
        "threads grew from {before} to {peak} under a flood of {} connections",
        flood.len()
    );
}

#[test]
fn slowloris_clients_get_408_and_a_good_request_still_gets_its_golden() {
    let _l = lock();
    let server = Running::start();
    let deadline = Duration::from_millis(READ_TIMEOUT_MS);
    let trickles: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut stream = TcpStream::connect(&server.addr).expect("connect");
            let started = Instant::now();
            let mut writer = stream.try_clone().expect("clone stream");
            let write = std::thread::spawn(move || {
                for byte in b"POST /run HTTP/1.1\r\nHost: slow\r\nContent-Length: 2\r\n\r\n{}" {
                    if writer.write_all(&[*byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            let read = std::thread::spawn(move || {
                let (status, _) = read_status(&mut stream, Duration::from_secs(10));
                (status, started.elapsed())
            });
            (write, read)
        })
        .collect();

    // Sent while the trickling clients hold every slot: retried on a
    // 503 until a slot frees up.
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/compat/fig1.json"
    ))
    .expect("read fig1 golden");
    let give_up = Instant::now() + Duration::from_secs(30);
    let body = loop {
        match http::request(&server.addr, "POST", "/run", FIG1_BODY.as_bytes()) {
            Ok((200, _, body)) => break body,
            Ok((503, headers, _)) => {
                assert!(headers.iter().any(|(n, v)| n == "retry-after" && v == "1"));
            }
            Ok((status, _, body)) => {
                panic!(
                    "good request answered {status}: {}",
                    String::from_utf8_lossy(&body)
                )
            }
            // A reject can race the request bytes into a reset.
            Err(_) => {}
        }
        assert!(Instant::now() < give_up, "good request never admitted");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        body, golden,
        "served fig1 bytes must equal the CLI --json golden"
    );

    for (write, read) in trickles {
        let (status, took) = read.join().expect("reader");
        assert_eq!(status, 408, "a slowloris client must be cut off with 408");
        assert!(
            took < 2 * deadline,
            "408 after {took:?}, deadline {deadline:?}"
        );
        write.join().expect("writer");
    }
}

#[test]
fn a_blocked_acceptor_stops_promptly_on_either_shutdown_path() {
    let _l = lock();
    let mut server = Running::start();
    let (status, _, _) = http::request(&server.addr, "POST", "/shutdown", b"").expect("shutdown");
    assert_eq!(status, 200);
    assert!(
        server.stopped_within(Duration::from_secs(1)),
        "run() must return within 1 s of POST /shutdown"
    );

    let mut server = Running::start();
    server.shutdown.store(true, Ordering::SeqCst);
    assert!(
        server.stopped_within(Duration::from_secs(1)),
        "run() must return within 1 s of a store into shutdown_handle()"
    );
}

#[test]
fn post_shutdown_stops_a_daemon_whose_every_slot_is_held() {
    let _l = lock();
    // Idle clients hold every slot for the whole test: their read
    // deadline is far away.
    let mut server = Running::start_with(30_000);
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    let full = (0..100).any(|_| {
        let status = http::request(&server.addr, "GET", "/healthz", b"").map(|r| r.0);
        std::thread::sleep(Duration::from_millis(10));
        status == Ok(503)
    });
    assert!(full, "the idle clients never filled the daemon");

    // The acceptor answers it from the request line; a 503 (its bytes
    // had not arrived yet) is retried as `Retry-After` asks, sooner.
    let answer = (0..20).find_map(|_| {
        match http::request(&server.addr, "POST", "/shutdown", b"") {
            Ok((200, _, body)) => return Some(body),
            Ok((503, _, _)) | Err(_) => {}
            Ok((status, _, body)) => panic!(
                "POST /shutdown answered {status}: {}",
                String::from_utf8_lossy(&body)
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
        None
    });
    assert_eq!(
        answer.as_deref(),
        Some(&b"{\"status\": \"draining\"}\n"[..]),
        "POST /shutdown must get through a daemon whose slots are all held"
    );
    // run() drains the held connections before it returns.
    drop(idle);
    assert!(
        server.stopped_within(Duration::from_secs(1)),
        "run() must return within 1 s once the held connections close"
    );
}
