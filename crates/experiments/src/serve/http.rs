//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The hermetic-build policy (no crates.io dependencies) extends to the
//! server: this module implements the *small, strict* subset of
//! HTTP/1.1 that `ampsched serve` speaks — one request per connection,
//! CRLF line endings, `Content-Length`-framed bodies, no chunked
//! transfer, no keep-alive. The grammar is documented in DESIGN.md §14;
//! anything outside it is answered with a 4xx and the connection is
//! closed.
//!
//! Parsing reads from any [`Read`], so split reads (a request arriving
//! one byte at a time) are handled by construction and unit-testable
//! without sockets; [`read_request`] runs the same parser against a
//! socket under one deadline for the whole request:
//!
//! ```
//! use ampsched_experiments::serve::http::{parse_request, Limits};
//!
//! let raw = b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
//! let req = parse_request(&mut &raw[..], &Limits::default()).unwrap();
//! assert_eq!(req.method, "POST");
//! assert_eq!(req.path, "/run");
//! assert_eq!(req.body, b"{}");
//! ```

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Hard caps on request size, tuned for a JSON control protocol (the
/// largest legitimate request is a few hundred bytes of overrides).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (before the blank line).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, verbatim (`/run`, `/metrics`, ...).
    pub path: String,
    /// `(name, value)` header pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when the header is absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header named `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request was rejected, with the HTTP status it maps to.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing → 400.
    BadRequest(String),
    /// Head grew past [`Limits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// `Content-Length` exceeds [`Limits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// The whole-request read deadline passed first → 408.
    Timeout,
    /// Any other transport error while reading → 400.
    Io(std::io::Error),
}

impl HttpError {
    /// `(status, reason)` line for this error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::Io(_) => (400, "Bad Request"),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadTooLarge => "request head exceeds limit".to_string(),
            HttpError::BodyTooLarge => "request body exceeds limit".to_string(),
            HttpError::Timeout => "request not received within the read deadline".to_string(),
            HttpError::Io(e) => format!("read error: {e}"),
        }
    }

    /// Classify a failed `read`: a socket read timeout surfaces as
    /// `WouldBlock` on Unix and `TimedOut` elsewhere.
    fn from_read(e: std::io::Error) -> HttpError {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (code, reason) = self.status();
        write!(f, "{code} {reason}: {}", self.detail())
    }
}

/// Read and parse one request from `r`, handling arbitrarily split
/// reads. Strict by design: CRLF line endings, a well-formed request
/// line, `name: value` headers, and a decimal `Content-Length` when a
/// body is present.
pub fn parse_request(r: &mut impl Read, limits: &Limits) -> Result<Request, HttpError> {
    // Accumulate the head byte-wise until the CRLFCRLF terminator. Reads
    // may return any number of bytes ≥ 1; EOF before the terminator is a
    // framing error.
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut overflow: Vec<u8> = Vec::new(); // body bytes read past the head
    let mut buf = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_terminator(&head) {
            break pos;
        }
        if head.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let n = r.read(&mut buf).map_err(HttpError::from_read)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before end of headers".to_string(),
            ));
        }
        head.extend_from_slice(&buf[..n]);
    };
    // Anything past the terminator already read belongs to the body.
    overflow.extend_from_slice(&head[head_end + 4..]);
    head.truncate(head_end);
    if head.len() > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }

    let head_text = std::str::from_utf8(&head)
        .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".to_string()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".to_string()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version: {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        // A bare "\n" inside the head (not part of CRLF) is tolerated by
        // some servers; we are strict: split("\r\n") leaves it embedded
        // and the colon check below rejects garbage.
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpError::BadRequest(format!("malformed header line: {line:?}"))
        })?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name: {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: Content-Length only. Chunked transfer is out of
    // grammar (see DESIGN.md §14) and rejected rather than misparsed.
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported".to_string(),
        ));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => v.parse::<usize>().map_err(|_| {
            HttpError::BadRequest(format!("bad content-length: {v:?}"))
        })?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    if overflow.len() > content_length {
        return Err(HttpError::BadRequest(
            "more body bytes than content-length".to_string(),
        ));
    }

    let mut body = overflow;
    while body.len() < content_length {
        let want = (content_length - body.len()).min(buf.len());
        let n = r.read(&mut buf[..want]).map_err(HttpError::from_read)?;
        if n == 0 {
            return Err(HttpError::BadRequest(format!(
                "connection closed mid-body ({} of {content_length} bytes)",
                body.len()
            )));
        }
        body.extend_from_slice(&buf[..n]);
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Read and parse one request from `stream`, head and body together
/// before `deadline`. Before each read the socket timeout is set to the
/// time left, so a client that trickles bytes cannot hold the
/// connection past the deadline: it gets [`HttpError::Timeout`].
pub fn read_request(
    stream: &TcpStream,
    deadline: Instant,
    limits: &Limits,
) -> Result<Request, HttpError> {
    parse_request(&mut DeadlineReader { stream, deadline }, limits)
}

/// A socket whose every read ends by one fixed instant.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write one `HTTP/1.1` response with a JSON (or plain-text) body and
/// `Connection: close` framing. `extra_headers` lets handlers attach
/// e.g. `X-Cache: hit`.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A client-side response: status code, lowercased `(name, value)`
/// headers, body bytes.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Minimal HTTP client for `serve-bench` and the end-to-end tests: one
/// request, one `Connection: close` response. Returns
/// `(status, headers, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(600)))
        .ok();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_response(&raw)
}

/// Split a raw `Connection: close` response into status, headers, body.
fn parse_response(raw: &[u8]) -> Result<ClientResponse, String> {
    let head_end = find_terminator(raw).ok_or("response without header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// the split-read adversary.
    struct Trickle<'a> {
        data: &'a [u8],
        at: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    const POST: &[u8] =
        b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"a\":\"b+c\"}";

    #[test]
    fn parses_whole_and_byte_by_byte_identically() {
        let whole = parse_request(&mut &POST[..], &Limits::default()).unwrap();
        for chunk in [1, 2, 3, 7, 1024] {
            let mut t = Trickle { data: POST, at: 0, chunk };
            let split = parse_request(&mut t, &Limits::default()).unwrap();
            assert_eq!(split.method, whole.method, "chunk={chunk}");
            assert_eq!(split.path, whole.path);
            assert_eq!(split.headers, whole.headers);
            assert_eq!(split.body, whole.body);
        }
        assert_eq!(whole.body, b"{\"a\":\"b+c\"}");
        assert_eq!(whole.header("host"), Some("x"));
    }

    #[test]
    fn body_bytes_beyond_head_read_are_kept() {
        // A read that delivers head + part of the body in one chunk.
        let mut t = Trickle { data: POST, at: 0, chunk: POST.len() - 3 };
        let req = parse_request(&mut t, &Limits::default()).unwrap();
        assert_eq!(req.body, b"{\"a\":\"b+c\"}");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_request(&mut &raw[..], &Limits::default()).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "y".repeat(64)).as_bytes());
        let limits = Limits { max_head_bytes: 48, max_body_bytes: 1024 };
        match parse_request(&mut &raw[..], &limits) {
            Err(HttpError::HeadTooLarge) => {}
            other => panic!("expected HeadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_content_length_is_400() {
        for bad in ["abc", "-1", "1.5", "18446744073709551616"] {
            let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            match parse_request(&mut raw.as_bytes(), &Limits::default()) {
                Err(HttpError::BadRequest(m)) => {
                    assert!(m.contains("content-length"), "{m}")
                }
                other => panic!("expected BadRequest for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let limits = Limits { max_head_bytes: 1024, max_body_bytes: 64 };
        match parse_request(&mut &raw[..], &limits) {
            Err(HttpError::BodyTooLarge) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_400() {
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        match parse_request(&mut &raw[..], &Limits::default()) {
            Err(HttpError::BadRequest(m)) => assert!(m.contains("mid-body"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET  /extra-space HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 TRAILING\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-line\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
        ] {
            assert!(
                matches!(
                    parse_request(&mut bad.as_bytes(), &Limits::default()),
                    Err(HttpError::BadRequest(_))
                ),
                "{bad:?} should be a 400"
            );
        }
    }

    #[test]
    fn chunked_transfer_is_rejected() {
        let raw = b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse_request(&mut &raw[..], &Limits::default()),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// A connected `(client, server)` socket pair on loopback.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn unfinished_head_times_out_as_408() {
        let (mut client, server) = socket_pair();
        client.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n").unwrap();
        let started = Instant::now();
        let deadline = started + Duration::from_millis(200);
        let err = read_request(&server, deadline, &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err:?}");
        assert_eq!(err.status(), (408, "Request Timeout"));
        let took = started.elapsed();
        assert!(took >= Duration::from_millis(200), "{took:?}");
        assert!(took < Duration::from_secs(2), "{took:?}");
    }

    #[test]
    fn the_deadline_covers_the_whole_request_not_each_read() {
        // Every byte arrives well inside any per-read timeout, but the
        // request as a whole would take over a second.
        let (client, server) = socket_pair();
        let writer = std::thread::spawn(move || {
            let mut client = client;
            for byte in POST.chunks(1) {
                if client.write_all(byte).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let started = Instant::now();
        let deadline = started + Duration::from_millis(200);
        let err = read_request(&server, deadline, &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(1));
        drop(server);
        writer.join().unwrap();
    }

    #[test]
    fn split_request_inside_the_deadline_parses() {
        let (client, server) = socket_pair();
        let writer = std::thread::spawn(move || {
            let mut client = client;
            for chunk in POST.chunks(9) {
                client.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            client
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let req = read_request(&server, deadline, &Limits::default()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"{\"a\":\"b+c\"}");
        writer.join().unwrap();
    }

    #[test]
    fn response_round_trips_through_the_client_parser() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", &[("X-Cache", "hit")], b"{}")
            .unwrap();
        let (status, headers, body) = parse_response(&out).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{}");
        assert!(headers.iter().any(|(n, v)| n == "x-cache" && v == "hit"));
        assert!(headers.iter().any(|(n, v)| n == "content-length" && v == "2"));
    }
}
