//! A minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The build is offline (no tokio, no hyper), so this module hand-rolls
//! exactly the subset the job API needs — request-line + headers +
//! `Content-Length` bodies in, fixed or chunked responses out — the way
//! `aal-lint` hand-rolled its Rust lexer. Keep-alive is supported via a
//! per-connection carry buffer; pipelined bytes beyond the current
//! request simply wait there for the next parse.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request body; bigger submissions get a 413.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted header block, bounding a slow-loris peer's memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How long a keep-alive read blocks before yielding [`ReadOutcome::Idle`]
/// so the worker can check the shutdown flag.
pub const IDLE_POLL: Duration = Duration::from_millis(200);

/// Total time a peer gets to deliver one request once its first byte
/// has arrived. A client that stalls mid-head or mid-body past this is
/// dropped, so it cannot pin an HTTP worker (slow-loris defense).
pub const READ_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// What a blocking read on a keep-alive connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Peer closed the connection cleanly.
    Eof,
    /// Read timed out between requests; poll shutdown and retry.
    Idle,
    /// Malformed request head; the connection should be dropped after
    /// the carried 400 response.
    Bad(&'static str),
    /// Body larger than [`MAX_BODY_BYTES`].
    TooLarge,
    /// The server is shutting down; drop the connection without a
    /// response (the peer's request was incomplete anyway).
    Shutdown,
}

/// A server-side connection: the stream plus carried-over bytes.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    shutdown: Option<Arc<AtomicBool>>,
    deadline: Duration,
}

impl Conn {
    /// Wraps an accepted stream, disabling Nagle (the read path answers
    /// sub-millisecond requests; a 40 ms coalescing delay would dominate
    /// p99) and arming the idle-poll read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IDLE_POLL))?;
        Ok(Conn { stream, buf: Vec::new(), shutdown: None, deadline: READ_DEADLINE })
    }

    /// Attaches the server shutdown flag: every read-timeout tick checks
    /// it, so a connection mid-request cannot outlive a drain by more
    /// than one [`IDLE_POLL`].
    #[must_use]
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Conn {
        self.shutdown = Some(flag);
        self
    }

    /// Overrides the per-request read deadline (tests shrink it; the
    /// default is [`READ_DEADLINE`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Conn {
        self.deadline = deadline;
        self
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.as_ref().is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Reads the next request off the connection.
    ///
    /// # Errors
    ///
    /// Propagates hard I/O errors (connection reset etc.); timeouts are
    /// [`ReadOutcome::Idle`], not errors.
    pub fn read_request(&mut self) -> std::io::Result<ReadOutcome> {
        // The deadline clock starts when this call does; once the first
        // byte is buffered the loops below never return Idle, so a
        // partial request must complete within `deadline` or be dropped.
        let started = Instant::now();
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Ok(ReadOutcome::Bad("header block too large"));
            }
            match self.fill()? {
                Filled::Data => {}
                Filled::Eof => {
                    return Ok(if self.buf.is_empty() {
                        ReadOutcome::Eof
                    } else {
                        ReadOutcome::Bad("connection closed mid-request")
                    });
                }
                Filled::Timeout => {
                    if self.shutting_down() {
                        return Ok(ReadOutcome::Shutdown);
                    }
                    if self.buf.is_empty() {
                        return Ok(ReadOutcome::Idle);
                    }
                    if started.elapsed() > self.deadline {
                        return Ok(ReadOutcome::Bad("request read timed out"));
                    }
                }
            }
        };
        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(h) => h.to_string(),
            Err(_) => return Ok(ReadOutcome::Bad("non-UTF-8 request head")),
        };
        let body_start = head_end + 4;
        let mut lines = head.split("\r\n");
        let Some(request_line) = lines.next() else {
            return Ok(ReadOutcome::Bad("empty request"));
        };
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Ok(ReadOutcome::Bad("malformed request line"));
        };
        let method = method.to_ascii_uppercase();
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = match value.trim().parse() {
                        Ok(n) => n,
                        Err(_) => return Ok(ReadOutcome::Bad("bad content-length")),
                    };
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            self.buf.clear();
            return Ok(ReadOutcome::TooLarge);
        }
        while self.buf.len() < body_start + content_length {
            match self.fill()? {
                Filled::Data => {}
                Filled::Eof => return Ok(ReadOutcome::Bad("connection closed mid-body")),
                Filled::Timeout => {
                    if self.shutting_down() {
                        return Ok(ReadOutcome::Shutdown);
                    }
                    if started.elapsed() > self.deadline {
                        return Ok(ReadOutcome::Bad("request read timed out"));
                    }
                }
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        let (path, query) = parse_target(target);
        Ok(ReadOutcome::Request(Request { method, path, query, body }))
    }

    fn fill(&mut self) -> std::io::Result<Filled> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Filled::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Filled::Data)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Filled::Timeout)
            }
            Err(e) => Err(e),
        }
    }

    /// Writes a complete JSON response.
    ///
    /// # Errors
    ///
    /// Propagates write failures (peer gone).
    pub fn respond_json(&mut self, status: u16, body: &Value) -> std::io::Result<()> {
        let bytes = body.to_string().into_bytes();
        self.respond_bytes(status, "application/json", &bytes)
    }

    /// Writes a complete response with the given content type.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn respond_bytes(
        &mut self,
        status: u16,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            status_text(status),
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Starts a chunked (streaming) response; follow with
    /// [`Conn::write_chunk`] calls and one [`Conn::finish_chunked`].
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn start_chunked(&mut self, status: u16, content_type: &str) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n",
            status_text(status)
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()
    }

    /// Writes one chunk of a chunked response.
    ///
    /// # Errors
    ///
    /// Propagates write failures — the signal a streaming handler uses
    /// to notice the client went away.
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates a chunked response.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish_chunked(&mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

enum Filled {
    Data,
    Eof,
    Timeout,
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into decoded path + query map.
fn parse_target(target: &str) -> (String, BTreeMap<String, String>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(percent_decode(k), percent_decode(v));
    }
    (percent_decode(path), params)
}

/// Decodes `%XX` escapes and `+`-as-space.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The reason phrase for the handful of statuses the server uses.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_decodes_path_and_query() {
        let (path, q) = parse_target("/best?model=squeezenet_v1.1&task=3&x=a%20b+c");
        assert_eq!(path, "/best");
        assert_eq!(q["model"], "squeezenet_v1.1");
        assert_eq!(q["task"], "3");
        assert_eq!(q["x"], "a b c");
        let (path, q) = parse_target("/jobs/j1");
        assert_eq!(path, "/jobs/j1");
        assert!(q.is_empty());
    }

    #[test]
    fn percent_decode_handles_malformed_escapes() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    /// Accepted `Conn` + a client stream it is reading from.
    fn socket_pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Conn::new(accepted).unwrap(), client)
    }

    #[test]
    fn stalled_body_hits_the_read_deadline() {
        let (conn, mut client) = socket_pair();
        let mut conn = conn.with_deadline(Duration::from_millis(50));
        // Headers promise a body that never arrives.
        client.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n").unwrap();
        let start = Instant::now();
        match conn.read_request().unwrap() {
            ReadOutcome::Bad(msg) => assert!(msg.contains("timed out"), "{msg}"),
            other => panic!("expected deadline Bad, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "deadline bounds the stall");
    }

    #[test]
    fn stalled_head_yields_to_shutdown() {
        let (conn, mut client) = socket_pair();
        let flag = Arc::new(AtomicBool::new(false));
        let mut conn = conn.with_shutdown(Arc::clone(&flag));
        // Half a request head, then silence; shutdown must still win.
        client.write_all(b"GET /best?model=sq").unwrap();
        flag.store(true, Ordering::Release);
        match conn.read_request().unwrap() {
            ReadOutcome::Shutdown => {}
            other => panic!("expected Shutdown, got {other:?}"),
        }
    }
}
