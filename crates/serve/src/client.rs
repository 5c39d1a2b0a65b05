//! A minimal blocking HTTP/1.1 client for `aaltune client`, the
//! end-to-end tests, and the loadgen bench.
//!
//! Mirrors the server's hand-rolled subset: fixed `Content-Length`
//! responses (with keep-alive reuse via [`ClientConn`]) and chunked
//! event streams (line-by-line callback), followed whole
//! ([`stream_events`]) or one short request at a time ([`follow_job`]).

use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response: status code + parsed JSON body.
pub type Response = (u16, Value);

/// How long a read may wait for the server before the request fails.
pub const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A reusable keep-alive connection (the loadgen hot path: no TCP
/// handshake per lookup).
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ClientConn {
    /// Connects with Nagle disabled and a generous read timeout
    /// ([`READ_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<ClientConn, String> {
        ClientConn::connect_with(addr, READ_TIMEOUT)
    }

    fn connect_with(addr: &str, read_timeout: Duration) -> Result<ClientConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(read_timeout)).map_err(|e| format!("read timeout: {e}"))?;
        Ok(ClientConn { stream, buf: Vec::new() })
    }

    /// Sends one request and reads its fixed-length response.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on I/O failure or a malformed response.
    pub fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<Response, String> {
        self.send(method, path, body)?;
        let (status, content_length, chunked) = self.read_head()?;
        if chunked {
            return Err("unexpected chunked response (use stream_events)".to_string());
        }
        let body_bytes = self.take(content_length)?;
        let body = if body_bytes.is_empty() {
            Value::Null
        } else {
            serde_json::from_str(
                std::str::from_utf8(&body_bytes).map_err(|_| "non-UTF-8 response".to_string())?,
            )
            .map_err(|e| format!("bad response JSON: {e}"))?
        };
        Ok((status, body))
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&Value>) -> Result<(), String> {
        let payload = body.map(Value::to_string).unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: aaltune\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(payload.as_bytes()))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads a response head: `(status, content length, chunked)`.
    fn read_head(&mut self) -> Result<(u16, usize, bool), String> {
        let head_end = self.find(b"\r\n\r\n")?;
        let head = String::from_utf8_lossy(&self.take(head_end + 4)?).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let mut content_length = 0usize;
        let mut chunked = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length =
                        value.trim().parse().map_err(|_| "bad content-length".to_string())?;
                } else if name.eq_ignore_ascii_case("transfer-encoding")
                    && value.trim().eq_ignore_ascii_case("chunked")
                {
                    chunked = true;
                }
            }
        }
        Ok((status, content_length, chunked))
    }

    /// The offset of `pat` in the buffer, reading until it arrives.
    fn find(&mut self, pat: &[u8]) -> Result<usize, String> {
        loop {
            if let Some(pos) = self.buf.windows(pat.len()).position(|w| w == pat) {
                return Ok(pos);
            }
            self.fill()?;
        }
    }

    /// Removes and returns the next `n` bytes, reading until they arrive.
    fn take(&mut self, n: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One-shot request on a fresh connection.
///
/// # Errors
///
/// Returns a diagnostic on connection or protocol failure.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> Result<Response, String> {
    ClientConn::connect(addr)?.roundtrip(method, path, body)
}

/// Streams `GET <path>` (a chunked JSONL endpoint), invoking `on_line`
/// for each JSON line until the stream terminates or `on_line` returns
/// `false`.
///
/// # Errors
///
/// Returns a diagnostic on connection or protocol failure.
pub fn stream_events(
    addr: &str,
    path: &str,
    on_line: impl FnMut(&Value) -> bool,
) -> Result<(), String> {
    stream_on(ClientConn::connect(addr)?, path, on_line)
}

/// Follows job `id`'s events, in `seq` order, to its terminal event
/// (`job.done` or `job.failed`), which it returns. Each request,
/// `GET /jobs/:id/events?after=N`, carries the `seq` past the last event
/// seen and ends once the server has sent what is new, or within its idle
/// poll when nothing is. So a job that queues or runs for longer than
/// `read_timeout` is still followed, and the follower never holds one of
/// the server's HTTP workers for longer than a pass.
///
/// # Errors
///
/// Returns a diagnostic on connection or protocol failure, which
/// includes a server that shuts down before the job ends.
pub fn follow_job(
    addr: &str,
    id: &str,
    read_timeout: Duration,
    mut on_event: impl FnMut(&Value),
) -> Result<Value, String> {
    let mut next = 0;
    loop {
        let mut terminal = None;
        let conn = ClientConn::connect_with(addr, read_timeout)?;
        stream_on(conn, &format!("/jobs/{id}/events?after={next}"), |v| {
            on_event(v);
            next = v["seq"].as_u64().map_or(next, |s| s + 1);
            if matches!(v["event"].as_str(), Some("job.done" | "job.failed")) {
                terminal = Some(v.clone());
            }
            terminal.is_none()
        })?;
        if let Some(v) = terminal {
            return Ok(v);
        }
    }
}

fn stream_on(
    mut conn: ClientConn,
    path: &str,
    mut on_line: impl FnMut(&Value) -> bool,
) -> Result<(), String> {
    conn.send("GET", path, None)?;
    let (status, _, chunked) = conn.read_head()?;
    if !chunked {
        return Err(format!("not a chunked stream (status {status})"));
    }
    let mut carry = String::new();
    loop {
        let line_end = conn.find(b"\r\n")?;
        let size_line = conn.take(line_end + 2)?;
        let size = usize::from_str_radix(String::from_utf8_lossy(&size_line).trim(), 16)
            .map_err(|_| "bad chunk size".to_string())?;
        if size == 0 {
            return Ok(()); // terminal chunk (trailing CRLF may or may not arrive)
        }
        let chunk = conn.take(size + 2)?;
        carry.push_str(&String::from_utf8_lossy(&chunk[..size]));
        while let Some(nl) = carry.find('\n') {
            let line: String = carry.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("bad event line: {e}"))?;
            if !on_line(&v) {
                return Ok(());
            }
        }
    }
}
