//! The loopback HTTP client and the failure tally.
//!
//! The server speaks one request per connection and closes after the
//! response, so a request is: connect, write, read to end of stream.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

use wsync_core::json::{self, Value};

/// One HTTP response, with the bytes that crossed the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// The body (everything after the header block).
    pub body: Vec<u8>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read, headers included.
    pub bytes_in: u64,
}

/// Sends one request and reads the whole response.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let mut reply = parse_reply(&raw)?;
    reply.bytes_out = request.len() as u64;
    Ok(reply)
}

/// Splits a raw response into status and body.
pub fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("header is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(Reply {
        status,
        body: raw[head_end + 4..].to_vec(),
        bytes_out: 0,
        bytes_in: raw.len() as u64,
    })
}

/// Decodes a `200 OK` JSON body; anything else — a transport error, a
/// refusal such as `503`, a body that is not JSON — is an error that the
/// caller counts as failed.
pub fn json_body(reply: &io::Result<Reply>) -> Result<Value, String> {
    let reply = reply.as_ref().map_err(|e| format!("transport: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("corrupt body: {e}"))
}

/// Attempted and failed operations. Every request and every output check
/// is attempted once; a refused, malformed or wrong one counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    inner: Mutex<TallyState>,
}

#[derive(Debug, Default)]
struct TallyState {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, TallyState> {
        self.inner
            .lock()
            .expect("tally lock poisoned by a panicking check")
    }

    /// Counts one operation: passed when `result` is `Ok`.
    pub fn record<T>(&self, result: Result<T, String>) -> Option<T> {
        let mut state = self.state();
        state.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(why) => {
                state.failed += 1;
                if state.first_failures.len() < 8 {
                    state.first_failures.push(why);
                }
                None
            }
        }
    }

    /// Counts one check that passes when `ok` holds.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(what()) });
    }

    /// `(attempted, failed)` so far.
    pub fn counts(&self) -> (u64, u64) {
        let state = self.state();
        (state.attempted, state.failed)
    }

    /// The first few failure reasons, for the log.
    pub fn first_failures(&self) -> Vec<String> {
        self.state().first_failures.clone()
    }
}
