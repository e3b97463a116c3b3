//! Minimal hand-rolled HTTP/1.1 plumbing on `std::net` — the same
//! no-crates.io discipline as `wsync_core::json` and `wsync-lint`.
//!
//! The server speaks exactly the subset a JSON API needs: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies on the way in, and either a fixed JSON body or a
//! close-delimited `application/x-ndjson` stream on the way out. No
//! keep-alive, no chunked encoding, no TLS — this is an internal service
//! front-end, not a general web server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body (a `SweepSpec` is a few hundred bytes;
/// a megabyte is generous headroom, and anything larger is a client bug).
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted request head: the request line plus every header
/// line, terminators included. This API's clients send a handful of
/// short headers.
pub const MAX_HEAD: usize = 16 << 10;

/// How long one read on a connection may wait for bytes before the
/// connection is dropped, so an idle client cannot hold a handler permit.
/// It bounds each read, not the whole request: a client trickling one
/// byte per interval is not stopped by it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(3);

/// One parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target path, e.g. `/jobs/job-3` (query strings are
    /// kept verbatim; no route in this API uses them).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The connection closed before a full request arrived, or the
    /// request line / headers were not valid HTTP.
    Malformed,
    /// The declared `Content-Length` exceeds [`MAX_BODY`].
    BodyTooLarge,
    /// The request line and headers exceed [`MAX_HEAD`] bytes.
    HeadTooLarge,
}

/// Reads one line of the request head into `line`, charging its bytes to
/// `budget`. A line that ends before its newline is
/// [`HeadTooLarge`](RequestError::HeadTooLarge) when the budget ran out,
/// [`Malformed`](RequestError::Malformed) when the connection closed.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &mut String,
) -> io::Result<Result<(), RequestError>> {
    *budget -= reader.take(*budget as u64).read_line(line)?;
    Ok(if line.ends_with('\n') {
        Ok(())
    } else if *budget == 0 {
        Err(RequestError::HeadTooLarge)
    } else {
        Err(RequestError::Malformed)
    })
}

/// Reads one HTTP/1.1 request from `stream`. `Ok(Err(_))` is a protocol
/// error to answer with a 4xx; `Err(_)` is a transport error to drop.
pub fn read_request(stream: &TcpStream) -> io::Result<Result<Request, RequestError>> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut budget = MAX_HEAD;
    let mut line = String::new();
    if let Err(e) = read_head_line(&mut reader, &mut budget, &mut line)? {
        return Ok(Err(e));
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Err(RequestError::Malformed));
    };
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if let Err(e) = read_head_line(&mut reader, &mut budget, &mut header)? {
            return Ok(Err(e));
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(n) = value.trim().parse::<usize>() else {
                    return Ok(Err(RequestError::Malformed));
                };
                content_length = n;
            }
        }
    }
    if content_length > MAX_BODY {
        return Ok(Err(RequestError::BodyTooLarge));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(Request { method, path, body }))
}

/// Writes a complete JSON response and closes the exchange.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    respond_json_with(stream, status, reason, &[], body)
}

/// [`respond_json`] with extra response headers (e.g. `Retry-After` on a
/// `503`), written between the fixed header set and the blank line.
pub fn respond_json_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "\r\n{body}")?;
    stream.flush()
}

/// Writes a JSON error body `{"error": message}` with the given status.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
) -> io::Result<()> {
    let body = wsync_core::json::Value::Object(vec![(
        "error".to_string(),
        wsync_core::json::Value::Str(message.to_string()),
    )])
    .to_json_compact();
    respond_json(stream, status, reason, &body)
}

/// Starts a close-delimited ndjson stream: status line and headers only.
/// The caller then writes one JSON document per line (flushing each) and
/// signals completion by closing the connection.
pub fn start_ndjson(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn request_roundtrip(raw: &str) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).unwrap();
            out.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let parsed = read_request(&stream).unwrap();
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = request_roundtrip(
            "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = request_roundtrip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert_eq!(request_roundtrip("\r\n\r\n"), Err(RequestError::Malformed));
        assert_eq!(
            request_roundtrip("POST /run HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::Malformed)
        );
        assert_eq!(
            request_roundtrip(&format!(
                "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )),
            Err(RequestError::BodyTooLarge)
        );
    }

    #[test]
    fn rejects_an_oversized_head() {
        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        assert_eq!(
            request_roundtrip(&long_header),
            Err(RequestError::HeadTooLarge)
        );
        // A head that fits exactly is still read.
        let line = "GET / HTTP/1.1\r\n";
        let pad = MAX_HEAD - line.len() - "X-Pad: \r\n\r\n".len();
        let exact = format!("{line}X-Pad: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(request_roundtrip(&exact).unwrap().path, "/");
    }
}
