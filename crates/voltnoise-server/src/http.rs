//! Minimal HTTP/1.1 framing over a [`TcpStream`]: request parsing with
//! hard limits, plain responses, and chunked transfer encoding for
//! streamed results.
//!
//! This is deliberately not a general HTTP implementation. It parses
//! exactly the subset the daemon serves — sequential requests on a
//! keep-alive connection, `Content-Length` bodies, case-insensitive
//! header lookup — and enforces limits *before* buffering: an oversized
//! header block or body is refused with a typed `HttpError` instead
//! of an allocation.
//!
//! Keep-alive is the caller's decision per response: every writer takes
//! a `keep_alive` flag and emits the matching `Connection` header, so
//! the connection handler can bound requests-per-connection and close
//! during a drain while routed retries and health probes reuse warm
//! connections.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers), bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked for the connection to be closed after
    /// this response (`Connection: close`).
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Why a request could not be read. Each variant maps onto one HTTP
/// status so the connection handler can answer before closing.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The request line or headers were malformed (→ 400).
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`] (→ 431).
    HeadTooLarge,
    /// The declared body exceeded the server's body limit (→ 413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Server limit it exceeded.
        limit: usize,
    },
    /// The peer closed or timed out before a full request arrived (→ no
    /// response; the connection is simply dropped).
    Disconnected,
    /// The body was not valid UTF-8 (→ 400).
    NotUtf8,
}

impl HttpError {
    /// The HTTP status this error answers with (`None`: just close).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) | HttpError::NotUtf8 => Some((400, "Bad Request")),
            HttpError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge { .. } => Some((413, "Payload Too Large")),
            HttpError::Disconnected => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Disconnected => write!(f, "peer disconnected mid-request"),
            HttpError::NotUtf8 => write!(f, "body is not valid UTF-8"),
        }
    }
}

/// Reads one request from the stream, enforcing the head limit and the
/// caller's body limit.
///
/// # Errors
///
/// Returns [`HttpError`] on malformed, oversized or truncated input.
pub(crate) fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Read byte-at-a-time until the blank line; the head is tiny and a
    // buffered reader would over-read into the body.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(_) => head.push(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Disconnected)
            }
            Err(_) => return Err(HttpError::Disconnected),
        }
    }
    let head = String::from_utf8(head).map_err(|_| HttpError::NotUtf8)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request path".into()))?
        .to_string();
    if parts.next().is_none_or(|v| !v.starts_with("HTTP/1.")) {
        return Err(HttpError::Malformed("not an HTTP/1.x request".into()));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|_| HttpError::Disconnected)?;
    let body = String::from_utf8(body).map_err(|_| HttpError::NotUtf8)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes a complete (non-chunked) response.
///
/// # Errors
///
/// Returns the underlying I/O error (callers log and drop the
/// connection; the peer may already be gone).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        connection_header(keep_alive)
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Starts a chunked `200` response; follow with [`write_chunk`] and
/// [`finish_chunked`].
///
/// # Errors
///
/// Returns the underlying I/O error.
pub(crate) fn start_chunked(
    stream: &mut TcpStream,
    content_type: &str,
    keep_alive: bool,
) -> io::Result<()> {
    stream.write_all(
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            connection_header(keep_alive)
        )
        .as_bytes(),
    )?;
    stream.flush()
}

/// Writes one chunk of a chunked response and flushes it, so the peer
/// sees the data now — the mechanism behind "results stream as they
/// settle".
///
/// # Errors
///
/// Returns the underlying I/O error.
pub(crate) fn write_chunk(stream: &mut TcpStream, data: &str) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub(crate) fn finish_chunked(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&raw).unwrap();
            // Keep the connection open long enough for the read side.
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let out = read_request(&mut stream, max_body);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("content-length"), Some("4"));
    }

    #[test]
    fn refuses_oversized_bodies_before_reading_them() {
        let err = round_trip(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            HttpError::BodyTooLarge {
                declared: 999999,
                limit: 1024
            }
        ));
        assert_eq!(err.status(), Some((413, "Payload Too Large")));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        let err = round_trip(b"NOT_HTTP\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        let err = round_trip(b"GET /x SPDY/3\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn connection_close_requests_are_detected() {
        let req = round_trip(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", 1024).unwrap();
        assert!(req.wants_close());
        let req = round_trip(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", 1024).unwrap();
        assert!(!req.wants_close());
    }

    #[test]
    fn truncated_bodies_surface_as_disconnects() {
        // Declares 10 bytes, sends 2: the reader must not hang forever
        // nor fabricate a request.
        let err = round_trip(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab", 1024).unwrap_err();
        assert!(matches!(err, HttpError::Disconnected), "{err:?}");
        assert_eq!(err.status(), None);
    }
}
