//! A small blocking HTTP/1.1 client for the daemon's API: used by the
//! `voltnoise-client` binary, the integration tests and the benchmark
//! harness. Understands `Content-Length` and chunked bodies (the
//! streamed-results encoding) and nothing else.
//!
//! [`http_request`] sends one request with `Connection: close` and
//! reads the response to EOF: one connect per call.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked bodies are reassembled).
    pub body: String,
}

impl Response {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body split into non-empty lines — the shape of a streamed
    /// `/jobs` response (one JSON document per line).
    pub fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.is_empty()).collect()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Returns an I/O error on connection failure, timeout, or a response
/// this client cannot frame.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    // The server closes after each response, so read to EOF; the
    // per-read timeout still bounds a stalled peer.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let raw = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, rest) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line: {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        decode_chunked(rest)?
    } else {
        rest.to_string()
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn decode_chunked(mut rest: &str) -> io::Result<String> {
    let mut body = String::new();
    loop {
        let (size_line, after) = rest
            .split_once("\r\n")
            .ok_or_else(|| bad("truncated chunk size line"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size: {size_line:?}")))?;
        if size == 0 {
            return Ok(body);
        }
        if after.len() < size + 2 {
            return Err(bad("truncated chunk payload"));
        }
        body.push_str(&after[..size]);
        rest = &after[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_bodies_reassemble() {
        let encoded = "5\r\nhello\r\n8\r\n, world\n\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(encoded).unwrap(), "hello, world\n");
    }

    #[test]
    fn truncated_chunks_error_instead_of_panicking() {
        assert!(decode_chunked("5\r\nhel").is_err());
        assert!(decode_chunked("zz\r\nhello\r\n").is_err());
        assert!(decode_chunked("").is_err());
    }

    #[test]
    fn response_lines_filters_blanks() {
        let r = Response {
            status: 200,
            headers: vec![],
            body: "a\n\nb\n".to_string(),
        };
        assert_eq!(r.lines(), vec!["a", "b"]);
    }
}
