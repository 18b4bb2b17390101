//! A small blocking HTTP/1.1 client for the daemon's API: used by the
//! `voltnoise-client` binary, the integration tests and the benchmark
//! harness. Understands `Content-Length` and chunked bodies (the
//! streamed-results encoding) and nothing else.
//!
//! [`http_request`] sends one request with `Connection: close` and
//! reads the response to EOF: one connect per call. [`retry_delay_ms`]
//! is the wait the binary's `--max-attempts` loop sleeps before
//! re-sending a request the server shed.

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

/// Nominal delay before the first retry, milliseconds; it doubles per
/// retry.
const BACKOFF_BASE_MS: u64 = 100;

/// Upper bound on any nominal retry delay, milliseconds, so a deep
/// retry chain cannot sleep unboundedly.
const BACKOFF_CAP_MS: u64 = 10_000;

/// The wait before retry `retry` (1 = first retry) of a request whose
/// deterministic seed is `seed`, when the server's `Retry-After` hint
/// asked for `hint_ms` (0 without a hint), in milliseconds.
///
/// The nominal delay is `BACKOFF_BASE_MS · 2^(retry-1)`, capped at
/// `BACKOFF_CAP_MS`, and jittered into `[1/2, 1)·nominal` by a
/// splitmix64 hash of `(seed, retry)`: a pure function, never of
/// wall-clock or thread id, so identical requests retry on a
/// reproducible schedule while distinct ones spread out instead of
/// stampeding back in the same millisecond. The hint is a floor: the
/// client never comes back before the server asked it to.
pub fn retry_delay_ms(seed: u64, retry: u32, hint_ms: u64) -> u64 {
    let exp = retry.saturating_sub(1).min(20);
    let nominal = BACKOFF_BASE_MS
        .saturating_mul(1u64 << exp)
        .min(BACKOFF_CAP_MS);
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(retry));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Unit jitter in [0, 1): half the nominal delay is kept, the other
    // half is scaled by the jitter.
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    let jittered = nominal as f64 * (0.5 + 0.5 * unit);
    (jittered as u64).max(1).max(hint_ms)
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
    fn backoff_is_deterministic_exponential_and_capped() {
        // Pure function of (seed, retry): identical on every call.
        for retry in 1..6 {
            assert_eq!(
                retry_delay_ms(42, retry, 0),
                retry_delay_ms(42, retry, 0),
                "retry {retry}"
            );
        }
        // Jitter keeps each delay within [nominal/2, nominal).
        for (retry, nominal) in [(1u32, 100u64), (2, 200), (3, 400), (4, 800)] {
            let d = retry_delay_ms(7, retry, 0);
            assert!(
                d >= nominal / 2 && d < nominal,
                "retry {retry}: delay {d} outside [{}, {nominal})",
                nominal / 2
            );
        }
        // The cap bounds deep chains (2^30 would overflow the schedule).
        assert!(retry_delay_ms(7, 31, 0) <= BACKOFF_CAP_MS);
        // Different seeds de-synchronize (overwhelmingly likely for a
        // 53-bit jitter; these fixed seeds are a regression anchor).
        assert_ne!(retry_delay_ms(1, 3, 0), retry_delay_ms(2, 3, 0));
    }

    #[test]
    fn retry_after_hint_is_a_floor_under_the_jittered_backoff() {
        // A hint beyond the backoff dominates; the client never comes
        // back before the server asked it to.
        assert_eq!(retry_delay_ms(42, 1, 1000), 1000);
        assert_eq!(retry_delay_ms(42, 20, 30_000), 30_000);
        // A hint below the backoff leaves the jittered schedule intact.
        assert_eq!(retry_delay_ms(42, 3, 1), retry_delay_ms(42, 3, 0));
        // Deterministic: same inputs, same delay.
        assert_eq!(retry_delay_ms(9, 2, 500), retry_delay_ms(9, 2, 500));
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
