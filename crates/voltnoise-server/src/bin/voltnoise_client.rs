//! `voltnoise-client` — a minimal client for the campaign daemon.
//!
//! ```text
//! voltnoise-client [--max-attempts N] ADDR health   # GET /healthz
//! voltnoise-client [--max-attempts N] ADDR stats    # GET /stats
//! voltnoise-client [--max-attempts N] ADDR jobs BODY.json
//! voltnoise-client [--max-attempts N] ADDR jobs -   # body from stdin
//! ```
//!
//! Exits 0 on a 2xx response, 1 otherwise; the response body goes to
//! stdout either way (a `429` body carries the retry hint).
//!
//! With `--max-attempts N` (default 1, i.e. no retry), a `429` or `503`
//! answer is retried up to N total attempts. The wait before each retry
//! honors the server's `Retry-After` header as a *floor* under the
//! client's seeded splitmix64 exponential backoff
//! ([`voltnoise_server::client::retry_delay_ms`]) — deterministic per
//! request body, so a shell loop of identical clients retries on a
//! reproducible schedule yet distinct bodies spread out and don't
//! stampede back in the same millisecond.

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;
use voltnoise_server::client::retry_delay_ms;
use voltnoise_server::http_request;

/// FNV-1a 64-bit over the request body: the deterministic backoff seed.
fn body_seed(body: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in body.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run() -> Result<u16, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_attempts: u32 = 1;
    if let Some(pos) = args.iter().position(|a| a == "--max-attempts") {
        if pos + 1 >= args.len() {
            return Err("--max-attempts needs a value".to_string());
        }
        max_attempts = args[pos + 1]
            .parse()
            .map_err(|_| "--max-attempts must be a positive integer".to_string())?;
        if max_attempts == 0 {
            return Err("--max-attempts must be at least 1".to_string());
        }
        args.drain(pos..pos + 2);
    }
    let (addr, command) =
        match args.as_slice() {
            [addr, command, ..] => (addr.as_str(), command.as_str()),
            _ => return Err(
                "usage: voltnoise-client [--max-attempts N] ADDR health|stats|jobs [BODY.json|-]"
                    .to_string(),
            ),
        };
    let timeout = Duration::from_secs(600);
    let (method, path, body) = match command {
        "health" => ("GET", "/healthz", None),
        "stats" => ("GET", "/stats", None),
        "jobs" => {
            let source = args
                .get(2)
                .ok_or_else(|| "jobs needs a body file (or - for stdin)".to_string())?;
            let body = if source == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?
            };
            ("POST", "/jobs", Some(body))
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    let seed = body_seed(body.as_deref().unwrap_or(path));
    let mut attempt: u32 = 1;
    let response = loop {
        let response = http_request(addr, method, path, body.as_deref(), timeout)
            .map_err(|e| format!("request failed: {e}"))?;
        let retryable = matches!(response.status, 429 | 503);
        if !retryable || attempt >= max_attempts {
            break response;
        }
        let hint_ms = response
            .header("retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |secs| secs.saturating_mul(1000));
        let delay_ms = retry_delay_ms(seed, attempt, hint_ms);
        eprintln!(
            "voltnoise-client: server answered {}, retrying in {delay_ms} ms \
             (attempt {attempt}/{max_attempts})",
            response.status
        );
        std::thread::sleep(Duration::from_millis(delay_ms));
        attempt += 1;
    };
    print!("{}", response.body);
    Ok(response.status)
}

fn main() -> ExitCode {
    match run() {
        Ok(status) if (200..300).contains(&status) => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("voltnoise-client: server answered {status}");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("voltnoise-client: {why}");
            ExitCode::FAILURE
        }
    }
}
