//! `voltnoise-server` — the campaign daemon's entry point.
//!
//! ```text
//! voltnoise-server [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                  [--step-ceiling STEPS] [--deadline-ms MS]
//!                  [--max-body BYTES] [--reduced]
//!                  [--store PATH] [--drain-grace-ms MS]
//!                  [--keep-alive-requests N] [--keep-alive-idle-ms MS]
//! ```
//!
//! Environment: `VOLTNOISE_STORE` (persistent JSONL result store — the
//! resume substrate; `--store` overrides it), `VOLTNOISE_THREADS`
//! (engine worker count). The chosen address is printed on stdout as
//! `voltnoise-server listening on HOST:PORT`; a graceful drain prints
//! `voltnoise-server drained cleanly` and exits 0.

use std::process::ExitCode;
use voltnoise_server::{signals, Server, ServerConfig};

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value_of = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value_of("--addr")?,
            "--workers" => {
                cfg.workers = value_of("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?;
                if cfg.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--queue-cap" => {
                cfg.queue_cap = value_of("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap must be a positive integer".to_string())?;
            }
            "--step-ceiling" => {
                cfg.step_ceiling = value_of("--step-ceiling")?
                    .parse()
                    .map_err(|_| "--step-ceiling must be a non-negative integer".to_string())?;
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = value_of("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be a positive integer".to_string())?;
            }
            "--max-body" => {
                cfg.max_body = value_of("--max-body")?
                    .parse()
                    .map_err(|_| "--max-body must be a positive integer".to_string())?;
            }
            "--reduced" => cfg.reduced = true,
            "--store" => cfg.store = Some(value_of("--store")?),
            "--drain-grace-ms" => {
                cfg.drain_grace_ms = value_of("--drain-grace-ms")?
                    .parse()
                    .map_err(|_| "--drain-grace-ms must be a non-negative integer".to_string())?;
            }
            "--keep-alive-requests" => {
                cfg.keep_alive_requests = value_of("--keep-alive-requests")?
                    .parse()
                    .map_err(|_| "--keep-alive-requests must be a positive integer".to_string())?;
                if cfg.keep_alive_requests == 0 {
                    return Err("--keep-alive-requests must be at least 1".to_string());
                }
            }
            "--keep-alive-idle-ms" => {
                cfg.keep_alive_idle_ms = value_of("--keep-alive-idle-ms")?
                    .parse()
                    .map_err(|_| "--keep-alive-idle-ms must be a positive integer".to_string())?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: voltnoise-server [--addr HOST:PORT] [--workers N] [--queue-cap N] \
                     [--step-ceiling STEPS] [--deadline-ms MS] [--max-body BYTES] [--reduced] \
                     [--store PATH] [--drain-grace-ms MS] [--keep-alive-requests N] \
                     [--keep-alive-idle-ms MS]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(why) => {
            eprintln!("voltnoise-server: {why}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("voltnoise-server: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The library never reads the process-global signal flag: SIGTERM
    // and SIGINT reach the server through its stop handle.
    if let Err(e) = signals::forward_to(server.stop_handle()) {
        eprintln!("voltnoise-server: cannot watch for signals: {e}");
        return ExitCode::FAILURE;
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("voltnoise-server: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}
