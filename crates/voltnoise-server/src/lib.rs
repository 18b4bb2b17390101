#![warn(missing_docs)]

//! # voltnoise-server
//!
//! A hardened campaign daemon over the workspace's noise engine: a
//! std-only HTTP/1.1 service (plain TCP, a bounded thread pool, no
//! async runtime and no external dependencies) that accepts JSON batches
//! of simulation jobs and streams per-job results back as they settle.
//!
//! The robustness envelope — the reason this crate exists — is spelled
//! out in `DESIGN.md` ("Service model"):
//!
//! - **Admission control**: each batch carries a step-budget estimate;
//!   when the estimated in-flight step load would exceed a configurable
//!   ceiling the batch is rejected with `429` and a `Retry-After`
//!   hint instead of being queued into an unbounded backlog.
//! - **Backpressure**: the accept queue is bounded; connections beyond
//!   the bound are shed with `503` (and counted in
//!   [`voltnoise_system::engine::EngineStats::shed_total`]) rather than
//!   accumulated.
//! - **Deadlines**: every batch gets a wall-clock deadline wired into
//!   the engine's cooperative [`voltnoise_pdn::CancelToken`]; an
//!   expired batch is reaped mid-solve and reports a typed
//!   deadline fault, never a hung connection.
//! - **Dedup**: identical jobs from concurrent clients coalesce onto
//!   one solve via the engine's singleflight layer.
//! - **Graceful drain**: the server's stop handle (which the binary
//!   wires to `SIGTERM`/`SIGINT`) stops the accept loop, cancels
//!   in-flight batches through their tokens, flushes the JSONL result
//!   store and exits 0. A restarted server resumes from the
//!   store with zero duplicate solves.
//!
//! Malformed input is a first-class citizen: the job-decode boundary
//! ([`wire`]) rejects truncated bodies, non-finite floats, duplicate
//! keys and unknown fields with a machine-readable `400` body — it
//! never panics and never silently drops a job.

pub mod admission;
pub mod client;
pub mod deadline;
pub mod http;
pub mod server;
pub mod signals;
pub mod wire;

pub use client::{http_request, Response};
pub use server::{Server, ServerConfig};
pub use wire::{BatchRequest, JobSpec, SignalStats, WireError};
