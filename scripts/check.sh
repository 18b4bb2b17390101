#!/usr/bin/env bash
# Workspace gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (solver/engine library code, unwrap/expect are errors)"
# Both crate roots carry
# `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]`;
# checking the library targets (no cfg(test)) enforces it, and tests may
# still unwrap freely.
cargo clippy -p voltnoise-pdn -p voltnoise-system --lib -- -D warnings

echo "== public surface (every pub item has an outside caller or an allowlist reason)"
scripts/check_surface.sh

echo "== rustdoc (warnings are errors: a narrowed item must not stay linked from public docs)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== no process-global engine or trace flag, one PDN builder, one attempt per job, one batch envelope, one experiment run path"
# Engines are passed in and tracing is a per-engine field; a match here
# reintroduces state that one test could leak into another. `Pdn` is the
# one topology builder (a chip is 1x1, a drawer 1xN) and drawer steps go
# straight to `Engine::run_drawer`; a per-level type or job wrapper must
# not come back. Every fault is deterministic, so the engine makes one
# attempt per job (the client's HTTP backoff is the only retry), and
# every batch route shares the daemon's one envelope: no engine retry
# layer and no `/drawer` route. An experiment has one run path, and it
# settles failure; the binaries live in the `voltnoise` crate; the
# server does not decode its own `/stats` output.
if grep -rnE 'Engine::shared|set_trace|static TRACE|trace_enabled|ChipPdn|DrawerPdn|DrawerJob|RetryPolicy|with_retry|\bretry_after\(|handle_drawer|"/drawer"|run_settled|voltnoise-bench|parse_signal_stats' crates tests examples; then
    echo "process-global engine or trace flag, a per-level PDN type, an engine retry layer, a /drawer route, a second experiment run path, the bench crate or the /stats decoder found (see matches above)" >&2
    exit 1
fi
# The registry (crates/analysis/src/catalog.rs) is the only place an
# artifact's id and title are written.
if grep -rnE 'fn (id|title)\(&self\)' crates/analysis/src; then
    echo "an experiment declares its own id or title; the registry entry owns them (see matches above)" >&2
    exit 1
fi

# One parallel map: `voltnoise_uarch::par::map` runs the engine's
# batches and the testbed build, so no other library code starts its own
# scoped-thread loop. Top-level `#[cfg(test)]` modules are exempt.
if awk 'FNR == 1 { skip = 0; prev = "" }
        /^mod [a-z_]+ \{/ && prev ~ /^#\[cfg\(test\)\]/ { skip = 1 }
        !skip && /thread::scope/ { print FILENAME ":" FNR ": " $0; found = 1 }
        skip && /^\}/ { skip = 0 }
        { prev = $0 }
        END { exit !found }' \
    $(find crates/pdn/src crates/uarch/src crates/stressmark/src crates/system/src crates/analysis/src \
        -name '*.rs' ! -path crates/uarch/src/par.rs | sort); then
    echo "a scoped-thread loop outside crates/uarch/src/par.rs; run it through par::map (see matches above)" >&2
    exit 1
fi

echo "== cargo build --release && cargo test (the tier-1 command)"
# The workspace is virtual, so this runs every member's tests, the
# fault-injection, durability, telemetry and signal suites included.
cargo build --release
cargo test -q

echo "== hierarchy suite on one worker (replay golden byte-identical serially too)"
VOLTNOISE_THREADS=1 cargo test -q -p voltnoise --test hierarchy

echo "== report golden and work ledger on one worker (lane-group dispatch order is the whole execution order)"
VOLTNOISE_THREADS=1 cargo test -q -p voltnoise-analysis --lib report::tests

echo "== kill-and-resume smoke test"
scripts/resume_smoke.sh

echo "== server smoke test"
scripts/server_smoke.sh

echo "== paper-scale results/ regenerate byte-identically"
scripts/check_results.sh

echo "== wall-clock bounds (release; each binary's one ignored test runs alone)"
# Alone so sibling tests do not compete for the cores the timings need.
cargo test --release -q -p voltnoise --test telemetry --test signal -- --ignored

echo "== voltbench smoke test (every workload once, full metric set)"
cargo run --release --offline --manifest-path voltbench/Cargo.toml -- --smoke

echo "All checks passed."
