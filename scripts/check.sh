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

echo "== no process-global engine or trace flag, one PDN builder"
# Engines are passed in and tracing is a per-engine field; a match here
# reintroduces state that one test could leak into another. `Pdn` is the
# one topology builder (a chip is 1x1, a drawer 1xN) and drawer steps go
# straight to `Engine::run_drawer`; a per-level type or job wrapper must
# not come back.
if grep -rnE "Engine::shared|set_trace|static TRACE|trace_enabled|ChipPdn|DrawerPdn|DrawerJob" crates tests examples; then
    echo "process-global engine or trace flag, or a per-level PDN type, found (see matches above)" >&2
    exit 1
fi

echo "== cargo build --release && cargo test (the tier-1 command)"
cargo build --release
cargo test -q

echo "== hierarchy suite on one worker (replay golden byte-identical serially too)"
VOLTNOISE_THREADS=1 cargo test -q -p voltnoise --test hierarchy

echo "== fault-injection suite"
cargo test -q -p voltnoise --test fault_tolerance

echo "== durability suite"
cargo test -q -p voltnoise --test durability

echo "== kill-and-resume smoke test"
scripts/resume_smoke.sh

echo "== telemetry suite"
cargo test -q -p voltnoise --test telemetry

echo "== signal suite (spectral + entropy analytic ground truths)"
cargo test -q -p voltnoise --test signal

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
