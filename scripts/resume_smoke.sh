#!/usr/bin/env bash
# Kill-and-resume smoke test: run a reduced report campaign, kill it
# mid-flight (SIGKILL, so nothing gets to clean up), resume it over the
# same persistent store, and require the resumed output to be
# byte-identical to an uninterrupted baseline — with a non-empty store
# proving the resume actually reused on-disk results. A third run over
# the completed store must solve nothing and skip no corrupt line.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
store="$workdir/results.jsonl"

echo "-- building release full_report"
cargo build -q --release --bin full_report

bin=target/release/full_report

echo "-- baseline (no store, uninterrupted)"
"$bin" --reduced >"$workdir/baseline.txt"

echo "-- interrupted run (SIGKILL after 5 s)"
# `timeout -s KILL` simulates a crash: no destructors, no flushes beyond
# the store's own per-append flush. The store must still be usable.
VOLTNOISE_STORE="$store" timeout -s KILL 5 "$bin" --reduced \
  >"$workdir/interrupted.txt" 2>"$workdir/interrupted.err" || true

if [[ ! -s "$store" ]]; then
  echo "FAIL: interrupted run left no store at $store" >&2
  exit 1
fi
lines_after_kill=$(wc -l <"$store")
echo "   store holds $lines_after_kill lines after the kill"

echo "-- resumed run (same store)"
VOLTNOISE_STORE="$store" "$bin" --reduced \
  >"$workdir/resumed.txt" 2>"$workdir/resumed.err"

echo "-- comparing resumed output against the baseline"
if ! cmp -s "$workdir/baseline.txt" "$workdir/resumed.txt"; then
  echo "FAIL: resumed report differs from the uninterrupted baseline" >&2
  diff "$workdir/baseline.txt" "$workdir/resumed.txt" | head -20 >&2
  exit 1
fi

# The resumed run reports its store reuse on stderr.
grep -q "served from disk" "$workdir/resumed.err" || {
  echo "FAIL: resumed run did not report store usage" >&2
  cat "$workdir/resumed.err" >&2
  exit 1
}

echo "-- warm run (completed store)"
# Every job is now on disk, so a third run must solve nothing and skip
# no line. A record that no longer decodes would be silently re-solved
# and still print the same report, so the counts are checked, not only
# the bytes.
VOLTNOISE_STORE="$store" "$bin" --reduced \
  >"$workdir/warm.txt" 2>"$workdir/warm.err"
if ! cmp -s "$workdir/baseline.txt" "$workdir/warm.txt"; then
  echo "FAIL: warm report differs from the uninterrupted baseline" >&2
  diff "$workdir/baseline.txt" "$workdir/warm.txt" | head -20 >&2
  exit 1
fi
for want in " 0 solved fresh" " 0 corrupt lines skipped"; do
  grep -q "$want" "$workdir/warm.err" || {
    echo "FAIL: warm run over the completed store did not report '$want'" >&2
    grep "voltnoise: store" "$workdir/warm.err" >&2 || cat "$workdir/warm.err" >&2
    exit 1
  }
done
echo "   $(grep -o '[0-9]* served from disk' "$workdir/warm.err") on the warm run"

echo "resume smoke test passed: resumed and warm reports are byte-identical"
