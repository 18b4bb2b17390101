#!/usr/bin/env bash
# Kill-and-resume smoke test: run a reduced report campaign, kill it
# mid-flight (SIGKILL once its first result is on disk, so nothing gets
# to clean up), resume it over the same persistent store, and require
# the resumed output to be byte-identical to an uninterrupted baseline,
# with records served from disk proving the resume actually reused
# on-disk results. A third run over the completed store must solve
# nothing and skip no corrupt line, and must leave more store lines than
# the killed run did.
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

echo "-- interrupted run (SIGKILL once the store holds its first record)"
# SIGKILL simulates a crash: no destructors, no flushes beyond the
# store's own per-append flush. The store must still be usable. The kill
# waits for the first record (line 2, after the header) rather than a
# fixed delay, so a faster campaign cannot finish before it is killed.
VOLTNOISE_STORE="$store" "$bin" --reduced \
  >"$workdir/interrupted.txt" 2>"$workdir/interrupted.err" &
pid=$!
for _ in $(seq 1 1200); do # up to 60 s
  if [[ -f "$store" ]] && (($(wc -l <"$store") >= 2)); then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
if ! kill -KILL "$pid" 2>/dev/null; then
  echo "FAIL: the run exited before it could be killed" >&2
  exit 1
fi
status=0
wait "$pid" || status=$?
if ((status != 137)); then
  echo "FAIL: the run exited with status $status, not by SIGKILL" >&2
  exit 1
fi

if [[ ! -f "$store" ]] || (($(wc -l <"$store") < 2)); then
  echo "FAIL: interrupted run left no record in the store at $store" >&2
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

# The resumed run reports its store reuse on stderr, and the records
# the killed run left must have been read back, not re-solved.
grep -q " [1-9][0-9]* served from disk" "$workdir/resumed.err" || {
  echo "FAIL: resumed run served nothing from the store" >&2
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
lines_complete=$(wc -l <"$store")
if ((lines_after_kill >= lines_complete)); then
  echo "FAIL: the killed run left $lines_after_kill store lines, the completed store" \
    "holds $lines_complete: the kill interrupted nothing" >&2
  exit 1
fi

echo "resume smoke test passed: resumed and warm reports are byte-identical"
