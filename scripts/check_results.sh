#!/usr/bin/env bash
# Regenerates every committed paper-scale result under results/ with
# `experiment <id>` (no --reduced) and diffs it against the committed
# file; fails when a file drifted or when results/ holds a file this
# table does not name. Run from anywhere. About 1.5 min on 2 cores.
set -euo pipefail
cd "$(dirname "$0")/.."

# registry id -> results/ file (the file names are the old per-figure
# binary names).
TABLE="
table1 table1_epi.txt
fig5 seq_search.txt
fig7a fig7a_freq_sweep.txt
fig7b fig7b_impedance.txt
fig8 fig8_scope.txt
fig9 fig9_sync_sweep.txt
fig10 fig10_misalignment.txt
fig11a fig11a_delta_i.txt
fig11b fig11b_distribution.txt
fig12 fig12_vmin.txt
fig13a fig13a_correlation.txt
fig13b fig13b_step.txt
fig14 fig14_mappings.txt
fig15 fig15_mapping_gain.txt
guardband guardband.txt
ablations ablations.txt
extensions extensions.txt
"

cargo build --release -q -p voltnoise --bin experiment
# A store would answer from earlier solves; recompute everything.
unset VOLTNOISE_STORE

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
for path in results/*.txt; do
    if ! grep -q " ${path#results/}\$" <<< "$TABLE"; then
        echo "$path is not in the table of scripts/check_results.sh" >&2
        failed=1
    fi
done
while read -r id file; do
    [ -n "$id" ] || continue
    target/release/experiment "$id" > "$out/$file"
    if ! diff -u "results/$file" "$out/$file"; then
        echo "results/$file drifted from \`experiment $id\`" >&2
        failed=1
    fi
done <<< "$TABLE"

if [ "$failed" -ne 0 ]; then
    echo "results/ check failed; regenerate the files above if the change is intended" >&2
    exit 1
fi
echo "every results/ file regenerates byte-identically"
