#!/usr/bin/env bash
# Paired A/B benchmark of two revisions with voltbench.
#
#   scripts/ab.sh <rev-a> <rev-b> [-w W] [-n pairs] [-s seconds] [--trace] [--perturb]
#
# Each revision is exported with `git archive` to target/ab/<commit>/ and
# builds its own voltbench offline into its own CARGO_TARGET_DIR; the
# revision `.` means the working tree as it stands. Runs go A,B,B,A,...
# with the same seed within a pair, after one discarded warm-up run per
# side. For every metric it prints the per-pair deltas (B - A), A's
# median and interquartile range, the median delta, the pairs B won and
# a two-sided sign-test p-value; host.probe_us comes with --trace, which
# also adds the per-layer metrics. --perturb builds side B with a
# different codegen-unit split, so `ab.sh R R --perturb` measures the
# code-layout noise floor: a claim below it is not a claim.
#
# Defaults: -w report-cold -n 10 -s 25. Needs only git, cargo and awk.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/ab.sh <rev-a> <rev-b> [-w W] [-n pairs] [-s seconds] [--trace] [--perturb]" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
rev_a=$1
rev_b=$2
shift 2
workload=report-cold
pairs=10
seconds=25
trace=0
perturb=0
while [[ $# -gt 0 ]]; do
    case $1 in
        -w) workload=${2:?}; shift 2 ;;
        -n) pairs=${2:?}; shift 2 ;;
        -s) seconds=${2:?}; shift 2 ;;
        --trace) trace=1; shift ;;
        --perturb) perturb=1; shift ;;
        *) usage ;;
    esac
done

# Exports a revision (once) and prints its source directory.
source_of() {
    local rev=$1 id dir
    if [[ $rev == . ]]; then
        echo "$root"
        return
    fi
    id=$(git rev-parse --short=12 "$rev^{commit}")
    dir=$root/target/ab/$id
    if [[ ! -d $dir ]]; then
        rm -rf "$dir.part"
        mkdir -p "$dir.part"
        git archive "$id" | tar -x -C "$dir.part"
        mv "$dir.part" "$dir"
    fi
    echo "$dir"
}

# Builds one side's voltbench and prints the binary's path.
build_side() {
    local rev=$1 side=$2 flags=$3 src target
    src=$(source_of "$rev")
    target=$root/target/ab/$side-$(basename "$src")${flags:+-perturbed}
    [[ $rev == . ]] && target=$root/target/ab/$side-worktree${flags:+-perturbed}
    echo "ab: building $side ($rev) into $target" >&2
    CARGO_TARGET_DIR=$target RUSTFLAGS="${RUSTFLAGS:-} $flags" \
        cargo build --release --quiet --offline --manifest-path "$src/voltbench/Cargo.toml" >&2
    echo "$src $target/release/voltbench"
}

read -r src_a bin_a < <(build_side "$rev_a" a "")
read -r src_b bin_b < <(build_side "$rev_b" b "$([[ $perturb == 1 ]] && echo '-C codegen-units=7')")

results=$root/target/ab/results-$workload-$(date +%Y%m%d-%H%M%S).tsv
: >"$results"

# One voltbench run; appends `side pair metric value` rows.
run_side() {
    local side=$1 pair=$2 seed=$3 secs=$4 src bin line
    if [[ $side == a ]]; then src=$src_a bin=$bin_a; else src=$src_b bin=$bin_b; fi
    line=$(cd "$src" && "$bin" --workload "$workload" --seed "$seed" --seconds "$secs" \
        --trace "$trace" 2>/dev/null | grep '^{' | tail -1)
    if [[ $line != *'"correct":true'* ]]; then
        echo "ab: side $side pair $pair seed $seed was not correct: $line" >&2
        exit 1
    fi
    [[ $pair -lt 0 ]] && return
    echo "$line" | grep -o '"[A-Za-z0-9_.-]*":{"value":[-0-9.eE+]*' |
        sed -e 's/^"//' -e 's/":{"value":/ /' |
        awk -v s="$side" -v p="$pair" '{ print s "\t" p "\t" $1 "\t" $2 }' >>"$results"
}

echo "ab: warm-up (discarded)" >&2
run_side a -1 1 "$seconds"
run_side b -1 1 "$seconds"
for ((i = 0; i < pairs; i++)); do
    seed=$((101 + i))
    if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
    for side in $order; do
        echo "ab: pair $((i + 1))/$pairs side $side seed $seed" >&2
        run_side "$side" "$i" "$seed" "$seconds"
    done
done

# Metrics where a higher value is better, from BENCHMARK.json.
higher=$(awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
              /"better": *"higher"/ { printf "%s ", name }' BENCHMARK.json)

echo "ab: $workload, A=$rev_a B=$rev_b, $pairs pairs of ${seconds} s, rows in $results"
awk -F'\t' -v higher="$higher" '
function sort(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function quantile(a, n, q,   h, l) {
    h = (n - 1) * q + 1; l = int(h)
    return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}
function choose(n, k,   r, i) { r = 1; for (i = 1; i <= k; i++) r = r * (n - k + i) / i; return r }
BEGIN { split(higher, hs, " "); for (i in hs) up[hs[i]] = 1 }
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++m] = $3 } if ($2 + 1 > np) np = $2 + 1 }
END {
    printf "%-28s %14s %10s %14s %12s %6s %8s  %s\n", "metric", "A median", "A IQR", "B median", "delta", "B won", "sign p", "pair deltas (B - A)"
    for (k = 1; k <= m; k++) {
        name = names[k]; n = 0; wins = 0; ties = 0; deltas = ""
        for (p = 0; p < np; p++) {
            if (!(("a", p, name) in v) || !(("b", p, name) in v)) continue
            a = v["a", p, name]; b = v["b", p, name]; d = b - a
            n++; av[n] = a; bv[n] = b; dv[n] = d
            if (d == 0) ties++; else if ((d < 0) != (name in up)) wins++
            deltas = deltas sprintf("%s%.4g", n > 1 ? " " : "", d)
        }
        if (n == 0) continue
        sort(av, n); sort(bv, n); sort(dv, n)
        am = quantile(av, n, 0.5); iqr = quantile(av, n, 0.75) - quantile(av, n, 0.25)
        dm = quantile(dv, n, 0.5)
        # Two-sided sign test over the pairs that differ.
        nt = n - ties; lo = wins < nt - wins ? wins : nt - wins; tail = 0
        for (i = 0; i <= lo; i++) tail += choose(nt, i)
        pv = nt > 0 ? 2 * tail / 2 ^ nt : 1; if (pv > 1) pv = 1
        pct = am != 0 ? sprintf("%+.1f%%", 100 * dm / am) : "n/a"
        printf "%-28s %14.6g %10.3g %14.6g %12s %3d/%-2d %8.3g  %s\n", name, am, iqr, quantile(bv, n, 0.5), pct, wins, n, pv, deltas
    }
}' "$results"
