#!/bin/sh
# Alternating pairs of the repo benchmark, held to BENCHMARK.json's
# bounds: the parent-vs-change comparison a PR is judged by, runnable
# locally and in CI. Build each checkout's `benchmark/` first and pass
# the two binaries (`benchmark/target/release/benchmark`).
#
#   tools/bench_pairs.sh <parent-bin> <change-bin> [pairs] [seconds]
#
# Each pair runs both binaries on `--workload all --seed 7 --trace 0`
# (default 5 pairs of 10 s per workload), alternating which goes first.
# Prints, per workload x end-to-end metric, the parent and change
# medians, their ratio (change / parent), the bound, and each pair's
# ratio. Exits 1 if any run is not `correct` or failed operations, or
# if any change median is worse than the parent's by more than the bound.
set -eu
[ $# -ge 2 ] || { echo "usage: $0 <parent-bin> <change-bin> [pairs] [seconds]" >&2; exit 2; }
parent=$1 change=$2 pairs=${3:-5} seconds=${4:-10}
spec="$(dirname "$0")/../BENCHMARK.json"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        bin=$parent
        [ "$side" = change ] && bin=$change
        "$bin" --workload all --seed 7 --seconds "$seconds" --trace 0 >"$out/$i.$side" || true
        echo "bench_pairs: pair $i/$pairs $side done" >&2
    done
    i=$((i + 1))
done

awk -v pairs="$pairs" '
function field(key,    s) { # "key": value, from a one-line JSON object
    if (!match($0, "\"" key "\": \"?[^\",}]*")) return ""
    s = substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
    sub(/^"/, "", s)
    return s
}
function median(w, m, side,    a, c, i, j, t) {
    for (i = 1; i <= pairs; i++) if ((w, m, side, i) in v) a[++c] = v[w, m, side, i]
    for (i = 2; i <= c; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return c % 2 ? a[(c + 1) / 2] : (a[c / 2] + a[c / 2 + 1]) / 2
}
FILENAME == spec { if (/"bound"/) { m = field("name"); metrics[++nm] = m; better[m] = field("better"); bound[m] = field("bound") + 0 }; next }
FNR == 1 { run = FILENAME; sub(/.*\//, "", run); split(run, r, "."); summary[run] = 0 }
$1 == "METRIC" && ($3 in bound) { if (!($2 in seen)) { seen[$2]; workloads[++nw] = $2 }; v[$2, $3, r[2], r[1]] = $4 }
/^\{"correct"/ { summary[run] = field("correct") == "true" && field("failed") == "0" }
END {
    for (run in summary) if (++runs && !summary[run]) { printf("run %s: not correct, failed operations or no result line\n", run); bad = 1 }
    if (runs < 2 * pairs) { printf("%d of %d runs printed nothing\n", 2 * pairs - runs, 2 * pairs); bad = 1 }
    printf("%-17s %-15s %14s %14s %7s %6s  %s\n", "workload", "metric", "parent", "change", "ratio", "bound", "per pair")
    for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
        w = workloads[wi]; m = metrics[mi]
        p = median(w, m, "parent"); c = median(w, m, "change")
        worse = p == 0 ? 0 : (better[m] == "lower" ? c - p : p - c) / p
        each = ""
        for (i = 1; i <= pairs; i++) each = each sprintf(" %.3f", v[w, m, "parent", i] ? v[w, m, "change", i] / v[w, m, "parent", i] : 0)
        verdict = worse > bound[m] ? "  WORSE THAN BOUND" : ""
        if (verdict != "") bad = 1
        printf("%-17s %-15s %14.6g %14.6g %7.3f %5.0f%% %s%s\n", w, m, p, c, p ? c / p : 0, bound[m] * 100, each, verdict)
    }
    print(bad ? "bench_pairs: OUT OF BOUNDS" : "bench_pairs: within bounds")
    exit bad
}' spec="$spec" "$spec" "$out"/*
