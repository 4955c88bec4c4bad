#!/bin/sh
# Run a command and report what it cost the kernel: minor page faults,
# user and system CPU seconds, wall seconds and peak RSS. The repo
# benchmark has no fault metric, and an epoch-sized intermediate shows
# up as faults and system time before it shows up anywhere else.
# Reads /proc/<pid>/stat and /proc/<pid>/status (there is no
# /usr/bin/time on the reference image), sampling every 50 ms; the
# last sample before exit is the report, so short commands read low.
#
#   tools/rusage.sh <cmd> [args...]
#
# The command's stdout and stderr pass through; the report is one
# `rusage:` line on stderr. If the output says how many epochs were
# timed (the benchmark's "N drains of R records, E epochs" note) or
# the environment sets RUSAGE_EPOCHS, faults per epoch are appended:
# the whole process's faults, set-up and warm-up included, over E.
set -eu
[ $# -gt 0 ] || { echo "usage: $0 <cmd> [args...]" >&2; exit 2; }

tick=$(getconf CLK_TCK)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
start=$(date +%s.%N)
"$@" >"$out" &
pid=$!
stat="" rss=0
while [ -r "/proc/$pid/stat" ]; do
    # Fields after the parenthesised command name: minflt is the 8th,
    # utime and stime the 12th and 13th.
    s=$(sed 's/^.*) //' "/proc/$pid/stat" 2>/dev/null | cut -d' ' -f8,12,13) || break
    [ -n "$s" ] && stat=$s
    r=$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB/\1/p' "/proc/$pid/status" 2>/dev/null) || break
    [ -n "$r" ] && rss=$r
    sleep 0.05
done
code=0
wait "$pid" || code=$?
end=$(date +%s.%N)
cat "$out"

set -- ${stat:-0 0 0}
epochs=${RUSAGE_EPOCHS:-$(sed -n 's/.* \([0-9][0-9]*\) epochs.*/\1/p' "$out" | head -n 1)}
awk -v minflt="$1" -v ut="$2" -v st="$3" -v tick="$tick" -v rss="$rss" \
    -v wall="$(echo "$end $start" | awk '{print $1 - $2}')" -v epochs="$epochs" 'BEGIN {
    share = (wall > 0) ? 100 * st / tick / wall : 0
    printf("rusage: minor_faults=%d user_s=%.2f system_s=%.2f wall_s=%.2f system_share=%.1f%% peak_rss_mb=%.1f",
        minflt, ut / tick, st / tick, wall, share, rss / 1024)
    if (epochs + 0 > 0) printf(" faults_per_epoch=%.0f", minflt / epochs)
    printf("\n")
}' >&2
exit "$code"
