#!/bin/sh
# Public functions nothing calls. Lists each `pub fn` in `crates/*/src`
# and `src` (each file cut at its trailing `#[cfg(test)]` module, as
# tools/loc.sh counts) whose name appears nowhere else in `crates`,
# `src`, `tests`, `examples` or `benchmark/src`. A mention in the
# defining file's own test module does not count, so a function that
# only its unit tests reach is listed too. Names in ALLOW below are
# intentional API that no code in the repo happens to call. Prints
# `file: name` per hit and exits 1 if there is any. Plain find + sed +
# grep + awk, run from anywhere.
set -eu
cd "$(dirname "$0")/.."

ALLOW="
explain with_column
current_watermark current_processing_time was_updated
subscriber_count buffered_rows
"
# explain, with_column: the DataFrame API (§4.1).
# current_watermark, current_processing_time, was_updated: the
#   GroupState accessors of [flat]mapGroupsWithState (§4.3.2).
# subscriber_count, buffered_rows: what behaviour tests observe the
#   scan cache and the stream-stream join through.

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

words() { grep -oE '[A-Za-z_][A-Za-z0-9_]*' || true; }

find crates/*/src src -name '*.rs' | sort > "$tmp/files"

# One line per definition: `<file> <name>`.
while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -oE 'pub fn [A-Za-z_][A-Za-z0-9_]*' \
        | sed "s|^pub fn |$f |" || true
done < "$tmp/files" > "$tmp/defs"

# Mentions of every word anywhere: `<count> <word>`.
find crates src tests examples benchmark/src -name '*.rs' -exec cat {} + \
    | words | sort | uniq -c > "$tmp/all"

# Mentions inside each source file's own test module: `<file> <count> <word>`.
while read -r f; do
    sed -n '/^#\[cfg(test)\]/,$p' "$f" | words | sort | uniq -c | sed "s|^ *|$f |"
done < "$tmp/files" > "$tmp/tails"

echo "$ALLOW" | tr ' ' '\n' | sed '/^$/d' > "$tmp/allow"

awk '
    FILENAME == ARGV[1] { ok[$1] = 1; next }
    FILENAME == ARGV[2] { seen[$2] = $1; next }
    FILENAME == ARGV[3] { own[$1 " " $3] = $2; next }
    { defs[$2]++; file[FNR] = $1; name[FNR] = $2 }
    END {
        for (i in name) {
            n = name[i]
            if (!ok[n] && seen[n] - defs[n] - own[file[i] " " n] <= 0) print file[i] ": " n
        }
    }
' "$tmp/allow" "$tmp/all" "$tmp/tails" "$tmp/defs" | sort > "$tmp/hits"

if [ -s "$tmp/hits" ]; then
    cat "$tmp/hits"
    printf '%d public function(s) with no caller: delete them, or add intentional API to ALLOW in tools/unused_pub.sh\n' \
        "$(wc -l < "$tmp/hits")"
    exit 1
fi
