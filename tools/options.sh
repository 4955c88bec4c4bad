#!/bin/sh
# Settable values per type, and their total: the number a simplicity
# change should hold or lower. Counts the `pub` fields of every
# `pub struct` whose name ends in Config, Policy or Budget, plus 1 for
# each `pub enum` whose name ends in Mode or Policy. Reads non-test code
# only, each file cut at its `#[cfg(test)]` tail as tools/loc.sh cuts
# it. Plain find + sed + awk, run from anywhere.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v file="$f" '
        function indent(s) { match(s, /^ */); return RLENGTH }
        in_struct && $0 ~ "^" pad "}" {
            printf "%-28s %3d  %s\n", name, fields, file
            in_struct = 0
            next
        }
        in_struct {
            if ($0 ~ "^" pad "    pub [a-z_][a-z0-9_]*:") fields++
            next
        }
        /^ *pub struct [A-Za-z0-9_]*(Config|Policy|Budget)[ <{(;]/ {
            name = $0
            sub(/^ *pub struct /, "", name)
            sub(/[ <{(;].*$/, "", name)
            if ($0 ~ /[;(]/ && $0 !~ /\{/) {
                printf "%-28s %3d  %s\n", name, 0, file
                next
            }
            pad = sprintf("%" indent($0) "s", "")
            fields = 0
            in_struct = 1
            next
        }
        /^ *pub enum [A-Za-z0-9_]*(Mode|Policy)[ <{]/ {
            name = $0
            sub(/^ *pub enum /, "", name)
            sub(/[ <{].*$/, "", name)
            printf "%-28s %3d  %s\n", name, 1, file
        }
    '
done | awk '
    { print; total += $2 }
    END { printf "%-28s %3d\n", "total", total }
'
