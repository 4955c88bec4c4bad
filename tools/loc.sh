#!/bin/sh
# Non-test Rust line totals per crate (ROADMAP item 1: the number that
# should go down), then the five largest files (the roadmap's "no file
# over ~1k lines", made visible). Counts every `src/**/*.rs` line up to
# the file's trailing `#[cfg(test)]` module; `tests/`, `benches/` and
# `examples/` are not counted. Plain find + sed + wc, run from anywhere.
set -eu
cd "$(dirname "$0")/.."

count() { # <src dir>
    find "$1" -name '*.rs' -exec sed '/^#\[cfg(test)\]/,$d' {} \; | wc -l
}

total=0
printf '%-14s %7s\n' crate lines
for dir in crates/*/ .; do
    [ -d "$dir/src" ] || continue
    name=$(basename "$(cd "$dir" && pwd)")
    [ "$dir" = . ] && name="(root)"
    n=$(count "$dir/src")
    total=$((total + n))
    printf '%-14s %7d\n' "$name" "$n"
done
printf '%-14s %7d\n' total "$total"

printf '\n%-44s %7s\n' 'largest files' lines
find crates/*/src src -name '*.rs' | while read -r f; do
    printf '%s %s\n' "$(sed '/^#\[cfg(test)\]/,$d' "$f" | wc -l)" "$f"
done | sort -rn | head -5 | while read -r n f; do
    printf '%-44s %7d\n' "$f" "$n"
done
