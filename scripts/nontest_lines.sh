#!/usr/bin/env sh
# Counts the non-test lines of every crate: for each `.rs` file under a
# crate's `src/`, the lines above its first `#[cfg(test)]` (the whole
# file if it has none). Prints one line per crate, then the total.
#
# Usage: scripts/nontest_lines.sh [crate-dir ...]
# With no arguments it counts every crate under `crates/`. Run it from
# the repository root.
set -eu
if [ "$#" -eq 0 ]; then
    set -- crates/*
fi
total=0
for crate in "$@"; do
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }')
    printf '%6d  %s/src\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%6d  total\n' "$total"
