#!/usr/bin/env bash
# Non-test Rust lines per crate: every line above the first `#[cfg(test)]`
# of each crates/*/src/**/*.rs, then the workspace total.
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -exec awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' workspace "$total"
