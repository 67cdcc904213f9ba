#!/usr/bin/env bash
# Non-test Rust lines — every line above the first `#[cfg(test)]` of each
# crates/*/src/**/*.rs — per crate, then the workspace total, then the five
# largest files as `LINES PATH` (`scripts/loc.sh all` lists every file,
# which is what the ci.sh size gate reads).
set -euo pipefail

cd "$(dirname "$0")/.."

per_file=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { if (file) print n, file; file = FILENAME; n = 0; skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n, file }' {} + | sort -rn)

echo "$per_file" | awk '{ split($2, p, "/"); crate[p[2]] += $1 } END { for (c in crate) print c, crate[c] }' |
    sort | awk '{ printf "%-10s %6d\n", $1, $2; total += $2 } END { printf "%-10s %6d\n", "workspace", total }'
if [ "${1:-}" = all ]; then echo "$per_file"; else echo "$per_file" | head -5; fi
