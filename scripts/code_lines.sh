#!/usr/bin/env bash
# Counts code lines: non-blank lines that are not `//` comments, above the
# first `#[cfg(test)]` of each file. Simplicity PRs quote this count.
#
#   scripts/code_lines.sh                 every crate's src/ and benches/, per file and per crate
#   scripts/code_lines.sh FILE...         just those files, plus their sum
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ } END { print n + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    total=0
    for f in "$@"; do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  total\n' "$total"
    exit 0
fi

grand=0
for crate in crates/*/; do
    sum=0
    while IFS= read -r f; do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        sum=$((sum + n))
    done < <(find "$crate"src "$crate"benches -name '*.rs' 2>/dev/null | sort)
    printf '%6d  %s (crate)\n' "$sum" "${crate%/}"
    grand=$((grand + sum))
done
printf '%6d  workspace\n' "$grand"
