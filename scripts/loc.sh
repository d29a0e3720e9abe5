#!/usr/bin/env sh
# Code lines per crate and in total: the tracked "net lines of code" number
# (ROADMAP aim 2).
#
# Counts `crates/*/src` and the root `src`: lines that are not blank and do
# not start with `//`, each file cut at its first column-0 `#[cfg(test)]`
# (unit tests sit at the end of a file and are not counted).
set -eu

cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=cornflakes
    n=$(count "$dir")
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
