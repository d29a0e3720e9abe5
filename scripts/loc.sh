#!/usr/bin/env sh
# Code lines per crate and in total: the tracked "net lines of code" number
# (ROADMAP aim 2).
#
# Counts `crates/*/src` and the root `src`: lines that are not blank and do
# not start with `//`, each file cut at its first column-0 `#[cfg(test)]`
# (unit tests sit at the end of a file and are not counted). A file that is
# only compiled for tests — the target of a `mod name;` declared right under
# `#[cfg(test)]` — is not counted at all.
set -eu

cd "$(dirname "$0")/.."

# The files behind `#[cfg(test)] mod name;`, one path a line: `name.rs` next
# to a `lib.rs` / `main.rs` / `mod.rs`, else in the directory named after
# the declaring file.
test_only=$(find crates/*/src src -name '*.rs' -exec awk '
    cfg && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {
        name = $2; sub(/;.*/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
            sub(/\.rs$/, "", base); dir = dir "/" base
        }
        print dir "/" name ".rs"
    }
    { cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
' {} +)

count() {
    find "$1" -name '*.rs' -exec awk -v skip="$test_only" '
        BEGIN { k = split(skip, s, "\n"); for (i = 1; i <= k; i++) test_only[s[i]] = 1 }
        FNR == 1 { tests = FILENAME in test_only }
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
