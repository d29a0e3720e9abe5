#!/usr/bin/env sh
# Code lines and panic sites per crate and in total: the two tracked numbers
# of ROADMAP aims 2 and 3.
#
# Counts `crates/*/src` and the root `src`, each file cut at its first
# column-0 `#[cfg(test)]` (unit tests sit at the end of a file and are not
# counted). A file that is only compiled for tests — the target of a
# `mod name;` declared right under `#[cfg(test)]` — is not counted at all.
# Lines are those that are not blank and do not start with `//`. Panic sites
# are the occurrences of `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(` on any line, comments included.
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

# "<lines> <panic sites>" of the files under $1.
count() {
    find "$1" -name '*.rs' -exec awk -v skip="$test_only" '
        BEGIN { k = split(skip, s, "\n"); for (i = 1; i <= k; i++) test_only[s[i]] = 1 }
        FNR == 1 { tests = FILENAME in test_only }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests { next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        { p += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
        END { print n + 0, p + 0 }
    ' {} + | awk '{ n += $1; p += $2 } END { print n + 0, p + 0 }'
}

printf '%-12s %6s %6s\n' crate lines panics
lines=0
panics=0
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=cornflakes
    set -- $(count "$dir")
    printf '%-12s %6d %6d\n' "$name" "$1" "$2"
    lines=$((lines + $1))
    panics=$((panics + $2))
done
printf '%-12s %6d %6d\n' total "$lines" "$panics"
