#!/usr/bin/env sh
# Code lines, panic sites and config fields per crate and in total: the
# tracked numbers of ROADMAP aims 2 and 3.
#
# Counts `crates/*/src` and the root `src`, each file cut at its first
# column-0 `#[cfg(test)]` (unit tests sit at the end of a file and are not
# counted). A file that is only compiled for tests — the target of a
# `mod name;` declared right under `#[cfg(test)]` — is not counted at all.
# Lines are those that are not blank and do not start with `//`. Panic sites
# are the occurrences of `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(` on any line, comments included. Config fields are the
# `pub` fields of every `pub struct …Config`: the settable values a caller
# can turn.
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

# "<lines> <panic sites> <config fields>" of the files under $1.
count() {
    find "$1" -name '*.rs' -exec awk -v skip="$test_only" '
        BEGIN { k = split(skip, s, "\n"); for (i = 1; i <= k; i++) test_only[s[i]] = 1 }
        FNR == 1 { tests = FILENAME in test_only; config = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests { next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        config && /^[[:space:]]*[}]/ { config = 0 }
        config && /^[[:space:]]*pub [A-Za-z_][A-Za-z0-9_]*:/ { f++ }
        /^[[:space:]]*pub struct [A-Za-z0-9_]*Config[[:space:]]*[{]/ { config = 1 }
        { p += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
        END { print n + 0, p + 0, f + 0 }
    ' {} + | awk '{ n += $1; p += $2; f += $3 } END { print n + 0, p + 0, f + 0 }'
}

printf '%-12s %6s %6s %6s\n' crate lines panics config
lines=0
panics=0
fields=0
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=cornflakes
    set -- $(count "$dir")
    printf '%-12s %6d %6d %6d\n' "$name" "$1" "$2" "$3"
    lines=$((lines + $1))
    panics=$((panics + $2))
    fields=$((fields + $3))
done
printf '%-12s %6d %6d %6d\n' total "$lines" "$panics" "$fields"
