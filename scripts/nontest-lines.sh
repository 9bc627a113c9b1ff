#!/bin/sh
# Prints the workspace's non-test lines, per crate and in total: the lines
# of every source file under `crates/*/src` and `src/` that come before the
# file's first `#[cfg(test)]`. A file that is a test-only module (declared
# as `#[cfg(test)] mod name;`) counts nothing; integration tests, examples,
# `benchmark/` and `vendor/` are not counted. Run from anywhere:
#
#     sh scripts/nontest-lines.sh
set -eu
cd "$(dirname "$0")/.."

files=$(find crates/*/src src -name '*.rs' | sort)

# The module files declared under `#[cfg(test)]`: `name.rs` beside a
# `lib.rs`, `main.rs` or `mod.rs`, else in the declaring file's directory.
test_only=$(for f in $files; do
    awk -v f="$f" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ &&
        $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
            dir = f; sub(/\/[^\/]*$/, "", dir)
            base = f; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
            if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
            print dir "/" name ".rs"
        }
        { prev = $0 }' "$f"
done)

total=0
for dir in crates/*/src src; do
    n=0
    for f in $files; do
        case "$f" in "$dir"/*) ;; *) continue ;; esac
        case " $(echo $test_only) " in *" $f "*) continue ;; esac
        n=$((n + $(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")))
    done
    total=$((total + n))
    printf '%7d  %s\n' "$n" "${dir%/src}"
done
printf '%7d  total\n' "$total"
