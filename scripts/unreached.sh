#!/bin/sh
# Lists the workspace's public items that no shipped code reaches: every
# `pub` fn, struct, enum, trait, const or type declared under `crates/*/src`
# (before its file's first `#[cfg(test)]`) whose name, as a whole word,
# appears in no other file under `crates/*/src`, `src/` or `benchmark/src`.
# Uses under `tests/` and `examples/` do not count; uses by `benchmark/`
# do. A row ends in ` (nowhere)` when no other `.rs` file under `crates/`,
# `src/`, `tests/`, `examples/` or `benchmark/src` names the item either,
# so not even a test or an example reaches it. The last line counts both.
# A mention is a use only in code: the files are searched with their
# comments (`//`, `///`, `//!`, to the end of the line), their `pub use`
# re-exports (up to the closing `;`) and their `mod name;` lines removed,
# so a doc comment or a re-export does not keep an item off the list.
# It is grep-based, so a name shared with an unrelated item hides the
# item (`new`, `len`, ...): the list undercounts, it never lists a used
# item. Run from anywhere:
#
#     sh scripts/unreached.sh
set -eu
cd "$(dirname "$0")/.."

shipped=$(find crates/*/src src benchmark/src -name '*.rs' | sort)
anywhere=$(find crates src tests examples benchmark/src -name '*.rs' | sort)

# Code-only copies of every searched file, at the same relative paths.
code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
for f in $anywhere; do
    mkdir -p "$code/$(dirname "$f")"
    awk '
        reexport { if (index($0, ";")) reexport = 0; next }
        /^[[:space:]]*pub(\([a-z]+\))? use / { if (!index($0, ";")) reexport = 1; next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { next }
        { sub(/\/\/.*$/, ""); print }' "$f" >"$code/$f"
done

listed=0
nowhere=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    others=$(printf "$code/%s\n" $shipped | grep -vx "$code/$f")
    all_others=$(printf "$code/%s\n" $anywhere | grep -vx "$code/$f")
    rows=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        match($0, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/) {
            decl = substr($0, RSTART, RLENGTH)
            n = split(decl, words, /[[:space:]]+/)
            print FNR, words[n - 1], words[n]
        }' "$f")
    [ -n "$rows" ] || continue
    while read -r line kind name; do
        # shellcheck disable=SC2086
        if grep -qw -- "$name" $others; then
            continue
        fi
        listed=$((listed + 1))
        tag=
        # shellcheck disable=SC2086
        if ! grep -qw -- "$name" $all_others; then
            tag=' (nowhere)'
            nowhere=$((nowhere + 1))
        fi
        printf '%s:%s  %s %s%s\n' "$f" "$line" "$kind" "$name" "$tag"
    done <<EOF
$rows
EOF
done
printf '%d items unreached by shipped code, %d of them named nowhere else\n' "$listed" "$nowhere"
