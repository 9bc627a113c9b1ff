# What `nontest-lines.sh` and `unreached.sh` count as test code; both
# source this file from the repository root.
#
# `cfg_test` matches a line whose code is the `#[cfg(test)]` attribute: a
# file's non-test code ends at the first such line. A doc comment or a
# string that names the attribute does not match. The pattern spells the
# brackets and parentheses as bracket expressions, so it reaches `awk -v`
# with no backslash to be read as an escape.
cfg_test='^[[:space:]]*#[[]cfg[(]test[)][]]'

# Every source file under `crates/*/src` and `src/`.
files=$(find crates/*/src src -name '*.rs' | sort)

# The module files declared under `#[cfg(test)]`: `name.rs` beside a
# `lib.rs`, `main.rs` or `mod.rs`, else in the declaring file's directory.
test_only=$(for f in $files; do
    awk -v f="$f" -v cfg="$cfg_test" '
        prev ~ (cfg "[[:space:]]*$") &&
        $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
            dir = f; sub(/\/[^\/]*$/, "", dir)
            base = f; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
            if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
            print dir "/" name ".rs"
        }
        { prev = $0 }' "$f"
done)
