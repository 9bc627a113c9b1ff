#!/bin/sh
# Sorts every `fn` of the workspace's shipped non-test code by what links
# it, reading the symbol tables of the executables themselves:
#
#   linked by a shipped executable  the four `elsm-bench` bins (`run_all`,
#                                   `perf_gate`, `trace_report`,
#                                   `verify_breakdown`) or `benchmark/`'s
#                                   binary `elsm-benchmark`;
#   linked only by tests or examples  a test binary (`cargo test
#                                   --workspace --no-run`) or an example;
#   linked by nothing               no executable at all.
#
# Shipped non-test code is what `scripts/nontest-lines.sh` counts: every
# file under `crates/*/src` and `src/`, up to its first line whose code is
# `#[cfg(test)]` (`scripts/test-code.sh`). It
# builds in debug, where the linker keeps a function only if some code
# reaches it, and reads exactly the executables cargo reports through
# `--message-format=json` for `cargo test --workspace --no-run`, `cargo
# build --workspace --bins --examples` and `benchmark/`'s binary; it never
# globs `target/`, whose stale hashed binaries mislead. Each executable's
# `nm -C --defined-only` names are matched to the source by path
# (`crate::module::Type::fn`, a nested `fn` under its parent's path).
#
# Never listed: trait-impl methods (a symbol names the trait, not where the
# impl is written), `const fn`s (they may run only at compile time),
# `#[inline(always)]` fns (they may leave no symbol), fns without a body,
# and files declared under `#[cfg(test)]` such as `lsm-store`'s
# `version_tests.rs`. Trait default methods are listed under the trait's
# name. A count line follows the three lists.
#
# A fourth section counts the trusted code base (the `trusted code base`
# row of `scripts/nontest-lines.sh`: `elsm-enclave`, `lsm-boundary`,
# `merkle`, `elsm-crypto`) by what the enclave runs. It reads a call graph
# off each shipped executable (`objdump -d` and `objdump -R`; see
# `reached_from_enclave`), roots it at every `elsm_enclave` function and
# counts a function whose address reached code takes as reached. It prints,
# per TCB crate, the listed fns a shipped executable links against those
# reached; every listed TCB fn that nothing reaches, with its lines (doc
# comment and attributes included; a nested fn counts in its parent); and
# the `trusted code base (call graph)` row: the crate row less those
# lines. Exits non-zero when cargo reports no executable. Run from
# anywhere:
#
#     sh scripts/unreached.sh
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cargo test --workspace --no-run --offline -q --message-format=json >"$work/cargo.json"
cargo build --workspace --bins --examples --offline -q --message-format=json >>"$work/cargo.json"
cargo build --manifest-path benchmark/Cargo.toml --bins --offline -q --message-format=json \
    >>"$work/cargo.json"

# One `<role> <path>` line per reported executable: `shipped` for a binary
# target built outside the test profile, `other` for the rest.
awk '
    /"reason":"compiler-artifact"/ && match($0, /"executable":"[^"]*"/) {
        path = substr($0, RSTART + 14, RLENGTH - 15)
        role = "other"
        if (index($0, "\"kind\":[\"bin\"]") && match($0, /"profile":\{[^}]*\}/) &&
            index(substr($0, RSTART, RLENGTH), "\"test\":false")) role = "shipped"
        print role, path
    }' "$work/cargo.json" | sort -u >"$work/exes"
if [ ! -s "$work/exes" ]; then
    echo "unreached.sh: cargo reported no executable" >&2
    exit 1
fi

# Each role's linked function paths, normalised to `crate::module::Type::fn`:
# closures fold into their fn, `<impl path::Type>` becomes `Type`, generic
# arguments go, and trait-impl methods (`<X as Trait>::fn`) are dropped.
# Reads `nm -C` lines.
normalize='
    function strip_generics(s,    out, depth, i, c) {
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "<") depth++
            else if (c == ">") depth--
            else if (depth == 0) out = out c
        }
        return out
    }
    $2 ~ /^[TtWw]$/ {
        name = $0
        sub(/^[^ ]+ [^ ]+ /, "", name)
        if (substr(name, 1, 1) == "<") next
        sub(/::\{\{.*$/, "", name)
        while ((i = index(name, "<impl "))) {
            depth = 0
            for (j = i; j <= length(name); j++) {
                c = substr(name, j, 1)
                if (c == "<") depth++
                else if (c == ">" && --depth == 0) break
            }
            self = substr(name, i + 6, j - i - 6)
            if (self ~ / for /) next
            self = strip_generics(self)
            sub(/^.*::/, "", self)
            name = substr(name, 1, i - 1) self substr(name, j + 1)
        }
        print strip_generics(name)
    }'
for role in shipped other; do
    awk -v role="$role" '$1 == role { print $2 }' "$work/exes" | while read -r exe; do
        nm -C --defined-only "$exe"
    done | awk "$normalize" | sort -u >"$work/$role.syms"
done

# Prints the `nm -C` line of every function of executable `$1` that an
# `elsm_enclave` function reaches. The graph's nodes are the functions and
# the data objects the code points into; its edges are read off `objdump
# -d` (direct calls and jumps, and every RIP-relative address it resolves:
# a function whose address is taken, a vtable, a GOT slot) and off the
# `R_X86_64_RELATIVE` relocations (the pointers stored in a vtable, a GOT
# slot or a static). A data object runs from an address that code or data
# points to, a data symbol or a section start up to the next one; a GOT
# object is its one 8-byte slot. Every address is 16 hex digits, compared
# as a string.
reached_from_enclave() {
    cg=$work/cg
    nm -C --defined-only "$1" >"$cg.nm"
    objdump -d --no-show-raw-insn "$1" | awk '
        function pad(h) { return substr("0000000000000000", 1, 16 - length(h)) h }
        /^[0-9a-f]+ <.*>:$/ { fn = $1; next }
        fn == "" { next }
        /\t(call|jmp)[ \t]+[0-9a-f]+ </ {
            t = $0; sub(/^.*\t(call|jmp)[ \t]+/, "", t); sub(/ .*$/, "", t)
            print "C", fn, pad(t)
        }
        / # [0-9a-f]+ </ {
            t = $0; sub(/^.* # /, "", t); sub(/ .*$/, "", t)
            print "C", fn, pad(t)
        }' | sort -u >"$cg.code"
    objdump -R "$1" | awk '$2 == "R_X86_64_RELATIVE" {
        t = $3; sub(/^\*ABS\*\+0x/, "", t); print "R", $1, t }' >"$cg.rel"
    readelf -S -W "$1" | awk '{ sub(/^ *\[ *[0-9]+\] */, "") }
        $1 ~ /^\./ && $3 ~ /^[0-9a-f]+$/ && $3 !~ /^0+$/ { print "A", $3, $1 }' >"$cg.sec"
    # `O <object> <target>` for each pointer stored in a data object.
    {
        awk '{ print "B", $3 }' "$cg.code" "$cg.rel"
        awk '$2 ~ /^[dDrRbBV]$/ { print "B", $1 }' "$cg.nm"
        cat "$cg.sec" "$cg.rel"
    } | LC_ALL=C sort -k2,2 -k1,1 | awk '
        $1 == "A" { section = $3; object = $2; next }
        $1 == "B" { object = $2; next }
        section == ".got" && $2 != object { next }
        { print "O", object, $3 }' >"$cg.data"
    awk -v nm="$cg.nm" '
        BEGIN {
            while ((getline line < nm) > 0) {
                split(line, w, " ")
                if (w[2] !~ /^[TtWw]$/) continue
                fn[w[1]] = (w[1] in fn) ? fn[w[1]] "\n" line : line
                if (line ~ /^[^ ]+ [^ ]+ <?elsm_enclave::/ && !(w[1] in seen)) {
                    seen[w[1]] = 1; queue[++n] = w[1]
                }
            }
        }
        { edges[$2] = edges[$2] " " $3 }
        END {
            for (i = 1; i <= n; i++) {
                m = split(edges[queue[i]], to, " ")
                for (j = 1; j <= m; j++)
                    if (!(to[j] in seen)) { seen[to[j]] = 1; queue[++n] = to[j] }
            }
            for (a in seen) if (a in fn) print fn[a]
        }' "$cg.code" "$cg.data"
}
awk '$1 == "shipped" { print $2 }' "$work/exes" | while read -r exe; do
    reached_from_enclave "$exe"
done | awk "$normalize" | sort -u >"$work/reached.syms"

# The source files and the test-only module files, as nontest-lines.sh
# reads them.
. scripts/test-code.sh

# Every listed fn as `<file>:<line> <path>`: a small lexer blanks comments,
# strings and char literals, then each `{` opens a frame (mod, impl, trait
# impl, trait, fn or plain block) classified by the text since the last
# `;`, `{` or `}`.
for f in $files; do
    case " $(echo $test_only) " in *" $f "*) continue ;; esac
    case "$f" in
    src/*) crate=elsm_repro ;;
    crates/*/src/bin/*) crate=$(basename "$f" .rs) ;;
    *)
        crate=$(awk '
            /^\[/ { section = $0 }
            /^name *=/ {
                v = $0; sub(/^name *= *"/, "", v); sub(/".*$/, "", v); gsub(/-/, "_", v)
                if (section == "[lib]") lib = v; else if (section == "[package]") pkg = v
            }
            END { print (lib != "" ? lib : pkg) }' "${f%%/src/*}/Cargo.toml")
        ;;
    esac
    module=${f#*/src/}
    case "$f" in crates/*/src/bin/*) module= ;; esac
    module=${module%.rs}
    case "$module" in lib | main) module= ;; */mod) module=${module%/mod} ;; esac
    awk -v f="$f" -v cfg="$cfg_test" -v root="$crate${module:+::}$(echo "$module" | sed 's#/#::#g')" '
        function classify(text,    t, w, i, depth, c, self) {
            if (match(text, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(text, RSTART, RLENGTH); sub(/^.*fn[ \t]+/, "", w)
                skip = (text ~ /(^|[^A-Za-z0-9_])const[ \t]+(unsafe[ \t]+)?fn[ \t]/ || text ~ /#\[inline\(always\)\]/)
                return "fn " w " " skip
            }
            if (match(text, /(^|[^A-Za-z0-9_])mod[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(text, RSTART, RLENGTH); sub(/^.*mod[ \t]+/, "", w)
                return "mod " w
            }
            if (match(text, /(^|[^A-Za-z0-9_])trait[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(text, RSTART, RLENGTH); sub(/^.*trait[ \t]+/, "", w)
                return "trait " w
            }
            if (match(text, /(^|[^A-Za-z0-9_])impl([ \t<]|$)/)) {
                t = substr(text, RSTART + RLENGTH - 1)
                sub(/[ \t]where[ \t].*$/, "", t)
                # Drop the impl generics, then every other generic argument.
                self = ""; depth = 0
                for (i = 1; i <= length(t); i++) {
                    c = substr(t, i, 1)
                    if (c == "<") depth++
                    else if (c == ">") depth--
                    else if (depth == 0) self = self c
                }
                if (self ~ /(^|[ \t])for[ \t]/) return "traitimpl"
                gsub(/[&\t ]|mut[ \t]/, "", self)
                sub(/^.*::/, "", self)
                return "impl " self
            }
            return "block"
        }
        function path(    p, i) {
            p = root
            for (i = 1; i <= sp; i++) if (name[i] != "") p = p "::" name[i]
            return p
        }
        $0 ~ cfg && !incomment && !instring { exit }
        # A fn spans its doc comment and attributes, its signature and body.
        /^[ \t]*(\/\/|#\[)/ { if (!inlead) lead = FNR; inlead = 1; first = lead }
        !/^[ \t]*(\/\/|#\[)/ && !/^[ \t]*$/ { if (!inlead) first = FNR; inlead = 0 }
        {
            line = $0; code = ""; n = length(line); i = 1
            while (i <= n) {
                c = substr(line, i, 1)
                if (incomment) {
                    if (substr(line, i, 2) == "*/") { incomment--; i += 2 }
                    else if (substr(line, i, 2) == "/*") { incomment++; i += 2 }
                    else i++
                    continue
                }
                if (instring) {
                    if (rawhashes >= 0) {
                        if (c == "\"" && substr(line, i + 1, rawhashes) == hashes) {
                            instring = 0; i += 1 + rawhashes
                        } else i++
                    } else if (c == "\\") i += 2
                    else if (c == "\"") { instring = 0; i++ }
                    else i++
                    continue
                }
                if (substr(line, i, 2) == "//") break
                if (substr(line, i, 2) == "/*") { incomment = 1; i += 2; continue }
                prevc = i > 1 ? substr(line, i - 1, 1) : " "
                if (c == "r" && prevc !~ /[A-Za-z0-9_]/ && match(substr(line, i + 1), /^#*"/)) {
                    rawhashes = RLENGTH - 1; hashes = substr(line, i + 1, rawhashes)
                    instring = 1; code = code "\"\""; i += RLENGTH + 1
                    continue
                }
                if (c == "\"") { instring = 1; rawhashes = -1; code = code "\"\""; i++; continue }
                if (c == "'"'"'") {
                    if (substr(line, i + 1, 1) == "\\") {
                        j = index(substr(line, i + 2), "'"'"'")
                        i += j + 2; code = code "0"; continue
                    }
                    if (substr(line, i + 2, 1) == "'"'"'") { i += 3; code = code "0"; continue }
                    if (substr(line, i + 1, 1) > "\177") {
                        j = index(substr(line, i + 1, 5), "'"'"'")
                        if (j) { i += j + 1; code = code "0"; continue }
                    }
                }
                code = code c; i++
            }
            while (code != "") {
                d = ""
                if (match(code, /[{};]/)) {
                    text = text " " substr(code, 1, RSTART - 1)
                    d = substr(code, RSTART, 1); code = substr(code, RSTART + 1)
                } else {
                    text = text " " code; code = ""
                }
                if (!fnline && text ~ /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_]/) {
                    fnline = FNR; fnfirst = first
                }
                if (d == "") break
                # A `;` inside brackets (`[u8; 32]`) ends no item.
                if (d == ";" && gsub(/[[(]/, "&", text) > gsub(/[])]/, "&", text)) {
                    text = text ";"
                    continue
                }
                if (d == "{") {
                    split(classify(text), w, " ")
                    sp++; name[sp] = ""
                    excluded[sp] = sp > 1 && excluded[sp - 1]
                    if (w[1] == "traitimpl") excluded[sp] = 1
                    else if (w[1] != "block") name[sp] = w[2]
                    listed[sp] = 0
                    if (w[1] == "fn" && !excluded[sp] && !w[3]) {
                        listed[sp] = ++nout
                        out[nout] = sprintf("%s:%d %s", f, fnline, path())
                        from[nout] = fnfirst
                    }
                } else if (d == "}" && sp > 0) {
                    # A nested fn lies inside its parent: its lines count there.
                    if (listed[sp]) {
                        for (k = 1; k < sp; k++) if (listed[k]) break
                        if (k == sp) lines[listed[sp]] = FNR - from[listed[sp]] + 1
                    }
                    sp--
                }
                text = ""; fnline = 0
            }
        }
        END { for (k = 1; k <= nout; k++) print out[k], lines[k] + 0 }' "$f"
done >"$work/fns"

awk -v shipped="$work/shipped.syms" -v other="$work/other.syms" '
    BEGIN {
        while ((getline s < shipped) > 0) in_shipped[s] = 1
        while ((getline s < other) > 0) in_other[s] = 1
    }
    {
        row = $1 "  " $2
        if ($2 in in_shipped) { a[++na] = row }
        else if ($2 in in_other) { b[++nb] = row }
        else { c[++nc] = row }
    }
    END {
        printf "== linked by a shipped executable (%d)\n", na
        for (i = 1; i <= na; i++) print a[i]
        printf "\n== linked only by tests or examples (%d)\n", nb
        for (i = 1; i <= nb; i++) print b[i]
        printf "\n== linked by nothing (%d)\n", nc
        for (i = 1; i <= nc; i++) print c[i]
        printf "\n%d fns: %d linked by a shipped executable, %d only by tests or examples, %d by nothing\n",
            na + nb + nc, na, nb, nc
    }' "$work/fns"
n=$(wc -l <"$work/exes")
ns=$(grep -c '^shipped ' "$work/exes" || true)
printf 'read %d executables, %d of them shipped\n' "$n" "$ns"

# The trusted code base by call graph: the crate row of nontest-lines.sh,
# less the lines of each of those crates' listed fns that no `elsm_enclave`
# function reaches in any shipped executable (a fn no shipped executable
# links included). Trait-impl methods and the other unlisted fns stay in.
row=$(sh scripts/nontest-lines.sh | awk '/ trusted code base / { print }')
awk -v shipped="$work/shipped.syms" -v reached="$work/reached.syms" -v row="$row" '
    BEGIN {
        while ((getline s < shipped) > 0) in_shipped[s] = 1
        while ((getline s < reached) > 0) in_reached[s] = 1
        split(row, w, " "); total = w[1]
        dirs = row; sub(/^.*\(/, "", dirs); sub(/\).*$/, "", dirs)
        split(dirs, d, " "); for (i in d) tcb[d[i]] = 1
    }
    {
        dir = $1; sub(/\/src\/.*$/, "", dir)
        if (!(dir in tcb)) next
        crate = $2; sub(/::.*$/, "", crate)
        if (!(crate in linked)) { order[++nc] = crate; linked[crate] = 0; hit[crate] = 0 }
        if ($2 in in_shipped) linked[crate]++
        if ($2 in in_reached) { hit[crate]++; next }
        miss[++nm] = sprintf("%s  %s  %d lines%s", $1, $2, $3, $2 in in_shipped ? "" : ", linked by no shipped executable")
        lines += $3
    }
    END {
        printf "\n== trusted code base by call graph: reached from an `elsm_enclave` fn in a shipped executable\n"
        printf "%7s %7s  %s\n", "linked", "reached", "crate"
        for (i = 1; i <= nc; i++) printf "%7d %7d  %s\n", linked[order[i]], hit[order[i]], order[i]
        printf "\n== fns of the trusted code base the enclave does not reach (%d, %d lines)\n", nm, lines
        for (i = 1; i <= nm; i++) print miss[i]
        printf "\n%7d  trusted code base (crates)\n%7d  trusted code base (call graph): less %d lines of %d fns the enclave does not reach\n",
            total, total - lines, lines, nm
    }' "$work/fns"
