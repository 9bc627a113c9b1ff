#!/bin/sh
# Prints the workspace's non-test lines, per crate and in total: the lines
# of every source file under `crates/*/src` and `src/` that come before the
# file's first line whose code is `#[cfg(test)]` (a doc comment naming it
# does not end the count; `scripts/test-code.sh`). A file that is a
# test-only module (declared as `#[cfg(test)] mod name;`) counts nothing;
# integration tests, examples, `benchmark/` and `vendor/` are not counted.
#
# The `trusted code base` row sums the crates whose code runs inside the
# enclave: `elsm-enclave` (crates/enclave), the `lsm-boundary` types it
# reads the host through, `merkle` and `elsm-crypto`. `sgx-sim` is not in
# it: it simulates the hardware, which a real deployment does not ship as
# code. The `elsm-telemetry` counters the enclave bumps are linked into it
# too, but they are instrumentation, not part of what the enclave checks,
# so they are not counted either. The row counts whole crates; `sh
# scripts/unreached.sh` prints the part of it the enclave's call graph
# reaches, and names every fn it leaves out. Run from anywhere:
#
#     sh scripts/nontest-lines.sh
set -eu
cd "$(dirname "$0")/.."

. scripts/test-code.sh

trusted_crates="crates/enclave crates/lsm-boundary crates/merkle crates/crypto"
total=0
trusted=0
for dir in crates/*/src src; do
    n=0
    for f in $files; do
        case "$f" in "$dir"/*) ;; *) continue ;; esac
        case " $(echo $test_only) " in *" $f "*) continue ;; esac
        n=$((n + $(awk -v cfg="$cfg_test" '$0 ~ cfg { exit } { n++ } END { print n + 0 }' "$f")))
    done
    total=$((total + n))
    case " $trusted_crates " in *" ${dir%/src} "*) trusted=$((trusted + n)) ;; esac
    printf '%7d  %s\n' "$n" "${dir%/src}"
done
printf '%7d  total\n' "$total"
printf '%7d  trusted code base (%s)\n' "$trusted" "$trusted_crates"
