#!/usr/bin/env bash
# A/A check: two sets of N runs of the same binary per workload, the sets
# alternating run by run, so that anything the two sets disagree on is
# noise by construction.
#
#   benchmark/aa.sh N            # every run gets another seed (as the driver does)
#   AA_SEED=42 benchmark/aa.sh N # every run gets seed 42 (model-clock metrics must then agree to the digit)
#
# Prints, per workload x end-to-end metric, both set medians, their
# relative gap in the worsening direction, the spread (IQR / median) of
# each set and of all 2N runs together, and the bound; exits 1 if a gap
# exceeds its bound or, for N >= 4 (quartiles of fewer values say
# nothing), a set's spread (setup_s excepted, as in the driver) does.
set -euo pipefail

n="${1:?usage: benchmark/aa.sh N}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$target/release/elsm-benchmark"
out="benchmark/out/aa"
rm -rf "$out"
mkdir -p "$out"

workloads=(c_read a_update e_scan b_cluster)
seed=0
for i in $(seq 1 "$n"); do
  for set in a b; do
    for w in "${workloads[@]}"; do
      seed=$((seed + 1))
      "$bin" --workload "$w" --seed "${AA_SEED:-$seed}" --trace 0 | tail -n 1 >>"$out/$w.$set.jsonl"
    done
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
failed = False
print("| workload/metric | unit | set A median | set B median | gap | spread A | spread B | spread A+B | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|")


def spread_of(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (q[2] - q[0]) / statistics.median(values)


for w in workloads:
    sets = {}
    for s in "ab":
        runs = [json.loads(line) for line in open(f"{out}/{w}.{s}.jsonl")]
        assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed its oracle"
        sets[s] = runs
    for name, m in spec.items():
        values = {s: [r["metrics"][name]["value"] for r in runs] for s, runs in sets.items()}
        med = {s: statistics.median(v) for s, v in values.items()}
        spread = {s: spread_of(v) for s, v in values.items()}
        pooled = spread_of(values["a"] + values["b"])
        # Worsening of B against A and of A against B; the larger counts.
        sign = 1 if m["better"] == "lower" else -1
        gap = max(sign * (med["b"] - med["a"]) / med["a"], sign * (med["a"] - med["b"]) / med["b"])
        judge_spread = name != "setup_s" and len(values["a"]) >= 4
        bad = gap > m["bound"] or (judge_spread and max(spread.values()) > m["bound"])
        failed |= bad
        print(f"| {w}/{name} | {m['unit']} | {med['a']:.6g} | {med['b']:.6g} | {gap:+.4f} | "
              f"{spread['a']:.4f} | {spread['b']:.4f} | {pooled:.4f} | {m['bound']} | {'FAIL' if bad else 'ok'} |")
sys.exit(1 if failed else 0)
EOF
