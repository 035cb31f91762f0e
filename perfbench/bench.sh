#!/usr/bin/env bash
# Runs the repository benchmark (BENCHMARK.json at the repo root) on all
# four workloads, one process per workload.
#
#   perfbench/bench.sh --all [--seed S] [--seconds N] [--trace]
#       full runs; each run's output is also saved to
#       perfbench/out/<workload>-seed<S>.txt, the input bench-diff reads
#   perfbench/bench.sh --smoke
#       tiny inputs on every workload (a keep-alive check, not a
#       measurement); fails unless every run reports correct outputs
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: perfbench/bench.sh --all [--seed S] [--seconds N] [--trace] | --smoke" >&2
  exit 2
}

mode="" seed=1 trace=0 seconds=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --all | --smoke) mode="$1" ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds=(--seconds "$2"); shift ;;
    --trace) trace=1 ;;
    *) usage ;;
  esac
  shift
done
[[ -n "$mode" ]] || usage

cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin bench
bench="${CARGO_TARGET_DIR:-perfbench/target}/release/bench"
mkdir -p perfbench/out

for w in paper_cache golden_ref noc_spmd fleet_mix; do
  if [[ "$mode" == "--smoke" ]]; then
    out="$("$bench" --workload "$w" --seed "$seed" --smoke)"
    echo "$out" | tail -n 1
    grep -q '"correct":true' <<<"$(echo "$out" | tail -n 1)" || {
      echo "bench --smoke: $w reported wrong outputs" >&2
      exit 1
    }
  else
    "$bench" --workload "$w" --seed "$seed" --trace "$trace" "${seconds[@]}" |
      tee "perfbench/out/$w-seed$seed.txt"
  fi
done
