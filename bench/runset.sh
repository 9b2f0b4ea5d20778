#!/usr/bin/env bash
# Produces one run set: every workload once per seed, measured
# (--trace 0) unless a fourth argument names the trace modes. Each run's
# full record is appended to the given JSON-lines file, which is what
# `sjbench --compare A.jsonl B.jsonl` reads. Prints one line per run:
# workload, seed, trace mode, elapsed seconds, result.
#
#   bash bench/runset.sh bench/results/setA.jsonl 1 10     # seeds 1..10, measured
#   bash bench/runset.sh bench/results/setA.jsonl 1 5 1    # seeds 1..5, traced
set -euo pipefail
out=$1 first=$2 count=$3 traces=${4:-0}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for seed in $(seq "$first" $((first + count - 1))); do
  for w in $workloads; do
    for t in $traces; do
      start=$SECONDS
      last=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --record "$out" | tail -1)
      echo "$w seed $seed trace $t: $((SECONDS - start)) s  ${last:0:60}"
    done
  done
done
