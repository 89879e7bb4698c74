#!/usr/bin/env bash
# Runs the driver's protocol into one results file: every workload, untraced,
# once per seed, each run in a fresh process, workloads interleaved so that
# slow drift of the host falls on all of them alike.
#
#   bash benchmark/aa.sh <results.json> [first_seed] [runs]
#
# Two files from the same commit, put through `run.sh compare`, are an A/A.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: aa.sh <results.json> [first_seed] [runs]}"
first="${2:-1}"
runs="${3:-10}"
for ((seed = first; seed < first + runs; seed++)); do
  for w in power_warm power_cold bulk_load trickle_mixed; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds 15 --trace 0 -out "$out" | tail -n 1
  done
done
