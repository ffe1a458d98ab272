#!/usr/bin/env bash
# Runs one complete set: every workload timed on seeds 1..N (default
# 10) and traced once on seed 1, appending every run's record to the
# given file. Two such files are what --compare takes.
#
#   bash benchmark/runset.sh benchmark/out/a.jsonl [N]
set -euo pipefail
out="${1:?usage: runset.sh OUT.jsonl [SEEDS]}"
seeds="${2:-10}"
run="$(dirname "${BASH_SOURCE[0]}")/run.sh"
mkdir -p "$(dirname "$out")"
for w in survey_paper sweep_warm event_storm rib_scale; do
  for seed in $(seq 1 "$seeds"); do
    bash "$run" --workload "$w" --seed "$seed" --trace 0 --out "$out" | tail -n 1
  done
  bash "$run" --workload "$w" --seed 1 --trace 1 --out "$out" | tail -n 1
done
