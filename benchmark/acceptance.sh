#!/usr/bin/env bash
# Runs every workload once untraced and once traced at one seed and prints one
# JSON line per run, the input of `run.sh --compare`. The human-readable
# reports go to standard error. Run from the repository root:
#
#	bash benchmark/acceptance.sh 101 > benchmark/results/seed-101.jsonl 2> benchmark/results/seed-101.log
#	bash benchmark/run.sh --compare benchmark/results/seed-101.jsonl benchmark/results/seed-202.jsonl
set -euo pipefail

seed=${1:?usage: acceptance.sh SEED [SECONDS]}
seconds=${2:-25}
for w in read download churn revoke; do
	for trace in 0 1; do
		line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
		printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$w" "$seed" "$trace" "$line"
	done
done
