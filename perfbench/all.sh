#!/bin/sh
# Every workload with tracing off: prints each end-to-end metric with its
# unit, and runs every check. Usage: sh perfbench/all.sh [seed] [seconds]
set -e
for workload in pair_figures pool_figures closed_forms; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-20}" --trace 0
done
