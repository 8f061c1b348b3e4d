#!/usr/bin/env bash
# Quick check of the benchmark for CI: an untraced and a traced run of
# every workload at the --quick scale, then a self-compare of their
# result files (outputs and exact counters must agree between the
# untraced and the traced run).  Takes about a minute.
#
#   bash bench/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=bench/results/smoke
rm -rf "$out"
python3 bench/run.py --quick --seconds 0 --out-dir "$out"
python3 bench/run.py --quick --seconds 0 --trace 1 --out-dir "$out"
python3 bench/compare.py "$out"/*.json -- "$out"/*.json
