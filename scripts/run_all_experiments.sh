#!/usr/bin/env bash
# Runs every paper table/figure harness plus the extension benches, then
# the post-seed tool suite (checker sweeps, serving, cluster), collecting
# stdout, report JSON and the CSV series under results/. Host speed is
# perfbench's job (python3 perfbench/run.py), not this script's.
#
# Usage: scripts/run_all_experiments.sh [build-dir] [results-dir]
set -euo pipefail
BUILD=${1:-build}
RESULTS=${2:-results}
BUILD_ABS=$(cd "$BUILD" && pwd)
mkdir -p "$RESULTS"
cd "$RESULTS"

# Paper + extension harnesses. The build dir also holds CMake scaffolding
# (CMakeFiles/, Makefile, ...), so only run actual executables.
for b in "$BUILD_ABS"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  "$b" | tee "$(basename "$b").txt"
  echo
done

# Post-seed tools, so one sweep leaves every subsystem's report here too.
echo "== fluidicl_check: safety + race sweeps =="
"$BUILD_ABS"/tools/fluidicl_check | tee fluidicl_check.txt
"$BUILD_ABS"/tools/fluidicl_check --race-fixtures \
  | tee fluidicl_check_race_fixtures.txt
echo

echo "== fluidicl_serve: one run per policy =="
for policy in fifo affine corun; do
  "$BUILD_ABS"/tools/fluidicl_serve --streams=8 --policy="$policy" \
    --arrival=poisson:200 --duration=0.1 --seed=1 \
    --stats-json="serve_$policy.json" | tee "serve_$policy.txt"
  echo
done

echo "== fluidicl_cluster: 4-pair scale-out run =="
"$BUILD_ABS"/tools/fluidicl_cluster --workers=4 --placement=least \
  --steal=on --streams=16 --arrival=poisson:600 --duration=0.1 --seed=7 \
  --stats-json=cluster_w4.json --jobs-csv=cluster_w4.csv | tee cluster_w4.txt
echo

echo "all experiment outputs and CSVs are in $RESULTS/"
echo "optional: python3 ../scripts/plot_results.py ."
