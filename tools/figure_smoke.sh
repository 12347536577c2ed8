#!/usr/bin/env bash
# Runs every figure and extension harness at RDFMR_THREADS=1 and 4 and
# diffs the two outputs. Each harness exits with its count of failed
# paper-shape checks, and its table prints only simulated quantities and
# answers, so a nonzero exit or any byte of diff fails the script. Each
# run writes to a file (no pipes), so every exit code counts.
#
#   tools/figure_smoke.sh BUILD_DIR
#
# BUILD_DIR is a configured and built tree (a Release one keeps the 22
# runs to about a minute); the outputs go to BUILD_DIR/figures/.
set -euo pipefail

build_dir="${1:?usage: tools/figure_smoke.sh BUILD_DIR}"
harnesses=(
  fig03_star_groupings
  fig09a_repl2_failures
  fig09b_repl1_times
  fig09c_vary_bound_times
  fig10_vary_bound_writes
  fig11_unnest_strategies
  fig12_bsbm1m
  fig13_bio2rdf
  fig14_dbpedia_btc
  ext_aggregation
  ext_multiquery
)
out_dir="$build_dir/figures"
mkdir -p "$out_dir"

for harness in "${harnesses[@]}"; do
  for threads in 1 4; do
    RDFMR_THREADS=$threads "$build_dir/bench/$harness" \
      > "$out_dir/$harness-t$threads.txt"
  done
  cat "$out_dir/$harness-t1.txt"
  diff "$out_dir/$harness-t1.txt" "$out_dir/$harness-t4.txt"
  echo "== $harness: 0 failed checks, same bytes at 1 and 4 threads"
done
