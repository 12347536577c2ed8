#!/usr/bin/env bash
# Local replay of .github/workflows/ci.yml for machines without act or a
# GitHub runner. Runs the same steps as each CI job, in the same order,
# and reports a per-job PASS/FAIL/SKIP summary; exits with the first
# failing job's code.
#
#   tools/ci_dryrun.sh [job ...]
#
# Jobs: build-debug build-release asan tsan ubsan fuzz perfbench format
# bench
# (default: all of them). Tools CI installs but this host may lack are
# degraded gracefully: no ccache => plain compile, no clang-format =>
# the format job is SKIPped (CI itself still enforces it).
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

jobs=("$@")
if [[ ${#jobs[@]} -eq 0 ]]; then
  jobs=(build-debug build-release asan tsan ubsan fuzz perfbench format bench)
fi

launcher_args=()
if command -v ccache > /dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

build_and_test() {
  local build_type="$1"
  local build_dir="build-ci-$(echo "$build_type" | tr '[:upper:]' '[:lower:]')"
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE="$build_type" \
    -DRDFMR_WERROR=ON "${launcher_args[@]}" || return $?
  cmake --build "$build_dir" -j "$(nproc)" || return $?
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" || return $?
  # Release smoke-runs the operator microbenchmarks (no number is gated)
  # and the aggregation, Fig. 3 grouping and multi-query experiments, the
  # paper-scale Fig. 13 harness and the Fig. 11 unnesting strategies (exit
  # code = failed shape checks); each experiment's table, simulated
  # quantities only, must print the same bytes at 1 and 4 threads.
  [[ "$build_type" != Release ]] || {
    "./$build_dir/bench/micro_operators" --benchmark_min_time=0.01 &&
      RDFMR_THREADS=1 "./$build_dir/bench/ext_aggregation" \
        > "$build_dir/ext_aggregation-t1.txt" &&
      RDFMR_THREADS=4 "./$build_dir/bench/ext_aggregation" \
        > "$build_dir/ext_aggregation-t4.txt" &&
      diff "$build_dir/ext_aggregation-t1.txt" \
        "$build_dir/ext_aggregation-t4.txt" &&
      RDFMR_THREADS=1 "./$build_dir/bench/fig03_star_groupings" \
        > "$build_dir/fig03-t1.txt" &&
      RDFMR_THREADS=4 "./$build_dir/bench/fig03_star_groupings" \
        > "$build_dir/fig03-t4.txt" &&
      diff "$build_dir/fig03-t1.txt" "$build_dir/fig03-t4.txt" &&
      RDFMR_THREADS=1 "./$build_dir/bench/ext_multiquery" \
        > "$build_dir/ext_multiquery-t1.txt" &&
      RDFMR_THREADS=4 "./$build_dir/bench/ext_multiquery" \
        > "$build_dir/ext_multiquery-t4.txt" &&
      diff "$build_dir/ext_multiquery-t1.txt" \
        "$build_dir/ext_multiquery-t4.txt" &&
      RDFMR_THREADS=1 "./$build_dir/bench/fig13_bio2rdf" \
        > "$build_dir/fig13-t1.txt" &&
      RDFMR_THREADS=4 "./$build_dir/bench/fig13_bio2rdf" \
        > "$build_dir/fig13-t4.txt" &&
      cat "$build_dir/fig13-t1.txt" &&
      diff "$build_dir/fig13-t1.txt" "$build_dir/fig13-t4.txt" &&
      RDFMR_THREADS=1 "./$build_dir/bench/fig11_unnest_strategies" \
        > "$build_dir/fig11-t1.txt" &&
      RDFMR_THREADS=4 "./$build_dir/bench/fig11_unnest_strategies" \
        > "$build_dir/fig11-t4.txt" &&
      cat "$build_dir/fig11-t1.txt" &&
      diff "$build_dir/fig11-t1.txt" "$build_dir/fig11-t4.txt"
  }
}

run_fuzz() {
  local build_dir="build-ci-release"
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
    "${launcher_args[@]}" || return $?
  cmake --build "$build_dir" -j "$(nproc)" --target rdfmr_fuzz || return $?
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 200 --quiet || return $?
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 200 --faults --quiet \
    || return $?
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 50 --inject-bug --quiet \
    || return $?
  # engine=auto sweep: the chooser's pick must match a byte-identical
  # explicit run, and the sweep must exercise >= 2 distinct engines.
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 200 --auto --quiet \
    || return $?
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 200 --format --quiet \
    || return $?
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 200 --service --quiet \
    || return $?
  cmake --build "$build_dir" -j "$(nproc)" --target rdfmr || return $?
  mkdir -p traces
  "./$build_dir/tools/rdfmr_fuzz" --seed 1 --cases 5 --quiet \
    --trace-dir traces || return $?
  "./$build_dir/tools/rdfmr" generate --family bsbm --scale 200 \
    --out bsbm-ci.nt || return $?
  "./$build_dir/tools/rdfmr" run --query B1 --data bsbm-ci.nt \
    --engine lazy --trace traces/run-b1-lazy.json
}

run_format() {
  python3 tools/metrics_lint.py src bench tools tests \
    --prom docs/metrics-scrape.prom || return $?
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "clang-format not installed; CI will still enforce formatting"
    return 77  # SKIP
  fi
  git ls-files 'src/**/*.cc' 'src/**/*.h' 'tests/*.cc' 'bench/*.cc' \
    'bench/*.h' 'tools/*.cc' 'examples/*.cc' \
    | xargs clang-format --dry-run -Werror
}

run_bench() {
  local build_dir="build-ci-release"
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
    "${launcher_args[@]}" || return $?
  cmake --build "$build_dir" -j "$(nproc)" --target bench_service \
    fig12_bsbm1m bench_index bench_net bench_auto || return $?
  # The benches write BENCH_*.json into the working directory, exactly as
  # the CI job does before uploading them as artifacts.
  "./$build_dir/bench/bench_service" || return $?
  "./$build_dir/bench/fig12_bsbm1m" --small || return $?
  # bench_index hard-fails on its own when mmap-open is not >= 10x faster
  # than parse-open, independent of the baseline-relative gate below.
  "./$build_dir/bench/bench_index" || return $?
  # bench_net hard-fails on its own when pipelining loses to serial
  # request/response on either transport.
  "./$build_dir/bench/bench_net" || return $?
  # bench_auto hard-fails on its own when engine=auto's modeled cost lands
  # more than 5% above the best fixed engine on any testbed query.
  "./$build_dir/bench/bench_auto" || return $?
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_service.json \
    --current BENCH_service.json \
    --field qps --direction higher --tolerance 0.20 || return $?
  # Separate gate over the derived warm-result scaling ratios: qps(N)/qps(1)
  # must not fall back toward the pre-sharding inverse scaling.
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_service.json \
    --current BENCH_service.json \
    --cells-key scaling \
    --field ratio --direction higher --tolerance 0.20 || return $?
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_fig12.json \
    --current BENCH_fig12.json \
    --field modeled_seconds --direction lower --tolerance 0.20 || return $?
  # The storage bench's gateable numbers are ratios (parse-open/mmap-open
  # and the decoded/mapped scan speedups): same host, same process =>
  # machine speed cancels out.
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_index.json \
    --current BENCH_index.json \
    --cells-key gates \
    --field speedup --direction higher --tolerance 0.50 || return $?
  # Warm mapped-scan throughput: loose absolute gate catching collapses
  # the ratio rows would cancel out.
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_index.json \
    --current BENCH_index.json \
    --cells-key scan \
    --field qps --direction higher --tolerance 0.60 || return $?
  # Transport cells are scheduler-sensitive (client threads and the event
  # loop share cores), so the absolute qps gate is loose; the pipelining
  # amortization ratios divide out machine speed and get the tight gate.
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_net.json \
    --current BENCH_net.json \
    --field qps --direction higher --tolerance 0.40 || return $?
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_net.json \
    --current BENCH_net.json \
    --cells-key ratios \
    --field ratio --direction higher --tolerance 0.25 || return $?
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_auto.json \
    --current BENCH_auto.json \
    --field modeled_seconds --direction lower --tolerance 0.20 || return $?
  # Chooser-quality ratios (auto modeled / best fixed modeled) are
  # deterministic — modeled costs carry no wall time — so the gate is tight.
  python3 tools/bench_compare.py \
    --baseline bench/baselines/BENCH_auto.json \
    --current BENCH_auto.json \
    --cells-key ratios \
    --field ratio --direction lower --tolerance 0.05
}

run_job() {
  case "$1" in
    build-debug) build_and_test Debug ;;
    build-release) build_and_test Release ;;
    asan) tools/check.sh address --quick ;;
    tsan) tools/check.sh thread --quick ;;
    ubsan) tools/check.sh undefined --quick ;;
    fuzz) run_fuzz ;;
    # perfbench compiles against src/ APIs; its self-test builds it and
    # smoke-runs every workload.
    perfbench) python3 perfbench/test_perfbench.py ;;
    format) run_format ;;
    bench) run_bench ;;
    *) echo "unknown job: $1" >&2; return 2 ;;
  esac
}

declare -A results
first_rc=0
for job in "${jobs[@]}"; do
  echo
  echo "===== ci job: ${job} ====="
  if run_job "$job"; then
    results[$job]=PASS
  else
    rc=$?
    if [[ $rc -eq 77 ]]; then
      results[$job]=SKIP
    else
      results[$job]="FAIL($rc)"
      if [[ "$first_rc" == 0 ]]; then first_rc=$rc; fi
    fi
  fi
done

echo
echo "===== ci dry-run summary ====="
for job in "${jobs[@]}"; do
  printf '%-14s %s\n' "$job" "${results[$job]}"
done
exit "$first_rc"
