#!/usr/bin/env bash
# Entry point of the veriqc end-to-end benchmark (bench/e2e/README.md).
# Configures the top-level tree in Release under build-rel/bench-e2e (library
# only, with bench/e2e attached by attach.cmake), builds veriqc_e2e, then:
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--repeat R]
#       every workload untraced (R times), then once traced; the runs of one
#       invocation form a result set under build-rel/bench-e2e/results/
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of standard output is the JSON result
#   bench/e2e/run.sh --smoke
#       the e2e_smoke test: one instance per workload, verdicts and metric
#       names checked
#
# Paths are relative to the repository root, where the script runs.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
if [[ ! -f CMakeLists.txt || ! -f src/CMakeLists.txt || ! -f BENCHMARK.json ]]; then
  echo "run.sh: no veriqc sources or BENCHMARK.json under $(pwd)" >&2
  exit 2
fi

workload="" seed=1 seconds="" trace=0 repeat=1 smoke=0
while (($#)); do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --repeat) repeat=$2; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build=build-rel/bench-e2e
# Build output goes to standard error: standard output carries results.
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DVERIQC_BUILD_TESTS=OFF -DVERIQC_BUILD_BENCHMARKS=OFF \
    -DVERIQC_BUILD_EXAMPLES=OFF \
    -DCMAKE_PROJECT_veriqc_INCLUDE="$PWD/bench/e2e/attach.cmake" >&2
fi
cmake --build "$build" --target veriqc_e2e -j "$(nproc)" >&2

if ((smoke)); then
  exec ctest --test-dir "$build" --output-on-failure -R e2e_smoke
fi

if [[ -z $seconds ]]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
commit=unknown
if [[ -e .git ]]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

# run_one WORKLOAD TRACE OUT_PREFIX
run_one() {
  "$build/veriqc_e2e" --workload "$1" --seed "$seed" \
    --seconds "$seconds" --trace "$2" --work-dir "$build/work" \
    --out "$3.json" --trace-out "$3.trace.json" --commit "$commit"
}

mkdir -p "$build/results"
if [[ -n $workload ]]; then
  run_one "$workload" "$trace" "$build/results/$workload-seed$seed-trace$trace"
  exit
fi

set_dir=$build/results/set-$(date +%Y%m%d-%H%M%S)
mkdir -p "$set_dir"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for ((r = 1; r <= repeat; r++)); do
  for w in $workloads; do
    run_one "$w" 0 "$set_dir/$w-trace0-run$r" || status=1
  done
done
for w in $workloads; do
  run_one "$w" 1 "$set_dir/$w-trace1" || status=1
done
# The same set as one document, {"runs": [...]}.
{
  printf '{"runs": [\n'
  sep=""
  for f in "$set_dir"/*.json; do
    [[ $f == *.trace.json ]] && continue
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  printf ']}\n'
} > "$set_dir.json"
echo "result set: $set_dir ($set_dir.json)"
exit $status
