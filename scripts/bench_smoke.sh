#!/usr/bin/env bash
# Build Release, run the DD-kernel and ZX-engine microbenchmarks and write
# their JSON (timings + counters) to BENCH_dd_kernel.json / BENCH_zx.json at
# the repo root, so successive PRs accumulate a perf trajectory to compare
# against. Every JSON is stamped with a top-level "library_build_type" key
# (queried from the dd_micro binary, which compiles in NDEBUG and
# CMAKE_BUILD_TYPE); the run aborts when the library is not an optimized
# Release build, so debug-mode numbers can never be recorded as a baseline.
# When GNU time is available each JSON also records the
# benchmark process's peak resident set size (peak_rss_kb), giving the
# resource-governor work a memory baseline to compare budgets against.
#
# The smoke run also exercises the observability layer end-to-end: a
# check_qasm invocation emits a veriqc-report/v1 run record to
# BENCH_check_report.json, which is then schema-validated via
# check_qasm --validate-report (a failing schema fails the bench).
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="BENCH_dd_kernel.json"
OUT_ZX="BENCH_zx.json"
OUT_REPORT="BENCH_check_report.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target dd_micro zx_micro check_qasm >/dev/null

# Refuse to record numbers from a non-optimized library. The binary reports
# the build type it was actually compiled as (NDEBUG + CMAKE_BUILD_TYPE), so
# a stale or misconfigured build tree is caught here, not in the baseline.
BUILD_TYPE="$("./$BUILD_DIR/bench/dd_micro" --veriqc_build_type)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "error: dd_micro library build type is '$BUILD_TYPE', expected" \
    "'Release' — refusing to record benchmark numbers" >&2
  exit 1
fi

# Run one benchmark binary, writing its JSON to $2, and inject the process's
# peak RSS (in kB) as a top-level "peak_rss_kb" key. Exact via GNU time when
# installed; otherwise approximated by sampling the kernel's VmHWM high-water
# mark while the benchmark runs (monotone, so the last sample is the peak up
# to the sampling interval). If neither source works the JSON is unchanged.
run_bench() {
  local bin="$1" out="$2"
  shift 2
  local rss=""
  if [[ -x /usr/bin/time ]] &&
    /usr/bin/time -v true >/dev/null 2>&1; then
    local timelog
    timelog="$(mktemp)"
    /usr/bin/time -v "$bin" "$@" >"$out" 2>"$timelog"
    rss="$(awk '/Maximum resident set size/ {print $NF}' "$timelog")"
    rm -f "$timelog"
  elif [[ -d /proc/self ]]; then
    "$bin" "$@" >"$out" &
    local pid=$!
    local sample
    while kill -0 "$pid" 2>/dev/null; do
      sample="$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null)" \
        || true
      [[ -n "$sample" ]] && rss="$sample"
      sleep 0.2
    done
    wait "$pid"
  else
    "$bin" "$@" >"$out"
  fi
  if [[ -n "$rss" ]]; then
    sed -i "0,/{/s//{\n  \"peak_rss_kb\": $rss,/" "$out"
  fi
  sed -i "0,/{/s//{\n  \"library_build_type\": \"$BUILD_TYPE\",/" "$out"
}

# Three repetitions so the regression gate compares medians, not a single
# possibly-noisy sample.
run_bench "./$BUILD_DIR/bench/dd_micro" "$OUT" \
  --benchmark_format=json \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=3 \
  --benchmark_filter='BM_MakeGateDD|BM_MakeControlledGateDD|BM_BuildUnitary|BM_AlternatingGroverCheck'

run_bench "./$BUILD_DIR/bench/zx_micro" "$OUT_ZX" \
  --benchmark_format=json \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=3 \
  --benchmark_filter='BM_GroverReduction|BM_CompiledReduction|BM_OptimizedReduction|BM_CliffordReductionLarge|BM_EquivalenceReduction|BM_QftReduction'

# --- end-to-end run report ---------------------------------------------------
# Check a GHZ preparation against an equivalent variant padded with
# self-cancelling gates (exactly equivalent, so the run exercises the DD
# engines to a definitive verdict) and record the structured report.
QASM_DIR="$(mktemp -d)"
trap 'rm -rf "$QASM_DIR"' EXIT
cat >"$QASM_DIR/a.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
EOF
cat >"$QASM_DIR/b.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
x q[2];
x q[2];
cx q[0],q[1];
h q[1];
h q[1];
cx q[1],q[2];
EOF
"./$BUILD_DIR/examples/check_qasm" "$QASM_DIR/a.qasm" "$QASM_DIR/b.qasm" \
  --trace --json "$OUT_REPORT" >/dev/null
sed -i "0,/{/s//{\n  \"library_build_type\": \"$BUILD_TYPE\",/" "$OUT_REPORT"
"./$BUILD_DIR/examples/check_qasm" --validate-report "$OUT_REPORT"

echo "Wrote $OUT, $OUT_ZX and $OUT_REPORT"
echo
echo "=== cache-stats digest ==="
# Per-benchmark wall time plus the cache counters embedded in the JSON.
grep -E '"(name|real_time|gate_cache_hit_rate|compute_hit_rate|peak_rss_kb|library_build_type|store_occupancy|store_probe_length)"' \
  "$OUT" | sed -e 's/^[[:space:]]*//' -e 's/,$//'
echo
echo "=== zx digest ==="
grep -E '"(name|real_time|rewrites|candidates|spider_candidates|peak_rss_kb)"' \
  "$OUT_ZX" | sed -e 's/^[[:space:]]*//' -e 's/,$//'
