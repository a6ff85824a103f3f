#!/usr/bin/env bash
# Deterministic fault-injection sweep under AddressSanitizer + UBSan with
# LEAK DETECTION ON (unlike check_sanitized.sh, which trades leak checking
# for speed). The sweep drives check_qasm through every injection point it
# can reach — count-based and probabilistic plans — and asserts the
# failure-containment contract: no crash, no leak, and never a wrong
# definitive verdict on a known-equivalent pair. It then runs the dedicated
# fault test suite under the same sanitizers, which also asserts the one
# point whose firing a check_qasm run report cannot show: check.report.
#
# Exit-code contract per sweep case (inputs are equivalent by construction):
#   0 = equivalent            OK (fault absorbed or retried away)
#   2 = undecided             OK (engine degraded gracefully)
#   3 = clean error report    OK only for report-layer faults (the verdict
#                             was already printed; serialization failed)
#   1 = NOT equivalent        FAIL — an injected fault flipped the verdict
#   anything else (>=128, sanitizer aborts, ...) FAIL — a crash or a leak
#
# Usage: scripts/fault_sweep.sh [--quick]
#   --quick: only the count-based plans (skip the probabilistic seeds)
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== build (asan-ubsan preset) =="
# The preset ships with examples off; the sweep drives check_qasm, so flip
# them on for this build tree (harmless for the plain sanitizer suite).
cmake --preset asan-ubsan -DVERIQC_BUILD_EXAMPLES=ON >/dev/null
cmake --build --preset asan-ubsan -j"$(nproc)" \
  --target check_qasm test_fault_injection >/dev/null

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export LSAN_OPTIONS="exitcode=23"

bin=build-asan/examples/check_qasm
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Three known-equivalent pairs, each sized to reach a different hot layer:
#   qft.qasm    4-qubit QFT — slab growth, GC, compute-table, ZX drain
#   ladder.qasm 3000 distinct-angle rz gates — grows the real table past its
#               4096 initial slots and rebuilds unique-table buckets
#   deep.qasm   6-qubit layered circuit — enough DD nodes for bucket rebuilds
cat > "$workdir/qft.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cu1(pi/2) q[1],q[0];
cu1(pi/4) q[2],q[0];
cu1(pi/8) q[3],q[0];
h q[1];
cu1(pi/2) q[2],q[1];
cu1(pi/4) q[3],q[1];
h q[2];
cu1(pi/2) q[3],q[2];
h q[3];
EOF

{
  printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
  for i in $(seq 0 2999); do
    printf 'rz(0.1+0.001*%d) q[0];\n' "$i"
  done
} > "$workdir/ladder.qasm"

{
  printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[6];\n'
  for i in $(seq 0 199); do
    printf 'rz(0.05+0.013*%d) q[%d];\n' "$i" "$((i % 6))"
    printf 'h q[%d];\n' "$(((i + 2) % 6))"
    printf 'cx q[%d],q[%d];\n' "$((i % 6))" "$(((i + 1) % 6))"
  done
} > "$workdir/deep.qasm"

# Each case: "<label>|<circuit>|<method>|<plan>|<allowed exits>|<fired point
# or ->".
# Every injection point appears at least once with its firing asserted from
# the run report; retries are enabled so the degradation ladder gets to
# convert engine failures back into verdicts. One point is asserted by the
# fault test suite (FaultSweepTest) instead: check.report kills the report
# itself.
cases=(
  "slab-grow|qft|dd|dd.slab_grow:after=5:times=2|0 2|dd.slab_grow"
  "unique-rebuild|deep|dd|dd.unique_rebuild:times=1|0 2|dd.unique_rebuild"
  "real-grow|ladder|dd|dd.real_grow:times=1|0 2|dd.real_grow"
  "compute-alloc|qft|dd|dd.compute_alloc:times=2|0 2|dd.compute_alloc"
  "gc|qft|dd|dd.gc:times=1:throw=resource_limit|0 2|dd.gc"
  "zx-drain|qft|zx|zx.drain:times=1|0 2|zx.drain"
  "pool-task|qft|both|pool.task_start:times=2|0 2|pool.task_start"
  "report|qft|both|check.report:times=1|0 2 3|-"
  "multi-point|qft|dd|dd.slab_grow:after=10:times=1,dd.gc:times=1|0 2|dd.slab_grow"
)
if [[ $quick -eq 0 ]]; then
  for seed in 7 41 1337; do
    cases+=(
      "p-slab-s$seed|qft|dd|dd.slab_grow:p=0.01:seed=$seed|0 2|-"
      "p-gc-s$seed|qft|dd|dd.gc:p=0.05:seed=$seed:throw=resource_limit|0 2|-"
      "p-pool-s$seed|qft|both|pool.task_start:p=0.2:seed=$seed|0 2|-"
    )
  done
fi

fail=0
for case in "${cases[@]}"; do
  IFS='|' read -r label circuit method plan allowed firing <<< "$case"
  set +e
  VERIQC_FAULT="$plan" "$bin" "$workdir/$circuit.qasm" "$workdir/$circuit.qasm" \
    --method "$method" --retries 2 --sims 4 --timeout 60 \
    --json "$workdir/$label.json" \
    > "$workdir/$label.log" 2>&1
  rc=$?
  set -e
  ok=0
  for code in $allowed; do
    [[ $rc -eq $code ]] && ok=1
  done
  if [[ $ok -eq 1 ]]; then
    echo "fault-sweep: $label rc=$rc OK"
  else
    echo "fault-sweep: $label rc=$rc FAIL (plan=$plan, allowed: $allowed)"
    sed 's/^/    /' "$workdir/$label.log"
    fail=1
  fi
  if [[ "$firing" != "-" ]]; then
    if ! grep -Eq "\"fault/$firing\.fired\": [1-9]" "$workdir/$label.json"; then
      echo "fault-sweep: $label never fired $firing FAIL"
      fail=1
    fi
  fi
  # A report that was written must still validate against the schema.
  if [[ -s "$workdir/$label.json" ]]; then
    if ! "$bin" --validate-report "$workdir/$label.json" >/dev/null; then
      echo "fault-sweep: $label produced an invalid report FAIL"
      fail=1
    fi
  fi
done

echo "== fault test suite (ASan+UBSan, leaks on) =="
if ! build-asan/tests/test_fault_injection >/dev/null; then
  echo "fault-sweep: test_fault_injection FAIL"
  fail=1
fi

if [[ $fail -ne 0 ]]; then
  echo "fault-sweep: FAILED"
  exit 1
fi

# One-line coverage summary: how many cases ran, how many distinct injection
# points had their firing asserted, and which mode produced the numbers.
points=$(printf '%s\n' "${cases[@]}" | cut -d'|' -f6 | grep -v '^-$' | sort -u | wc -l)
mode=full; [[ $quick -eq 1 ]] && mode=quick
echo "fault-sweep: OK ($mode mode: ${#cases[@]} cases, $points injection points fired)"
