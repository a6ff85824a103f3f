#!/usr/bin/env bash
# Run the thread-stress suites under ThreadSanitizer (the tsan CMake preset).
# tests/test_threading.cpp is the main workload: the parallel manager's
# racing engines, the multi-threaded simulation worker pool (including
# oversubscription and mid-flight cancellation) and several concurrent
# managers at once. tests/test_task_pool.cpp drives the task pool's shared
# queue, the wakeups of sleeping workers and waiters, cancellation and
# exception containment directly. tests/test_fault_injection.cpp adds the
# degradation-ladder retry rounds, the soft watchdog's heartbeat/trip
# handshake and fault-poisoned task groups, all of which cross thread
# boundaries. tests/test_serve.cpp runs the veriqcd JobService: concurrent
# submitting clients, shutdown cancelling in-flight jobs, and racing
# shutdown() callers (the double-join regression). The pool's two wakeup
# regressions (EnqueueWakesASleepingWorker, WaiterIsWokenByAWorkersCompletion)
# run here too. Any TSan report fails the run.
#
# Usage: scripts/check_tsan.sh [ctest-regex]
#   ctest-regex: optional -R filter (default: all thread-stress suites)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)" \
  --target test_threading test_task_pool test_fault_injection test_serve \
  >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir build-tsan --output-on-failure \
  -R "${1:-ThreadingStressTest|TaskPoolTest|FaultSweepTest|DegradationLadderTest|TaskPoolFaultTest|WatchdogTest|JobServiceTest}"
