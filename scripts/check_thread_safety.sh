#!/usr/bin/env bash
# Enforce the compile-time concurrency contracts: build the whole tree with
# Clang so the thread safety analysis (-Wthread-safety, promoted to an error
# by the top-level CMakeLists under Clang) checks every VERIQC_GUARDED_BY /
# VERIQC_REQUIRES annotation. Any lock-discipline violation — a guarded
# field touched without its mutex, a REQUIRES function called unlocked, an
# unbalanced acquire/release — fails this build.
#
# Under GCC the annotation macros expand to nothing, so this gate needs a
# Clang toolchain; it skips with a notice when none is installed (the CI
# static-analysis job provides one). The slab-reference lint
# (scripts/check_slab_refs.py) runs afterwards either way: it is plain
# Python with no toolchain needs, and its --self-test is a tier-1 ctest.
#
# Usage: scripts/check_thread_safety.sh [build-dir]
#   build-dir: CMake binary dir for the Clang build (default: build-tsa)
set -euo pipefail

cd "$(dirname "$0")/.."

builddir="${1:-build-tsa}"

if command -v clang++ >/dev/null 2>&1; then
  echo "check_thread_safety: building with $(clang++ --version | head -n1)"
  cmake -B "$builddir" -S . \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$builddir" -j"$(nproc)"
  echo "check_thread_safety: clean (-Werror=thread-safety)"
else
  echo "check_thread_safety: clang++ not found, skipping the analysis build" >&2
fi

python3 scripts/check_slab_refs.py
python3 scripts/check_slab_refs.py --self-test >/dev/null
echo "check_thread_safety: slab-reference lint clean (self-test sharp)"
