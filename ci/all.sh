#!/usr/bin/env bash
# The whole local gate in one command, in the order a CI pipeline runs it:
#
#   1. tier-1: default configure + build + full ctest suite, then the same
#      suite again with LMS_SCHED_WORKERS=1 — every TaskScheduler that
#      sizes itself from the environment collapses to one worker, so every
#      periodic task must also be correct when all of them share one lane
#   2. tier-1 again with -DLMS_LOCK_STATS=ON: the contention-instrumented
#      wrapper layout (lms::core::sync lockstats) must pass the same suite,
#      and the instrumented bench_lock_stats must run (smoke budget)
#   3. static analysis: warnings-as-errors library build, and — when clang is
#      installed — thread-safety-analysis build, negative-compile probe and
#      clang-tidy (ci/static_analysis.sh)
#   4. bench smoke: every bench_* binary builds and runs with a tiny budget
#      (ci/bench_smoke.sh)
#
# The sanitizer gate (ci/sanitize.sh: tsan+rank-checks / asan / ubsan) is NOT
# chained here — three extra full builds make it a separate, longer job.
#
# Usage: ci/all.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== ci/all 1/4: tier-1 build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"
echo "=== ci/all 1/4 (bis): tier-1 tests with LMS_SCHED_WORKERS=1 ==="
LMS_SCHED_WORKERS=1 ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== ci/all 2/4: tier-1 with -DLMS_LOCK_STATS=ON ==="
cmake -B build-lockstats -S . -DLMS_LOCK_STATS=ON >/dev/null
cmake --build build-lockstats -j "$(nproc)"
ctest --test-dir build-lockstats --output-on-failure -j "$(nproc)"
LMS_BENCH_SMOKE=1 build-lockstats/bench/bench_lock_stats >/dev/null

echo "=== ci/all 3/4: static analysis ==="
ci/static_analysis.sh

echo "=== ci/all 4/4: bench smoke ==="
ci/bench_smoke.sh

echo "ci/all: every gate clean"
