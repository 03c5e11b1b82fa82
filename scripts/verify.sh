#!/usr/bin/env bash
# Tier-1 verification: what CI should invoke.
#
#   scripts/verify.sh            # thread-source check, plain build + full
#                                # ctest suite
#   scripts/verify.sh --tsan     # additionally build with -fsanitize=thread
#                                # and run the concurrency-heavy tests
#   scripts/verify.sh --asan     # AddressSanitizer variant of the same
#
# The sanitizer pass uses a separate build directory so the plain build
# stays incremental.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Fault-injection schedules run from a fixed seed so CI failures reproduce
# locally with the same command; override via IDB_FAULT_SEED to explore.
export IDB_FAULT_SEED="${IDB_FAULT_SEED:-20260808}"

# One thread source: worker threads come only from util/worker_pool; the
# only other std::thread owners are the degrader's and the maintenance
# daemon's long-lived coordinator threads.
check_thread_sources() {
  local stray
  stray="$(grep -rn 'std::thread' src | grep -v -E \
    '^src/(util/worker_pool|degrade/degradation_engine|maintain/maintenance_daemon)\.(h|cc):' \
    || true)"
  if [ -n "$stray" ]; then
    echo "verify: std::thread outside the worker pool and the coordinators:" >&2
    echo "$stray" >&2
    exit 1
  fi
}

run_plain() {
  check_thread_sources
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

# Sanitized pass: the tests that drive real thread interleavings, plus the
# fault-injection suite — injected I/O errors exercise the rarely-taken
# unwind paths where use-after-free and lock bugs hide. The rest of the
# suite is single-threaded and adds only build time.
SANITIZE_TESTS="concurrency_stress_test|parallel_scan_test|pushdown_test|partition_test|degradation_engine_test|write_batch_test|wal_stream_test|checkpoint_fuzzy_test|maintenance_test|fault_injection_test|morsel_test|service_test"

run_sanitized() {
  local kind="$1"
  local dir="build-$kind"
  cmake -B "$dir" -S . -DINSTANTDB_SANITIZE="$kind" \
    -DINSTANTDB_BUILD_BENCHMARKS=OFF -DINSTANTDB_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j 1 -R "$SANITIZE_TESTS"
}

case "${1:-}" in
  --tsan) run_plain && run_sanitized thread ;;
  --asan) run_plain && run_sanitized address ;;
  "") run_plain ;;
  *) echo "usage: $0 [--tsan|--asan]" >&2; exit 2 ;;
esac
echo "verify: OK"
