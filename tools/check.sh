#!/usr/bin/env bash
# Tier-1 gate: eight stages, strictest first.
#
#   1. asan-ubsan — full test suite under AddressSanitizer + UBSan
#                   (includes the `kernels` backend-equivalence suite); a
#                   UBSan report, float-cast-overflow included, fails the
#                   test that triggered it.
#   2. tsan       — the concurrency surface (thread pool, sweep engine,
#                   latency histograms + span profiler, serve shards +
#                   seqlock stats, the WAL writer's flusher pipeline and
#                   RunDurableSimulation on top of it) under
#                   ThreadSanitizer.
#   3. bench      — release bench_sweep reproduced against the committed
#                   BENCH_sweep.json baseline via bench_check.
#   4. fuzz       — comx_fuzz --smoke --batch --crash-check-every 5: 200
#                   seeded scenarios through every matcher with the
#                   constraint/differential oracles on, each fault-free one
#                   also dispatched in micro-batch windows, and every 5th
#                   one also killed at a seeded WAL/checkpoint byte and
#                   recovered bit-exact (40 crash-recovery checks, where
#                   --smoke alone runs 13; stage 7's crash_matrix covers
#                   the same loop from its own points; see TESTING.md).
#   5. kernels    — the release ctest KernelChecksumsReproduceBaseline:
#                   bench_kernels --smoke reproduced against the committed
#                   BENCH_kernels.json baseline (the kernel layer's
#                   cross-backend checksums) via bench_check.
#   6. perf       — the perf-report pipeline end to end: bench_sweep --quick
#                   with --perf-out, then perf_report renders the span
#                   profile, emits collapsed stacks, and --check validates
#                   both outputs against the profile schema.
#   7. crash      — crash_matrix --smoke under ASan: 24 seeded kill points
#                   (every 4th at a group-commit boundary) recovered
#                   bit-exact; then crash_matrix --boundaries: 100 points,
#                   each at a group-commit boundary (or, for a run with
#                   fewer than two commits, a seeded byte offset).
#   8. serve      — comx_loadgen --smoke against a spawned comx_serve under
#                   ASan with a per-shard WAL (protocol, drain totals, clean
#                   QUIT exit, span profile validated by perf_report
#                   --check), then a
#                   release closed-loop replay reproduced against the
#                   committed BENCH_serve.json baseline via bench_check.
#
# Usage: tools/check.sh [extra ctest args...]
#   tools/check.sh              # everything
#   tools/check.sh -L fault     # pass-through filter for the asan stage
# Set COMX_CHECK_SKIP_TSAN=1 / COMX_CHECK_SKIP_BENCH=1 /
# COMX_CHECK_SKIP_FUZZ=1 / COMX_CHECK_SKIP_KERNELS=1 /
# COMX_CHECK_SKIP_PERF=1 / COMX_CHECK_SKIP_CRASH=1 /
# COMX_CHECK_SKIP_SERVE=1 to skip a stage.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Every stage writes its scratch files here; one trap removes them all.
TMP_DIR="$(mktemp -d /tmp/comx_check.XXXXXX)"
trap 'rm -rf "${TMP_DIR}"' EXIT

echo "== stage 1/8: asan-ubsan test suite =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"
ctest --preset asan-ubsan -j "${JOBS}" "$@"

if [[ "${COMX_CHECK_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== stage 2/8: thread pool + sweep engine + obs + serve under TSan =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target comx_util_test comx_exp_test comx_obs_test comx_serve_test \
    comx_recovery_test
  ./build-tsan/tests/comx_util_test \
    --gtest_filter='ThreadPoolTest.*:ParallelForTest.*'
  ./build-tsan/tests/comx_exp_test
  ./build-tsan/tests/comx_obs_test \
    --gtest_filter='*Concurrent*:*Threads*'
  ./build-tsan/tests/comx_serve_test
  ./build-tsan/tests/comx_recovery_test \
    --gtest_filter='WalWriterTest.*:DurableSimTest.*'
else
  echo "== stage 2/8: skipped (COMX_CHECK_SKIP_TSAN=1) =="
fi

if [[ "${COMX_CHECK_SKIP_BENCH:-0}" != "1" ]]; then
  echo "== stage 3/8: BENCH baseline reproduction =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_sweep bench_check
  SWEEP_OUT="${TMP_DIR}/bench_sweep.json"
  ./build/bench/bench_sweep --jobs "${JOBS}" --out "${SWEEP_OUT}"
  ./build/tools/bench_check --baseline BENCH_sweep.json \
    --current "${SWEEP_OUT}"
else
  echo "== stage 3/8: skipped (COMX_CHECK_SKIP_BENCH=1) =="
fi

if [[ "${COMX_CHECK_SKIP_FUZZ:-0}" != "1" ]]; then
  echo "== stage 4/8: comx_fuzz smoke (200 scenarios, all matchers, batch, crash checks) =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target comx_fuzz
  ./build/tools/comx_fuzz --smoke --batch --crash-check-every 5
else
  echo "== stage 4/8: skipped (COMX_CHECK_SKIP_FUZZ=1) =="
fi

if [[ "${COMX_CHECK_SKIP_KERNELS:-0}" != "1" ]]; then
  echo "== stage 5/8: kernel checksum baseline reproduction =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_kernels bench_check
  ctest --preset release --no-tests=error \
    -R '^KernelChecksumsReproduceBaseline$'
else
  echo "== stage 5/8: skipped (COMX_CHECK_SKIP_KERNELS=1) =="
fi

if [[ "${COMX_CHECK_SKIP_PERF:-0}" != "1" ]]; then
  echo "== stage 6/8: perf-report pipeline (span profile schema) =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_sweep perf_report
  PERF_OUT="${TMP_DIR}/perf_profile.jsonl"
  COLLAPSED_OUT="${TMP_DIR}/perf_collapsed.txt"
  PERF_SWEEP_OUT="${TMP_DIR}/perf_sweep.json"
  ./build/bench/bench_sweep --quick --seeds 1 --jobs "${JOBS}" \
    --out "${PERF_SWEEP_OUT}" --perf-out "${PERF_OUT}"
  ./build/tools/perf_report "${PERF_OUT}" --collapsed-out "${COLLAPSED_OUT}"
  ./build/tools/perf_report --check "${PERF_OUT}" \
    --collapsed "${COLLAPSED_OUT}"
else
  echo "== stage 6/8: skipped (COMX_CHECK_SKIP_PERF=1) =="
fi

if [[ "${COMX_CHECK_SKIP_CRASH:-0}" != "1" ]]; then
  echo "== stage 7/8: crash matrix smoke + boundaries (recovery bit-exactness, ASan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" --target crash_matrix
  ./build-asan/tools/crash_matrix --smoke
  ./build-asan/tools/crash_matrix --boundaries
else
  echo "== stage 7/8: skipped (COMX_CHECK_SKIP_CRASH=1) =="
fi

if [[ "${COMX_CHECK_SKIP_SERVE:-0}" != "1" ]]; then
  echo "== stage 8/8: serve smoke (comx_loadgen vs comx_serve, ASan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" \
    --target comx_serve_bin comx_loadgen perf_report
  SERVE_PERF="${TMP_DIR}/serve_perf.jsonl"
  ./build-asan/tools/comx_loadgen \
    --spawn-serve ./build-asan/tools/comx_serve --smoke \
    --wal-dir "${TMP_DIR}/serve_wal" --perf-out "${SERVE_PERF}"
  ./build-asan/tools/perf_report --check "${SERVE_PERF}"
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" \
    --target comx_serve_bin comx_loadgen bench_check
  SERVE_OUT="${TMP_DIR}/bench_serve.json"
  ./build/tools/comx_loadgen --spawn-serve ./build/tools/comx_serve \
    --smoke --mode closed --bench-out "${SERVE_OUT}"
  ./build/tools/bench_check --baseline BENCH_serve.json \
    --current "${SERVE_OUT}"
else
  echo "== stage 8/8: skipped (COMX_CHECK_SKIP_SERVE=1) =="
fi

echo "check.sh: all stages passed"
