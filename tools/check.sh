#!/usr/bin/env bash
# Tier-1 gate: nine stages, strictest first.
#
#   1. asan-ubsan — full test suite under AddressSanitizer + UBSan
#                   (includes the `kernels` backend-equivalence suite); a
#                   UBSan report, float-cast-overflow included, fails the
#                   test that triggered it.
#   2. tsan       — the concurrency surface (thread pool, sweep engine,
#                   latency histograms + span profiler, serve shards +
#                   seqlock stats) under ThreadSanitizer.
#   3. bench      — release bench_sweep reproduced against the committed
#                   BENCH_sweep.json baseline via bench_check.
#   4. fuzz       — comx_fuzz --smoke: 200 seeded scenarios through every
#                   matcher with the constraint/differential oracles on
#                   (see TESTING.md).
#   5. kernels    — release bench_kernels --smoke reproduced against the
#                   committed BENCH_kernels.json baseline (the kernel
#                   layer's cross-backend checksums) via bench_check.
#   6. perf       — the perf-report pipeline end to end: bench_sweep --quick
#                   with --perf-out, then perf_report renders the span
#                   profile, emits collapsed stacks, and --check validates
#                   both outputs against the profile schema.
#   7. crash      — crash_matrix --smoke under ASan: 24 seeded kill points
#                   (every 4th at a group-commit boundary) recovered
#                   bit-exact.
#   8. serve      — comx_loadgen --smoke against a spawned comx_serve under
#                   ASan (protocol, drain totals, clean QUIT exit, span
#                   profile validated by perf_report --check), then a
#                   release closed-loop replay reproduced against the
#                   committed BENCH_serve.json baseline via bench_check.
##   9. batch      — the micro-batch dispatch suite: `ctest -L batch` under
#                   ASan (incremental KM differentials, window solver,
#                   engine batch mode, batch oracles, window x solver
#                   grid), then a release comx_fuzz --smoke --batch run
#                   (every fault-free scenario additionally fuzzed
#                   through the batch dispatcher).
#
# Usage: tools/check.sh [extra ctest args...]
#   tools/check.sh              # everything
#   tools/check.sh -L fault     # pass-through filter for the asan stage
# Set COMX_CHECK_SKIP_TSAN=1 / COMX_CHECK_SKIP_BENCH=1 /
# COMX_CHECK_SKIP_FUZZ=1 / COMX_CHECK_SKIP_KERNELS=1 /
# COMX_CHECK_SKIP_PERF=1 / COMX_CHECK_SKIP_CRASH=1 /
# COMX_CHECK_SKIP_SERVE=1 / COMX_CHECK_SKIP_BATCH=1 to skip a stage.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== stage 1/9: asan-ubsan test suite =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"
ctest --preset asan-ubsan -j "${JOBS}" "$@"

if [[ "${COMX_CHECK_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== stage 2/9: thread pool + sweep engine + obs + serve under TSan =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target comx_util_test comx_exp_test comx_obs_test comx_serve_test
  ./build-tsan/tests/comx_util_test \
    --gtest_filter='ThreadPoolTest.*:ParallelForTest.*'
  ./build-tsan/tests/comx_exp_test
  ./build-tsan/tests/comx_obs_test \
    --gtest_filter='*Concurrent*:*Threads*'
  ./build-tsan/tests/comx_serve_test
else
  echo "== stage 2/9: skipped (COMX_CHECK_SKIP_TSAN=1) =="
fi

if [[ "${COMX_CHECK_SKIP_BENCH:-0}" != "1" ]]; then
  echo "== stage 3/9: BENCH baseline reproduction =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_sweep bench_check
  SWEEP_OUT="$(mktemp /tmp/comx_bench_sweep.XXXXXX.json)"
  trap 'rm -f "${SWEEP_OUT}"' EXIT
  ./build/bench/bench_sweep --jobs "${JOBS}" --out "${SWEEP_OUT}"
  ./build/tools/bench_check --baseline BENCH_sweep.json \
    --current "${SWEEP_OUT}"
else
  echo "== stage 3/9: skipped (COMX_CHECK_SKIP_BENCH=1) =="
fi

if [[ "${COMX_CHECK_SKIP_FUZZ:-0}" != "1" ]]; then
  echo "== stage 4/9: comx_fuzz smoke (200 scenarios, all matchers) =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target comx_fuzz
  ./build/tools/comx_fuzz --smoke
else
  echo "== stage 4/9: skipped (COMX_CHECK_SKIP_FUZZ=1) =="
fi

if [[ "${COMX_CHECK_SKIP_KERNELS:-0}" != "1" ]]; then
  echo "== stage 5/9: kernel checksum baseline reproduction =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_kernels bench_check
  KERNELS_OUT="$(mktemp /tmp/comx_bench_kernels.XXXXXX.json)"
  trap 'rm -f "${SWEEP_OUT:-}" "${KERNELS_OUT}"' EXIT
  ./build/bench/bench_kernels --smoke --out "${KERNELS_OUT}"
  ./build/tools/bench_check --baseline BENCH_kernels.json \
    --current "${KERNELS_OUT}"
else
  echo "== stage 5/9: skipped (COMX_CHECK_SKIP_KERNELS=1) =="
fi

if [[ "${COMX_CHECK_SKIP_PERF:-0}" != "1" ]]; then
  echo "== stage 6/9: perf-report pipeline (span profile schema) =="
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target bench_sweep perf_report
  PERF_OUT="$(mktemp /tmp/comx_perf_profile.XXXXXX.jsonl)"
  COLLAPSED_OUT="$(mktemp /tmp/comx_perf_collapsed.XXXXXX.txt)"
  PERF_SWEEP_OUT="$(mktemp /tmp/comx_perf_sweep.XXXXXX.json)"
  trap 'rm -f "${SWEEP_OUT:-}" "${KERNELS_OUT:-}" "${PERF_OUT}" \
    "${COLLAPSED_OUT}" "${PERF_SWEEP_OUT}"' EXIT
  ./build/bench/bench_sweep --quick --seeds 1 --jobs "${JOBS}" \
    --out "${PERF_SWEEP_OUT}" --perf-out "${PERF_OUT}"
  ./build/tools/perf_report "${PERF_OUT}" --collapsed-out "${COLLAPSED_OUT}"
  ./build/tools/perf_report --check "${PERF_OUT}" \
    --collapsed "${COLLAPSED_OUT}"
else
  echo "== stage 6/9: skipped (COMX_CHECK_SKIP_PERF=1) =="
fi

if [[ "${COMX_CHECK_SKIP_CRASH:-0}" != "1" ]]; then
  echo "== stage 7/9: crash matrix smoke (recovery bit-exactness, ASan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" --target crash_matrix
  ./build-asan/tools/crash_matrix --smoke
else
  echo "== stage 7/9: skipped (COMX_CHECK_SKIP_CRASH=1) =="
fi

if [[ "${COMX_CHECK_SKIP_SERVE:-0}" != "1" ]]; then
  echo "== stage 8/9: serve smoke (comx_loadgen vs comx_serve, ASan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" \
    --target comx_serve_bin comx_loadgen perf_report
  SERVE_PERF="$(mktemp /tmp/comx_serve_perf.XXXXXX.jsonl)"
  trap 'rm -f "${SWEEP_OUT:-}" "${KERNELS_OUT:-}" "${PERF_OUT:-}" \
    "${COLLAPSED_OUT:-}" "${PERF_SWEEP_OUT:-}" "${SERVE_PERF}"' EXIT
  ./build-asan/tools/comx_loadgen \
    --spawn-serve ./build-asan/tools/comx_serve --smoke \
    --perf-out "${SERVE_PERF}"
  ./build-asan/tools/perf_report --check "${SERVE_PERF}"
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" \
    --target comx_serve_bin comx_loadgen bench_check
  SERVE_OUT="$(mktemp /tmp/comx_bench_serve.XXXXXX.json)"
  trap 'rm -f "${SWEEP_OUT:-}" "${KERNELS_OUT:-}" "${PERF_OUT:-}" \
    "${COLLAPSED_OUT:-}" "${PERF_SWEEP_OUT:-}" "${SERVE_PERF:-}" \
    "${SERVE_OUT}"' EXIT
  ./build/tools/comx_loadgen --spawn-serve ./build/tools/comx_serve \
    --smoke --mode closed --bench-out "${SERVE_OUT}"
  ./build/tools/bench_check --baseline BENCH_serve.json \
    --current "${SERVE_OUT}"
else
  echo "== stage 8/9: skipped (COMX_CHECK_SKIP_SERVE=1) =="
fi

if [[ "${COMX_CHECK_SKIP_BATCH:-0}" != "1" ]]; then
  echo "== stage 9/9: micro-batch suite (ctest -L batch, ASan) + batch fuzz =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" --target comx_batch_test
  ctest --preset asan-ubsan -j "${JOBS}" -L batch
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target comx_fuzz
  ./build/tools/comx_fuzz --smoke --batch
else
  echo "== stage 9/9: skipped (COMX_CHECK_SKIP_BATCH=1) =="
fi

echo "check.sh: all stages passed"
