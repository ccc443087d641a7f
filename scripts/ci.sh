#!/usr/bin/env bash
# CI entry point. Jobs, in order:
#
#   lint        scripts/lint.sh — asrlint + clang-tidy (when installed) +
#               idiom greps
#   default     tier-1 suite, default configuration (-Werror is ON)
#   analysis    the in-repo discipline analyzer (tools/asrlint) over the
#               compiled tree — any diagnostic from the five rules
#               (lock-discipline, seam-purity, metering-purity,
#               status-discipline, durability-order) fails the job — plus
#               the seeded-violation self-test, which must report every
#               planted defect exactly once. An advisory gcc -fanalyzer
#               pass over src/storage follows (never fails the job; see
#               EXPERIMENTS.md for why it is advisory-only)
#   tsan        same suite under ThreadSanitizer (races are hard failures —
#               this is what keeps the single-writer counter discipline in
#               src/obs honest)
#   asan        same suite under AddressSanitizer with leak detection —
#               the recovery paths juggle staged pages and rebuilt trees,
#               exactly where lifetime bugs would hide
#   ubsan       same suite under UndefinedBehaviorSanitizer with
#               -fno-sanitize-recover=all, so any UB aborts the test
#   fault       the crash-matrix harness (fault_test) re-run explicitly in
#               the UBSan tree: every injected crash point must recover
#               without tripping a single UB check
#   release     tier-1 suite at -DCMAKE_BUILD_TYPE=Release (-O3, -Werror
#               still on): the build type the benchmark ledger is taken at
#               must compile warning-free and pass
#   no-metrics  smoke build with -DASR_METRICS=OFF to prove the
#               instrumentation compiles out
#   telemetry   the live-telemetry suite re-run in the TSan tree with the
#               background sampler forced on (ASR_TELEMETRY_MS=1): the
#               sampler thread hammers the LiveTelemetry hub while every
#               test runs, so a racy Observe/snapshot pair is a hard
#               failure — plus a metrics-off parity check that the metered
#               page counts are bit-identical with telemetry compiled out
#   paranoid    suite with -DASR_PARANOID=ON: every maintenance commit
#               point revalidates the ASR structural invariants inline
#   file-backend  the full default-tree ctest run again with
#               ASR_STORAGE_BACKEND=file — everything above the storage
#               seam (metering, checksums, fault staging, recovery) must
#               behave identically when page bytes live in real files
#   crash-harness  the kill-based process-crash harness on the file
#               backend: 50 randomized SIGKILL points against a child doing
#               WAL-logged maintenance with group-flush durability; every
#               point must recover to invariant-clean, twin-equal answers
#   crash-harness-interleaved  the same harness in two-writer mode: each
#               child runs two transactional writers on disjoint anchored
#               partitions (own WAL stream each), the SIGKILL lands with
#               the writers in different commit phases, and recovery must
#               leave both writers' answers twin-equal and invariant-clean
#   bench-smoke   runs the dual-report bench and fails unless the JSON
#               artifact carries wall_ms and read_p99_us fields (the
#               raw-speed half of the reporting contract)
#   snapshot-smoke  a short perfbench snapshot_rw run: snapshot capture,
#               reads of retained page versions and release end to end,
#               with the benchmark's own answer and invariant checks; fails
#               on a non-zero exit or a final line that is not
#               "correct": true (timings are not gated)
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_job() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] test ===="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

scripts/lint.sh "$JOBS"

run_job default     build-ci

echo "==== [analysis] asrlint discipline analyzer over src/ ===="
build-ci/tools/asrlint/asrlint \
  --compile-commands build-ci/compile_commands.json --root src

echo "==== [analysis] asrlint seeded-violation self-test ===="
build-ci/tests/asrlint_test

echo "==== [analysis] gcc -fanalyzer over src/storage (advisory) ===="
# C++ support in -fanalyzer is explicitly experimental upstream; it runs
# clean here today, so regressions are worth a look, but its verdicts never
# gate the build (EXPERIMENTS.md records the evaluation).
for f in src/storage/*.cc; do
  g++ -std=c++20 -fanalyzer -Isrc -c "$f" -o /dev/null 2>&1 |
    grep -E '^\S+:[0-9]+:' || true
done

run_job tsan        build-ci-tsan      -DASR_SANITIZE=thread
run_job asan        build-ci-asan      -DASR_SANITIZE=address
run_job ubsan       build-ci-ubsan     -DASR_SANITIZE=ubsan

echo "==== [fault] crash matrix under UBSan ===="
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  build-ci-ubsan/tests/fault_test

run_job release     build-ci-release   -DCMAKE_BUILD_TYPE=Release

run_job no-metrics  build-ci-nometrics -DASR_METRICS=OFF

echo "==== [telemetry] live sampler under TSan ===="
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 ASR_TELEMETRY_MS=1 \
  build-ci-tsan/tests/telemetry_test

echo "==== [telemetry] metrics-off parity of metered page counts ===="
REPO_ROOT="$PWD"
PARITY_DIR="$(mktemp -d)"
mkdir "$PARITY_DIR/on" "$PARITY_DIR/off"
(cd "$PARITY_DIR/on" && "$REPO_ROOT"/build-ci/bench/bulkload_bench >/dev/null)
(cd "$PARITY_DIR/off" &&
  "$REPO_ROOT"/build-ci-nometrics/bench/bulkload_bench >/dev/null)
for f in on off; do
  grep -o '"page_\(reads\|writes\)": [0-9]*' \
    "$PARITY_DIR/$f/BENCH_bulkload.json" > "$PARITY_DIR/$f.counts"
done
diff -u "$PARITY_DIR/on.counts" "$PARITY_DIR/off.counts" || {
  echo "telemetry: metered page counts differ between ASR_METRICS=ON/OFF" >&2
  exit 1
}
rm -rf "$PARITY_DIR"

run_job paranoid    build-ci-paranoid  -DASR_PARANOID=ON

echo "==== [file-backend] tier-1 suite on the file backend ===="
ASR_STORAGE_BACKEND=file \
  ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "==== [crash-harness] 50 SIGKILL points on the file backend ===="
ASR_STORAGE_BACKEND=file ASR_KILL_POINTS=50 \
  build-ci/tests/kill_harness_test \
  --gtest_filter='-KillHarnessTest.Interleaved*'

echo "==== [crash-harness-interleaved] 50 two-writer SIGKILL points ===="
ASR_STORAGE_BACKEND=file ASR_KILL_POINTS=50 \
  build-ci/tests/kill_harness_test \
  --gtest_filter='KillHarnessTest.Interleaved*'

echo "==== [bench-smoke] dual-report artifact check ===="
REPO_ROOT="$PWD"
BENCH_DIR="$(mktemp -d)"
(cd "$BENCH_DIR" && "$REPO_ROOT"/build-ci/bench/bulkload_bench)
grep -q '"wall_ms"' "$BENCH_DIR/BENCH_bulkload.json" || {
  echo "bench-smoke: BENCH_bulkload.json carries no wall_ms field" >&2
  exit 1
}
grep -q '"read_p99_us"' "$BENCH_DIR/BENCH_bulkload.json" || {
  echo "bench-smoke: BENCH_bulkload.json carries no read_p99_us field" >&2
  exit 1
}
rm -rf "$BENCH_DIR"

echo "==== [snapshot-smoke] perfbench snapshot_rw end to end ===="
SMOKE_LAST="$(python3 perfbench/run.py --workload snapshot_rw --seed 1 \
  --seconds 2 --trace 0 | tail -n 1)" || {
  echo "snapshot-smoke: perfbench/run.py exited non-zero" >&2
  exit 1
}
grep -q '"correct": true' <<<"$SMOKE_LAST" || {
  echo "snapshot-smoke: run not correct: $SMOKE_LAST" >&2
  exit 1
}

echo "==== all CI jobs passed ===="
