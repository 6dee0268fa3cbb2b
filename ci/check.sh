#!/usr/bin/env bash
# ci/check.sh — the full local verification matrix.
#
# Stages (each one configure + build + ctest in its own build tree):
#   default   plain build, full suite minus bench-smoke — the tier-1 gate
#   scalar    SCIDOCK_SIMD_SCALAR=ON: the forced-scalar reference backend
#             of util/simd.hpp, full suite minus bench-smoke — proves the
#             batched docking path is equivalent without any vector ISA
#   native    -march=native + undefined sanitizer, kernel suite: exercises
#             the widest backend the host offers (AVX2 where available)
#             with FMA contraction on, under UBSan
#   lockdep   SCIDOCK_LOCKDEP=ON: full suite (the analyzer rides along
#             under every test), the lockdep negative controls, and the
#             bench_lockdep overhead gate at the real 10x42 workload
#   racer     SCIDOCK_RACER=ON: full suite (the happens-before analyzer
#             rides along under every test, asserting the default suite
#             racer-clean), the planted-race negative controls, and the
#             bench_racer overhead gate at the real 10x42 workload
#   clang     clang++ + -Wthread-safety -Werror=thread-safety (wired in
#             CMakeLists.txt for any Clang build): the GUARDED_BY audit
#             as a hard compile gate. Skips with a notice when clang++
#             is not installed.
#   asan      address sanitizer  + lockdep, concurrency-heavy labels
#   ubsan     undefined sanitizer + lockdep, concurrency-heavy labels
#   tsan      thread sanitizer   + lockdep, concurrency-heavy labels
#   racer_tsan  cross-check leg: the planted-race fixtures run under the
#             racer AND ThreadSanitizer in one binary; each fixture must
#             be flagged by both detectors (a finding one sees and the
#             other misses fails the leg)
#   perfbench the end-to-end benchmark (perfbench/run.py, its own Release
#             build in .bench_build/): each workload runs for 5 s and its
#             last line must report "correct": true, i.e. every pair is
#             reconciled against PROV-Wf
#
# The sanitizer stages run the concurrency-heavy labels only
# (chaos/kernels/lockdep/racer/prov-recovery): those are the suites that
# stress the executors, the docking kernels, the lock/race discipline and
# the WAL group-commit/recovery path, where sanitizers earn their ~10x
# slowdown.
#
# Usage: ci/check.sh [stage ...]     (default: all stages, in order)
#   e.g. ci/check.sh scalar tsan

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SANITIZER_LABELS='chaos|kernels|lockdep|racer|prov-recovery'

run_ctest() { # dir, extra ctest args...
  local dir="$1"
  shift
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

configure_and_build() { # dir, cmake args...
  local dir="$1"
  shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@"
  cmake --build "$dir" -j "$JOBS"
}

stage_default() {
  local dir="$REPO_ROOT/build-ci-default"
  configure_and_build "$dir"
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: the crash-recovery matrix runs (and is reported) as
  # its own leg, so a recovery regression is unmissable in the CI log.
  run_ctest "$dir" -L prov-recovery
}

stage_scalar() {
  local dir="$REPO_ROOT/build-ci-scalar"
  configure_and_build "$dir" -DSCIDOCK_SIMD_SCALAR=ON
  run_ctest "$dir" -LE bench-smoke
  # The kernel bench still runs under the scalar backend (its SIMD
  # speedup gates auto-relax to >= 1x there) so the JSON records the
  # reference-backend numbers alongside the vector ones.
  (cd "$dir" && ./bench/bench_micro_kernels)
}

stage_native() {
  local dir="$REPO_ROOT/build-ci-native"
  configure_and_build "$dir" \
    -DSCIDOCK_NATIVE_ARCH=ON -DSCIDOCK_SANITIZE=undefined \
    -DSCIDOCK_BUILD_BENCH=OFF -DSCIDOCK_BUILD_EXAMPLES=OFF
  # Kernels only: this leg exists to run the widest SIMD backend (and the
  # FMA-contracted scalar reference) under UBSan, not to re-run the
  # whole matrix with non-portable codegen.
  run_ctest "$dir" -L kernels
}

stage_lockdep() {
  local dir="$REPO_ROOT/build-ci-lockdep"
  configure_and_build "$dir" -DSCIDOCK_LOCKDEP=ON
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: the enabled analyzer stays within 5% of baseline on
  # the full screen; writes BENCH_lockdep.json into the build tree.
  (cd "$dir" && ./bench/bench_lockdep)
}

stage_racer() {
  local dir="$REPO_ROOT/build-ci-racer"
  configure_and_build "$dir" -DSCIDOCK_RACER=ON
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: the enabled analyzer stays within 10% of baseline on
  # the full screen; writes BENCH_racer.json into the build tree.
  (cd "$dir" && ./bench/bench_racer)
}

stage_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "ci/check.sh: notice: clang++ not found; skipping the"          "thread-safety-analysis leg (GUARDED_BY audit not compile-checked"          "on this host)"
    return 0
  fi
  local dir="$REPO_ROOT/build-ci-clang"
  # The build itself is the gate: CMakeLists.txt adds -Wthread-safety
  # -Werror=thread-safety under any Clang compiler, so an unguarded
  # access to a SCIDOCK_GUARDED_BY member fails right here. Tests are
  # covered by the GCC legs; compiling the whole tree (tests and bench
  # included) is what exercises every annotation.
  configure_and_build "$dir" -DCMAKE_CXX_COMPILER=clang++     -DSCIDOCK_LOCKDEP=ON -DSCIDOCK_RACER=ON
  run_ctest "$dir" -L 'lockdep|racer'
}

stage_racer_tsan() {
  local dir="$REPO_ROOT/build-ci-racer-tsan"
  configure_and_build "$dir"     -DSCIDOCK_RACER=ON -DSCIDOCK_SANITIZE=thread     -DSCIDOCK_BUILD_BENCH=OFF -DSCIDOCK_BUILD_EXAMPLES=OFF
  # Cross-check: each planted fixture contains a REAL race. The racer
  # must name the RC code on stdout and ThreadSanitizer must print its
  # own data-race warning on stderr — one binary, two detectors, and a
  # finding that only one of them sees fails the leg.
  local fixture rc_code out err
  for fixture in ww:RC001 rw:RC002 publish:RC003; do
    rc_code="${fixture#*:}"
    out="$dir/racer-planted-${fixture%%:*}.out"
    err="$dir/racer-planted-${fixture%%:*}.err"
    # TSan must not kill the process (the racer report comes after the
    # race); halt_on_error=0 + exitcode=0 turn the warning into log-only.
    TSAN_OPTIONS='halt_on_error=0 exitcode=0'       "$dir/tests/racer_planted" "${fixture%%:*}" >"$out" 2>"$err"
    grep -q "$rc_code" "$out" || {
      echo "ci/check.sh: racer_tsan: racer missed $rc_code in fixture"            "${fixture%%:*}" >&2
      cat "$out" "$err" >&2
      exit 1
    }
    grep -q 'WARNING: ThreadSanitizer: data race' "$err" || {
      echo "ci/check.sh: racer_tsan: TSan missed the race in fixture"            "${fixture%%:*} (racer reported $rc_code)" >&2
      cat "$out" "$err" >&2
      exit 1
    }
    echo "racer_tsan: fixture ${fixture%%:*} flagged by both detectors"          "($rc_code + TSan)"
  done
}

stage_sanitizer() { # name, cmake SCIDOCK_SANITIZE value
  local name="$1" sanitize="$2"
  local dir="$REPO_ROOT/build-ci-$name"
  configure_and_build "$dir" \
    -DSCIDOCK_SANITIZE="$sanitize" -DSCIDOCK_LOCKDEP=ON \
    -DSCIDOCK_BUILD_BENCH=OFF -DSCIDOCK_BUILD_EXAMPLES=OFF
  run_ctest "$dir" -L "$SANITIZER_LABELS"
}

stage_asan() { stage_sanitizer asan address; }
stage_ubsan() { stage_sanitizer ubsan undefined; }
stage_tsan() { stage_sanitizer tsan thread; }

stage_perfbench() {
  local workload last
  for workload in screen_auto campaign_prov; do
    last="$(cd "$REPO_ROOT" && python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 5 --trace 0 | tail -n 1)"
    echo "perfbench $workload: $last"
    python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["correct"] is not True)' \
      "$last" || {
      echo "ci/check.sh: perfbench: $workload did not report a correct result" >&2
      exit 1
    }
  done
}

STAGES=("$@")
if [ "${#STAGES[@]}" -eq 0 ]; then
  STAGES=(default scalar native lockdep racer clang asan ubsan tsan racer_tsan perfbench)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default | scalar | native | lockdep | racer | clang | asan | ubsan | tsan | racer_tsan | perfbench) ;;
    *)
      echo "ci/check.sh: unknown stage '$stage'" >&2
      echo "stages: default scalar native lockdep racer clang asan ubsan tsan racer_tsan perfbench" >&2
      exit 2
      ;;
  esac
done

for stage in "${STAGES[@]}"; do
  echo
  echo "==== ci/check.sh stage: $stage ===="
  "stage_$stage"
done

echo
echo "ci/check.sh: all stages passed (${STAGES[*]})"
