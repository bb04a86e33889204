#!/usr/bin/env bash
# One-command tier-1 gate: configure, build (-Wall -Wextra are always on in
# CMakeLists.txt), and run the full ctest suite (which includes the
# comet-lint invariant checks).
#
#   scripts/check.sh                  # incremental build into ./build
#   scripts/check.sh --clean          # wipe the mode's build tree first
#   scripts/check.sh --tsan           # ThreadSanitizer pass over the
#                                     # serving tests (./build-tsan)
#   scripts/check.sh --asan           # AddressSanitizer pass over the full
#                                     # test suite (./build-asan)
#   scripts/check.sh --ubsan          # UndefinedBehaviorSanitizer pass over
#                                     # the full test suite (./build-ubsan)
#   scripts/check.sh --thread-safety  # Clang -Wthread-safety compile gate +
#                                     # full suite (./build-ts; needs clang)
#   scripts/check.sh --tidy           # clang-tidy (.clang-tidy config) over
#                                     # src/ (./build-tidy; needs clang-tidy)
#   scripts/check.sh --lint           # just the comet-lint rules (no build)
#   scripts/check.sh --fuzz           # bounded fuzz smoke over every
#                                     # untrusted-input surface (./build-fuzz;
#                                     # COMET_FUZZ_SECS=N per-harness budget)
#   scripts/check.sh --coverage       # line-coverage build + report with a
#                                     # ratcheted floor (./build-cov)
#   scripts/check.sh --chaos          # bounded seeded chaos pass: widened
#                                     # fault/overload sweeps over the
#                                     # serving + transport tests, re-run
#                                     # under several fixed shuffle orders
#                                     # (COMET_CHAOS_SEEDS schedules per
#                                     # storm, COMET_CHAOS_ORDERS orders)
#   scripts/check.sh --bench-smoke    # every BENCHMARK.json workload on
#                                     # seeds 1 and 7 for 1 s, plus one
#                                     # traced explain-uica run; fails on
#                                     # any incorrect or failed explanation
#   COMET_CHECK_WERROR=1 scripts/check.sh   # promote warnings to errors
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${COMET_BUILD_DIR:-build}
TSAN_DIR=${COMET_TSAN_BUILD_DIR:-build-tsan}
ASAN_DIR=${COMET_ASAN_BUILD_DIR:-build-asan}
UBSAN_DIR=${COMET_UBSAN_BUILD_DIR:-build-ubsan}
TS_DIR=${COMET_TS_BUILD_DIR:-build-ts}
TIDY_DIR=${COMET_TIDY_BUILD_DIR:-build-tidy}
FUZZ_DIR=${COMET_FUZZ_BUILD_DIR:-build-fuzz}
COV_DIR=${COMET_COV_BUILD_DIR:-build-cov}
MODE=plain
CLEAN=0
for arg in "$@"; do
  case "$arg" in
    --clean) CLEAN=1 ;;
    --tsan)  MODE=tsan ;;
    --asan)  MODE=asan ;;
    --ubsan) MODE=ubsan ;;
    --thread-safety) MODE=thread-safety ;;
    --tidy)  MODE=tidy ;;
    --lint)  MODE=lint ;;
    --fuzz)  MODE=fuzz ;;
    --coverage) MODE=coverage ;;
    --chaos) MODE=chaos ;;
    --bench-smoke) MODE=bench-smoke ;;
    *) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
  esac
done

CMAKE_ARGS=()
if [[ "${COMET_CHECK_WERROR:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DCOMET_WERROR=ON)
fi

JOBS=$(nproc 2>/dev/null || echo 4)

# Build + full ctest suite in a dedicated tree with extra cmake args.
run_suite() {
  local dir=$1; shift
  [[ "$CLEAN" == "1" ]] && rm -rf "$dir"
  cmake -B "$dir" -S . "$@" "${CMAKE_ARGS[@]}"
  local targets
  targets=$(cmake --build "$dir" --target help 2>/dev/null || true)
  if ! grep -qw test_batch_parity <<<"$targets"; then
    echo "check.sh: GTest not found - test targets unavailable" >&2
    exit 1
  fi
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

case "$MODE" in
  lint)
    # The standalone invariant pass; also runs as ctest targets comet_lint
    # and test_lint inside every suite below.
    python3 scripts/comet_lint.py
    python3 tests/test_lint.py
    echo "check.sh: lint pass green"
    ;;

  tsan)
    # Race-detection pass over the concurrent serving subsystem (the query
    # broker underneath it, the metrics instruments inside it, and the
    # util::ThreadPool both run on). Uses its own build tree so the regular
    # incremental build stays sanitizer-free.
    [[ "$CLEAN" == "1" ]] && rm -rf "$TSAN_DIR"
    cmake -B "$TSAN_DIR" -S . -DCOMET_TSAN=ON "${CMAKE_ARGS[@]}"
    TSAN_TARGETS=$(cmake --build "$TSAN_DIR" --target help 2>/dev/null || true)
    if ! grep -qw test_serve <<<"$TSAN_TARGETS"; then
      echo "check.sh: GTest not found - serving test targets unavailable" >&2
      exit 1
    fi
    cmake --build "$TSAN_DIR" -j "$JOBS" --target test_serve \
      test_query_broker test_batch_parity test_obs test_net \
      test_remote_shard test_traffic test_util
    ctest --test-dir "$TSAN_DIR" --output-on-failure \
      -R 'test_serve|test_query_broker|test_batch_parity|test_obs|test_net|test_remote_shard|test_traffic|test_util'
    echo "check.sh: tsan serving pass green"
    ;;

  asan)
    # Memory-error pass over the whole suite (the lane-packed batch paths
    # do manual panel indexing; ASan keeps them honest).
    run_suite "$ASAN_DIR" -DCOMET_ASAN=ON
    echo "check.sh: asan pass green"
    ;;

  ubsan)
    # Undefined-behaviour pass over the whole suite; -fno-sanitize-recover
    # in CMakeLists.txt means any finding aborts its test.
    run_suite "$UBSAN_DIR" -DCOMET_UBSAN=ON
    echo "check.sh: ubsan pass green"
    ;;

  thread-safety)
    # Compile-time locking-contract gate: the whole library + tests must
    # build warning-clean under Clang's -Wthread-safety (promoted to
    # errors), then the suite runs as usual. Requires clang; the configure
    # step self-tests that the analysis actually rejects a misuse probe.
    CLANG=${COMET_CLANG:-clang++}
    if ! command -v "$CLANG" >/dev/null 2>&1; then
      echo "check.sh: '$CLANG' not found - the thread-safety gate needs" \
           "Clang (set COMET_CLANG to override)" >&2
      exit 1
    fi
    run_suite "$TS_DIR" -DCOMET_THREAD_SAFETY=ON \
      -DCMAKE_CXX_COMPILER="$CLANG"
    echo "check.sh: thread-safety pass green"
    ;;

  tidy)
    # clang-tidy (curated .clang-tidy at the repo root) over all library
    # translation units, using a compile_commands.json from a dedicated
    # configure. COMET_NATIVE_KERNELS=OFF: the tidy tree only needs to
    # parse, and clang chokes on GCC-specific -march report details less.
    TIDY=${COMET_CLANG_TIDY:-clang-tidy}
    if ! command -v "$TIDY" >/dev/null 2>&1; then
      echo "check.sh: '$TIDY' not found - install clang-tidy (set" \
           "COMET_CLANG_TIDY to override)" >&2
      exit 1
    fi
    [[ "$CLEAN" == "1" ]] && rm -rf "$TIDY_DIR"
    cmake -B "$TIDY_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DCOMET_NATIVE_KERNELS=OFF "${CMAKE_ARGS[@]}" >/dev/null
    find src -name '*.cpp' -print0 \
      | xargs -0 -P "$JOBS" -n 4 "$TIDY" -p "$TIDY_DIR" --quiet \
        --warnings-as-errors='*'
    echo "check.sh: tidy pass green"
    ;;

  fuzz)
    # Bounded fuzz smoke over every untrusted-input surface: each harness
    # runs its committed corpus plus COMET_FUZZ_SECS (default 30) seconds of
    # mutation under ASan+UBSan with contracts armed. Any crash, leak, OOM,
    # or contract escape fails the gate. Under clang this is real libFuzzer;
    # under GCC the bundled replay+mutation driver speaks the same CLI.
    [[ "$CLEAN" == "1" ]] && rm -rf "$FUZZ_DIR"
    cmake -B "$FUZZ_DIR" -S . -DCOMET_FUZZ=ON "${CMAKE_ARGS[@]}"
    cmake --build "$FUZZ_DIR" -j "$JOBS"
    FUZZ_SECS=${COMET_FUZZ_SECS:-30}
    for target in fuzz_x86_parser fuzz_riscv_parser fuzz_ithemal_checkpoint \
                  fuzz_granite_checkpoint fuzz_bhive_dataset \
                  fuzz_wire_protocol; do
      bin="$FUZZ_DIR/$target"
      corpus="fuzz/corpus/$target"
      if [[ ! -x "$bin" ]]; then
        echo "check.sh: fuzz harness '$target' did not build" >&2
        exit 1
      fi
      if [[ ! -d "$corpus" ]]; then
        echo "check.sh: seed corpus '$corpus' missing" >&2
        exit 1
      fi
      workdir=$(mktemp -d)
      echo "== fuzz: $target (${FUZZ_SECS}s) =="
      "$bin" -max_total_time="$FUZZ_SECS" -max_len=4096 -rss_limit_mb=2048 \
        -timeout=10 "$workdir" "$corpus"
      rm -rf "$workdir"
    done
    echo "check.sh: fuzz smoke green"
    ;;

  coverage)
    # Line-coverage pass: instrumented build, full ctest suite, then a
    # per-directory report over src/ with a ratcheted floor. GCC uses
    # --coverage/gcov; clang uses source-based profiles (merged via
    # llvm-profdata by the report script).
    [[ "$CLEAN" == "1" ]] && rm -rf "$COV_DIR"
    cmake -B "$COV_DIR" -S . -DCOMET_COVERAGE=ON "${CMAKE_ARGS[@]}"
    cmake --build "$COV_DIR" -j "$JOBS"
    mkdir -p "$COV_DIR/profraw"
    LLVM_PROFILE_FILE="$PWD/$COV_DIR/profraw/%p.profraw" \
      ctest --test-dir "$COV_DIR" --output-on-failure -j "$JOBS"
    python3 scripts/coverage_report.py --build-dir "$COV_DIR" \
      --floor-file scripts/coverage_floor.txt
    echo "check.sh: coverage pass green"
    ;;

  chaos)
    # Bounded seeded chaos pass over the fault-tolerant serving stack.
    # COMET_CHAOS_SEEDS widens the seeded storms inside the tests (the
    # remote-shard fault sweep runs that many extra schedules; the
    # traffic-control chaos rounds run that many overload rounds), and
    # each binary is re-run under COMET_CHAOS_ORDERS fixed gtest shuffle
    # orders so test interleaving — not luck — is what varies. Every
    # schedule is seeded, so any failure replays exactly.
    [[ "$CLEAN" == "1" ]] && rm -rf "$BUILD_DIR"
    cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
    CHAOS_TARGETS=$(cmake --build "$BUILD_DIR" --target help 2>/dev/null || true)
    if ! grep -qw test_traffic <<<"$CHAOS_TARGETS"; then
      echo "check.sh: GTest not found - chaos test targets unavailable" >&2
      exit 1
    fi
    cmake --build "$BUILD_DIR" -j "$JOBS" --target \
      test_remote_shard test_traffic test_serve test_net
    CHAOS_SEEDS=${COMET_CHAOS_SEEDS:-12}
    CHAOS_ORDERS=${COMET_CHAOS_ORDERS:-3}
    for binary in test_remote_shard test_traffic test_serve test_net; do
      for ((order = 1; order <= CHAOS_ORDERS; ++order)); do
        echo "== chaos: $binary (seeds=$CHAOS_SEEDS, order=$order) =="
        COMET_CHAOS_SEEDS="$CHAOS_SEEDS" "$BUILD_DIR/$binary" \
          --gtest_shuffle --gtest_random_seed="$order"
      done
    done
    echo "check.sh: chaos pass green"
    ;;

  bench-smoke)
    # Short runs of the repository benchmark (perfbench/, which builds
    # into .bench_build/). run.py exits 0 even when an explanation does not
    # match its committed reference, so the verdict is read from the JSON
    # object on the last line of its output.
    [[ "$CLEAN" == "1" ]] && rm -rf .bench_build
    WORKLOADS=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
    bench_smoke_run() {
      local out
      if ! out=$(python3 perfbench/run.py "$@"); then
        echo "check.sh: bench smoke: run.py $* exited non-zero" >&2
        return 1
      fi
      if ! tail -n 1 <<<"$out" | python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)'
      then
        tail -n 5 <<<"$out" >&2
        echo "check.sh: bench smoke: run.py $* is not correct" >&2
        return 1
      fi
      echo "== bench smoke: $* ok =="
    }
    for workload in $WORKLOADS; do
      for seed in 1 7; do
        bench_smoke_run --workload "$workload" --seed "$seed" --seconds 1 \
          --trace 0
      done
    done
    bench_smoke_run --workload explain-uica --seed 1 --seconds 1 --trace 1
    echo "check.sh: bench smoke green"
    ;;

  plain)
    [[ "$CLEAN" == "1" ]] && rm -rf "$BUILD_DIR"
    cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
    cmake --build "$BUILD_DIR" -j "$JOBS"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    echo "check.sh: all green"
    ;;
esac
