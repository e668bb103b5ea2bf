#!/bin/sh
# End-to-end check driver: builds and tests the repo in its four
# hardening configurations (see docs/hardening.md):
#
#   release   RelWithDebInfo, -Werror, full ctest suite
#   sanitize  ASan+UBSan (-DIQ_SANITIZE=address,undefined), assert()
#             enabled (no -DNDEBUG), full ctest
#   thread    TSan (-DIQ_SANITIZE=thread), full ctest — the dynamic leg
#             of the race-detection pair (docs/concurrency.md); the
#             concurrency stress tests make it hunt real interleavings
#   tidy      clang-tidy over src/ via -DIQ_CLANG_TIDY=ON (skipped with
#             a notice when no clang-tidy is installed)
#   obs       observability smoke (docs/observability.md): builds with
#             -DIQ_OBS_DISABLED=ON (metrics/tracing compiled out), runs
#             the full suite there, then exercises `iqtool profile`,
#             `iqtool health`, `iqtool slowlog`, `iqtool trace` (the
#             stitched-trace consistency gate), and `iqtool flight`
#             against a sample index in both the disabled and the
#             release build and validates the JSON output with
#             tools/json_check; asserts a deadline-exceeded replay
#             leaves a flight dump in the enabled build, and that the
#             FlightRecorder::Record symbol does not exist in the
#             IQ_OBS_DISABLED object file (zero hot-path instructions)
#   lint      project-contract static analysis (docs/static_analysis.md):
#             exports compile_commands.json, builds tools/iqlint, runs
#             an incremental `--changed` pre-check (IQLINT_BASE_REF,
#             default HEAD), runs the full tree (non-zero on findings)
#             plus a second tree-wide run from an explicitly
#             GCC-configured build, then seeds one violation per check
#             — a layering back-edge, an out-of-rank lock, an unclamped
#             float cast, an unannotated member of a mutex-owning
#             class, an unlocked IQ_GUARDED_BY access, a
#             query-before-Bind typestate break, and an fma in a
#             bit-identity TU — into a scratch copy of src/ and asserts
#             the tool catches each one (the lint leg must be able to
#             fail, or a green run proves nothing)
#   scalar    full ctest suite with IQ_FORCE_SCALAR=1 (reuses the
#             release tree): every test must pass with the SIMD filter
#             kernels disabled, so the portable scalar path stays a
#             first-class citizen (docs/perf_kernels.md)
#   bench     perf-trajectory smoke (docs/observability.md): runs a
#             small deterministic benchmark, aggregates its IQBENCH
#             lines with tools/bench_aggregate, validates the JSON,
#             and gates against the committed BENCH_smoke.json
#             baseline (simulated-I/O seconds are machine-independent,
#             so the gate is exact across hosts); a missing baseline
#             is tolerated so the first run of a new suite passes.
#             Also runs bench/micro_filter and gates its kernel-vs-
#             reference relative-cost ratios against BENCH_filter.json
#             (wall-clock based, so the tolerance is wide),
#             bench/micro_planner, whose optimized/standard CPU ratio
#             is gated wide and whose simulated io_s rows are gated
#             tightly against BENCH_planner.json, bench/micro_shard,
#             whose simulated io_s and pruning rows are gated against
#             BENCH_shard.json, and bench/micro_obs, which self-gates
#             the flight recorder's hot-path overhead at 2% and is
#             tracked in BENCH_obs.json
#
# Usage: tools/run_checks.sh [release|sanitize|thread|tidy|lint|obs|scalar|bench]...
#        (no arguments runs all eight)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
STEPS="${*:-release sanitize thread tidy lint obs scalar bench}"

# One shared cleanup trap: legs fill in their tmp dirs as they run.
OBS_TMP=""
BENCH_TMP=""
LINT_TMP=""
cleanup() {
    [ -n "$OBS_TMP" ] && rm -rf "$OBS_TMP"
    [ -n "$BENCH_TMP" ] && rm -rf "$BENCH_TMP"
    [ -n "$LINT_TMP" ] && rm -rf "$LINT_TMP"
    return 0
}
trap cleanup EXIT

run_suite() {
    build_dir="$1"
    shift
    echo "==> configure $build_dir: $*"
    cmake -B "$ROOT/$build_dir" -S "$ROOT" "$@" >/dev/null
    echo "==> build $build_dir"
    cmake --build "$ROOT/$build_dir" -j "$JOBS"
    echo "==> ctest $build_dir"
    (cd "$ROOT/$build_dir" && ctest --output-on-failure -j "$JOBS")
}

for step in $STEPS; do
    case "$step" in
    release)
        run_suite build-release -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DIQ_WERROR=ON
        ;;
    sanitize)
        # Leak checking is part of ASan by default; fail on the first
        # UBSan finding (-fno-sanitize-recover is set by the build).
        # RelWithDebInfo's flags minus -DNDEBUG: the same -O2 -g, with
        # assert() live, so this is the leg that runs the assertions.
        run_suite build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
            -DIQ_SANITIZE=address,undefined -DIQ_WERROR=ON \
            -DIQ_DEBUG_INVARIANTS=ON
        ;;
    thread)
        # TSan is mutually exclusive with ASan, hence its own build
        # tree. The whole suite runs — single-threaded tests are cheap
        # insurance against stray statics — but the signal comes from
        # the *_concurrency/thread_pool/per_query_io tests.
        # IQ_LOCK_RANK_CHECKS puts the LockOrderValidator on every
        # scoped lock here, proving under TSan that the validator
        # itself is race-free (its state is thread-local by design).
        run_suite build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DIQ_SANITIZE=thread -DIQ_WERROR=ON -DIQ_LOCK_RANK_CHECKS=ON
        ;;
    tidy)
        if command -v clang-tidy >/dev/null 2>&1; then
            echo "==> clang-tidy (via IQ_CLANG_TIDY build)"
            cmake -B "$ROOT/build-tidy" -S "$ROOT" \
                -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_CLANG_TIDY=ON \
                >/dev/null
            cmake --build "$ROOT/build-tidy" -j "$JOBS"
        else
            echo "==> tidy: clang-tidy not installed, skipping (config: .clang-tidy)"
        fi
        ;;
    lint)
        echo "==> lint: build tools/iqlint (with compile_commands.json)"
        cmake -B "$ROOT/build-release" -S "$ROOT" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_WERROR=ON \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
        cmake --build "$ROOT/build-release" -j "$JOBS" --target iqlint
        IQLINT="$ROOT/build-release/tools/iqlint/iqlint"
        # Incremental pre-check: findings restricted to files changed
        # vs the base ref (fast signal for stacked CI; the tree-wide
        # run below remains the gate). IQLINT_BASE_REF defaults to
        # HEAD, i.e. uncommitted changes only.
        if git -C "$ROOT" rev-parse --git-dir >/dev/null 2>&1; then
            echo "==> lint: iqlint --changed ${IQLINT_BASE_REF:-HEAD}"
            "$IQLINT" --root "$ROOT" --changed "${IQLINT_BASE_REF:-HEAD}"
        fi
        echo "==> lint: iqlint over src tools bench tests"
        "$IQLINT" --root "$ROOT" \
            --compile-commands "$ROOT/build-release/compile_commands.json"
        # The flow-aware checks exist precisely because GCC has no
        # Thread Safety Analysis (docs/static_analysis.md): prove the
        # tree-wide run also passes from an explicitly GCC-configured
        # build of the linter.
        if command -v g++ >/dev/null 2>&1; then
            echo "==> lint: tree-wide run from a GCC-configured build"
            cmake -B "$ROOT/build-lint-gcc" -S "$ROOT" \
                -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_WERROR=ON \
                -DCMAKE_CXX_COMPILER=g++ >/dev/null
            cmake --build "$ROOT/build-lint-gcc" -j "$JOBS" --target iqlint
            "$ROOT/build-lint-gcc/tools/iqlint/iqlint" --root "$ROOT"
        else
            echo "==> lint: g++ not installed, skipping the GCC-build run"
        fi
        # Seeded-violation smoke: copy src/ aside, plant one violation
        # per seeded check, and require a non-zero exit naming it.
        LINT_TMP="$(mktemp -d)"
        mkdir -p "$LINT_TMP/seeded"
        cp -r "$ROOT/src" "$LINT_TMP/seeded/src"
        printf '#include "io/block_file.h"\n' \
            >> "$LINT_TMP/seeded/src/obs/metrics.h"          # back-edge
        cat >> "$LINT_TMP/seeded/src/core/iq_tree.cc" <<'SEED'
namespace iq { namespace {
class SeededBackwards {
 public:
  void Touch() {
    MutexLock a(&inner_mu_);
    MutexLock b(&outer_mu_);
  }
 private:
  Mutex outer_mu_{IQ_LOCK_RANK(11)};
  Mutex inner_mu_{IQ_LOCK_RANK(12)};
};
unsigned SeededCast(float raw) { return static_cast<unsigned>(raw); }
class SeededGuardGap {
 public:
  void Touch() {
    MutexLock lock(&gap_mu_);
    counter_ = 1;
  }
 private:
  Mutex gap_mu_{IQ_LOCK_RANK(91)};
  int counter_ = 0;
};
class SeededLockEscape {
 public:
  int Read() const { return value_; }
 private:
  mutable Mutex esc_mu_{IQ_LOCK_RANK(92)};
  int value_ IQ_GUARDED_BY(esc_mu_) = 0;
};
void SeededQueryBeforeBind(const uint32_t* cells, float* out) {
  FilterKernel kernel;
  kernel.MinDistLowerBounds(cells, 4, out);
}
} }
SEED
        cat >> "$LINT_TMP/seeded/src/quant/filter_kernel.cc" <<'SEED'
namespace iq { namespace {
double SeededFma(double a, double b, double c) {
  return std::fma(a, b, c);
}
} }
SEED
        for check in layering lock-rank cast-safety guarded-by-coverage \
                     lock-set typestate float-determinism; do
            if "$IQLINT" --root "$LINT_TMP/seeded" --check "$check" src \
                > "$LINT_TMP/$check.out" 2>&1; then
                echo "lint: seeded $check violation NOT caught" >&2
                exit 1
            fi
            grep -q "\[$check\]" "$LINT_TMP/$check.out" || {
                echo "lint: seeded $check run missing its diagnostic" >&2
                cat "$LINT_TMP/$check.out" >&2
                exit 1
            }
        done
        echo "==> lint: clean tree + all seeded violations caught"
        ;;
    obs)
        # The compile-out config must still pass every test, and the
        # profiler must emit valid JSON with observability on AND off.
        run_suite build-obsoff -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DIQ_OBS_DISABLED=ON -DIQ_WERROR=ON
        # A plain release tree for the enabled-side profile run (reuses
        # the `release` leg's tree when that leg ran first).
        cmake -B "$ROOT/build-release" -S "$ROOT" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_WERROR=ON >/dev/null
        cmake --build "$ROOT/build-release" -j "$JOBS" \
            --target iqtool json_check
        echo "==> obs: iqtool profile/health/slowlog JSON smoke"
        OBS_TMP="$(mktemp -d)"
        for tree in build-obsoff build-release; do
            IQTOOL="$ROOT/$tree/tools/iqtool"
            CHECK="$ROOT/build-release/tools/json_check"
            "$IQTOOL" generate --out "$OBS_TMP/$tree-ds" --workload cad \
                --n 3000 --dims 8 --seed 7 >/dev/null
            "$IQTOOL" build --dir "$OBS_TMP" --dataset "$tree-ds" \
                --index "$tree-idx" >/dev/null
            "$IQTOOL" profile --dir "$OBS_TMP" --index "$tree-idx" \
                --queries "$tree-ds" --limit 4 --k 3 --json \
                | "$CHECK" --require queries --require metrics \
                    --require consistent --require calibration \
                    --require schema_version
            "$IQTOOL" stats --dir "$OBS_TMP" --index "$tree-idx" --json \
                | "$CHECK" --require metrics --require schema_version
            "$IQTOOL" health --dir "$OBS_TMP" --index "$tree-idx" --json \
                | "$CHECK" --require num_pages --require pages_per_level \
                    --require level3_indirection_ratio
            "$IQTOOL" slowlog --dir "$OBS_TMP" --index "$tree-idx" \
                --queries "$tree-ds" --limit 8 --k 3 --json \
                | "$CHECK" --require records --require retained \
                    --require threshold_s
            "$IQTOOL" shard build --dir "$OBS_TMP" --dataset "$tree-ds" \
                --manifest "$tree-m" --shards 3 --plan rank >/dev/null
            "$IQTOOL" shard stats --dir "$OBS_TMP" --manifest "$tree-m" \
                --json \
                | "$CHECK" --require schema_version --require per_shard \
                    --require aggregate --require metrics
            "$IQTOOL" shard health --dir "$OBS_TMP" --manifest "$tree-m" \
                --json \
                | "$CHECK" --require schema_version --require per_shard \
                    --require aggregate
            # `trace` exits non-zero when the stitched tree disagrees
            # with the aggregated ShardQueryStats, so these runs are the
            # consistency gate (kNN and range fan-outs) as well as a
            # JSON-shape check. The output goes through a file, not a
            # pipe, so `set -e` sees trace's own exit status.
            for mode in "--k 3" "--radius 0.3"; do
                # $mode is unquoted on purpose: a flag and its value.
                "$IQTOOL" trace --dir "$OBS_TMP" --manifest "$tree-m" \
                    --queries "$tree-ds" --limit 3 $mode --json \
                    > "$OBS_TMP/$tree-trace.json"
                "$CHECK" --require schema_version --require queries \
                    --require metrics --require consistent \
                    < "$OBS_TMP/$tree-trace.json"
            done
            # Replay with zero in-flight slots and a short deadline:
            # every query expires in the queue, deterministically
            # provoking deadline-exceeded flight dumps (enabled build).
            "$IQTOOL" flight --dir "$OBS_TMP" --manifest "$tree-m" \
                --queries "$tree-ds" --limit 3 --k 3 \
                --max-in-flight 0 --deadline 0.02 --json \
                > "$OBS_TMP/$tree-flight.json"
            "$CHECK" --require schema_version --require dumps \
                --require last_dump_reason --require drain \
                < "$OBS_TMP/$tree-flight.json"
            echo "==> obs: $tree JSON valid"
        done
        echo "==> obs: deadline-exceeded queries leave a flight dump"
        grep -q '"last_dump_reason":"deadline_exceeded"' \
            "$OBS_TMP/build-release-flight.json"
        if grep -q '"deadline_exceeded"' \
            "$OBS_TMP/build-obsoff-flight.json"; then
            echo "obs: IQ_OBS_DISABLED build produced flight events" >&2
            exit 1
        fi
        echo "==> obs: flight Record compiled out under IQ_OBS_DISABLED"
        OBSOFF_OBJ="$(find "$ROOT/build-obsoff" -name 'flight_recorder.cc.o' \
            | head -n 1)"
        REL_OBJ="$(find "$ROOT/build-release" -name 'flight_recorder.cc.o' \
            | head -n 1)"
        [ -n "$OBSOFF_OBJ" ] && [ -n "$REL_OBJ" ]
        if nm -C "$OBSOFF_OBJ" | grep -q 'FlightRecorder::Record'; then
            echo "obs: Record symbol present in IQ_OBS_DISABLED build" >&2
            exit 1
        fi
        nm -C "$REL_OBJ" | grep -q 'FlightRecorder::Record' || {
            echo "obs: Record symbol missing from enabled build" >&2
            exit 1
        }
        ;;
    scalar)
        # The SIMD kernels are runtime-dispatched, so one binary covers
        # both paths: re-run the whole release suite with the scalar
        # override to prove results do not depend on the CPU's ISA.
        cmake -B "$ROOT/build-release" -S "$ROOT" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_WERROR=ON >/dev/null
        cmake --build "$ROOT/build-release" -j "$JOBS"
        echo "==> ctest build-release (IQ_FORCE_SCALAR=1)"
        (cd "$ROOT/build-release" && \
            IQ_FORCE_SCALAR=1 ctest --output-on-failure -j "$JOBS")
        ;;
    bench)
        cmake -B "$ROOT/build-release" -S "$ROOT" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIQ_WERROR=ON >/dev/null
        cmake --build "$ROOT/build-release" -j "$JOBS" \
            --target abl_disk_params micro_filter bench_aggregate json_check
        BENCH_TMP="$(mktemp -d)"
        GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
        echo "==> bench: smoke run (abl_disk_params --n 4000 --queries 6)"
        IQBENCH_SUITE=smoke IQBENCH_GIT_REV="$GIT_REV" \
            "$ROOT/build-release/bench/abl_disk_params" --n 4000 --queries 6 \
            > "$BENCH_TMP/smoke.out"
        echo "==> bench: missing-baseline mode must pass"
        "$ROOT/build-release/tools/bench_aggregate" --suite smoke \
            --out "$BENCH_TMP/smoke-nobase.json" --git-rev "$GIT_REV" \
            --baseline "$BENCH_TMP/no-such-baseline.json" \
            < "$BENCH_TMP/smoke.out"
        echo "==> bench: regression gate against committed BENCH_smoke.json"
        "$ROOT/build-release/tools/bench_aggregate" --suite smoke \
            --out "$BENCH_TMP/smoke.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_smoke.json" --tolerance 25 \
            < "$BENCH_TMP/smoke.out"
        "$ROOT/build-release/tools/json_check" --require schema_version \
            --require suite --require benches < "$BENCH_TMP/smoke.json"
        echo "==> bench: filter-kernel micro (bench/micro_filter)"
        IQBENCH_SUITE=filter IQBENCH_GIT_REV="$GIT_REV" \
            "$ROOT/build-release/bench/micro_filter" \
            > "$BENCH_TMP/filter.out"
        # The gated values are kernel-vs-reference cost ratios measured
        # on this host, so they cancel absolute machine speed — but
        # they still ride on wall-clock, hence the wide tolerance.
        "$ROOT/build-release/tools/bench_aggregate" --suite filter \
            --out "$BENCH_TMP/filter.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_filter.json" --tolerance 100 \
            < "$BENCH_TMP/filter.out"
        "$ROOT/build-release/tools/json_check" --require schema_version \
            --require suite --require benches < "$BENCH_TMP/filter.json"
        echo "==> bench: NN batch-planner micro (bench/micro_planner)"
        cmake --build "$ROOT/build-release" -j "$JOBS" --target micro_planner
        IQBENCH_SUITE=planner IQBENCH_GIT_REV="$GIT_REV" \
            "$ROOT/build-release/bench/micro_planner" \
            > "$BENCH_TMP/planner.out"
        # Two gates over one run. cpu_ratio (optimized / standard CPU ms
        # per query) cancels the host's speed but still rides on the
        # scheduler, hence the wide tolerance; the io_s rows
        # (micro_planner_io) are deterministic simulated seconds.
        grep '"bench":"micro_planner",' "$BENCH_TMP/planner.out" | \
            "$ROOT/build-release/tools/bench_aggregate" --suite planner \
            --out "$BENCH_TMP/planner-cpu.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_planner.json" --tolerance 50
        grep '"bench":"micro_planner_io",' "$BENCH_TMP/planner.out" | \
            "$ROOT/build-release/tools/bench_aggregate" --suite planner \
            --out "$BENCH_TMP/planner-io.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_planner.json" --tolerance 1
        "$ROOT/build-release/tools/json_check" --require schema_version \
            --require suite --require benches < "$BENCH_TMP/planner-io.json"
        echo "==> bench: sharded scatter-gather micro (bench/micro_shard)"
        cmake --build "$ROOT/build-release" -j "$JOBS" --target micro_shard
        # Simulated-I/O and pruning-fraction series: deterministic per
        # dataset, but the tolerance stays wide for layout drift.
        IQBENCH_SUITE=shard IQBENCH_GIT_REV="$GIT_REV" \
            "$ROOT/build-release/bench/micro_shard" --n 4000 --queries 6 \
            > "$BENCH_TMP/shard.out"
        "$ROOT/build-release/tools/bench_aggregate" --suite shard \
            --out "$BENCH_TMP/shard.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_shard.json" --tolerance 25 \
            < "$BENCH_TMP/shard.out"
        "$ROOT/build-release/tools/json_check" --require schema_version \
            --require suite --require benches < "$BENCH_TMP/shard.json"
        echo "==> bench: flight-recorder overhead micro (bench/micro_obs)"
        cmake --build "$ROOT/build-release" -j "$JOBS" --target micro_obs
        # micro_obs self-gates (exits non-zero when Record() costs more
        # than 2% of the reference page-filter loop); the aggregate
        # gate only tracks the trajectory, hence the wide tolerance on
        # these wall-clock numbers.
        IQBENCH_SUITE=obs IQBENCH_GIT_REV="$GIT_REV" \
            "$ROOT/build-release/bench/micro_obs" \
            > "$BENCH_TMP/obs.out"
        "$ROOT/build-release/tools/bench_aggregate" --suite obs \
            --out "$BENCH_TMP/obs.json" --git-rev "$GIT_REV" \
            --baseline "$ROOT/BENCH_obs.json" --tolerance 100 \
            < "$BENCH_TMP/obs.out"
        "$ROOT/build-release/tools/json_check" --require schema_version \
            --require suite --require benches < "$BENCH_TMP/obs.json"
        echo "==> bench: trajectory OK"
        ;;
    *)
        echo "unknown step '$step' (want release|sanitize|thread|tidy|lint|obs|scalar|bench)" >&2
        exit 2
        ;;
    esac
done

echo "all checks passed: $STEPS"
