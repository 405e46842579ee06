#!/usr/bin/env bash
# Full correctness gauntlet for the srm simulator. Run from the repo root:
#
#   ci/check.sh            # all stages
#   ci/check.sh fast       # default build + ctest only
#
# Stages:
#   1. default     — release-ish build with SRM_CHK=ON + SRM_MC=ON, full ctest
#   1b. perf       — micro_engine + fig06_bcast + fig07_reduce +
#                    fig08_allreduce vs the checked-in BENCH_*.json baselines
#                    at the repo root (ci/perf_gate.py, >15% fails), plus a
#                    smoke run of the single-copy ablation and of every
#                    perfbench workload (perfbench/test_smoke.py: result
#                    shape, metric names, traced == untraced sim_digest);
#                    also runnable alone via `ci/check.sh perf`
#   1c. sv         — collective-matching verifier: the seeded-mismatch
#                    mutation gauntlet, then every example + fig12_barrier
#                    re-run under SRM_SV_SELFCHECK=1 so the recorded traces
#                    are checked against the declared comm skeletons; also
#                    runnable alone via `ci/check.sh sv`
#   1d. tune       — autotuner mini-sweep on both machine profiles with
#                    --check (JSON round-trip + tuned-never-loses gates)
#                    under SRM_SV_SELFCHECK=1; also runnable alone via
#                    `ci/check.sh tune`
#   1e. sa         — static analyzer: all fifteen protocol models lint
#                    clean, both builtin decision tables proven
#                    dominance-free with their analytic crossovers printed,
#                    the mutation gauntlet fully classified by lint rule,
#                    and the tune artifacts (when stage 1d left them behind)
#                    cross-checked for dominance; also runnable alone via
#                    `ci/check.sh sa`
#   1f. figures    — whole-figure gate: every bench with a log in
#                    bench_logs/ (figs 6-12, headline_claims, the abl_*
#                    ablations) is re-run and the table part of its stdout
#                    (everything before the instrumented/BENCH_JSON trailer)
#                    must match the log byte for byte; the benches with a
#                    log in bench_logs/symbolic/ are re-run under
#                    SRM_SYMBOLIC=1 against it the same way; also runnable
#                    alone via `ci/check.sh figures`. Not part of `fast`.
#   2. sanitize    — ASan+UBSan build, full ctest
#   2b. release    — CMAKE_BUILD_TYPE=Release (-O3) build under -Werror,
#                    full ctest: optimizer-only warnings surface here
#   3. chk-off     — SRM_CHK=OFF build (checker compiled out), full ctest
#   4. tidy        — clang-tidy over src/ with warnings-as-errors (enforced
#                    when the binary exists; green skip on the gcc-only image)
#   5. static      — cppcheck with ci/cppcheck-suppressions.txt when
#                    installed; otherwise the SRM_PARANOID strict-warning
#                    build of src/ (gcc's deepest clean warning set)
#   6. coverage    — SRM_COVERAGE (gcov) build, full ctest, per-subsystem
#                    line-coverage summary with a soft floor on src/chk +
#                    src/mc (ci/coverage_summary.py)
#   7. stress      — schedule-perturbation explorer + mutation + model-checker
#                    suites, verbose
#
# Each stage uses its own build tree under build-ci/ so a plain `build/`
# working tree is never clobbered.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

run_stage() {
  local name="$1"; shift
  local dir="build-ci/$name"
  echo "=== [$name] configure: $* ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest -j "$JOBS" --output-on-failure)
}

run_perf_gate() {
  local dir="build-ci/default"
  echo "=== [perf] bench regression gate vs checked-in baselines ==="
  cmake -B "$dir" -S . -DSRM_CHK=ON -DSRM_MC=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target micro_engine fig06_bcast >/dev/null
  # micro_engine: wall-clock — gate on medians over repetitions.
  "$dir/bench/micro_engine" --benchmark_format=json \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_min_time=0.05 > "$dir/bench/micro_engine.json" 2>/dev/null
  python3 ci/perf_gate.py BENCH_micro_engine.json \
    "$dir/bench/micro_engine.json" --tol "${SRM_PERF_TOL:-0.15}"
  # fig06_bcast / fig07_reduce: deterministic virtual metrics from the
  # instrumented runs.
  (cd "$dir/bench" && ./fig06_bcast >/dev/null)
  python3 ci/perf_gate.py BENCH_fig06_bcast.json \
    "$dir/bench/BENCH_fig06_bcast.json" --tol "${SRM_PERF_TOL:-0.15}"
  cmake --build "$dir" -j "$JOBS" --target fig07_reduce >/dev/null
  (cd "$dir/bench" && ./fig07_reduce >/dev/null)
  python3 ci/perf_gate.py BENCH_fig07_reduce.json \
    "$dir/bench/BENCH_fig07_reduce.json" --tol "${SRM_PERF_TOL:-0.15}"
  cmake --build "$dir" -j "$JOBS" --target fig08_allreduce abl_single_copy \
    >/dev/null
  (cd "$dir/bench" && ./fig08_allreduce >/dev/null)
  python3 ci/perf_gate.py BENCH_fig08_allreduce.json \
    "$dir/bench/BENCH_fig08_allreduce.json" --tol "${SRM_PERF_TOL:-0.15}"
  # Single-copy ablation, smoke sizes: exercises the mapped protocols on
  # both machine profiles so a broken window path fails the gate loudly.
  (cd "$dir/bench" && ./abl_single_copy --smoke >/dev/null)
  # Tuner ablation: the instrumented tuned-dispatch run (modern_smp 8x16) is
  # deterministic and identical under --smoke, so the smoke pass gates the
  # full decision-table dispatch path against its checked-in baseline.
  cmake --build "$dir" -j "$JOBS" --target abl_tuner >/dev/null
  (cd "$dir/bench" && ./abl_tuner --smoke >/dev/null)
  python3 ci/perf_gate.py BENCH_abl_tuner.json \
    "$dir/bench/BENCH_abl_tuner.json" --tol "${SRM_PERF_TOL:-0.15}"
  # Repository benchmark: every BENCHMARK.json workload in --smoke mode,
  # untraced and traced (it builds perfbench into .bench_build/).
  python3 perfbench/test_smoke.py
}

run_tune() {
  local dir="build-ci/default"
  echo "=== [tune] autotuner mini-sweep + decision-table self-consistency ==="
  cmake -B "$dir" -S . -DSRM_CHK=ON -DSRM_MC=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target tune >/dev/null
  # The mini-sweep runs under the sv self-check so every candidate Bench also
  # verifies its declared comm skeletons; --check additionally asserts the
  # JSON round-trip is exact and the tuned pick never loses to the builtin.
  (cd "$dir/bench" && SRM_SV_SELFCHECK=1 \
    ./tune --smoke --check --profile ibm_sp --out tuned_ibm_sp.json >/dev/null)
  (cd "$dir/bench" && SRM_SV_SELFCHECK=1 \
    ./tune --smoke --check --profile modern_smp --out tuned_modern_smp.json \
    >/dev/null)
}

run_sv() {
  local dir="build-ci/default"
  echo "=== [sv] collective-matching verifier: gauntlet + programs ==="
  cmake -B "$dir" -S . -DSRM_CHK=ON -DSRM_MC=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target sv_verify quickstart power_method \
    jacobi_heat global_stats image_pipeline fig12_barrier abl_single_copy \
    >/dev/null
  "$dir/src/sv_verify" gauntlet
  # Run from inside the build tree: the bench program writes its stats JSON
  # into the working directory.
  local abs
  abs="$(pwd)/$dir"
  (cd "$dir/bench" && "$abs/src/sv_verify" programs \
    "$abs/examples/quickstart" \
    "$abs/examples/power_method" \
    "$abs/examples/jacobi_heat" \
    "$abs/examples/global_stats" \
    "$abs/examples/image_pipeline" \
    "$abs/bench/fig12_barrier")
  # The single-copy ablation declares its skeletons through the canned
  # timing loops; smoke sizes keep the sv pass quick (self-check arms one
  # Bench per profile/protocol cell and exits 3 on any mismatch).
  echo "=== [sv] abl_single_copy --smoke self-check ==="
  (cd "$dir/bench" && SRM_SV_SELFCHECK=1 ./abl_single_copy --smoke >/dev/null)
}

run_sa() {
  local dir="build-ci/default"
  echo "=== [sa] static analyzer: lint + dominance + gauntlet ==="
  cmake -B "$dir" -S . -DSRM_CHK=ON -DSRM_MC=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target sa_verify >/dev/null
  "$dir/src/sa_verify" lint
  "$dir/src/sa_verify" dominance --profile ibm_sp
  "$dir/src/sa_verify" dominance --profile modern_smp
  "$dir/src/sa_verify" gauntlet
  # Cross-validate the empirical tuner's artifacts against the analytic
  # model when the tune stage already produced them (skipped in a bare
  # `ci/check.sh sa` run so the stage stays self-contained).
  local art
  for art in "$dir/bench/tuned_ibm_sp.json" "$dir/bench/tuned_modern_smp.json"
  do
    if [[ -f "$art" ]]; then
      "$dir/src/sa_verify" crosscheck "$art"
    fi
  done
}

# Table part of a bench's stdout: stop at the trailer, drop trailing blank
# lines.
table_part() {
  awk '
    /^(instrumented|BENCH_JSON)/ { stop = 1 }
    stop { next }
    /^$/ { blank++; next }
    { while (blank > 0) { print ""; blank-- } print }'
}

run_figures() {
  local dir="build-ci/default"
  echo "=== [figures] whole-figure tables vs bench_logs/ ==="
  cmake -B "$dir" -S . -DSRM_CHK=ON -DSRM_MC=ON >/dev/null
  local targets=() log
  for log in bench_logs/*.txt bench_logs/symbolic/*.txt; do
    targets+=("$(basename "$log" .txt)")
  done
  mapfile -t targets < <(printf '%s\n' "${targets[@]}" | sort -u)
  cmake --build "$dir" -j "$JOBS" --target "${targets[@]}" >/dev/null
  local name sym failed=0
  for log in bench_logs/*.txt bench_logs/symbolic/*.txt; do
    name="$(basename "$log" .txt)"
    sym=0
    [[ "$log" == bench_logs/symbolic/* ]] && sym=1
    # Benches write their JSON/trace artifacts into the working directory.
    if ! diff -u "$log" <(cd "$dir/bench" &&
        SRM_SYMBOLIC="$sym" "./$name" | table_part); then
      echo "figure table drifted: $name ($log)"
      failed=1
    fi
  done
  return "$failed"
}

if [[ "$MODE" == "figures" ]]; then
  run_figures
  echo "=== figures stage passed ==="
  exit 0
fi

if [[ "$MODE" == "perf" ]]; then
  run_perf_gate
  echo "=== perf gate passed ==="
  exit 0
fi

if [[ "$MODE" == "sv" ]]; then
  run_sv
  echo "=== sv stage passed ==="
  exit 0
fi

if [[ "$MODE" == "tune" ]]; then
  run_tune
  echo "=== tune stage passed ==="
  exit 0
fi

if [[ "$MODE" == "sa" ]]; then
  run_sa
  echo "=== sa stage passed ==="
  exit 0
fi

run_stage default -DSRM_CHK=ON -DSRM_MC=ON
run_perf_gate
run_sv
run_tune
run_sa

if [[ "$MODE" != "fast" ]]; then
  run_figures
  run_stage sanitize -DSRM_CHK=ON -DSRM_SANITIZE=address,undefined
  run_stage release -DCMAKE_BUILD_TYPE=Release
  run_stage chk-off -DSRM_CHK=OFF

  echo "=== [tidy] clang-tidy over src/ (warnings are errors) ==="
  if command -v clang-tidy >/dev/null 2>&1; then
    # The default stage exported compile_commands.json; enforce the checked-in
    # .clang-tidy config over every simulator TU.
    mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' | sort)
    clang-tidy -p build-ci/default -warnings-as-errors='*' \
      "${TIDY_SOURCES[@]}"
  else
    echo "clang-tidy not installed — skipping (install it to enforce .clang-tidy)"
  fi

  echo "=== [static] cppcheck / strict-warning fallback ==="
  if command -v cppcheck >/dev/null 2>&1; then
    cppcheck --std=c++20 --language=c++ \
      --enable=warning,performance,portability \
      --suppressions-list=ci/cppcheck-suppressions.txt \
      --inline-suppr --error-exitcode=1 --quiet \
      -I src src
  else
    echo "cppcheck not installed — building src/ under SRM_PARANOID instead"
    run_stage static -DSRM_PARANOID=ON
  fi

  echo "=== [coverage] gcov build + line-coverage summary ==="
  run_stage coverage -DSRM_COVERAGE=ON -DSRM_CHK=ON -DSRM_MC=ON
  python3 ci/coverage_summary.py build-ci/coverage 70

  echo "=== [stress] explorer + mutation + model-checker suites, verbose ==="
  (cd build-ci/default && ctest --output-on-failure \
     -R "ScheduleExplorer|Fig3Mutation|Fig2Mutation|FlatBarrierMutation|Mc")
fi

echo "=== all stages passed ==="
