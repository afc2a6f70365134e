#!/usr/bin/env bash
# Full local CI matrix: builds and tests metablink under every supported
# hardening configuration, then runs the static analyzers.
#
# Stages (each in its own build tree, so they never poison each other):
#   1. default    — RelWithDebInfo build + full ctest suite
#   2. asan-ubsan — METABLINK_SANITIZE=address,undefined build + full ctest
#   3. tsan       — METABLINK_SANITIZE=thread build + full ctest
#   4. clang-tidy — bugprone/performance/concurrency checks over src/
#                   (SKIPped when clang-tidy is not installed)
#   5. graphlint  — the analyzer self-checks: analysis_test (GraphLint
#                   seeded-defect fixtures + WriteSetChecker) from stage 1's
#                   tree, rerun explicitly so a filtered ctest cannot hide it
#   6. serving    — bench_serving --smoke from stage 1's tree: a reduced
#                   end-to-end run of the inference engine that exits
#                   non-zero if tape vs tape-free parity or int8 recall
#                   drifts
#   7. checkpoint — bench_checkpoint --smoke from stage 1's tree: checkpoint
#                   round-trip + kill/resume bit-identity gates and the
#                   hot-swap hammer (exit 1 if any Link fails or a swap
#                   doesn't publish)
#   8. retrieval  — bench_retrieval --smoke from stage 1's tree: clustered
#                   IVF gates (probe-all == exhaustive bit-for-bit,
#                   deterministic rebuild, R@64 >= 0.98 at the default
#                   nprobe)
#   9. cascade    — bench_serving --cascade-smoke from stage 1's tree: the
#                   adaptive rerank cascade contracts (cascade-off and
#                   forced-full-head byte identity, tier counters summing
#                   to requests, serial == pooled determinism, accuracy
#                   delta <= 0.2 pts)
#  10. pq         — bench_retrieval --pq-smoke from stage 1's tree: the
#                   PQ/sharding contracts (PQ probe-all full-pool ==
#                   exhaustive fp32, KB-sharded == single index
#                   bit-for-bit, deterministic PQ rebuild, PQ marginal
#                   bytes/entity <= 25% of int8, int8 entry dispatching
#                   to the exact scan below the crossover)
#  11. traffic    — bench_traffic --smoke from stage 1's tree: the load
#                   subsystem contracts (generator determinism across
#                   runs/seeds, Zipf skew + LRU hit-rate ordering,
#                   open-loop pacing sanity, max_queue=0 byte identity,
#                   and both shed policies reconciling their admission
#                   ledgers under an 8-thread hammer)
#
# Fails fast: the first failing stage stops the run; a summary table of
# per-stage PASS/FAIL/SKIP status is always printed on exit.
#
# Usage: tools/check.sh [jobs]   (default: nproc)

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

STAGES=(default asan-ubsan tsan clang-tidy graphlint serving checkpoint retrieval cascade pq traffic)
declare -A STATUS
for s in "${STAGES[@]}"; do STATUS[$s]="not run"; done

summary() {
  echo
  echo "== check.sh summary =="
  printf '%-12s %s\n' "stage" "status"
  printf '%-12s %s\n' "-----" "------"
  for s in "${STAGES[@]}"; do
    printf '%-12s %s\n' "$s" "${STATUS[$s]}"
  done
}
trap summary EXIT

fail() {
  STATUS[$1]="FAIL"
  echo "check.sh: stage '$1' failed" >&2
  exit 1
}

build_and_test() {
  local stage="$1" dir="$2"
  shift 2
  echo
  echo "== stage: $stage ($dir) =="
  cmake -B "$dir" -S . "$@" || fail "$stage"
  cmake --build "$dir" -j "$JOBS" || fail "$stage"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS") || fail "$stage"
  STATUS[$stage]="PASS"
}

build_and_test default build-check-default

build_and_test asan-ubsan build-check-asan-ubsan \
  "-DMETABLINK_SANITIZE=address,undefined"

build_and_test tsan build-check-tsan "-DMETABLINK_SANITIZE=thread"

echo
echo "== stage: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Stage 1's tree provides the compilation database.
  cmake -B build-check-default -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || fail clang-tidy
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  clang-tidy -p build-check-default "${TIDY_SOURCES[@]}" || fail clang-tidy
  STATUS[clang-tidy]="PASS"
else
  echo "clang-tidy not installed; skipping"
  STATUS[clang-tidy]="SKIP"
fi

echo
echo "== stage: graphlint =="
# Explicit analyzer self-check: GraphLint seeded-defect fixtures, the
# WriteSetChecker race fixtures, and the instrumented-kernel proofs.
./build-check-default/tests/analysis_test || fail graphlint
STATUS[graphlint]="PASS"

echo
echo "== stage: serving =="
# Reduced serving run: checks tape vs tape-free score parity and int8
# retrieval recall end to end (exit 1 on drift), without the full-scale
# benchmark timings.
./build-check-default/bench/bench_serving --smoke /tmp/metablink-smoke-serving.json \
  || fail serving
STATUS[serving]="PASS"

echo
echo "== stage: checkpoint =="
# Reduced checkpoint/store run: framed-container round-trip and meta-reweight
# kill/resume bit-identity gates, plus the SwapModel hammer (every Link must
# succeed and every swap must publish).
./build-check-default/bench/bench_checkpoint --smoke /tmp/metablink-smoke-checkpoint.json \
  || fail checkpoint
STATUS[checkpoint]="PASS"

echo
echo "== stage: retrieval =="
# Reduced clustered-index run: probe-all vs exhaustive bit-identity,
# deterministic-rebuild, and R@64 recall gates (exit 1 on any violation),
# without the full-scale benchmark timings.
./build-check-default/bench/bench_retrieval --smoke /tmp/metablink-smoke-retrieval.json \
  || fail retrieval
STATUS[retrieval]="PASS"

echo
echo "== stage: cascade =="
# Reduced cascade run: calibrates the three-tier rerank cascade on the
# smoke world and checks its serving contracts — cascade-off and
# forced-full-head byte identity vs full rerank, tier counters summing to
# requests, serial == pooled determinism, and the accuracy-delta gate
# (exit 1 on any violation), without the full-scale benchmark timings.
./build-check-default/bench/bench_serving --cascade-smoke /tmp/metablink-smoke-cascade.json \
  || fail cascade
STATUS[cascade]="PASS"

echo
echo "== stage: pq =="
# Reduced PQ/sharding run: PQ probe-all with a full re-score pool must be
# bit-identical to the exhaustive fp32 scan, the KB-sharded index must be
# bit-identical to the single index (serial and pool-parallel), rebuilds
# must be deterministic, PQ marginal bytes/entity must stay <= 25% of
# int8's, and the int8 entry point must dispatch to the exact scan below
# the crossover size (exit 1 on any violation).
./build-check-default/bench/bench_retrieval --pq-smoke /tmp/metablink-smoke-pq.json \
  || fail pq
STATUS[pq]="PASS"

echo
echo "== stage: traffic =="
# Reduced traffic-harness run: workload generators must be deterministic
# per seed and differ across seeds, Zipf(0.99) must out-hit uniform on an
# equal-size LRU, the open-loop driver must pace its no-op target, an
# unbounded server must answer byte-identically to a never-full bounded
# one, and both shed policies must reconcile accepted/rejected/shed with
# completed requests under an 8-thread overload hammer (exit 1 on any
# violation), without the full-scale latency-under-load sweep.
./build-check-default/bench/bench_traffic --smoke /tmp/metablink-smoke-traffic.json \
  || fail traffic
STATUS[traffic]="PASS"

echo
echo "check.sh: all stages passed (or were skipped)"
