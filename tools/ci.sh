#!/usr/bin/env bash
# Full local CI: tier-1 tests in a plain build, every bench against the
# claims manifest, the differential fuzzer, the benchmark's selftest and the
# observability check, then the suite under AddressSanitizer,
# ThreadSanitizer and UndefinedBehaviorSanitizer. Each sanitizer phase uses
# its own build directory so caches stay valid across runs.
#
# Usage: tools/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== tier-1 (plain build, warnings are errors) ==="
cmake -B build -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== bench claims (every figure bench + the smokes, one gate) ==="
# Runs every paper-figure bench and the ablation at full size (one to two
# minutes in all), then the CI-sized smokes, into one log, and checks every
# claim of bench/claims.json against it: an exact pin of every deterministic
# value, the shape each EXPERIMENTS.md row states (orderings and ratio
# bands), and the serving, join, index and vectorized host-time floors. The
# fig08 smoke runs twice, the second time on the scalar row path, and must
# hit the same pins both times; both runs' metrics timelines are
# schema-checked.
bin="$PWD/build/bench"
bench_out="$PWD/build/bench_out"  # trace and timeline files land here too
rm -rf "$bench_out" && mkdir -p "$bench_out"
bench_log="$bench_out/bench.log"
(
  cd "$bench_out"
  for b in fig01_overview fig05_pavlo_scan_agg fig06_pavlo_join \
           fig07_tpch_agg fig08_pde_join fig09_fault_tolerance \
           fig10_warehouse fig11_logreg fig12_kmeans fig13_task_overhead \
           t624_loading t32_columnar_memory ablation_engine; do
    "$bin/bench_$b"
  done
  "$bin/bench_fig08_pde_join" --smoke --metrics-out fig08_smoke_metrics.json
  "$bin/bench_fig08_pde_join" --smoke --no-vectorized \
    --metrics-out fig08_novec_metrics.json
  "$bin/bench_memory_pressure" --smoke
  "$bin/bench_joins" --smoke
  "$bin/bench_lookup" --smoke
  "$bin/bench_serving" --smoke
  "$bin/bench_micro" --vector-sweep
  "$bin/bench_fig05_pavlo_scan_agg" --vector-smoke
) > "$bench_log"
tools/bench_gate --validate-timeline "$bench_out/fig08_smoke_metrics.json"
tools/bench_gate --validate-timeline "$bench_out/fig08_novec_metrics.json"
tools/bench_gate --claims bench/claims.json --current "$bench_log"

echo "=== differential fuzz (fixed seeds) ==="
# Deterministic: same seeds every run, bounded runtime. Replays the minimized
# regression corpus, then sweeps a fixed seed range through Shark vs Hive vs
# the reference evaluator plus all metamorphic variants.
cmake --build build -j "$(nproc)" --target shark_fuzz
build/tools/fuzz/shark_fuzz --replay tests/fuzz_corpus
build/tools/fuzz/shark_fuzz --seed-start 1 --seeds "${FUZZ_SEEDS:-500}"

echo "=== perfbench selftest (reduced olap_mix vs the reference evaluator) ==="
# The benchmark's query mix at reduced size (selection, the many-group and
# SUBSTR group-bys, the join's group-by, top-k, a LIKE count and a DFS scan),
# each answer checked row for row against the reference evaluator, for three
# seeds. Builds perfbench/ and the engine into .bench_build on first use;
# changes nothing under perfbench/.
for seed in 1 2 3; do
  python3 perfbench/run.py --selftest --seed "$seed"
done

echo "=== observability plane (endpoint schema + determinism) ==="
# tools/obs_check starts shark_server with the HTTP observability listener on
# an ephemeral port, drives a loopback workload (including a client-supplied
# QUERYID), and asserts /healthz, /metrics (tiny stdlib Prometheus parser,
# per-session latency gauges), /queries?n + /queries/<id> JSON schema, the
# pinned STATS key set, and the JSONL query-log sink. The bench claims above
# already re-checked virtual-time determinism with the plane enabled
# (serving_smoke/obs/virtual_identical must be 1, plane overhead under the
# committed ceiling).
tools/obs_check build/src/shark_server

echo "=== concurrent jobs under ThreadSanitizer ==="
# The JobManager baton (one mutex handoff per park/resume) and the server's
# thread-per-connection front-end are where engine state crosses host
# threads, and so are the scheduler's precomputation slots, whose outcomes a
# launch takes from the pool's workers; a race here breaks the determinism
# guarantee silently, so these tests get a dedicated TSan pass before the
# full-suite one below.
cmake -B build-tsan -S . -DSHARK_SANITIZE=thread -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build-tsan -j "$(nproc)" --target shark_tests
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  build-tsan/tests/shark_tests --gtest_filter='ConcurrentJobsTest.*:FailingQueryCleanupTest.*:ShuffleLifetimeTest.*:DeterminismTest.ConcurrentJobs*:DeterminismTest.Indexed*:DeterminismTest.Observability*:IndexSqlTest.*:ServerTest.*:HttpListenerTest.*:SchedulerTest.*:ShuffleManagerTest.*:ShuffleStatsTest.*:DeterminismTest.FaultRecovery*'

echo "=== AddressSanitizer ==="
tools/check_asan.sh

echo "=== ThreadSanitizer ==="
tools/check_tsan.sh

echo "=== UndefinedBehaviorSanitizer ==="
tools/check_ubsan.sh

echo "CI: all phases passed"
