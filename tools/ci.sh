#!/usr/bin/env bash
# Full local CI: tier-1 tests in a plain build, then the same suite under
# AddressSanitizer, ThreadSanitizer and UndefinedBehaviorSanitizer, plus a
# smoke run of the memory-pressure bench (spill paths end to end). Each
# phase uses its own build directory so caches stay valid across runs.
#
# Usage: tools/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== tier-1 (plain build, warnings are errors) ==="
cmake -B build -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== memory-pressure bench (smoke) ==="
cmake --build build -j "$(nproc)" --target bench_memory_pressure
build/bench/bench_memory_pressure --smoke

echo "=== metrics (timeline schema + bench regression gate) ==="
# Deterministic virtual-seconds make the gate noise-free: run the CI-sized
# fig08 bench, validate the exported timeline JSON against the schema, diff
# the BENCH_* lines against the committed baseline, and self-test the gate
# (an injected 2x slowdown must be flagged).
cmake --build build -j "$(nproc)" --target bench_fig08_pde_join
metrics_dir=$(mktemp -d)
trap 'rm -rf "$metrics_dir"' EXIT
build/bench/bench_fig08_pde_join --smoke \
  --metrics-out "$metrics_dir/fig08_metrics.json" \
  | tee "$metrics_dir/fig08.log"
tools/bench_gate --validate-timeline "$metrics_dir/fig08_metrics.json"
tools/bench_gate --baseline bench/bench_baseline.json \
  --current "$metrics_dir/fig08.log"
tools/bench_gate --self-test

echo "=== vectorized execution (scalar-path smoke + kernel floors) ==="
# The batch path is a pure host-side optimization: re-running the fig08
# smoke with the scalar row path forced must reproduce the committed
# virtual-seconds baseline exactly, and the vectorized kernels must beat
# row-at-a-time execution by the conservative wall-clock floors.
build/bench/bench_fig08_pde_join --smoke --no-vectorized \
  --metrics-out "$metrics_dir/fig08_novec_metrics.json" \
  | tee "$metrics_dir/fig08_novec.log"
tools/bench_gate --baseline bench/bench_baseline.json \
  --current "$metrics_dir/fig08_novec.log"
cmake --build build -j "$(nproc)" --target bench_micro bench_fig05_pavlo_scan_agg
build/bench/bench_micro --vector-sweep | tee "$metrics_dir/vector.log"
build/bench/bench_fig05_pavlo_scan_agg --vector-smoke \
  | tee -a "$metrics_dir/vector.log"
tools/bench_gate --vector-floors --baseline bench/bench_baseline.json \
  --current "$metrics_dir/vector.log"

echo "=== cost-based optimizer (join bench + floors) ==="
# bench_joins runs star and chain multi-join queries in every planning mode
# (naive written order, ANALYZE'd CBO, stale statistics with and without PDE
# re-planning); the gate enforces the committed floors: CBO >= 2x over the
# naive order on at least one query, stale+replan within 1.5x of the best
# static plan, and at least one mid-query re-plan actually firing. The
# ANALYZE runs route every column through the src/common/histogram merge
# path, which the UBSan ctest pass below re-covers under
# -fsanitize=undefined via stats_test and planner_test.
cmake --build build -j "$(nproc)" --target bench_joins
build/bench/bench_joins --smoke | tee "$metrics_dir/joins.log"
tools/bench_gate --join-floors --baseline bench/bench_baseline.json \
  --current "$metrics_dir/joins.log"

echo "=== differential fuzz (fixed seeds) ==="
# Deterministic: same seeds every run, bounded runtime. Replays the minimized
# regression corpus, then sweeps a fixed seed range through Shark vs Hive vs
# the reference evaluator plus all metamorphic variants.
cmake --build build -j "$(nproc)" --target shark_fuzz
build/tools/fuzz/shark_fuzz --replay tests/fuzz_corpus
build/tools/fuzz/shark_fuzz --seed-start 1 --seeds "${FUZZ_SEEDS:-500}"

echo "=== serving (shark_server loopback + admission floors) ==="
# bench_serving's sweep drives concurrent sessions through the JobManager's
# admission control (deterministic virtual-time latencies), then the loopback
# phase pushes the same mix through a real shark_server TCP socket with 8
# concurrent client connections. The gate enforces the committed floors:
# saturation QPS, low-load p99, and zero dropped loopback queries.
cmake --build build -j "$(nproc)" --target bench_serving shark_server
build/bench/bench_serving --smoke | tee "$metrics_dir/serving.log"
tools/bench_gate --serving-floors --baseline bench/bench_baseline.json \
  --current "$metrics_dir/serving.log"

echo "=== observability plane (endpoint schema + determinism) ==="
# tools/obs_check starts shark_server with the HTTP observability listener on
# an ephemeral port, drives a loopback workload (including a client-supplied
# QUERYID), and asserts /healthz, /metrics (tiny stdlib Prometheus parser,
# per-session latency gauges), /queries?n + /queries/<id> JSON schema, the
# pinned STATS key set, and the JSONL query-log sink. The serving floors gate
# above already re-checked virtual-time determinism with the plane enabled
# (BENCH_serving_obs.json: virtual_identical must be true, plane overhead
# under the committed ceiling).
tools/obs_check build/src/shark_server

echo "=== secondary indexes (lookup bench + floors) ==="
# bench_lookup compares the B+-tree IndexRangeScan against the full columnar
# scan across selectivity points (virtual-time deterministic), then sweeps
# open-loop point lookups through the JobManager with indexes on vs off. The
# gate enforces the committed floors: the selective point must plan as an
# IndexRangeScan and beat the scan by >= 5x, the indexed sweep must lift
# saturation QPS by >= 10x, and indexed p99 must stay under the ceiling.
cmake --build build -j "$(nproc)" --target bench_lookup
build/bench/bench_lookup --smoke | tee "$metrics_dir/lookup.log"
tools/bench_gate --index-floors --baseline bench/bench_baseline.json \
  --current "$metrics_dir/lookup.log"

echo "=== concurrent jobs under ThreadSanitizer ==="
# The JobManager baton (one mutex handoff per park/resume) and the server's
# thread-per-connection front-end are the only places engine state crosses
# host threads; a race here breaks the determinism guarantee silently, so
# these tests get a dedicated TSan pass before the full-suite one below.
cmake -B build-tsan -S . -DSHARK_SANITIZE=thread -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build-tsan -j "$(nproc)" --target shark_tests
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  build-tsan/tests/shark_tests --gtest_filter='ConcurrentJobsTest.*:FailingQueryCleanupTest.*:DeterminismTest.ConcurrentJobs*:DeterminismTest.Indexed*:DeterminismTest.Observability*:IndexSqlTest.*:ServerTest.*:HttpListenerTest.*'

echo "=== AddressSanitizer ==="
tools/check_asan.sh

echo "=== ThreadSanitizer ==="
tools/check_tsan.sh

echo "=== UndefinedBehaviorSanitizer ==="
tools/check_ubsan.sh

echo "CI: all phases passed"
