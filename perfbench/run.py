#!/usr/bin/env python3
"""Builds and runs the shark benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload olap_mix --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the engine under src/) into .bench_build, runs one
workload and prints every metric the program measured, then, as the last
line, one JSON object holding the metrics BENCHMARK.json names: its
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

Two more modes, for people rather than the harness:

  --selftest      a reduced olap_mix checked against the reference evaluator
  --sensitivity   flips ExecOptions (use_indexes, vectorized) and reports
                  whether the gated metrics move past their bounds
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("engine sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("perfbench/CMakeLists.txt not found; run from the repository root")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out])
    steps.append(["cmake", "--build", out, "--target", "shark_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "shark_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no " + binary)
    return binary


def run_program(binary, args):
    """Runs the program; returns (stdout lines, parsed result line)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark program exited with {done.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark program printed no result line", 1)
    return lines[:-1], result


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def select(result, wanted):
    """Keeps exactly the `wanted` metrics; fails if one is missing."""
    metrics = {}
    for spec in wanted:
        m = result["metrics"].get(spec["name"])
        if m is None:
            fail(f"metric {spec['name']} was not measured", 1)
        if m["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {m['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}", 1)
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def sensitivity(binary, spec, seconds):
    """Flips ExecOptions and reports how far the metrics move, against
    BENCHMARK.json's bounds (medians over three seeds)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    checks = [
        ("serve_point", "use_indexes=0", "should move past its bound"),
        ("olap_mix", "use_indexes=0", "should stay within the bounds"),
        ("olap_mix", "vectorized=0", "should move past its bound"),
    ]
    shown = ["cpu_ms_per_op", "latency_p50_ms", "query_ms_geomean",
             "queries_per_s", "virtual_s"]
    seeds = (101, 102, 103)

    def medians(workload, exec_args):
        values = {}
        for seed in seeds:
            _, r = run_program(binary, ["--workload", workload, "--seed",
                                        str(seed), "--seconds", str(seconds),
                                        "--trace", "0"] + exec_args)
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        return {name: statistics.median(v) for name, v in values.items()}

    base = {}
    for workload, flip, expectation in checks:
        if workload not in base:
            base[workload] = medians(workload, [])
        flipped = medians(workload, ["--exec", flip])
        print(f"{workload} with {flip} ({expectation}):")
        for name in shown:
            b, f = base[workload][name], flipped[name]
            change = (f - b) / b if b else 0.0
            if name in bounds:
                m = bounds[name]
                worse = change if m["better"] == "lower" else -change
                note = (f"bound {m['bound']:.2f}: "
                        + ("PAST the bound" if worse > m["bound"]
                           else "within the bound"))
            else:
                note = "not gated"
            print(f"  {name:18s} {b:12.4f} -> {f:12.4f}  ({change:+7.1%})  "
                  f"{note}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["olap_mix", "serve_point",
                                          "ingest_train"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--sensitivity", action="store_true")
    a = p.parse_args()

    spec = load_spec()
    binary = build()
    if a.selftest:
        done = subprocess.run([binary, "--workload", "olap_mix", "--seed",
                               str(a.seed), "--seconds", "1", "--selftest"],
                              timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)
    if a.sensitivity:
        sensitivity(binary, spec, a.seconds)
        return
    if a.workload is None:
        fail("--workload is required")

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(
            trace_dir, f"{a.workload}-seed{a.seed}.json")]
    lines, result = run_program(binary, args)
    for line in lines:
        print(line)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    print(json.dumps(select(result, wanted)))


if __name__ == "__main__":
    main()
