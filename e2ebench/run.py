#!/usr/bin/env python3
"""End-to-end benchmark of the ORP toolkit (see e2ebench/README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload design|nas|analyze --seed N \
        --seconds S --trace 0|1

Builds the toolkit and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs whole
rounds of the workload for S seconds, checks every output, and prints one
JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`python3 e2ebench/run.py --self-test` runs the test of the checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metric names and units come from BENCHMARK.json at the repository root.
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(target, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["design", "nas", "analyze"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("e2ebench: build failed:", err)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "e2e_checks_test")]).returncode

    cmd = [os.path.join(out, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        log("e2ebench: e2e_bench exited with", proc.returncode)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    with open(BENCHMARK) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    raw = result["metrics"]
    if set(units) != set(raw):
        log("e2ebench: run metrics differ from BENCHMARK.json:",
            ", ".join(sorted(set(units) ^ set(raw))))
        return 1
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": bool(result["correct"]) and result["attempted"] >= 1,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
