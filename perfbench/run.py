#!/usr/bin/env python3
"""Builds and runs the COLT benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tune_shift|serve_shift|htap_flip|all
                             --seed N [--seconds S] [--trace 0|1]

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles the program from ../src) into .bench_build/,
then runs the benchmark's unit test. Each run prints the workload's report,
an environment stamp, and as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics listed in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. Exits
non-zero when the build, the unit test or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("tune_shift", "serve_shift", "htap_flip")
# The benchmark binary stops starting rounds at 140 s; this only guards
# against a hang.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds; returns the build log on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                return log_path.read_text()[-4000:]
    return None


def source_id():
    """The git commit when the tree is a checkout, else a content hash."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, contract):
    traces = BUILD_ROOT / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "colt_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.returncode not in (0, 1) or len(results) != 1:
        fail(f"{workload} exited with {proc.returncode} and no result")
    result = json.loads(results[0][len("RESULT "):])

    env = dict(result["env"])
    env["nproc"] = os.cpu_count()
    env["source"] = source_id()
    env["seeds"] = {workload: seed}
    print("env " + json.dumps(env, sort_keys=True))
    print("digest " + result["digest"])

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in contract[section]:
        name = spec["name"]
        got = result["metrics"].get(name)
        if got is None:
            fail(f"{workload} reported no {section} metric {name}")
        if got["unit"] != spec["unit"]:
            fail(f"{name}: unit {got['unit']} differs from BENCHMARK.json "
                 f"({spec['unit']})")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return result["correct"] and proc.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # Refuse early (before any build) in a tree without the program.
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; run from a full "
             "source tree")
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)

    log = build()
    if log is not None:
        sys.stderr.write(log)
        fail("build failed")
    test = subprocess.run([str(BUILD_DIR / "perfbench_stats_test")],
                          capture_output=True, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        fail("perfbench_stats_test failed")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_workload(workload, args.seed, args.seconds, args.trace,
                          contract) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
