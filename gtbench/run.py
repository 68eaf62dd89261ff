#!/usr/bin/env python3
"""Build and run the gtpar benchmark.

    python3 gtbench/run.py --workload batch-cpu --seed 1 --seconds 10 --trace 0

Run from the root of a gtpar checkout. The first call configures and builds
gtbench (and the gtpar libraries it links) with CMake under the directory
named by CARGO_TARGET_DIR (default .bench_build); later calls only rebuild
what changed. The driver binary checks every answer and prints a report
followed by one JSON result line; this wrapper checks that the result line
names exactly the metrics BENCHMARK.json declares for the mode, with the
declared units, and prints it last. Exit codes: 0 ok, 1 a wrong answer,
2 usage or missing sources, 3 build failure, 4 malformed result, 5 timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(code, msg):
    print(f"gtbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build the gtbench target; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail(3, "cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "gtbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail(3, "build failed")
    return build_dir / "gtbench"


def check_result(line, spec, trace):
    """The result line must carry exactly the declared metrics and units."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail(4, f"last output line is not JSON: {line[:200]!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(4, f"result keys {sorted(res)}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        fail(4, f"metric mismatch: missing {missing} extra {extra} "
                f"unit {wrong}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(2, f"no gtpar sources under {ROOT}; run from a gtpar checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(2, "BENCHMARK.json not found next to the benchmark directory")
    spec = json.loads(spec_path.read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "gtbench")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(60.0, 3 * args.seconds + 90))
    except subprocess.TimeoutExpired:
        fail(5, f"benchmark run exceeded its time limit "
                f"({time.monotonic() - start:.0f}s)")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(4, f"benchmark exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    res = check_result(lines[-1], spec, args.trace)
    print(lines[-1])
    sys.exit(0 if proc.returncode == 0 and res["correct"] else 1)


if __name__ == "__main__":
    main()
