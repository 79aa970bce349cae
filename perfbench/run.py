#!/usr/bin/env python3
"""perfbench: build the simulator from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); a workload's scratch directory lives under it and
is deleted when the run ends.  The last stdout line is the result JSON,
preceded by the run manifest.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "chaos_sweep", "race_replay")
REFERENCE = os.path.join(HERE, "reference", "paper_suite.txt")


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build perfbench and abrun in Release mode."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hh")):
        die("the simulator sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd), 1)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build, then run the self-tests and a smoke "
                             "run of each workload")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the paper_suite reference")
    args = parser.parse_args()
    if not (args.self_test or args.write_reference or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    bdir = build_dir()
    build(bdir)
    exe = os.path.join(bdir, "perfbench")
    if args.self_test:
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=bdir).returncode
    if args.write_reference:
        return subprocess.run([exe, "--write-reference", REFERENCE]).returncode

    work = os.path.join(bdir, f"work-{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--abrun", os.path.join(bdir, "biglittle_abrun", "abrun"),
           "--reference", REFERENCE, "--work-dir", work,
           "--git-rev", git_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"perfbench exited with {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("the last output line is not a JSON result", 1)
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        die("printed metrics differ from BENCHMARK.json: "
            f"{sorted(declared ^ set(result['metrics']))}", 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
