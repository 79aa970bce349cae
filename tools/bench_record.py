#!/usr/bin/env python3
"""bench_record: keep the perfbench trajectory in BENCH_<workload>.json.

Run from anywhere in the repository:

    python3 tools/bench_record.py [workload...]          # record an entry
    python3 tools/bench_record.py --check [workload...]  # compare with it

Record mode runs perfbench/run.py --seed 1 --seconds 15, once with
--trace 0 and once with --trace 1, and appends
{git_rev, date, manifest, trace0, trace1} to BENCH_<workload>.json at
the repository root.  trace0 and trace1 are perfbench's result lines as
printed; manifest is the run manifest of the --trace 0 run.

--check runs one --seconds 0 --trace 1 pass per workload and fails when
a deterministic field (deterministic() below) differs from the newest
entry's trace1.  It prints the timings beside the entry's, and gates on
none of them.

With no workload named, all three are used.  Standard library only.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("paper_suite", "chaos_sweep", "race_replay")
SEED = 1
RECORD_SECONDS = 15

# Counts and fractions of what a traced run did, never how long it
# took: every band's `_events` count plus these.  Each read exactly the
# same in two --seconds 0 runs and in a --seconds 15 run of one tree.
COUNTS = ("fail_rate", "sim.events",
          "sched.migrations_up", "sched.migrations_down",
          "governor.opp_transitions", "platform.throttle_events",
          "abrace.batches", "abrace.events_tracked",
          "supervise.attempts", "supervise.retries",
          "supervise.quarantines",
          "supervise.outcome_clean", "supervise.outcome_recovered",
          "supervise.outcome_degraded", "supervise.outcome_failed",
          "fault.injected", "abrun.lost")


def deterministic(name):
    return name.endswith("_events") or name in COUNTS


def die(message, code=2):
    print(f"bench_record: {message}", file=sys.stderr)
    sys.exit(code)


def bench_path(workload):
    return os.path.join(ROOT, f"BENCH_{workload}.json")


def perfbench(workload, seconds, trace):
    """Run one perfbench workload; return (manifest, result)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        die(f"{' '.join(cmd[1:])} exited with {proc.returncode}", 1)
    manifest = lines[-2]
    if not manifest.startswith("manifest "):
        die(f"{workload}: no manifest line before the result", 1)
    return json.loads(manifest[len("manifest "):]), json.loads(lines[-1])


def git_rev():
    """The checked-out commit, suffixed -dirty when tracked files differ."""
    proc = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--abbrev=40",
         "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load(workload):
    path = bench_path(workload)
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def record(workload):
    manifest, trace0 = perfbench(workload, RECORD_SECONDS, 0)
    _, trace1 = perfbench(workload, RECORD_SECONDS, 1)
    entries = load(workload)
    entries.append({
        "git_rev": git_rev(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "manifest": manifest,
        "trace0": trace0,
        "trace1": trace1,
    })
    with open(bench_path(workload), "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    print(f"{workload}: entry {len(entries)} recorded in "
          f"{os.path.basename(bench_path(workload))}")


def check(workload):
    """Return the deterministic fields that differ from the newest entry."""
    entries = load(workload)
    if not entries:
        die(f"{os.path.basename(bench_path(workload))} has no entry", 1)
    newest = entries[-1]
    want = {k: v["value"] for k, v in newest["trace1"]["metrics"].items()}
    _, result = perfbench(workload, 0, 1)
    got = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload}: against the entry of {newest['git_rev']} "
          f"({newest['date']})")
    diffs = [] if result["correct"] else ["the run reported correct: false"]
    for name in sorted(got):
        if deterministic(name):
            if got[name] != want.get(name):
                diffs.append(f"{name} {got[name]!r}, "
                             f"entry {want.get(name)!r}")
        elif got[name] or want.get(name):
            print(f"  {name:32} {got[name]:14.6g}   "
                  f"entry {want.get(name, 0.0):.6g}")
    for diff in diffs:
        print(f"  DIFFERS: {diff}")
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare one short traced pass per workload "
                             "with the newest entry")
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"one of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args()
    for workload in args.workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
    workloads = args.workloads or list(WORKLOADS)
    if not args.check:
        for workload in workloads:
            record(workload)
        return 0
    failed = [w for w in workloads if check(w)]
    if failed:
        print(f"bench_record: deterministic fields moved in "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
