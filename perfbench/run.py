#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark binary
(perfbench/main.exe) from source with dune, runs the workload in a fresh
process, checks that its result line carries exactly the metrics
BENCHMARK.json declares for the mode (end-to-end with --trace 0,
per-layer with --trace 1) and re-prints it as the last line of stdout.
Exits non-zero, printing no result, when the sources are missing, the
build fails, or the binary fails or overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("campaign_verify", "stream_epochs")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
STATE = ".perfbench-state"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or result[k] < 0:
            raise ValueError("%s is not a whole number" % k)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(
            "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            raise ValueError("%s: unit %r, want %r" % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            raise ValueError("%s: value is not a number" % name)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the binary forks children, dune spawns compilers) and wait for it.
    Returns (returncode, stdout text) or (None, None) on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for path in ("BENCHMARK.json", "dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            return fail("%s not found: run from the repository root" % path, 2)

    # The dune cache lives outside the checkout; keep every build artefact
    # inside it.
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            BUILD_TIMEOUT_S, sys.stderr)
    except OSError as e:
        return fail("build failed: %s" % e, 3)
    if code != 0 or not os.path.exists(EXE):
        return fail("build failed", 3)

    shutil.rmtree(STATE, ignore_errors=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(STATE, ignore_errors=True)
    if code is None:
        return fail("%s overran %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    if code != 0:
        return fail("%s exited with %d" % (args.workload, code), 5)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return fail("no result line", 6)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        return fail("bad result line: %s" % e, 6)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
