#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and decomposition.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S]

Run from the repository root.  For every workload it makes two short
untraced runs and two short traced runs with the same seed and checks that

  * every run is correct, fails nothing, and reports ok_pct = 100;
  * the count metrics of the two traced runs are identical;
  * the traced layer rows plus unattributed_s add up to trace.unit_wall_s.

Exits 0 when every check holds, 1 otherwise.  Takes a few minutes.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("campaign_verify", "stream_epochs")

# Counts that must repeat exactly.  The minor-heap words are only
# comparable where the unit runs on the benchmark's own domain
# (campaign_verify); on the service workloads they read 0.
COUNTS = ("sim.events", "collect.records", "label.paths", "label.rfd_paths",
          "tomography.paths_n", "tomography.paths_u", "infer.sweeps",
          "infer.grad_evals", "infer.gate_sweeps", "stream.obs_n",
          "sim.minor_mw", "infer.minor_mw")

# The rows that partition a traced unit's wall time (perfbench/layers.ml).
SUM_ROWS = ("beacon.stimulus_s", "sim.replay_s", "collect.dump_s",
            "label.label_s", "tomography.build_s", "infer.mh_s", "infer.hmc_s",
            "infer.other_s", "categorize.s", "heuristics.s", "stream.append_s",
            "http.submit_s", "http.poll_s")

# Rows a workload reports outside the sum: on stream_epochs these are
# replays of the service's own calls, made after the units.
AUX_ROWS = {"stream_epochs": ("tomography.build_s",)}


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if p.returncode != 0:
        raise RuntimeError("%s trace=%d exited %d" % (workload, trace, p.returncode))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    return r, {k: v["value"] for k, v in r["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            runs = [run(w, args.seed, args.seconds, trace) for _ in range(2)]
            for r, m in runs:
                if not r["correct"] or r["failed"]:
                    problems.append("%s trace=%d: correct=%s failed=%d"
                                    % (w, trace, r["correct"], r["failed"]))
                if trace == 0 and m["ok_pct"] != 100:
                    problems.append("%s: ok_pct %s" % (w, m["ok_pct"]))
            if trace == 0:
                continue
            (_, a), (_, b) = runs
            for k in COUNTS:
                if a[k] != b[k]:
                    problems.append("%s: %s differs: %r vs %r" % (w, k, a[k], b[k]))
            for m in (a, b):
                rows = [r for r in SUM_ROWS if r not in AUX_ROWS.get(w, ())]
                total = sum(m[r] for r in rows) + m["unattributed_s"]
                if abs(total - m["trace.unit_wall_s"]) > 1e-6 * max(1.0, m["trace.unit_wall_s"]):
                    problems.append("%s: rows sum to %.9f, unit wall %.9f"
                                    % (w, total, m["trace.unit_wall_s"]))
        print("%s: checked" % w, flush=True)
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
