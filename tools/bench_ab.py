#!/usr/bin/env python3
"""A/B perf gate: servebench on a base revision against this checkout.

Run from anywhere inside the repository:

    python3 tools/bench_ab.py <base-rev>

Reads the command, run length, gated workloads and end-to-end bounds
from BENCHMARK.json.  Checks <base-rev> out as a git worktree under
.bench_build/ab/base (removed again on every exit path), then runs 10
pairs per workload, seeds 1-10, alternating which side runs first.
Each side runs the benchmark command in its own tree, so each builds
its own servebench.  Nothing absolute is committed: both sides are
measured back to back on one host.

The gate fails (exit 1) when, on any workload:
  - an end-to-end metric's median over this checkout's runs is worse
    than the base median by more than its bound, relative, in the
    metric's `better` direction;
  - this checkout fails a larger share of its attempted requests than
    the base does.  Shares are compared at whole-request granularity:
    this checkout may fail as many requests as the base's share
    predicts for its own attempt count, rounded to the nearest
    request, so one failure that both sides hit passes;
  - a run of this checkout reads `correct: false` where the base run
    with the same seed reads `correct: true`;
  - a run gives no result line.

Prints one row per workload x metric.  Each run's full output is kept
in .bench_build/ab/runs/<workload>-seed<n>-<side>.out; its last line is
the result JSON.
"""
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, ".bench_build", "ab")
BASE_TREE = os.path.join(AB, "base")
RUNS = os.path.join(AB, "runs")
SEEDS = range(1, 11)

child = None


def stop(signum, _frame):
    """Stop the running benchmark; the finally block removes the tree."""
    if child is not None and child.poll() is None:
        child.terminate()
        child.wait()
    sys.exit(128 + signum)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)


def remove_base_tree():
    git("worktree", "remove", "--force", BASE_TREE)
    shutil.rmtree(BASE_TREE, ignore_errors=True)
    git("worktree", "prune")


def run_one(tree, command, workload, seed, seconds, side):
    """Run the benchmark once in @p tree; return its result, or None."""
    global child
    out = os.path.join(RUNS, "%s-seed%d-%s.out" % (workload, seed, side))
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds)]
    with open(out, "w") as log, open(out[:-4] + ".err", "w") as err:
        child = subprocess.Popen(cmd, cwd=tree, stdout=log, stderr=err)
        child.wait()
        child = None
    with open(out) as log:
        lines = [l for l in log.read().splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def spread(values):
    """Median and quartiles, as text."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return q2, "%.4g [%.4g..%.4g]" % (q2, q1, q3)


def worse_by(base, head, better):
    """Relative change of head against base, positive when worse."""
    if base == head:
        return 0.0
    if base == 0:
        return float("inf") if (head > 0) == (better == "lower") \
            else float("-inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def judge(workload, metrics, results):
    """The table rows of one workload, each ending in ok or FAIL."""
    runs = {side: [results[(workload, s, side)] for s in SEEDS]
            for side in ("base", "head")}
    rows = []
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs
                         if name in r["metrics"]]
                  for side, rs in runs.items()}
        if not values["base"]:
            continue
        if not values["head"]:
            rows.append([workload, name, spread(values["base"])[1],
                         "missing", "", "", "FAIL"])
            continue
        base, base_text = spread(values["base"])
        head, head_text = spread(values["head"])
        change = worse_by(base, head, m["better"])
        rows.append([workload, name, base_text, head_text,
                     "%+.1f%%" % (100 * change), "%g%%" % (100 * m["bound"]),
                     "FAIL" if change > m["bound"] else "ok"])

    attempted = {side: sum(r["attempted"] for r in rs)
                 for side, rs in runs.items()}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    allowed = 0
    if attempted["base"]:
        allowed = int(failed["base"] * attempted["head"] /
                      attempted["base"] + 0.5)
    rows.append([workload, "failed requests",
                 "%d of %d" % (failed["base"], attempted["base"]),
                 "%d of %d" % (failed["head"], attempted["head"]), "",
                 "%d" % allowed, "FAIL" if failed["head"] > allowed else "ok"])

    lost = [s for s, b, h in zip(SEEDS, runs["base"], runs["head"])
            if b["correct"] and not h["correct"]]
    rows.append([workload, "correct", "", "false at seeds %s" % lost
                 if lost else "", "", "", "FAIL" if lost else "ok"])
    return rows


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python3 tools/bench_ab.py <base-rev>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    shutil.rmtree(RUNS, ignore_errors=True)
    os.makedirs(RUNS)
    remove_base_tree()
    try:
        added = git("worktree", "add", "--detach", BASE_TREE, sys.argv[1])
        if added.returncode != 0:
            print("bench_ab: cannot check out %s: %s"
                  % (sys.argv[1], added.stderr.strip()), file=sys.stderr)
            return 2
        trees = {"base": BASE_TREE, "head": ROOT}
        results = {}
        missing = []
        for seed in SEEDS:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for workload in workloads:
                for side in order:
                    r = run_one(trees[side], command, workload, seed,
                                seconds, side)
                    if r is None:
                        missing.append("%s seed %d %s"
                                       % (workload, seed, side))
                    results[(workload, seed, side)] = r
                    print("# %s seed %d %s: %s" % (
                        workload, seed, side,
                        "no result" if r is None else
                        "correct" if r["correct"] else "not correct"),
                        file=sys.stderr, flush=True)
        if missing:
            print("bench_ab: no result from %s; see %s"
                  % (", ".join(missing), RUNS))
            return 1

        rows = [["workload", "metric", "base p50 [p25..p75]",
                 "head p50 [p25..p75]", "worse by", "bound", ""]]
        for w in workloads:
            rows += judge(w, bench["end_to_end"], results)
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        for r in rows:
            print("  ".join(t.ljust(n) for t, n in zip(r, widths)).rstrip())
        failed = any(r[-1] == "FAIL" for r in rows)
        print("bench_ab: %s" % ("FAIL" if failed else "pass"))
        return 1 if failed else 0
    finally:
        remove_base_tree()


if __name__ == "__main__":
    sys.exit(main())
