#!/usr/bin/env python3
"""Paired parent/change runs of the repository's benchmark, in one command.

    python3 perf/pairs.py [--pairs N] [--record FILE]     (default 10; ~30 min)

Reads the command, workloads, run length, end-to-end metrics and bounds
from BENCHMARK.json. The *change* is this checkout as it stands; the
*parent* is HEAD when tracked files have uncommitted edits (a change being
prepared), otherwise HEAD~1, unpacked by `git archive` under
target/pairs/parent. Each side is built by one discarded run; then for
every pair and every workload both sides run the command with the same
fresh seed, and which side goes first alternates from pair to pair.

Prints, per workload x end-to-end metric: both medians, both quartile
pairs, the pairs the change won, and the verdict by section 8 of the
choosing-metrics guide:

  gain        the change won at least nine tenths of the pairs (ties count
              for neither side) and the medians differ by more than the
              distance between the parent's quartiles;
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's quartile distance is wider than the bound and not
              every run of the change beat every run of the parent;
  ok          none of the above: no worse than the parent within the bound.

`--record FILE` also writes that table as JSON — commit ids, seeds and,
per workload x metric, both medians and quartile pairs, the pairs won and
lost and the verdict — so host speed keeps a history beside the virtual
side's perf/BENCH_<n>.json (perf/HOST_<pr>.json).

It reads BENCHMARK.json and runs what it names; it writes nothing but the
parent's copy, the build outputs under it and the file `--record` names.
Exit code 1 on a REGRESSION or a run that is not `correct` with `failed: 0`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_DIR = os.path.join(ROOT, "target", "pairs", "parent")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parent_checkout():
    """Unpacks the parent commit under target/ and returns its id and the
    change's: HEAD, marked `+uncommitted` when tracked files are edited."""
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    commit = head if dirty else git("rev-parse", "HEAD~1")
    stamp = os.path.join(PARENT_DIR, ".pairs_commit")
    if not (os.path.isfile(stamp) and open(stamp).read() == commit):
        shutil.rmtree(PARENT_DIR, ignore_errors=True)
        os.makedirs(PARENT_DIR)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", PARENT_DIR], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {commit}: exit code {archive.returncode}")
        with open(stamp, "w") as f:
            f.write(commit)
    return commit, head + ("+uncommitted" if dirty else "")


def run_once(command, cwd, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=1800)
    if done.returncode != 0:
        sys.exit(f"{cwd}: {' '.join(argv)}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{cwd}: {workload} seed {seed}: "
                 f"correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent, change, better, bound):
    """The section-8 verdict for one workload x metric, and the pairs won."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, _, p3 = statistics.quantiles(parent, n=4)
    c1, _, c3 = statistics.quantiles(change, n=4)
    worse_by = -sign * (mc - mp) / mp if mp else 0.0
    clean_sweep = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > bound:
        word = "REGRESSION"
    elif wins >= 0.9 * len(parent) and sign * (mc - mp) > (p3 - p1):
        word = "gain"
    elif max((p3 - p1) / mp, (c3 - c1) / mc) > bound and not clean_sweep:
        word = "unresolved"
    else:
        word = "ok"
    return word, wins, losses, (mp, p1, p3), (mc, c1, c3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", metavar="FILE",
                    help="also write the verdict table to FILE as JSON")
    args = ap.parse_args()
    pairs = args.pairs
    if pairs < 2:
        sys.exit("--pairs must be at least 2 (quartiles need two runs a side)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    commit, change_id = parent_checkout()
    sides = {"parent": PARENT_DIR, "change": ROOT}
    print(f"parent {commit[:12]} in {os.path.relpath(PARENT_DIR, ROOT)}, "
          f"change = this checkout; {pairs} pairs x {len(workloads)} workloads "
          f"x {seconds} s a side", file=sys.stderr)
    for cwd in sides.values():  # build: one discarded run a side
        run_once(command, cwd, workloads[0], 0, 1)

    # Seeds no earlier invocation used: this one's start time.
    base = int(time.time()) % 1_000_000_000
    started = time.time()
    # values[side][workload][metric] -> one value per pair
    values = {s: {w: {m["name"]: [] for m in metrics} for w in workloads} for s in sides}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            seed = base + i
            for side in order:
                got = run_once(command, sides[side], w, seed, seconds)
                for m in metrics:
                    values[side][w][m["name"]].append(got[m["name"]])
            print(f"pair {i + 1}/{pairs} {w} seed {seed} ({order[0]} first): "
                  f"msgs_per_kref {values['parent'][w]['msgs_per_kref'][-1]:.4g} -> "
                  f"{values['change'][w]['msgs_per_kref'][-1]:.4g}", file=sys.stderr)

    print("| workload | metric | parent median (q1..q3) | change median (q1..q3) "
          "| change | pairs won | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    regressed = False
    rows = []
    for w in workloads:
        for m in metrics:
            name = m["name"]
            word, wins, losses, p, c = verdict(values["parent"][w][name],
                                               values["change"][w][name],
                                               m["better"], m["bound"])
            regressed |= word == "REGRESSION"
            change = (c[0] - p[0]) / p[0] if p[0] else 0.0
            rows.append({"workload": w, "metric": name, "unit": m["unit"],
                         "better": m["better"], "bound": m["bound"],
                         "parent": dict(zip(("median", "q1", "q3"), p)),
                         "change": dict(zip(("median", "q1", "q3"), c)),
                         "pairs_won": wins, "pairs_lost": losses, "verdict": word})
            print(f"| {w} | {name} | {p[0]:.5g} ({p[1]:.5g}..{p[2]:.5g}) "
                  f"| {c[0]:.5g} ({c[1]:.5g}..{c[2]:.5g}) | {change:+.1%} "
                  f"| {wins} of {wins + losses} | {m['bound']:.0%} | {word} |")
    print(f"\n{pairs} pairs, seeds {base}..{base + pairs - 1}, parent {commit[:12]}, "
          f"{time.time() - started:.0f} s; every run correct, failed 0", file=sys.stderr)
    if args.record:
        with open(args.record, "w") as f:
            json.dump({"parent": commit, "change": change_id, "pairs": pairs,
                       "seeds": [base + i for i in range(pairs)],
                       "run_seconds": seconds, "rows": rows}, f, indent=1)
            f.write("\n")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
