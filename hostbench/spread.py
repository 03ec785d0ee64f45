#!/usr/bin/env python3
"""Steadiness check for hostbench, and the writer of BASELINE.md.

Runs the benchmark command of BENCHMARK.json with --trace 0 on ten seeds
per workload, twice (two *sets*), exactly as the driver does, and prints
for every end-to-end metric

  * the spread of each set: the distance between the first and third
    quartile of its ten values (statistics.quantiles(values, n=4)) as a
    share of their median, against a third of the metric's bound;
  * the two medians, and by how much the second is worse than the first,
    against the bound.

Takes no arguments (~27 min): `python3 hostbench/spread.py`. The table and
the first set's medians (the baseline numbers) are written to
hostbench/BASELINE.md. For a quick look at one workload, run the
BENCHMARK.json command itself.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share of the first median by which the second is worse (<0: better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    started = time.time()
    # sets[s][workload][metric] -> list of values over the seeds
    sets = []
    for s in range(2):
        per_workload = {}
        for w in workloads:
            runs = []
            for i in range(SEEDS):
                seed = 1000 * (s + 1) + 17 * i + 1
                runs.append(run_once(bench["command"], w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: "
                      f"{runs[-1]['msgs_per_kref']:.4f} msgs/kref", file=sys.stderr)
            per_workload[w] = {m["name"]: [r[m["name"]] for r in runs] for m in metrics}
        sets.append(per_workload)

    lines = []
    lines.append("| workload | metric | unit | median 1 | median 2 | 2 worse by | bound "
                 "| spread 1 | spread 2 | bound/3 | verdict |")
    lines.append("|---|---|---|---|---|---|---|---|---|---|---|")
    ok = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            v1, v2 = sets[0][w][name], sets[1][w][name]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            worse = worse_by(m1, m2, m["better"])
            # The driver's rule: spread within the bound (setup_s exempt),
            # second median not worse than the first by more than the bound.
            accepted = worse <= bound and (name == "setup_s" or max(s1, s2) <= bound)
            steady = max(s1, s2) <= bound / 3
            verdict = "FAIL" if not accepted else ("ok" if steady or name == "setup_s" else "ok (spread > bound/3)")
            ok &= accepted
            lines.append(f"| {w} | {name} | {m['unit']} | {m1:.6g} | {m2:.6g} | {worse:+.2%} "
                         f"| {bound:.0%} | {s1:.2%} | {s2:.2%} | {bound / 3:.2%} | {verdict} |")
    table = "\n".join(lines)
    print(table)
    print(f"\n{'accepted' if ok else 'REJECTED'}: {len(workloads)} workloads x "
          f"{SEEDS} seeds x 2 sets x {seconds} s in {time.time() - started:.0f} s")

    with open(os.path.join(HERE, "BASELINE.md"), "w") as f:
        f.write("# hostbench baseline and steadiness\n\n")
        f.write("Written by `python3 hostbench/spread.py`: two sets of "
                f"{SEEDS} runs per workload ({SEEDS} different seeds, "
                f"`--seconds {seconds} --trace 0`) of the same code on the same box.\n\n")
        f.write("* **median 1** is the baseline number of this commit; **median 2** is the "
                "same measurement repeated.\n")
        f.write("* **2 worse by** is the share of median 1 by which median 2 is worse "
                "(negative: better); it must stay within the **bound**.\n")
        f.write("* **spread** is the distance between the first and third quartile "
                "(`statistics.quantiles(values, n=4)`) over the median; it must stay within "
                "the bound (`setup_s` exempt) and should stay under **bound/3**.\n\n")
        f.write(f"Result: **{'accepted' if ok else 'REJECTED'}**. "
                "Every run reported `correct: true`, `failed: 0`.\n\n")
        f.write(table + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
