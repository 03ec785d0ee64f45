#!/usr/bin/env python3
"""The allocation budget: `allocs_per_msg` and `peak_heap_mb` may not creep back.

    python3 perf/alloc_budget.py            (~5 s once hostbench is built)

Runs the BENCHMARK.json command once per workload with `--seed 1
--seconds 0 --trace 0`. Zero seconds means four fixed repetitions of a
fixed world set, so `allocs_per_msg` and `peak_heap_mb` are functions of
the build and the seed — they repeat to the last digit — and can be held
to a number, which no timing can. Fails (exit code 1) if a run is not
`correct`, reports `failed` != 0, or allocates more per message or holds
a higher heap peak than BUDGET / HEAP_MB allow.

Both tables hold what the tree measured when the number was last moved
on purpose, plus 5 %: room for a field added to a message, not for a
vector per event or a queue that never drains. A change that lowers a
number by more than that should lower its ceiling; one that must raise it
says why in the same commit. For the record, before
one-buffer-per-transmission and the action sinks (PR 20) the five
`allocs_per_msg` read 20.09 / 156.21 / 73.58 / 456.03 / 46.88, and
before the consensus core wrote into its replica's buffers
`quorum_replay` read 42.90.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload -> allocs_per_msg ceiling (measured at PR 20, seed 1: 6.11 /
# 30.30 / 21.60 / 207.68 / 16.31, times 1.05; `quorum_replay` again at
# PR 21, when every log entry began to travel once per follower: 80.26;
# `knee_search` again at PR 24, when a fault-free trial began to stop once
# its world has settled instead of idling out the grace period: 11.91;
# `shard_replay` and `quorum_replay` again at PR 25, when a faulted world
# began to end once its recovery has finished instead of simulating 35 s
# of idle heartbeats and watchdog pings after it: 17.63 and 52.51; both
# again when routers and recorders began to read a frame's
# destination in place, the medium to own the routed recorder set, and a
# quorum replica to keep its ack queues: 15.05 and 44.16; `knee_search`
# again when a trial's report began to fold its stage latencies straight
# from the span logs and to build one metrics registry: 9.53;
# `steady_bus`, `shard_replay` and `knee_search` again when a destroyed
# process began to be retired in place instead of having every page it
# shared rewritten: 5.54 / 13.59 / 8.93; `quorum_replay` again when the
# consensus core began to append its outputs to a buffer its replica
# owns, hand out committed entries one at a time and refill the entry
# buffer of an Append already encoded: 31.02).
BUDGET = {
    "steady_bus": 5.82,
    "ether_contend": 31.81,
    "shard_replay": 14.28,
    "quorum_replay": 32.57,
    "knee_search": 9.38,
}

# workload -> peak_heap_mb ceiling (measured when a destroyed process
# began to be retired in place, seed 1: 1.2383 / 0.1294 / 2.6427 /
# 3.0852 / 0.7370, times 1.05; before it `steady_bus` read 1.6612, its
# old pages queued for erasure beside their rewrites; `shard_replay` and
# `quorum_replay` again when the causal graph a recovered world's report
# builds went flat — CSR adjacency, sorted index runs, `u32` edges —
# instead of two vectors per node: 1.6467 and 1.2108, the report's graph
# having been their peak at 2.6427 and 3.0866).
HEAP_MB = {
    "steady_bus": 1.301,
    "ether_contend": 0.136,
    "shard_replay": 1.730,
    "quorum_replay": 1.272,
    "knee_search": 0.774,
}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if not sorted(names) == sorted(BUDGET) == sorted(HEAP_MB):
        sys.exit(f"BUDGET names {sorted(BUDGET)}, HEAP_MB {sorted(HEAP_MB)}, "
                 f"but BENCHMARK.json runs {sorted(names)}")
    over = False
    for name in names:
        argv = bench["command"] + ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"{name}: exit code {done.returncode}, no result line")
        result = json.loads(lines[-1])
        got = result["metrics"]["allocs_per_msg"]["value"]
        heap = result["metrics"]["peak_heap_mb"]["value"]
        healthy = result["correct"] is True and result["failed"] == 0
        within = got <= BUDGET[name] and heap <= HEAP_MB[name]
        verdict = "ok" if healthy and within else "OVER BUDGET" if healthy else "NOT CORRECT"
        over |= verdict != "ok"
        print(f"{name:14s} allocs_per_msg {got:9.3f}  budget {BUDGET[name]:8.2f}  "
              f"peak_heap_mb {heap:7.4f}  budget {HEAP_MB[name]:6.3f}  "
              f"correct={result['correct']} failed={result['failed']}  {verdict}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
