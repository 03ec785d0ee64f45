#!/usr/bin/env python3
"""Resolve a `hostprof` sample file and print where the host time went.

    python3 perf/hostprof.py perf/hostprof/out/steady_bus-11.txt [--top N]
    python3 perf/hostprof.py <file from `hostprof --allocs 211`> --per-msg 20.09

`perf/hostprof` (see its `src/main.rs`) samples the call stack inside
`run_schedule` / `find_knee` and writes raw return addresses. This script
turns them into functions and lines with `addr2line -f -C -i` (inlined
frames expanded, so a `BTreeMap::get` inlined into its caller still counts
as ordered-map time) and prints the three tables EXPERIMENTS.md "Host
profiles" §19-§21 use:

1. share of samples by innermost first-party function (its own code plus
   the std/libc code it called), with the share of samples that have it
   anywhere on the stack;
2. share of samples with a frame of each family on the stack: the
   container families (ordered map, hash, binary heap, allocator, crc,
   decode), matched by function name, and one family per layer of the
   system, matched by the source path of the frame (LAYERS);
3. per family, the nearest first-party caller (function and line) of the
   innermost frame of that family — for a layer, the nearest caller
   outside it.

Shares are of all samples; families overlap (an allocation inside a
B-tree insert counts for both, and for the layer whose code did it). Needs binutils' `addr2line` on PATH and
the executable the samples came from, unchanged, at the recorded path.

A file written by `hostprof --allocs <n>` holds the stack of every n-th
allocation instead: one table, allocations by call site (EXPERIMENTS.md
"Host profiles" §22) —
the nearest first-party function and line, and when that is a helper in
`codec.rs` or `frame.rs` (an encoder's buffer, a frame's bytes) the
nearest caller that is not, `site <- caller`. With
`--per-msg <allocs_per_msg>` (hostbench's number for the workload and
build) each share is also given as allocations per message.
"""

import argparse
import collections
import re
import signal
import subprocess
import sys

# A frame is matched as "function @ file:line". Inlined frames carry bare
# names (`contains<MessageId, ...>`), so what they belong to is read off
# the file they were inlined from.
FIRST_PARTY = re.compile(r" @ .*/(crates/[a-z]+/(src|tests)|hostbench/src|perf/hostprof/src)/|^<?publishing_[a-z]+::[^@]* @ \?\?")
# The profiler's own counting allocator sits under every allocation (how
# many of its frames survive inlining is the optimiser's business): its
# frames are dropped from every stack. In `--allocs` stacks the shims
# above it are innermost and go too. HELPER_FILES: files whose functions
# allocate on behalf of their callers.
HOOK = re.compile(r"(alloc|alloc_zeroed|realloc|dealloc|count_allocation|record_stack)\b[^@]* @ .*/perf/hostprof/src/main\.rs:")
SHIM = re.compile(r"__rust_alloc|__rust_realloc|__rg_|__rustc")
HELPER_FILES = re.compile(r"/(sim/src/codec|net/src/frame)\.rs:")
FAMILIES = [
    ("ordered map", re.compile(r"alloc::collections::btree|/collections/btree/")),
    ("hash", re.compile(r"hashbrown|/collections/hash/|/src/hash/|core::hash::|std::hash::|\bsip")),
    ("binary heap", re.compile(r"alloc::collections::binary_heap|/collections/binary_heap/")),
    ("allocator", re.compile(r"__rust_(alloc|dealloc|realloc|alloc_zeroed)\b|__rdl_|__rg_|/alloc/src/alloc\.rs|/std/src/alloc\.rs|/sys/alloc/")),
    ("crc", re.compile(r"publishing_net::crc::|/net/src/crc\.rs")),
    ("decode", re.compile(r"^[^@]*\bdecode(_all)?\b")),
]
# One family per layer, by the file a frame (inlined ones included) lies
# in: the layer split EXPERIMENTS.md's host profiles reason with.
LAYERS = [
    ("layer: scheduler", r"sim/src/event\.rs"),
    ("layer: codec", r"sim/src/codec\.rs"),
    ("layer: media", r"net/src/[^:]+"),
    ("layer: kernel and transport", r"demos/src/[^:]+"),
    ("layer: recorder", r"core/src/(recorder|node)\.rs"),
    ("layer: stable store", r"stable/src/[^:]+"),
    ("layer: spans", r"obs/src/(span|store)\.rs"),
    ("layer: raft", r"quorum/src/[^:]+"),
    ("layer: shard", r"shard/src/[^:]+"),
]
FAMILIES += [(name, re.compile(rf" @ (.*/)?crates/{path}:")) for name, path in LAYERS]


def read_samples(path):
    """Header fields, executable mappings and the stacks (innermost first)."""
    header, maps, stacks = {}, [], []
    with open(path) as f:
        for line in f:
            if line.startswith("# hostprof"):
                header.update(kv.split("=", 1) for kv in line.split()[2:])
            elif line.startswith("# exe "):
                header["exe"] = line[6:].strip()
            elif line.startswith("# base "):
                header["base"] = int(line.split()[2], 16)
            elif line.startswith("# map "):
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[2].split("-"))
                maps.append((lo, hi, fields[7] if len(fields) > 7 else "[anon]"))
            elif line.strip():
                stacks.append([int(a, 16) for a in line.split()])
    return header, maps, stacks


def resolve(exe, base, maps, stacks):
    """addr -> [(function, file:line), ...] innermost first, inlines expanded.

    Every frame but a stack's innermost is a return address: one byte back
    lies inside the call instruction, which is the line that made the call.
    """
    wanted = {}
    for stack in stacks:
        for depth, addr in enumerate(stack):
            wanted[(addr, depth > 0)] = None
    ours = [(lo, hi) for lo, hi, name in maps if name == exe]
    queries = sorted(k for k in wanted if any(lo <= k[0] < hi for lo, hi in ours))
    if queries:
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
            input="".join(f"{addr - base - back:#x}\n" for addr, back in queries),
            capture_output=True, text=True, check=True)
        groups, lines = [], proc.stdout.splitlines()
        for line in lines:
            if line.startswith("0x"):
                groups.append([])
            else:
                groups[-1].append(line)
        for key, group in zip(queries, groups):
            frames = list(zip(group[0::2], group[1::2]))
            wanted[key] = [(fn, where.split(" (discriminator")[0]) for fn, where in frames]
    for (addr, back) in wanted:
        if wanted[(addr, back)] is None:
            lib = next((name for lo, hi, name in maps if lo <= addr < hi), "[unmapped]")
            wanted[(addr, back)] = [(f"[{lib.rsplit('/', 1)[-1]}]", "")]
    return wanted


def short(frame):
    """A frame's function, hash suffix dropped; an inlined frame's bare
    name is qualified by the file it came from."""
    fn, _, loc = frame.partition(" @ ")
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    if "::" not in fn.split("<", 1)[0] and not fn.startswith("<"):
        fn = f"{where(loc).rsplit(':', 1)[0]}: {fn}"
    return fn if len(fn) <= 110 else fn[:107] + "..."


def where(loc):
    """`file:line` with the path trimmed to start inside the repository or
    the standard library."""
    m = re.search(r"((?:crates|library|hostbench/src|perf/hostprof/src)/[^:]+):(\d+)", loc)
    return f"{m.group(1)}:{m.group(2)}" if m else loc.rsplit("/", 1)[-1]


def named(stack, frames_of):
    """A stack as "function @ file:line" frames, innermost first, inlines
    expanded, the profiler's allocator hook left out."""
    frames = (f"{fn} @ {loc}" for depth, addr in enumerate(stack) for fn, loc in frames_of[(addr, depth > 0)])
    return [f for f in frames if not HOOK.search(f)]


def allocation_sites(stacks, frames_of, total, top, per_msg):
    """The `--allocs` table: sampled allocations by first-party call site."""
    sites = collections.Counter()
    for stack in stacks:
        frames = named(stack, frames_of)
        while frames and SHIM.search(frames[0]):
            frames.pop(0)
        ours = [f for f in frames if FIRST_PARTY.search(f)]
        chain = ours[:1]
        if chain and HELPER_FILES.search(chain[0]):
            # A helper allocated: name the nearest caller it served too.
            chain += [f for f in ours[1:] if not HELPER_FILES.search(f)][:1]
        sites[" <- ".join(f"{short(f)}  ({where(f.partition(' @ ')[2])})" for f in chain) or "[no first-party frame]"] += 1
    unit = f", of {per_msg} allocations per message" if per_msg else ""
    print(f"\nallocations by call site (share of sampled allocations{unit})")
    for text, n in sites.most_common(top):
        per = f"  {per_msg * n / total:6.2f}/msg" if per_msg else ""
        print(f"  {100.0 * n / total:5.1f} %{per}  {text}")


def table(title, rows, total, top):
    print(f"\n{title}")
    for share, text in sorted(rows, reverse=True)[:top]:
        print(f"  {100.0 * share / total:5.1f} %  {text}")


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `| head` ends the output, not the program
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("samples", help="a perf/hostprof/out/<workload>-<seed>.txt file")
    ap.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    ap.add_argument("--on-stack", metavar="TEXT", action="append", default=[],
                    help="also print the on-stack share of every first-party function whose name contains TEXT")
    ap.add_argument("--per-msg", type=float, metavar="ALLOCS",
                    help="for a `hostprof --allocs` file: the workload's allocs_per_msg, to scale shares by")
    args = ap.parse_args()

    header, maps, stacks = read_samples(args.samples)
    if not stacks:
        sys.exit("no samples in " + args.samples)
    frames_of = resolve(header["exe"], header["base"], maps, stacks)
    total = len(stacks)
    if "every" in header:
        print(f"{header.get('workload')} seed={header.get('seed')}: {total} stacks, one per {header['every']} of "
              f"{header.get('allocs')} allocations over {header.get('timed_s')} s timed in {header.get('worlds')} "
              f"worlds ({header.get('dropped', '0')} dropped)")
        allocation_sites(stacks, frames_of, total, args.top, args.per_msg)
        return
    print(f"{header.get('workload')} seed={header.get('seed')}: {total} samples at {header.get('hz')} Hz "
          f"over {header.get('timed_s')} s timed in {header.get('worlds')} worlds "
          f"({header.get('dropped', '0')} dropped)")

    own = collections.Counter()       # innermost first-party function
    on_stack = collections.Counter()  # first-party function anywhere
    family_on_stack = collections.Counter()
    callers = {name: collections.Counter() for name, _ in FAMILIES}
    handler = 0
    for stack in stacks:
        frames = named(stack, frames_of)
        handler += any("on_sigprof" in f for f in frames)
        first = [short(f) for f in frames if FIRST_PARTY.search(f)]
        own[first[0] if first else "[none]"] += 1
        on_stack.update(set(first))
        for name, pattern in FAMILIES:
            at = next((i for i, f in enumerate(frames) if pattern.search(f)), None)
            if at is None:
                continue
            family_on_stack[name] += 1
            caller = next((f for f in frames[at + 1:] if FIRST_PARTY.search(f) and not pattern.search(f)), None)
            if caller:
                callers[name][f"{short(caller)}  ({where(caller.partition(' @ ')[2])})"] += 1
    if handler:
        print(f"warning: {handler} stacks still show the signal handler (SKIP is wrong for this libc)")

    table("innermost first-party function: self + std (on stack)",
          [(n, f"{fn}  ({100.0 * on_stack[fn] / total:.1f} % on stack)") for fn, n in own.items()], total, args.top)
    table("family on the stack (containers, layers)", [(n, name) for name, n in family_on_stack.items()], total,
          args.top)
    for text in args.on_stack:
        table(f"on stack: *{text}*", [(n, fn) for fn, n in on_stack.items() if text in fn], total, args.top)
    for name, _ in FAMILIES:
        if callers[name]:
            table(f"{name}: nearest first-party caller", [(n, c) for c, n in callers[name].items()], total,
                  max(5, args.top // 3))


if __name__ == "__main__":
    main()
