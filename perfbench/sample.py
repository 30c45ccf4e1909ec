"""One benchmark sample: a fresh interpreter runs one coopgraph command.

Usage (the parent, run.py, supplies every argument):

    python3 sample.py SPAWN_T TRACE ARG...

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree); TRACE is 0 or 1; ARG... is the coopgraph command line. The last
line written to stdout is one JSON object with the exit status, setup_s
(spawn to the end of the imports), reference_s (a fixed reference
workload, half run just before the command and half just after it), solve_s (the
cli_dispatch call), peak_rss_mb, and with TRACE=1 the span summary.
"""

import gc
import sys
import time
from fractions import Fraction

import coopgraph.cli

# Work of one half of the reference: fraction_loop rounds and
# bfs_loop searches.
REFERENCE_ROUNDS = 50_000
REFERENCE_SEARCHES = 25


def fraction_loop(rounds: int) -> Fraction:
    """Dict updates, set membership and exact fractions, as in the
    hedonic payoff loops."""
    table, members, acc = {}, set(), Fraction(0)
    for i in range(rounds):
        key = i * 7919 % 251
        table[key] = table.get(key, 0) + 1
        if key in members:
            members.discard(key)
        else:
            members.add(key)
        if i % 8 == 0:
            acc = acc + Fraction(table[key], key + 1) if i % 1024 else Fraction(0)
    return acc


def bfs_loop(searches: int, n: int = 400) -> int:
    """Shortest-path counting by breadth-first search on a fixed graph,
    as in the Myerson path counts."""
    adj = {u: {(u * 37 + k * 101) % n for k in range(1, 9)} | {(u - 1) % n} for u in range(n)}
    for u in range(n):
        for v in list(adj[u]):
            adj[v].add(u)
    total = 0
    for r in range(searches):
        src = r * 13 % n
        dist, count, queue = {src: 0}, {src: 1}, [src]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    count[v] = count[u]
                    queue.append(v)
                elif dist[v] == dist[u] + 1:
                    count[v] += count[u]
        total += sum(count.values())
    return total


def timed_reference() -> float:
    """Seconds taken by one half of the reference, a fixed pure-Python
    workload independent of coopgraph whose time shows how fast the CPU
    ran this process at the moment. The cyclic garbage collector is off,
    so that the objects coopgraph left behind cannot change its cost."""
    gc.disable()
    began = time.perf_counter()
    fraction_loop(REFERENCE_ROUNDS)
    bfs_loop(REFERENCE_SEARCHES)
    elapsed = time.perf_counter() - began
    gc.enable()
    return elapsed


if __name__ == "__main__":
    spawned = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    argv = sys.argv[3:]
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - spawned
    reference_s = timed_reference()
    began = time.perf_counter()
    status = coopgraph.cli.cli_dispatch(argv)
    solve_s = time.perf_counter() - began
    reference_s += timed_reference()

    import json
    import resource

    out = {
        "status": status,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "module": coopgraph.cli.__file__,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["bindings"] = tracer.bindings
    sys.stdout.write(json.dumps(out) + "\n")
