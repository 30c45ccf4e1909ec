"""Reference paths: the callback dynamics and the exhaustive oracles.

No command runs this code. Tests compare the engines against it, and
library callers reach it through the modules it came from: partition,
hedonic, myerson, multigraph and the package itself load this module
on first use of one of its names (a PEP 562 module __getattr__), so
`from coopgraph.partition import run_dynamics` and
`getattr(coopgraph.multigraph, "geodesic_profile")` work as before,
while a command neither compiles nor imports it.

- partition: apply_move, enumerate_deviations, run_dynamics and its
  _CallbackState, a DynamicsState of immutable Partition values with
  gains from a payoff callback;
- multigraph: geodesic_profile and _bfs_counts, all-pairs geodesics
  over the whole graph;
- hedonic: pair_value and move_gain, which bind a model per call, and
  bruteforce_max_partition over iter_set_partitions;
- myerson: myerson_gain, which binds a model per call, and
  myerson_shapley_oracle, a Shapley sum over every coalition of the
  whole-graph geodesics it contains.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import SizeGateError, _exact
from .hedonic import BRUTEFORCE_MAX_NODES, HedonicModel, Potential, ValueFunction
from .multigraph import Multigraph, _bfs
from .myerson import ORACLE_MAX_NODES, CharPoly, MyersonModel
from .partition import Move, Partition, Schedule, Trace, _check_move, canonical_form, run_schedule


def apply_move(p: Partition, mv: Move) -> Partition:
    """Apply a single-node move. The vacated block is dropped when it
    empties; a fresh block is appended at the end."""
    _check_move(p, mv)
    blocks = [set(b) for b in p.blocks]
    blocks[mv.source].discard(mv.node)
    if mv.is_fresh:
        blocks.append({mv.node})
    else:
        blocks[mv.target].add(mv.node)
    return Partition(b for b in blocks if b)


def enumerate_deviations(p: Partition, node: str) -> list[Move]:
    """Every deviation available to the node: each other existing block in
    index order, then a fresh block unless the node is already alone."""
    src = p.block_of(node)
    moves = [Move(node, src, k) for k in range(len(p.blocks)) if k != src]
    if len(p.blocks[src]) > 1:
        moves.append(Move(node, src, None))
    return moves


PayoffFn = Callable[[Partition, Move], Fraction]


class _CallbackState:
    """Immutable Partition values advanced by apply_move, with gains from a
    payoff callback."""

    def __init__(self, payoff: PayoffFn, start: Partition):
        self.payoff = payoff
        self.p = start
        self.nodes = sorted(start.nodes)
        self.log: list[tuple] = []
        self.den = 1

    def deviations(self, node):
        p = self.p
        for mv in enumerate_deviations(p, node):
            yield mv, _exact(self.payoff(p, mv), "gain")

    def accept(self, node, mv: Move, gain) -> None:
        self.p = apply_move(self.p, mv)
        self.log.append((node, mv.source, mv.target, gain))

    def cycle_key(self) -> frozenset:
        return frozenset(self.p.blocks)

    def partition(self) -> Partition:
        return self.p


def run_dynamics(
    payoff: PayoffFn, start: Partition, schedule: Schedule = Schedule()
) -> tuple[Partition, Trace]:
    """run_schedule with gains from a payoff callback.

    payoff(partition, move) must return an exact gain, an int, a Fraction
    or a "p/q" string; a float or bool raises ValueError at the first
    deviation. The trace records each accepted move with its gain. Every
    accepted partition is kept for cycle detection, since a callback need
    not come from a potential.
    """
    return run_schedule(_CallbackState(payoff, start), schedule)


def _bfs_counts(g: Multigraph, source: int) -> tuple[list[int], list[int]]:
    # Hop distances and geodesic counts from source over the whole graph.
    return _bfs(g.adjacency, source)[:2]


def geodesic_profile(g: Multigraph):
    """Hop distances and geodesic counts for all node pairs.

    Returns (dist, sigma) as label-keyed nested dicts. dist[u][v] is None
    across components, never a sentinel integer. sigma[u][v] sums, over
    the shortest u-v node sequences, the product of link multiplicities;
    sigma[u][u] is 1 and 0 across components.
    """
    dist: dict[str, dict[str, Optional[int]]] = {}
    sigma: dict[str, dict[str, int]] = {}
    for i, u in enumerate(g.labels):
        d, s = _bfs_counts(g, i)
        dist[u] = {g.label_of(j): (d[j] if d[j] >= 0 else None) for j in range(g.n)}
        sigma[u] = {g.label_of(j): s[j] for j in range(g.n)}
    return dist, sigma


def pair_value(vf: ValueFunction, g: Multigraph, u: str, v: str) -> Fraction:
    """Symmetric value one node derives from sharing a block with another."""
    if u == v:
        raise ValueError("pair value is defined for distinct nodes only")
    model = HedonicModel.bind(vf, g)
    return Fraction(model.scaled_pair(g.index_of(u), g.index_of(v)), model.den)


def move_gain(vf: ValueFunction, g: Multigraph, p: Partition, mv: Move) -> Fraction:
    """Utility change for the moving node: value of the target block minus
    value of the current block without itself. Equals the potential
    difference of the move exactly, which is what makes better response
    terminate."""
    return HedonicModel.bind(vf, g).gain(p, mv)


def iter_set_partitions(items: Iterable):
    """All set partitions of the items (Bell-number many), as tuples of tuples."""
    pool = list(items)
    for blocks in _index_partitions(len(pool)):
        yield tuple(tuple(pool[i] for i in b) for b in blocks)


def _index_partitions(n: int):
    # Yields a live list of lists; consumers must copy what they keep.
    blocks: list[list[int]] = []

    def rec(i):
        if i == n:
            yield blocks
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def bruteforce_max_partition(vf: ValueFunction, g: Multigraph) -> tuple[Partition, Potential]:
    """Global potential maximizer by exhaustive set-partition enumeration.

    Refuses graphs beyond BRUTEFORCE_MAX_NODES (Bell(10) = 115975 already).
    Potential ties break toward the smallest canonical form."""
    if g.n > BRUTEFORCE_MAX_NODES:
        raise SizeGateError(
            f"brute force is gated at {BRUTEFORCE_MAX_NODES} nodes, got {g.n}"
        )
    labels = g.labels
    n = g.n
    # The model's scaled pair values keep the enumeration in int arithmetic.
    model = HedonicModel.bind(vf, g)
    scaled = [[model.scaled_pair(i, j) for j in range(n)] for i in range(n)]

    best_score = None
    best_blocks: Optional[list[list[int]]] = None
    best_key: Optional[bytes] = None
    for blocks in _index_partitions(n):
        score = 0
        for b in blocks:
            for x in range(len(b)):
                row = scaled[b[x]]
                for y in range(x + 1, len(b)):
                    score += row[b[y]]
        if best_score is None or score > best_score:
            best_score = score
            best_blocks = [list(b) for b in blocks]
            best_key = None
        elif score == best_score:
            key = _canonical_key(labels, blocks)
            if best_key is None:
                best_key = _canonical_key(labels, best_blocks)
            if key < best_key:
                best_blocks = [list(b) for b in blocks]
                best_key = key
    part = Partition([labels[i] for i in b] for b in best_blocks)
    return part, model.potential(part)


def _canonical_key(labels, blocks) -> bytes:
    return canonical_form(Partition([labels[i] for i in b] for b in blocks))


def _geodesic_set_weights(g: Multigraph) -> list[int]:
    # Multiplicity-weighted geodesic counts aggregated by the path's node
    # set (as a bitmask). A simple path on p nodes always has length p-1,
    # so the set determines the power of r.
    n = g.n
    adj = g.adjacency
    weights = [0] * (1 << n)
    for src in range(n):
        d, _ = _bfs_counts(g, src)
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in range(n):
            if d[v] > 0:
                for u, mult in adj[v].items():
                    if d[u] == d[v] - 1:
                        preds[v].append((u, mult))
        for t in range(src + 1, n):
            if d[t] < 1:
                continue
            stack = [(t, 1 << t, 1)]
            while stack:
                v, mask, w = stack.pop()
                if v == src:
                    weights[mask] += w
                    continue
                for u, mult in preds[v]:
                    stack.append((u, mask | (1 << u), w * mult))
    return weights


def _subset_value_table(g: Multigraph) -> tuple[CharPoly, ...]:
    # values[mask] collects the whole-graph geodesics whose nodes all lie
    # inside mask (a sum of weighted unanimity games), via a subset-sum
    # transform over the set lattice.
    n = g.n
    weights = _geodesic_set_weights(g)
    maxlen = max(n - 1, 1)
    rows = [[0] * maxlen for _ in range(1 << n)]
    for mask, w in enumerate(weights):
        if w:
            rows[mask][mask.bit_count() - 2] = w
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit:
                low = rows[mask ^ bit]
                row = rows[mask]
                for i, val in enumerate(low):
                    if val:
                        row[i] += val
    return tuple(CharPoly(row) for row in rows)


def myerson_shapley_oracle(g: Multigraph, node: str) -> CharPoly:
    """Myerson value of the node over the whole graph as a Shapley sum of
    marginal worths, where a coalition's worth collects the whole-graph
    geodesics it contains.

    That containment game is a sum of weighted unanimity games (one per
    geodesic), which is what makes the equal-split closed form provable,
    and this routine shares no counting logic with it. Enumerates all
    2^(n-1) coalitions, so it refuses graphs beyond ORACLE_MAX_NODES."""
    n = g.n
    if n > ORACLE_MAX_NODES:
        raise SizeGateError(f"Shapley oracle is gated at {ORACLE_MAX_NODES} nodes, got {n}")
    bit = 1 << g.index_of(node)
    values = _subset_value_table(g)
    fact = math.factorial
    weights = [Fraction(fact(s) * fact(n - s - 1), fact(n)) for s in range(n)]
    total = CharPoly.zero()
    for mask in range(1 << n):
        if mask & bit:
            continue
        marginal = values[mask | bit] - values[mask]
        if marginal:
            total = total + marginal * weights[mask.bit_count()]
    return total


def myerson_gain(g: Multigraph, p: Partition, mv: Move, r) -> Fraction:
    """Payoff change for the moving node at discount r: its Myerson value
    in the joined coalition minus its value in its current one. A fresh
    block is a singleton and pays zero. Raises PartitionError for a node
    outside its source block or a missing target block."""
    return MyersonModel.bind(g, r).gain(p, mv)
