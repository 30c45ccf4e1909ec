"""Myerson-value machinery for path-discounted coalition worth.

A coalition's worth is the polynomial sum over its geodesics of r^length,
where r in [0, 1] discounts longer connections. The allocation splits
each length-k geodesic equally among its k+1 nodes, which is the Myerson
value of the component-additive game; the Shapley-form computation is
kept as an exponential-size oracle for cross-checking.

Gains and stability checks run on one bound object, MyersonModel.bind(g,
r), which caches one geodesic table per block (multigraph._BlockTable,
the table node_path_counts reads). From it:

* a member i's payoff counts, per length k, the geodesics of the block
  that contain i (multigraph._containment; for a pair s, t only the
  bucket at d(s, i) + d(i, t) is read);
* a node i joining block T needs no table of T + {i}: its distances and
  counts come from one BFS from i over T's links and its own. In a block
  it has no link to, or a fresh one, i is isolated and paid 0, never
  more than now: dynamics and the external check value only the blocks i
  links to.

MyersonModel.payoff serves both and remembers each value per (block,
node) in the table's paid dict, until the table changes.

A table has one lifecycle: it is searched on a miss, grown in place when
better response accepts a join into its block, shrunk in place when it
accepts a leave from it (a singleton source's table is dropped, so a
run leaves the live blocks only and a move searches nothing), and
copied, then grown, when the external check values an entry. The check
keeps that copy to itself, so the cache holds only blocks of the
partitions passed in and of runs' partitions. An outsider's payoff
leaves its counts, buckets, detour pairs and links on the table as its
one stash; the accepted join that follows grows the table from them,
and any other join computes its own. Growing or shrinking drops the
stash; a grown copy copies one held for its entrant.

A payoff is sum_k c_k r^k / (k+1) for the count vector c, kept as an
integer over one common denominator; dynamics build a Fraction only for
a trace step, when a trace is asked for. Report allocations come from
node_path_counts, which searches a table of its own (the benchmark
traces that call) and counts all members at once.

The game has no potential, so dynamics run on partition.settle with a
cycle key: the set of the block frozensets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .errors import SizeGateError, _exact
from .multigraph import (
    Multigraph,
    PathProfile,
    _BlockTable,
    _bfs_counts,
    _block_table,
    _containment,
    _through,
    coalition_path_counts,
    node_path_counts,
)
from .partition import (
    Move,
    Partition,
    Schedule,
    Trace,
    _check_move,
    _index_blocks,
    _IndexState,
    nash_scan,
    run_schedule,
)

ORACLE_MAX_NODES = 12


class CharPoly:
    """Polynomial in the path discount r with zero constant term.

    Immutable; coefficients are exact rationals, internally stored from
    power 1 upward with trailing zeros stripped.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is Fraction else _exact(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "CharPoly":
        return cls()

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient (0 for the zero polynomial)."""
        return len(self._coeffs)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of r**k, k >= 1."""
        if k < 1:
            raise ValueError("powers start at r^1")
        return self._coeffs[k - 1] if k <= len(self._coeffs) else Fraction(0)

    def evaluate(self, r) -> Fraction:
        r = _exact(r, "r")
        total = Fraction(0)
        power = Fraction(1)
        for c in self._coeffs:
            power *= r
            total += c * power
        return total

    def __add__(self, other: "CharPoly") -> "CharPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return CharPoly(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        return self + (-other)

    def __neg__(self) -> "CharPoly":
        return CharPoly(-c for c in self._coeffs)

    def __mul__(self, scalar) -> "CharPoly":
        q = _exact(scalar, "scalar")
        return CharPoly(c * q for c in self._coeffs)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def power_strings(self) -> list[str]:
        """Coefficients as "p/q" strings indexed by power (index 0 is the
        constant term, always "0")."""
        out = ["0"]
        for c in self._coeffs:
            out.append(str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}")
        return out

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs, start=1):
            if c == 0:
                continue
            coeff = "" if c == 1 else (
                f"{c.numerator} " if c.denominator == 1 else f"{c.numerator}/{c.denominator} "
            )
            terms.append(f"{coeff}r" if k == 1 else f"{coeff}r^{k}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"CharPoly({self._coeffs!r})"


def characteristic_value(profile: PathProfile) -> CharPoly:
    """Coalition worth from its geodesic counts: each length-k geodesic
    contributes r^k, so the coefficient of r^k is the k-th path count."""
    return CharPoly(profile.counts)


def component_characteristic(g: Multigraph, coalition: Iterable[str]) -> CharPoly:
    """Worth of a coalition as the sum of its connected components' worth
    inside the induced subgraph. Singletons are worth zero."""
    return characteristic_value(coalition_path_counts(g, coalition))


def myerson_allocation(g: Multigraph, coalition: Iterable[str]) -> dict[str, CharPoly]:
    """Myerson payoff of every coalition member, computed on the induced
    subgraph: a node containing a^i_k length-k geodesics receives
    a^i_k / (k+1) r^k. Per component the payoffs sum to the component's
    worth. The polynomials do not depend on r; MyersonModel.payoff gives
    one member's payoff at a bound r, as a scaled integer."""
    profile = node_path_counts(g, coalition)
    return {
        u: CharPoly(Fraction(c, k + 2) for k, c in enumerate(vec))
        for u, vec in profile.counts.items()
    }


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


def _check_r(r) -> Fraction:
    r = _exact(r, "discount r")
    if not 0 <= r <= 1:
        raise ValueError(f"discount r must lie in [0, 1], got {r}")
    return r


class MyersonModel:
    """A graph and a discount r bound for exact Myerson gains.

    Payoffs are integers over den: weights[k] = den r^k / (k+1) for every
    geodesic length k < max(n, 1). Block tables are built on first use;
    hits and misses count table lookups. better_response keeps the
    tables of the live blocks only, and external_stability caches no
    joined block, so every cached table is of a block of a partition
    passed in or of a run. Bind with MyersonModel.bind.
    """

    def __init__(self, g: Multigraph, weights: tuple[int, ...], den: int):
        self.g = g
        self.weights = weights
        self.den = den
        self.tables: dict[frozenset, _BlockTable] = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def bind(cls, g: Multigraph, r) -> "MyersonModel":
        """Raises ValueError unless 0 <= r <= 1."""
        r = _check_r(r)
        top = max(g.n, 1) - 1
        a, b = r.numerator, r.denominator
        scale = math.lcm(*range(1, top + 2))
        weights = tuple(scale // (k + 1) * a**k * b ** (top - k) for k in range(top + 1))
        return cls(g, weights, scale * b**top)

    def table(self, block: frozenset) -> _BlockTable:
        """The block's table, searched on a miss (its lifecycle is in the
        module docstring)."""
        t = self.tables.get(block)
        if t is None:
            self.misses += 1
            t = self.tables[block] = _block_table(self.g, block)
        else:
            self.hits += 1
        return t

    def _scaled(self, counts: list[int]) -> int:
        w = self.weights
        return sum(c * w[k] for k, c in enumerate(counts) if c)

    def payoff(self, block: frozenset, node: str) -> int:
        """den times the node's payoff in the block joined by the node: a
        member's from its own row, an outsider's from its links into the
        block."""
        return self._value(self.table(block), self.g.index_of(node))

    def _value(self, t: _BlockTable, i: int) -> int:
        # payoff on a table and a graph index, remembered in t.paid.
        v = t.paid.get(i)
        if v is None:
            a = t.pos.get(i)
            if a is None:
                counts = _containment(*t.join(i, self.g.adjacency[i])[1:4])
            else:
                counts = _containment(t.sigma[a], t.rows[a], _through(t.rows, t.rows[a]))
            v = t.paid[i] = self._scaled(counts)
        return v

    def gain(self, p: Partition, mv: Move) -> Fraction:
        """The moving node's payoff in the joined coalition minus its payoff
        now, read from the cached tables; a fresh block is a singleton and
        pays zero. Raises PartitionError for a node outside its source
        block or a missing target block."""
        _check_move(p, mv)
        now = self.payoff(p.blocks[mv.source], mv.node)
        if mv.is_fresh:
            return Fraction(-now, self.den)
        return Fraction(self.payoff(p.blocks[mv.target], mv.node) - now, self.den)

    def better_response(self, start: Partition, schedule: Schedule = Schedule()) -> tuple[Partition, Trace]:
        return run_schedule(_MyersonState(self, start), schedule)

    def nash_stable(self, p: Partition) -> tuple[bool, Optional[Move]]:
        return nash_scan(_MyersonState(self, p))

    def external_stability(self, p: Partition) -> tuple[bool, Optional[tuple[str, int]]]:
        """(True, None) when every beneficial entry into a block is blocked
        by an incumbent whose payoff would strictly drop; otherwise False
        and the first unblocked (node, block index). The entries are the
        positive-gain deviations that dynamics and nash_stable walk."""
        state = _MyersonState(self, p)
        for i in state.nodes:
            node = state.labels[i]
            for k, gain in state.deviations(i):
                if gain <= 0:
                    continue
                # The node's payoff has cached the block's table; the joined
                # block's is a private copy grown from it, never cached.
                block = p.blocks[k]
                t = self.table(block)
                joined = t.grown(self.g, node)
                if not any(self._value(joined, j) < self._value(t, j) for j in map(self.g.index_of, block)):
                    return False, (node, k)
        return True, None


class _MyersonState(_IndexState):
    """The shared state with unit weights, plus blocks, each block's label
    frozenset, which keys its table. An accepted join grows the target's
    table in place and shrinks the source's, or drops it with a
    singleton source."""

    def __init__(self, model: MyersonModel, p: Partition):
        g = model.g
        super().__init__(g.labels, _index_blocks(g, p), (1,) * g.n, model.den)
        self.model = model
        self.blocks = list(p.blocks)

    def deviations(self, i: int):
        model, blocks, block, node = self.model, self.blocks, self.block, self.labels[i]
        s = block[i]
        # Only the blocks the node links to, by position: no other move
        # pays it more than 0 (see the module docstring).
        linked = sorted({block[j] for j in model.g.adjacency[i]} - {s})
        now = model.payoff(blocks[s], node) if linked else 0
        for k in linked:
            yield k, model.payoff(blocks[k], node) - now

    def accept(self, i: int, target: int, gain: int) -> None:
        model, blocks, node, s = self.model, self.blocks, self.labels[i], self.block[i]
        source = blocks[s]
        table = model.tables.pop(source)
        t = model.tables.pop(blocks[target])
        t.grow(model.g, node)
        blocks[target] |= {node}
        model.tables[blocks[target]] = t
        if len(source) > 1:
            table.shrink(model.g, node)
            blocks[s] = source - {node}
            model.tables[blocks[s]] = table
        else:
            del blocks[s]
        super().accept(i, target, gain)

    def cycle_key(self) -> frozenset:
        # Equal exactly when the partitions are; keys share the blocks a
        # move leaves alone.
        return frozenset(self.blocks)


def myerson_gain(g: Multigraph, p: Partition, mv: Move, r) -> Fraction:
    """Payoff change for the moving node at discount r: its Myerson value
    in the joined coalition minus its value in its current one. A fresh
    block is a singleton and pays zero. Raises PartitionError for a node
    outside its source block or a missing target block."""
    return MyersonModel.bind(g, r).gain(p, mv)


def myerson_better_response(
    g: Multigraph, r, start: Partition, schedule: Schedule = Schedule()
) -> tuple[Partition, Trace]:
    """Myerson-value better response at discount r; start must cover
    exactly g's nodes. The game has no potential, so the run may stop
    CycleDetected as well as Stable or CapReached."""
    return MyersonModel.bind(g, r).better_response(start, schedule)


def myerson_nash_stable(g: Multigraph, p: Partition, r) -> tuple[bool, Optional[Move]]:
    """True when no node can strictly raise its Myerson payoff by a single
    move; otherwise returns one improving move as witness. p must cover
    exactly g's nodes."""
    return MyersonModel.bind(g, r).nash_stable(p)


def external_stability_check(
    g: Multigraph, p: Partition, r
) -> tuple[bool, Optional[tuple[str, int]]]:
    """Check that every beneficial single-player entry into an existing
    coalition is blocked by some incumbent whose payoff would strictly
    drop. Returns the unblocked (node, block index) pair otherwise. p must
    cover exactly g's nodes."""
    return MyersonModel.bind(g, r).external_stability(p)
