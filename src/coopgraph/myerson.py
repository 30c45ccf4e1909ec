"""Myerson-value machinery for path-discounted coalition worth.

A coalition's worth is the polynomial sum over its geodesics of r^length,
where r in [0, 1] discounts longer connections. The allocation splits
each length-k geodesic equally among its k+1 nodes, which is the Myerson
value of the component-additive game; the Shapley-form computation is
kept as an exponential-size oracle for cross-checking. That oracle,
myerson_shapley_oracle, and myerson_gain (which binds a model per call)
live in coopgraph.reference and load from there on first use of their
names here.

Gains and stability checks run on one bound object, MyersonModel.bind(g,
r), which caches one geodesic table per block (multigraph._BlockTable),
keyed by the frozenset of the block's graph indices. The table gives
any node's count vector of the geodesics through it in the block it
would join, and remembers it until the table changes; a joining node
needs no table of the joined block. The vectors do not depend on r:
the model only weighs them. In a block it has no
link to, or a fresh one, a node is isolated and paid 0, never more than
now: dynamics and the external check value only the blocks it links to.

A table is searched on a miss, grown in place when better response
accepts a join into its block and shrunk in place when it accepts a
leave (a singleton source's table is dropped, so a run leaves the live
blocks only and a move searches nothing). The external check walks a
state, a run's own or one of a partition, as nash_scan does; it grows
an entered block's table by the entrant and shrinks it back, so
MyersonModel.table is the one search. An outsider's payoff leaves its
counts, buckets, detour pairs and links on the table as its one stash;
a grow that follows reads them, and any other join computes its own.

A payoff is sum_k c_k r^k / (k+1) for the count vector c, kept as an
integer over one common denominator: the dot product of c with the
model's weights. Dynamics build a Fraction only for a trace step, when
a trace is asked for. Report allocations come from
node_path_counts (the benchmark traces that call), which builds no
table: it searches the coalition's links once per member and counts
all members at once.

The game has no potential, so dynamics run on partition.settle with a
cycle key: the set of the blocks' graph-index frozensets.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional

from .errors import _exact, _ratio, _reference_hook
from .multigraph import (
    Multigraph,
    PathProfile,
    _BlockTable,
    _block_table,
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

__getattr__ = _reference_hook(__name__, "myerson_shapley_oracle", "myerson_gain")


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
        constant term, always "0"), written as reports write rationals."""
        return ["0", *(_ratio(c.numerator, c.denominator) for c in self._coeffs)]

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs, start=1):
            if c == 0:
                continue
            coeff = "" if c == 1 else _ratio(c.numerator, c.denominator) + " "
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


def _check_r(r) -> Fraction:
    r = _exact(r, "discount r")
    if not 0 <= r <= 1:
        raise ValueError(f"discount r must lie in [0, 1], got {r}")
    return r


class MyersonModel:
    """A graph and a discount r bound for exact Myerson gains.

    Payoffs are integers over den: weights[k-1] = den r^k / (k+1) for
    every geodesic length 1 <= k < n, the model's one use of r. tables
    maps blocks of graph indices to their r-free tables, built on first
    use; hits and misses count lookups. better_response keeps the live
    blocks' tables only, and external_stability shrinks back each table
    it grows, so every cached table is of a block of a partition passed
    in or of a run. Labels become graph indices at payoff, gain and
    partition._index_blocks. Bind with MyersonModel.bind.
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
        weights = tuple(scale // (k + 1) * a**k * b ** (top - k) for k in range(1, top + 1))
        return cls(g, weights, scale * b**top)

    def table(self, block: frozenset) -> _BlockTable:
        """The table of a block of graph indices, searched on a miss (its
        lifecycle is in the module docstring)."""
        t = self.tables.get(block)
        if t is None:
            self.misses += 1
            t = self.tables[block] = _block_table(self.g, block)
        else:
            self.hits += 1
        return t

    def payoff(self, block: frozenset, node: str) -> int:
        """den times the node's payoff in the block of labels joined by the
        node: a member's from its own row, an outsider's from its links
        into the block."""
        index = self.g.index_of
        return self._value(self.table(frozenset(map(index, block))), index(node))

    def _value(self, t: _BlockTable, i: int) -> int:
        # payoff on a table and a graph index, from its count vector.
        return sum(map(operator.mul, t.counts(i), self.weights))

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
        """external_scan on a state of p."""
        return external_scan(_MyersonState(self, p))


class _MyersonState(_IndexState):
    """The shared state with unit weights, plus blocks, each block's
    frozenset of graph indices, which keys its table. An accepted join
    grows the target's table in place and shrinks the source's, or drops
    it with a singleton source."""

    def __init__(self, model: MyersonModel, p: Partition):
        g = model.g
        blocks = _index_blocks(g, p)
        super().__init__(g.labels, blocks, (1,) * g.n, model.den)
        self.model = model
        self.blocks = list(map(frozenset, blocks))

    def deviations(self, i: int):
        model, blocks, block = self.model, self.blocks, self.block
        s = block[i]
        # Only the blocks the node links to, by position: no other move
        # pays it more than 0 (see the module docstring).
        linked = sorted({block[j] for j in model.g.adjacency[i]} - {s})
        now = model._value(model.table(blocks[s]), i) if linked else 0
        for k in linked:
            yield k, model._value(model.table(blocks[k]), i) - now

    def accept(self, i: int, target: int, gain: int) -> None:
        model, blocks, s = self.model, self.blocks, self.block[i]
        source = blocks[s]
        table = model.tables.pop(source)
        t = model.tables.pop(blocks[target])
        t.grow(i)
        blocks[target] |= {i}
        model.tables[blocks[target]] = t
        if len(source) > 1:
            table.shrink(i)
            blocks[s] = source - {i}
            model.tables[blocks[s]] = table
        else:
            del blocks[s]
        super().accept(i, target, gain)

    def cycle_key(self) -> frozenset:
        # Equal exactly when the partitions are; keys share the blocks a
        # move leaves alone.
        return frozenset(self.blocks)


def external_scan(state: _MyersonState) -> tuple[bool, Optional[tuple[str, int]]]:
    """(True, None) when every beneficial entry (a positive-gain deviation,
    in nash_scan order) is blocked by an incumbent whose payoff would
    strictly drop on the block's table grown by the node; otherwise False
    and the first unblocked (node label, block position)."""
    model = state.model
    for i in state.nodes:
        for k, gain in state.deviations(i):
            if gain <= 0:
                continue
            # Read the incumbents before grow clears the vectors; grow
            # reuses the join i's payoff left, shrink restores the table.
            block = state.blocks[k]
            t = model.table(block)
            now = [model._value(t, j) for j in block]
            t.grow(i)
            blocked = any(model._value(t, j) < v for j, v in zip(block, now))
            t.shrink(i)
            if not blocked:
                return False, (state.labels[i], k)
    return True, None


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
