"""Myerson-value machinery for path-discounted coalition worth.

A coalition's worth is the polynomial sum over its geodesics of r^length,
where r in [0, 1] discounts longer connections. The allocation splits
each length-k geodesic equally among its k+1 nodes, which is the Myerson
value of the component-additive game; the Shapley-form computation is
kept as an exponential-size oracle for cross-checking.

Gains and stability checks run on one bound object, MyersonModel.bind(g,
r), which owns a cache of block tables keyed by the block's frozenset. A
table holds the block's member positions and all-pairs hop distances and
geodesic counts, from one BFS per member over graph indices. From it:

* a member i's payoff counts, per length k, the geodesics of the block
  that contain i: sigma(i, t) for each pair (i, t), and
  sigma(s, i) sigma(i, t) for each pair s, t with d(s, i) + d(i, t) =
  d(s, t). That is O(|S|^2) for the mover alone, and it is remembered
  per (block, node), since every target of one node reuses it;
* a node i joining block T needs no table of T + {i}: d(i, t) is one
  more than the least d_T(u, t) over i's neighbours u in T, sigma(i, t)
  sums mult(i, u) sigma_T(u, t) over the u attaining it, and a pair s, t
  of T gains geodesics through i exactly when d(s, i) + d(i, t) <=
  d_T(s, t) or s and t are disconnected in T. Once such a join is
  accepted, the table of T + {i} is derived from T's the same way in
  O(|T|^2); any other new block takes one BFS per member.

A payoff is sum_k c_k r^k / (k+1) for the count vector c. The model
keeps it as an integer over one common denominator, so a gain is the
difference of two integers and becomes a single Fraction. The
incumbents of external_stability_check are read the same way, from the
table of the entered block grown by one, which is derived from the
block's own. Full allocations (every member's polynomial, for reports)
come from node_path_counts.

The game has no potential, so dynamics run through run_dynamics with a
canonical-form cycle key per accepted partition. myerson_payoff alone
cannot check a start, because the callback never sees the graph's
labels; myerson_better_response does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import SizeGateError
from .multigraph import (
    Multigraph,
    PathProfile,
    _bfs,
    _bfs_counts,
    _local_adjacency,
    coalition_path_counts,
    node_path_counts,
)
from .partition import (
    Move,
    Partition,
    Schedule,
    Trace,
    _check_move,
    enumerate_deviations,
    run_dynamics,
)

ORACLE_MAX_NODES = 12


class CharPoly:
    """Polynomial in the path discount r with zero constant term.

    Immutable; coefficients are exact rationals, internally stored from
    power 1 upward with trailing zeros stripped.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
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
        r = Fraction(r)
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
        q = Fraction(scalar)
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
    worth. The polynomials do not depend on r; MyersonModel.value gives
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
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"discount r must lie in [0, 1], got {r}")
    return r


class _BlockTable:
    """One block's member positions (pos maps graph index to row),
    all-pairs hop distances (-1 across components) and geodesic counts,
    plus the payoffs already derived from them, keyed by graph index and
    scaled by the model's denominator: own for members, joins for nodes
    joining the block."""

    __slots__ = ("pos", "dist", "sigma", "own", "joins")

    def __init__(self, pos: dict[int, int], dist: list[list[int]], sigma: list[list[int]]):
        self.pos = pos
        self.dist = dist
        self.sigma = sigma
        self.own: dict[int, int] = {}
        self.joins: dict[int, int] = {}

    def entry(self, links: dict[int, int]) -> tuple[list[int], list[int]]:
        """Hop distances and geodesic counts to every member from an outside
        node with these (graph index -> multiplicity) links: one more than
        the least distance from a linked member, counts summed over the
        linked members attaining it."""
        pos, dist, sigma = self.pos, self.dist, self.sigma
        di = [-1] * len(pos)
        si = [0] * len(pos)
        for u, mult in links.items():
            a = pos.get(u)
            if a is None:
                continue
            su = sigma[a]
            for x, d in enumerate(dist[a]):
                if d < 0:
                    continue
                d += 1
                if di[x] < 0 or d < di[x]:
                    di[x], si[x] = d, mult * su[x]
                elif d == di[x]:
                    si[x] += mult * su[x]
        return di, si

    def joined(self, i: int, di: list[int], si: list[int]) -> "_BlockTable":
        """The table of the block plus node i, whose entry() is (di, si):
        a pair's geodesics through i replace its own when shorter and add
        to them when as short. O(q^2), no BFS."""
        dist, sigma = [], []
        for ds, ss, a, sa in zip(self.dist, self.sigma, di, si):
            if a < 0:
                dist.append(ds + [-1])
                sigma.append(ss + [0])
                continue
            rd, rs = [], []
            for dst, sst, b, sb in zip(ds, ss, di, si):
                length = a + b
                if b < 0 or (0 <= dst < length):
                    rd.append(dst)
                    rs.append(sst)
                elif dst == length:
                    rd.append(dst)
                    rs.append(sst + sa * sb)
                else:
                    rd.append(length)
                    rs.append(sa * sb)
            rd.append(a)
            rs.append(sa)
            dist.append(rd)
            sigma.append(rs)
        dist.append(di + [0])
        sigma.append(si + [1])
        pos = dict(self.pos)
        pos[i] = len(pos)
        return _BlockTable(pos, dist, sigma)


def _block_table(g: Multigraph, block: frozenset) -> _BlockTable:
    # One BFS per member over the block's local adjacency.
    members, local = _local_adjacency(g, block)
    rows = [_bfs(local, a) for a in range(len(members))]
    return _BlockTable(
        {v: a for a, v in enumerate(members)},
        [d for _, d, _ in rows],
        [s for _, _, s in rows],
    )


def _containment(dist: list[list[int]], di: list[int], si: list[int]) -> list[int]:
    # Per length, the geodesics containing node i, from i's hop distances
    # di and geodesic counts si to the block's members (i itself excluded,
    # or at distance 0). Pairs (i, t) count sigma(i, t); a pair s, t of
    # the block counts sigma(s, i) sigma(i, t) when the detour through i
    # is no longer than d(s, t) or s and t are disconnected. Inside i's
    # own block the detour is never shorter, so that is d(s, i) + d(i, t)
    # = d(s, t).
    reach = [t for t, d in enumerate(di) if d > 0]
    if not reach:
        return []
    counts = [0] * (2 * max(di[t] for t in reach) + 1)
    for t in reach:
        counts[di[t]] += si[t]
    for x, s in enumerate(reach):
        ds, d_s, s_s = dist[s], di[s], si[s]
        for t in reach[x + 1:]:
            length = d_s + di[t]
            dst = ds[t]
            if dst < 0 or length <= dst:
                counts[length] += s_s * si[t]
    return counts


class MyersonModel:
    """A graph and a discount r bound for exact Myerson gains.

    Payoffs are integers over den: weights[k] = den r^k / (k+1) for every
    geodesic length k < max(n, 1). Block tables are built on first use
    and kept for the life of the model; hits and misses count table
    lookups. Bind with MyersonModel.bind.
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
        """The block's table, built on the first request."""
        t = self.tables.get(block)
        if t is None:
            self.misses += 1
            t = self.tables[block] = self._build(block)
        else:
            self.hits += 1
        return t

    def _build(self, block: frozenset) -> _BlockTable:
        # A block one node larger than a cached one, as an accepted join
        # makes, is derived from that table; any other takes a BFS per member.
        index, adjacency = self.g.index_of, self.g.adjacency
        for node in block:
            base = self.tables.get(block - {node})
            if base is not None:
                i = index(node)
                return base.joined(i, *base.entry(adjacency[i]))
        return _block_table(self.g, block)

    def _scaled(self, counts: list[int]) -> int:
        w = self.weights
        return sum(c * w[k] for k, c in enumerate(counts) if c)

    def value(self, block: frozenset, node: str) -> int:
        """den times the member's payoff inside its block."""
        t = self.table(block)
        i = self.g.index_of(node)
        v = t.own.get(i)
        if v is None:
            a = t.pos[i]
            v = t.own[i] = self._scaled(_containment(t.dist, t.dist[a], t.sigma[a]))
        return v

    def join_value(self, block: frozenset, node: str) -> int:
        """den times the payoff of a non-member after joining the block,
        from the block's table and the node's links into it."""
        t = self.table(block)
        i = self.g.index_of(node)
        v = t.joins.get(i)
        if v is None:
            v = t.joins[i] = self._scaled(_containment(t.dist, *t.entry(self.g.adjacency[i])))
        return v

    def gain(self, p: Partition, mv: Move) -> Fraction:
        """The moving node's payoff in the joined coalition minus its payoff
        now; a fresh block is a singleton and pays zero. Raises
        PartitionError for a node outside its source block or a missing
        target block."""
        _check_move(p, mv)
        now = self.value(p.blocks[mv.source], mv.node)
        if mv.is_fresh:
            return Fraction(-now, self.den)
        return Fraction(self.join_value(p.blocks[mv.target], mv.node) - now, self.den)

    def better_response(self, start: Partition, schedule: Schedule = Schedule()) -> tuple[Partition, Trace]:
        start.check_cover(self.g.labels)
        return run_dynamics(self.gain, start, schedule)

    def nash_stable(self, p: Partition) -> tuple[bool, Optional[Move]]:
        p.check_cover(self.g.labels)
        for node in sorted(p.nodes):
            for mv in enumerate_deviations(p, node):
                if self.gain(p, mv) > 0:
                    return False, mv
        return True, None

    def external_stability(self, p: Partition) -> tuple[bool, Optional[tuple[str, int]]]:
        p.check_cover(self.g.labels)
        for node in sorted(p.nodes):
            src = p.block_of(node)
            for k, block in enumerate(p.blocks):
                if k == src or self.join_value(block, node) <= self.value(p.blocks[src], node):
                    continue
                # block's table is cached by join_value, so the joined
                # block's table is derived from it without a search.
                joined = block | {node}
                if not any(self.value(joined, j) < self.value(block, j) for j in block):
                    return False, (node, k)
        return True, None


def myerson_gain(g: Multigraph, p: Partition, mv: Move, r) -> Fraction:
    """Payoff change for the moving node at discount r: its Myerson value
    in the joined coalition minus its value in its current one. A fresh
    block is a singleton and pays zero. Raises PartitionError for a node
    outside its source block or a missing target block."""
    return MyersonModel.bind(g, r).gain(p, mv)


def myerson_payoff(g: Multigraph, r) -> Callable[[Partition, Move], Fraction]:
    """Deviation-gain callback for run_dynamics at a fixed discount; every
    gain it returns reads one model's block tables. It cannot check that
    a start covers g's nodes: use myerson_better_response."""
    return MyersonModel.bind(g, r).gain


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
