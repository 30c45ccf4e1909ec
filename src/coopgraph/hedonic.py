"""Symmetric hedonic value functions, exact potentials and better response.

Two pair-value families are provided. The alpha model pays 1 - alpha for
a linked pair and -alpha otherwise (adjacency binarized), so a block's
potential is its link count minus alpha times its pair count. The
modularity family pays beta_ij (A_ij - gamma d_i d_j / 2m) with full
multiplicities, which makes potential maximization coincide with
(generalized) modularity maximization.

Both are served by one integer model. HedonicModel.bind(vf, g) writes
every pair value as (lam a_ij - kap c_i c_j) / den, with integer
neighbour weights a_ij (nonzero only on linked pairs), integer node
weights c_i, integer scalars lam and kap, and a common denominator
den > 0:

    alpha = p/q                    a_ij = 1 if linked, c_i = 1,
                                   lam = q, kap = p, den = q
    beta = b1/b2, gamma = gp/gq    a_ij = multiplicity, c_i = degree,
                                   lam = b1 2m gq, kap = b1 gp, den = b2 2m gq
    degree-normalized (beta None)  a_ij = den 2m mult / (d_i d_j), c_i = 1,
                                   lam = 1, kap = den gamma, den = lcm of gq
                                   and the denominators of 2m mult / (d_i d_j)

Moving node i from block S to block T (or a fresh block) then gains

    lam (A_iT - A_iS) - kap c_i (C_T - C_S + c_i)

where A_iX sums a_ij over i's neighbours in X and C_X sums c over X: the
local-move gain of Louvain (Blondel et al. 2008) in integers, O(deg i)
to gather the link sums and O(1) per target block, on partition's
_IndexState with c as block weights. The potential is a sum of pair
values, so a move changes it by exactly the mover's gain (Monderer &
Shapley 1996): a trace's gains sum to the potential's rise, and better
response never computes the potential.

Everything is exact: gains and potentials are integers over den, and a
Fraction is built only where a value leaves the engine (a trace step,
built when a trace is asked for, a reported potential, a pair value);
alpha_sweep builds no trace, and its envelope compares integer lines.
Potentials, move gains, thresholds and breakpoints are exact rationals.

alpha_sweep discovery runs each start next at the first grid point
past its last run's reach. Under the alpha model each comparison a run
makes (gain > 0, and the pruning test leave <= 0) is the sign of a line
in alpha, lam a - kap b with integer parts a and b. So a run also checks
each comparison at one later grid point, reach, by two integer products,
and lowers reach until the outcome there matches. A line with one sign
at both ends has it in between, so at every grid point up to reach the
run makes the same moves and ends in the same partition: the comparison
tracking of Megiddo's parametric search (J. ACM 30(4), 1983), run
forward. The candidates and the table are those of running every point;
on the seed-1 alpha-sweep benchmark suite discovery makes 142 runs
instead of 210.

The reference paths, pair_value and move_gain (each binds a model per
call) and bruteforce_max_partition with iter_set_partitions, live in
coopgraph.reference and load from there on first use of their names
here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import _exact, _Record, _reference_hook
from .multigraph import Multigraph
from .partition import (
    Move,
    Partition,
    Schedule,
    Trace,
    _check_move,
    _index_blocks,
    _IndexState,
    canonical_form,
    nash_scan,
    run_schedule,
    settle,
)

BRUTEFORCE_MAX_NODES = 10

__getattr__ = _reference_hook(__name__, "pair_value", "move_gain", "iter_set_partitions", "bruteforce_max_partition")


class AlphaModel(_Record):
    """Pair value 1 - alpha for adjacent pairs, -alpha otherwise.

    Adjacency is binarized: parallel edges count once. alpha in [0, 1]
    tunes resolution from the grand coalition toward maximal cliques.
    """

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _exact(self.alpha, "alpha"))
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


class Modularity(_Record):
    """Pair value beta_ij (A_ij - gamma d_i d_j / 2m), multiplicities kept.

    beta None selects the degree-normalized weights 2m / (d_i d_j);
    otherwise beta is a uniform weight. gamma is the resolution parameter
    of generalized modularity.
    """

    gamma: Fraction = Fraction(1)
    beta: Optional[Fraction] = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "gamma", _exact(self.gamma, "gamma"))
        if self.beta is not None:
            object.__setattr__(self, "beta", _exact(self.beta, "beta"))


ValueFunction = Union[AlphaModel, Modularity]


class Potential(_Record):
    """Exact partition potential; for the alpha model also the linear form
    value = intercept + slope * alpha."""

    value: Fraction
    intercept: Optional[Fraction] = None
    slope: Optional[Fraction] = None


class HedonicModel(_Record, eq=False):
    """A value function bound to a graph in exact integers.

    For graph indices i != j, pair_value = (lam * a_ij - kap * c_i * c_j) / den,
    where a[i] maps each neighbour j of i to a_ij (a_ij is 0 for unlinked
    pairs), c holds the node weights and den > 0. Bind with HedonicModel.bind.
    """

    vf: ValueFunction
    g: Multigraph
    a: tuple[dict[int, int], ...]
    c: tuple[int, ...]
    lam: int
    kap: int
    den: int

    @classmethod
    def bind(cls, vf: ValueFunction, g: Multigraph) -> "HedonicModel":
        """Scale the value function's pair values on g to integers; raises
        ValueError for a modularity model on a graph without edges, and for
        degree-normalized weights on a graph with an isolated node."""
        if isinstance(vf, AlphaModel):
            a = tuple({j: 1 for j in row} for row in g.adjacency)
            return cls(vf, g, a, (1,) * g.n, **_alpha_scalars(vf.alpha))
        if g.m == 0:
            raise ValueError("modularity value function needs at least one edge")
        two_m = 2 * g.m
        degrees = tuple(g.degree(u) for u in g.labels)
        gamma = vf.gamma
        if vf.beta is not None:
            b = vf.beta
            return cls(
                vf, g, g.adjacency, degrees,
                lam=b.numerator * two_m * gamma.denominator,
                kap=b.numerator * gamma.numerator,
                den=b.denominator * two_m * gamma.denominator,
            )
        if 0 in degrees:
            raise ValueError("degree-normalized weights need positive degrees")
        # beta_ij = 2m / (d_i d_j) makes the pair value 2m A_ij / (d_i d_j) - gamma.
        weights = [
            {j: Fraction(two_m * w, degrees[i] * degrees[j]) for j, w in row.items()}
            for i, row in enumerate(g.adjacency)
        ]
        den = math.lcm(gamma.denominator, *(q.denominator for row in weights for q in row.values()))
        a = tuple({j: int(q * den) for j, q in row.items()} for row in weights)
        return cls(vf, g, a, (1,) * g.n, lam=1, kap=int(gamma * den), den=den)

    def within(self, blocks: Iterable[Iterable[int]]) -> tuple[int, int]:
        """(sum of a_ij, sum of c_i c_j) over the unordered pairs inside
        each block of graph indices."""
        a, c = self.a, self.c
        links = pairs = 0
        for block in blocks:
            members = set(block)
            total = squares = 0
            for i in members:
                total += c[i]
                squares += c[i] * c[i]
                links += sum(w for j, w in a[i].items() if j in members)
            pairs += (total * total - squares) // 2
        return links // 2, pairs

    def scaled_pair(self, i: int, j: int) -> int:
        """den times the pair value of distinct graph indices i and j."""
        return self.lam * self.a[i].get(j, 0) - self.kap * self.c[i] * self.c[j]

    def potential(self, p: Partition) -> Potential:
        links, pairs = self.within(_index_blocks(self.g, p))
        value = Fraction(self.lam * links - self.kap * pairs, self.den)
        if isinstance(self.vf, AlphaModel):
            return Potential(value, Fraction(links), Fraction(-pairs))
        return Potential(value)

    def gain(self, p: Partition, mv: Move) -> Fraction:
        """Exact gain of one move on a Partition value, in
        O(deg + |source| + |target|); raises PartitionError for a node
        outside its source block or a missing target block."""
        _check_move(p, mv)
        index = self.g.index_of
        i = index(mv.node)
        s = {index(u) for u in p.blocks[mv.source]}
        t = set() if mv.is_fresh else {index(u) for u in p.blocks[mv.target]}
        c = self.c
        a_s = a_t = 0
        for j, w in self.a[i].items():
            if j in s:
                a_s += w
            elif j in t:
                a_t += w
        c_s = sum(c[j] for j in s)
        c_t = sum(c[j] for j in t)
        gain = self.lam * (a_t - a_s) - self.kap * c[i] * (c_t - c_s + c[i])
        return Fraction(gain, self.den)


def _alpha_scalars(alpha: Fraction) -> dict:
    return {"lam": alpha.denominator, "kap": alpha.numerator, "den": alpha.denominator}


class _BlockState(_IndexState):
    """The shared state with c as block weights, from blocks of graph
    indices (as _index_blocks gives them). The potential rises by the
    gain at every accepted move, so no partition can repeat and no cycle
    key is kept. An alpha-model run may also track how far its moves hold
    across a grid of alphas (see track)."""

    def __init__(self, model: HedonicModel, blocks: list[list[int]]):
        super().__init__(model.g.labels, blocks, model.c, model.den)
        self.model = model
        self.far = None  # while tracking, lam and kap at grid point reach, scaled alike

    def track(self, line: tuple[int, int, int], here: int, reach: int) -> None:
        """Also check every comparison at grid point reach of the alpha
        grid line = (u, v, w), whose point r is alpha (u + v r) / w, and
        lower reach until each comparison comes out there as at this
        run's point, here. A comparison is the sign of a line in alpha,
        so from here up to reach a first-improvement run (round-robin or
        random, which only test gain > 0) makes the same moves; a
        GREEDY_BEST run also compares gains with each other, which is not
        tracked. The model must be the alpha model at point here (so
        c_i = 1)."""
        self.line, self.here, self.reach = line, here, reach
        if reach > here:
            self.far = (line[2], line[0] + line[1] * reach)

    def _lower(self, a: int, b: int, positive: bool):
        # lam a - kap b > 0 came out `positive` here but not at reach; at
        # grid point r it reads c0 - v b r > 0 with c0 = w a - u b, so the
        # new reach is the last point before it flips. Tracking stops
        # when reach comes down to this run's own point.
        u, v, w = self.line
        c0 = w * a - u * b
        self.reach = (c0 - 1) // (v * b) if positive else -c0 // (-v * b)
        self.far = (w, u + v * self.reach) if self.reach > self.here else None
        return self.far

    def deviations(self, i: int):
        """(target, scaled gain) per deviation of node i that can gain: other
        blocks in position order, then None for a fresh block. A move from
        S to T gains lam a - kap c_i b with a = A_iT - A_iS and
        b = C_T - C_S + c_i."""
        model, block, total = self.model, self.block, self.total
        s = block[i]
        links: dict[int, int] = {}
        for j, w in model.a[i].items():
            b = block[j]
            links[b] = links.get(b, 0) + w
        lam = model.lam
        kc = model.kap * model.c[i]
        # The part of the gain that does not depend on the target: the
        # whole gain of a fresh block, 0 when i is alone. An unlinked block
        # gains leave - kc C_T, never more when kc >= 0 (c_i >= 0 always).
        ls = links.pop(s, 0)
        leave = -lam * ls - kc * (model.c[i] - total[s])
        # A tracking run also checks each comparison lam a - kap b > 0 at
        # reach, from the integer parts a = A_iT - A_iS, b = C_T - C_S + c_i.
        far = self.far
        if far:
            a0, b0 = -ls, model.c[i] - total[s]
            if (leave > 0) != (far[0] * a0 > far[1] * b0):
                far = self._lower(a0, b0, leave > 0)
        for t in sorted(links) if kc >= 0 and leave <= 0 else range(len(total)):
            if t != s:
                gain = leave + lam * links.get(t, 0) - kc * total[t]
                if far:
                    a, b = a0 + links.get(t, 0), b0 + total[t]
                    if (gain > 0) != (far[0] * a > far[1] * b):
                        far = self._lower(a, b, gain > 0)
                yield t, gain
        if leave > 0:
            yield None, leave


def potential_form(g: Multigraph, p: Partition) -> tuple[int, int]:
    """Alpha-model potential as integer (intercept, slope): per block, the
    binarized link count minus alpha times the member-pair count."""
    return _form(HedonicModel.bind(AlphaModel(0), g), p)


def _form(structure: HedonicModel, p: Partition) -> tuple[int, int]:
    links, pairs = structure.within(_index_blocks(structure.g, p))
    return links, -pairs


def potential(vf: ValueFunction, g: Multigraph, p: Partition) -> Potential:
    """Sum of pair values over unordered within-block pairs."""
    return HedonicModel.bind(vf, g).potential(p)


def nash_stable(
    vf: ValueFunction, g: Multigraph, p: Partition
) -> tuple[bool, Optional[Move]]:
    """True when no single node strictly gains by relocating to another
    block or to a fresh one; otherwise returns the first improving move in
    label and enumerate_deviations order. p must cover exactly g's nodes."""
    return nash_scan(_BlockState(HedonicModel.bind(vf, g), _index_blocks(g, p)))


def better_response(
    vf: ValueFunction, g: Multigraph, start: Partition, schedule: Schedule = Schedule()
) -> tuple[Partition, Trace]:
    """Better-response dynamics on the hedonic game; start must cover
    exactly g's nodes.

    The potential rises by exactly the step's gain at every accepted move
    and there are finitely many partitions, so the run always stops Stable
    (or at the step cap) and the result passes nash_stable."""
    return run_schedule(_BlockState(HedonicModel.bind(vf, g), _index_blocks(g, start)), schedule)


def partition_threshold(g: Multigraph, p1: Partition, p2: Partition) -> Optional[Fraction]:
    """Exact alpha in [0, 1] where the two partitions' alpha-model
    potentials cross; None when the linear forms are parallel or
    identical, or the crossing falls outside [0, 1]."""
    structure = HedonicModel.bind(AlphaModel(0), g)
    i1, s1 = _form(structure, p1)
    i2, s2 = _form(structure, p2)
    if s1 == s2:
        return None
    x = Fraction(i2 - i1, s1 - s2)
    return x if 0 <= x <= 1 else None


class SweepRow(_Record):
    """One interval of the sweep: the partition whose potential dominates
    between alpha_lo and alpha_hi (endpoints closed; rows share them)."""

    alpha_lo: Fraction
    alpha_hi: Fraction
    partition: Partition
    intercept: Fraction
    slope: Fraction


class SweepTable(_Record):
    rows: tuple[SweepRow, ...]


def _check_grid(grid) -> None:
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise ValueError(f"grid must be an int of at least 1, got {grid!r}")


def alpha_sweep(
    g: Multigraph,
    candidates: Optional[Iterable[Partition]] = None,
    *,
    starts: Optional[Iterable[Partition]] = None,
    grid: int = 20,
    alpha_range: tuple = (Fraction(0), Fraction(1)),
) -> SweepTable:
    """Exact upper envelope of alpha-model potentials over an alpha range.

    Explicit candidate partitions are enveloped directly. Otherwise
    candidates are discovered by running better_response from each
    distinct start (the given ones, then singletons and the grand
    coalition; starts are equal when they list the same blocks in the
    same order, since block order steers a run) at grid+1 evenly spaced
    rational alphas, skipping the grid points an earlier run from the
    same start covers (see the module docstring), then enveloped. Breakpoints are exact rationals.
    Every candidate and start must cover exactly g's nodes. In both modes
    ValueError is raised unless alpha_range is a pair (lo, hi) with
    0 <= lo < hi <= 1 and grid is an int of at least 1 (a bool is not);
    also for an empty candidate set and for starts given with candidates.
    The graph is bound once; each run only rescales the binding.
    """
    if not isinstance(alpha_range, (tuple, list)) or len(alpha_range) != 2:
        raise ValueError(f"alpha range must be a pair (lo, hi), got {alpha_range!r}")
    lo, hi = (_exact(a, "alpha range") for a in alpha_range)
    if not (0 <= lo < hi <= 1):
        raise ValueError(f"alpha range must satisfy 0 <= lo < hi <= 1, got [{lo}, {hi}]")
    _check_grid(grid)
    structure = HedonicModel.bind(AlphaModel(0), g)
    if candidates is not None:
        if starts is not None:
            raise ValueError("starts apply only when candidates are discovered")
        cands = [(_form(structure, p), p) for p in candidates]
        if not cands:
            raise ValueError("candidate partition set is empty")
    else:
        # A start with the same blocks in the same order as an earlier one
        # would only repeat its runs; block order steers a run, so a start
        # that only lists its blocks in another order is kept. Each start
        # enters as graph indices once.
        distinct = {s.blocks: s for s in [*(starts or ()), Partition.singletons(g.labels), Partition.grand(g.labels)]}
        base = [_index_blocks(g, s) for s in distinct.values()]
        # Grid point j is alpha (u + v j) / w. A run at j tracks its
        # comparisons up to the reach it returns, so each start is run
        # next at the first grid point past that reach.
        d = hi - lo
        line = (lo.numerator * d.denominator * grid, d.numerator * lo.denominator,
                lo.denominator * d.denominator * grid)
        u, v, w = line
        # (form, partition) of each new candidate, keyed by its index blocks.
        found: dict[frozenset, tuple] = {}
        for blocks in base:
            j = 0
            while j <= grid:
                a = Fraction(u + v * j, w)
                model = HedonicModel(AlphaModel(a), g, structure.a, structure.c, **_alpha_scalars(a))
                state = _BlockState(model, blocks)
                state.track(line, j, grid)
                settle(state)
                j = state.reach + 1
                final = state.index_blocks()
                key = frozenset(map(frozenset, final))
                if key not in found:
                    links, pairs = structure.within(final)
                    found[key] = (links, -pairs), state.partition()
        cands = list(found.values())
    return SweepTable(tuple(_envelope(cands, lo, hi)))


def _envelope(candidates, lo, hi):
    # candidates pairs each partition's alpha-model form (intercept,
    # slope) with the partition, in any order. One line per distinct form;
    # equal forms tie everywhere, so keep the canonically smallest for them.
    lines: dict[tuple[int, int], Partition] = {}
    for form, p in candidates:
        if form not in lines or canonical_form(p) < canonical_form(lines[form]):
            lines[form] = p
    # Lines i + s a are compared at a = an / ad (ad > 0) as ad i + s an.
    # Ties go to the steeper line, so adjacent rows never share a partition.
    rows = []
    a, start = (lo.numerator, lo.denominator), lo
    top = (hi.numerator, hi.denominator)
    while True:
        an, ad = a
        (wi, ws), winner = max(lines.items(), key=lambda ln: (ln[0][0] * ad + ln[0][1] * an, ln[0][1]))
        # Every steeper line is below the winner at a, so it crosses the
        # winner after a, at (wi - i) / (s - ws); the first crossing before
        # hi ends the row. cut stays top when no line crosses before hi.
        cut = top
        for i, s in lines:
            if s > ws and (wi - i) * cut[1] < cut[0] * (s - ws):
                cut = (wi - i, s - ws)
        end = hi if cut is top else Fraction(*cut)
        rows.append(SweepRow(start, end, winner, Fraction(wi), Fraction(ws)))
        if cut is top:
            return rows
        a, start = cut, end
