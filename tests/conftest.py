"""Shared fixtures and independent oracles for the test suite.

The brute-force oracles below enumerate simple paths directly (no BFS
layering) so the production counting code is checked against an
implementation that shares none of its logic: brute_force_profiles
counts geodesics, and restricted_myerson_oracle sums Shapley marginals of
a fixed geodesic game over every coalition of a chosen communication
graph. reference_node_path_counts keeps the library's former cubic
containment loop as a second, independent reference, and
reference_containment the Myerson model's former all-pairs count of the
geodesics through one node, reference_entry the block table's former row
walk for a joining node, reference_envelope the alpha sweep's former
envelope in Fractions, and reference_sweep_candidates its former
discovery, every start run at every grid point.
assert_skips_only_losing_deviations checks
a dynamics state's deviations against every move enumerate_deviations
lists. benchmark_suite draws a benchmark workload's graphs as
perfbench/ draws them, reading perfbench/ only. index_block turns a
block of labels into the frozenset of graph indices that keys a Myerson
model's tables.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coopgraph import (
    AlphaModel,
    CharPoly,
    HedonicModel,
    Multigraph,
    Partition,
    canonical_form,
    enumerate_deviations,
    induced_subgraph,
    load_dataset,
)
from coopgraph.hedonic import _BlockState
from coopgraph.multigraph import NodePathProfile, _bfs_counts
from coopgraph.partition import _index_blocks, run_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def example1():
    return load_dataset("example1")


@pytest.fixture(scope="session")
def example2():
    return load_dataset("example2")


@pytest.fixture(scope="session")
def karate():
    return load_dataset("karate")


@pytest.fixture
def example1_split():
    return Partition([{"A", "B", "C"}, {"D", "E", "F"}])


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded under a name of its own and without
    writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def benchmark_suite(workload: str) -> list[list[tuple]]:
    """The (u, v, w) edge lists of a benchmark workload's default-seed
    suite, graph i drawn by perfbench/planted.py from "<seed>.<i>"."""
    planted = perfbench_module("planted")
    manifest = json.loads((PERFBENCH / "workloads.json").read_text())
    spec = manifest["workloads"][workload]
    gen = spec["generator"]
    return [
        planted.planted_edges(
            gen["n"], gen["groups"], gen["p_in"], gen["p_out"], gen["max_mult"], f"{manifest['default_seed']}.{i}"
        )
        for i in range(spec["graphs"])
    ]


def index_block(g: Multigraph, labels) -> frozenset[int]:
    return frozenset(map(g.index_of, labels))


def random_multigraph(rng: random.Random, n: int, edge_prob=0.4, max_mult=3, connected=False):
    """Seeded random multigraph on labels v0..v{n-1}; when connected, a
    random spanning tree is laid down first."""
    labels = [f"v{i}" for i in range(n)]
    edges = []
    present = set()
    if connected and n > 1:
        order = labels[:]
        rng.shuffle(order)
        for k in range(1, n):
            u, v = order[k], order[rng.randrange(k)]
            edges.append((u, v, rng.randint(1, max_mult)))
            present.add(frozenset((u, v)))
    for a in range(n):
        for b in range(a + 1, n):
            pair = frozenset((labels[a], labels[b]))
            if pair in present:
                continue
            if rng.random() < edge_prob:
                edges.append((labels[a], labels[b], rng.randint(1, max_mult)))
    return Multigraph(edges, nodes=labels)


def random_partition(rng: random.Random, labels):
    order = list(labels)
    rng.shuffle(order)
    blocks = []
    i = 0
    while i < len(order):
        size = rng.randint(1, len(order) - i)
        blocks.append(order[i : i + size])
        i += size
    return Partition(blocks)


def _simple_path_geodesics(h: Multigraph):
    """Every geodesic of h as (length, weight, node index tuple), found by
    enumerating all simple paths between each unordered pair; a path's
    weight is the product of its link multiplicities."""
    adj = h.adjacency
    n = h.n
    geodesics = []
    for i in range(n):
        for j in range(i + 1, n):
            found = []
            stack = [(i, (i,), 1)]
            while stack:
                v, path, weight = stack.pop()
                for w, mult in adj[v].items():
                    if w == j:
                        found.append((len(path), weight * mult, path + (j,)))
                    elif w not in path:
                        stack.append((w, path + (w,), weight * mult))
            if not found:
                continue
            shortest = min(f[0] for f in found)
            geodesics.extend(f for f in found if f[0] == shortest)
    return geodesics


def brute_force_profiles(g: Multigraph, coalition):
    """Geodesic counts by exhaustive simple-path enumeration.

    Returns (pair_counts, per_node): pair_counts[k-1] is the number of
    length-k geodesics over unordered pairs inside the coalition, with a
    path's weight the product of its link multiplicities; per_node[u][k-1]
    counts the geodesics containing u.
    """
    h = induced_subgraph(g, coalition)
    geodesics = _simple_path_geodesics(h)
    length = max((d for d, _, _ in geodesics), default=0)
    counts = [0] * length
    per_node = {u: [0] * length for u in h.labels}
    for d, weight, nodes in geodesics:
        counts[d - 1] += weight
        for v in nodes:
            per_node[h.label_of(v)][d - 1] += weight
    return tuple(counts), {u: tuple(vec) for u, vec in per_node.items()}


def restricted_myerson_oracle(g: Multigraph, h: Multigraph) -> dict[str, CharPoly]:
    """Myerson value of g's fixed geodesic game played on the
    communication graph h, which has g's nodes.

    The worth w(S) sums weight * r^length over g's geodesics whose nodes
    all lie in S (simple-path enumeration, as above). The restricted game
    is w^h(S) = sum of w(C) over the components C of h[S], and each
    node's payoff is its Shapley value in w^h, summed over all 2^n
    coalitions. With h == g this is the Myerson value the library
    computes in closed form.
    """
    n = g.n
    index = {u: i for i, u in enumerate(g.labels)}
    geodesics = [
        (d, weight, sum(1 << v for v in nodes))
        for d, weight, nodes in _simple_path_geodesics(g)
    ]
    linked = [0] * n
    for a, b, _ in h.pairs():
        linked[index[a]] |= 1 << index[b]
        linked[index[b]] |= 1 << index[a]

    def worth(mask: int) -> CharPoly:
        coeffs = [0] * max(n - 1, 1)
        for d, weight, nodes in geodesics:
            if nodes & ~mask == 0:
                coeffs[d - 1] += weight
        return CharPoly(coeffs)

    def restricted(mask: int) -> CharPoly:
        total = CharPoly.zero()
        rest = mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow = linked[low.bit_length() - 1] & mask & ~comp
                comp |= grow
                frontier |= grow
            total = total + worth(comp)
            rest &= ~comp
        return total

    values = [restricted(mask) for mask in range(1 << n)]
    fact = math.factorial
    shares = [Fraction(fact(s) * fact(n - s - 1), fact(n)) for s in range(n)]
    payoff = {}
    for u, i in index.items():
        bit = 1 << i
        total = CharPoly.zero()
        for mask in range(1 << n):
            if not mask & bit:
                total = total + (values[mask | bit] - values[mask]) * shares[mask.bit_count()]
        payoff[u] = total
    return payoff


def reference_node_path_counts(g: Multigraph, coalition) -> NodePathProfile:
    """node_path_counts by the direct O(q^3) loop over (x, s, t): BFS from
    every member of the induced subgraph, then x lies on an s-t geodesic
    when d(s, x) + d(x, t) = d(s, t), contributing sigma(s, x) sigma(x, t);
    endpoints contribute the full pair count."""
    h = induced_subgraph(g, coalition)
    if h.n == 0:
        raise ValueError("coalition must be nonempty")
    rows = [_bfs_counts(h, i) for i in range(h.n)]
    length = max((d for dist, _ in rows for d in dist if d >= 1), default=0)
    counts: dict[str, tuple[int, ...]] = {}
    for x in range(h.n):
        vec = [0] * length
        for i in range(h.n):
            di, si = rows[i]
            for j in range(i + 1, h.n):
                d = di[j]
                if d < 1:
                    continue
                if x == i or x == j:
                    vec[d - 1] += si[j]
                else:
                    d_ix = di[x]
                    d_xj = rows[x][0][j]
                    if d_ix > 0 and d_xj > 0 and d_ix + d_xj == d:
                        vec[d - 1] += si[x] * rows[x][1][j]
        counts[h.label_of(x)] = tuple(vec)
    return NodePathProfile(counts, length)


def reference_allocation(g: Multigraph, coalition) -> dict[str, CharPoly]:
    """Equal-split Myerson payoffs of the coalition's members from
    reference_node_path_counts: a^u_k / (k+1) per length-k geodesic."""
    profile = reference_node_path_counts(g, coalition)
    return {
        u: CharPoly(Fraction(c, k + 2) for k, c in enumerate(vec))
        for u, vec in profile.counts.items()
    }


def reference_containment(dist, di, si):
    """Per length k, at index k-1, the geodesics of a block containing
    node i, by a scan of every pair of the block's members: dist is the
    block's all-pairs hop distance table (-1 across components), di and
    si are i's hop distances and geodesic counts to the members (i
    itself at distance 0 when it is a member). A pair (i, t) counts
    sigma(i, t); a pair s, t counts sigma(s, i) sigma(i, t) when the
    route through i is no longer than d(s, t) or s and t are
    disconnected."""
    reach = [t for t, d in enumerate(di) if d > 0]
    if not reach:
        return []
    counts = [0] * (2 * max(di[t] for t in reach))
    for t in reach:
        counts[di[t] - 1] += si[t]
    for x, s in enumerate(reach):
        for t in reach[x + 1 :]:
            length = di[s] + di[t]
            if dist[s][t] < 0 or length <= dist[s][t]:
                counts[length - 1] += si[s] * si[t]
    return counts


def reference_entry(table, links):
    """Geodesic counts and buckets from an outside node with these (graph
    index -> multiplicity) links to every member of a block table, by a
    walk over the rows of its linked members, with no search: a member's
    distance is one more than its least distance from a linked member
    (the linked member itself at 0), and its count sums over the linked
    members attaining it. Returns (si, level), level[d] the members at
    distance d >= 1 and level[0] those the node cannot reach."""
    pos, sigma, rows = table.pos, table.sigma, table.rows
    di = [-1] * len(pos)
    si = [0] * len(pos)
    for u, mult in links.items():
        a = pos.get(u)
        if a is None:
            continue
        su = sigma[a]
        # Bucket d of a's row lies at d + 1; the slot of the members a
        # cannot reach stands for a itself.
        for d, ring in enumerate(rows[a], 1):
            for x in ring if d > 1 else (a,):
                if di[x] < 0 or d < di[x]:
                    di[x], si[x] = d, mult * su[x]
                elif d == di[x]:
                    si[x] += mult * su[x]
    level = [set() for _ in range(max(0, *di) + 1)]
    for x, d in enumerate(di):
        level[max(d, 0)].add(x)
    return si, level


def reference_envelope(forms, lo, hi):
    """Upper envelope over [lo, hi] of the lines intercept + slope * alpha,
    walked in Fractions: forms pairs each candidate partition with its
    integer (intercept, slope). Equal forms keep the canonically smallest
    partition; at a tie the steeper line wins. Rows are (alpha_lo,
    alpha_hi, partition, intercept, slope)."""
    lines = {}
    for form, p in forms:
        if form not in lines or canonical_form(p) < canonical_form(lines[form]):
            lines[form] = p
    entries = [(Fraction(i), Fraction(s), p) for (i, s), p in lines.items()]
    rows = []
    a = Fraction(lo)
    while True:
        winner = max(entries, key=lambda ln: (ln[0] + ln[1] * a, ln[1]))
        cut = Fraction(hi)
        for intercept, slope, _ in entries:
            if slope > winner[1]:
                x = (winner[0] - intercept) / (slope - winner[1])
                if a < x < cut:
                    cut = x
        rows.append((a, cut, winner[2], winner[0], winner[1]))
        if cut >= hi:
            return rows
        a = cut


def reference_sweep_candidates(g: Multigraph, starts, grid: int, lo, hi) -> list[Partition]:
    """Every partition a traced better-response run reaches from each
    start (the given ones, then singletons and the grand coalition) at
    each of the grid + 1 evenly spaced alphas of [lo, hi], each bound
    afresh, sorted by canonical form."""
    found = {}
    for j in range(grid + 1):
        model = HedonicModel.bind(AlphaModel(lo + (hi - lo) * Fraction(j, grid)), g)
        for s in [*starts, Partition.singletons(g.labels), Partition.grand(g.labels)]:
            final, _ = run_schedule(_BlockState(model, _index_blocks(g, s)))
            found.setdefault(canonical_form(final), final)
    return [found[key] for key in sorted(found)]


def assert_skips_only_losing_deviations(p: Partition, deviations, gain, den: int) -> None:
    """deviations(node) yields a dynamics state's (target, scaled gain)
    pairs on p, gain(move) is the model's exact gain. Per node the state
    must yield targets in enumerate_deviations order, each once, with the
    model's gain times den, and every move it leaves out must gain at
    most 0."""
    for node in sorted(p.nodes):
        yielded = list(deviations(node))
        scaled = dict(yielded)
        moves = enumerate_deviations(p, node)
        assert [k for k, _ in yielded] == [mv.target for mv in moves if mv.target in scaled]
        for mv in moves:
            if mv.target in scaled:
                assert scaled[mv.target] == gain(mv) * den
            else:
                assert gain(mv) <= 0
