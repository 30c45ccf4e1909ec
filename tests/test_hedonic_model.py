"""Differential tests of the integer hedonic model against Fraction references.

The references below derive every pair value from the definitions
(alpha model: 1 - alpha or -alpha; modularity: beta_ij (A_ij - gamma d_i
d_j / 2m)) in Fraction arithmetic and sum them pair by pair, sharing no
code with HedonicModel. The dynamics are checked against run_dynamics
driven by the reference payoff, which advances immutable Partition
values with apply_move, so deviation order, block numbering, the seeded
schedule and greedy tie-breaking are compared as well as the numbers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph import (
    GREEDY_BEST,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    AlphaModel,
    HedonicModel,
    Modularity,
    Multigraph,
    Partition,
    Schedule,
    apply_move,
    better_response,
    bruteforce_max_partition,
    canonical_form,
    enumerate_deviations,
    move_gain,
    nash_stable,
    potential,
    run_dynamics,
)
from coopgraph.hedonic import SweepRow, _BlockState, _envelope
from coopgraph.partition import _CallbackState, _index_blocks, settle

from conftest import assert_skips_only_losing_deviations, random_multigraph, reference_envelope


def ref_pair_value(vf, g: Multigraph, u: str, v: str) -> Fraction:
    mult = g.multiplicity(u, v)
    if isinstance(vf, AlphaModel):
        return 1 - vf.alpha if mult else -vf.alpha
    du, dv = g.degree(u), g.degree(v)
    base = mult - vf.gamma * Fraction(du * dv, 2 * g.m)
    if vf.beta is None:
        return Fraction(2 * g.m, du * dv) * base
    return vf.beta * base


def ref_potential(vf, g: Multigraph, p: Partition) -> Fraction:
    total = Fraction(0)
    for block in p.blocks:
        members = sorted(block)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                total += ref_pair_value(vf, g, members[x], members[y])
    return total


def ref_gain(vf, g: Multigraph, p: Partition, mv) -> Fraction:
    target = () if mv.is_fresh else p.blocks[mv.target]
    joined = sum((ref_pair_value(vf, g, mv.node, j) for j in target), Fraction(0))
    left = sum(
        (ref_pair_value(vf, g, mv.node, j) for j in p.blocks[mv.source] if j != mv.node),
        Fraction(0),
    )
    return joined - left


def ref_first_improving(vf, g: Multigraph, p: Partition):
    for node in sorted(p.nodes):
        for mv in enumerate_deviations(p, node):
            if ref_gain(vf, g, p, mv) > 0:
                return mv
    return None


@st.composite
def graphs(draw, max_nodes=7):
    """Small multigraphs whose label order differs from first mention."""
    n = draw(st.integers(2, max_nodes))
    names = draw(st.permutations([f"n{k}" for k in range(n)]))
    edges = [
        (names[i], names[j], w)
        for i in range(n)
        for j in range(i + 1, n)
        if (w := draw(st.integers(0, 3))) > 0
    ]
    return Multigraph(edges, nodes=names)


@st.composite
def partitions(draw, g: Multigraph):
    ids = [draw(st.integers(0, g.n - 1)) for _ in g.labels]
    blocks: dict[int, list[str]] = {}
    for label, k in zip(g.labels, ids):
        blocks.setdefault(k, []).append(label)
    return Partition(draw(st.permutations(list(blocks.values()))))


@st.composite
def models(draw, g: Multigraph):
    """Alpha, uniform-beta modularity (gamma and beta varied, beta negative
    and zero included) and degree-normalized, where the graph allows."""
    kinds = ["alpha"]
    if g.m > 0:
        kinds.append("uniform")
        if all(g.degree(u) > 0 for u in g.labels):
            kinds.append("degree-norm")
    kind = draw(st.sampled_from(kinds))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if kind == "alpha":
        return AlphaModel(draw(st.fractions(min_value=0, max_value=1, max_denominator=12)))
    gamma = draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
    if kind == "uniform":
        beta = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(-1), Fraction(2, 3)]), rationals))
        return Modularity(gamma=gamma, beta=beta)
    return Modularity(gamma=gamma, beta=None)


@st.composite
def games(draw, max_nodes=7):
    g = draw(graphs(max_nodes))
    return g, draw(models(g)), draw(partitions(g))


# Derandomized, so that every run checks the same examples.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(games())
def test_every_deviation_gain_matches_the_pair_sums(game):
    g, vf, p = game
    for node in sorted(p.nodes):
        for mv in enumerate_deviations(p, node):
            assert move_gain(vf, g, p, mv) == ref_gain(vf, g, p, mv)


@SETTINGS
@given(games())
def test_potential_matches_the_pair_sum(game):
    g, vf, p = game
    pot = potential(vf, g, p)
    assert pot.value == ref_potential(vf, g, p)
    if isinstance(vf, AlphaModel):
        assert pot.value == pot.intercept + pot.slope * vf.alpha
    else:
        assert pot.intercept is None and pot.slope is None


@SETTINGS
@given(games(), st.integers(0, 3), st.one_of(st.none(), st.integers(1, 4)))
def test_dynamics_match_the_reference_payoff_under_every_schedule(game, seed, max_steps):
    g, vf, start = game
    payoff = lambda p, mv: ref_gain(vf, g, p, mv)  # noqa: E731
    # Every move gains 1 under restless, so its runs stop CycleDetected or
    # CapReached.
    restless = lambda p, mv: Fraction(1)  # noqa: E731
    for policy in (ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST):
        schedule = Schedule(policy=policy, seed=seed, max_steps=max_steps)
        final, trace = better_response(vf, g, start, schedule)
        ref_final, ref_trace = run_dynamics(payoff, start, schedule)
        assert trace == ref_trace
        assert final.blocks == ref_final.blocks
        # settle alone stops where run_schedule does, on the same partition.
        runs = [
            (_BlockState(HedonicModel.bind(vf, g), _index_blocks(g, start)), final, trace),
            (_CallbackState(payoff, start), ref_final, ref_trace),
            (_CallbackState(restless, start), *run_dynamics(restless, start, schedule)),
        ]
        for state, run_final, run_trace in runs:
            assert settle(state, schedule) == run_trace.status
            assert state.partition().blocks == run_final.blocks
        # The potential property: replayed, every step raises the reference
        # potential by exactly its gain.
        p, before = start, ref_potential(vf, g, start)
        for step in trace.steps:
            p = apply_move(p, step.move)
            after = ref_potential(vf, g, p)
            assert step.gain > 0 and after - before == step.gain
            before = after
        if trace.status == "Stable":
            assert ref_first_improving(vf, g, final) is None
            assert nash_stable(vf, g, final) == (True, None)


@SETTINGS
@given(games())
def test_nash_witness_is_the_first_improving_move(game):
    g, vf, p = game
    witness = ref_first_improving(vf, g, p)
    assert nash_stable(vf, g, p) == (witness is None, witness)


@st.composite
def signed_games(draw):
    """games() with gamma of either sign. A negative gamma, or a negative
    beta with a positive gamma, makes kap c_i negative, and then a block a
    node has no link to can gain."""
    g, vf, p = draw(games())
    if isinstance(vf, Modularity) and draw(st.booleans()):
        gamma = draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
        vf = Modularity(gamma=-gamma, beta=vf.beta)
    return g, vf, p


@settings(max_examples=120, deadline=None, derandomize=True)
@given(signed_games())
def test_the_state_leaves_out_only_deviations_that_cannot_gain(game):
    g, vf, p = game
    model = HedonicModel.bind(vf, g)
    state = _BlockState(model, _index_blocks(g, p))
    assert_skips_only_losing_deviations(
        p, lambda node: state.deviations(g.index_of(node)), lambda mv: model.gain(p, mv), model.den
    )


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        for k in range(len(blocks)):
            yield blocks[:k] + [[first] + blocks[k]] + blocks[k + 1 :]
        yield [[first]] + blocks


def _argmax(scored):
    """Maximum score, and among its partitions the smallest canonical form."""
    top, ties = None, []
    for score, blocks in scored:
        if top is None or score > top:
            top, ties = score, [blocks]
        elif score == top:
            ties.append(blocks)
    return min((Partition(b) for b in ties), key=canonical_form), top


@settings(max_examples=25, deadline=None, derandomize=True)
@given(games(max_nodes=6))
def test_bruteforce_matches_the_reference_maximum(game):
    g, vf, _ = game
    part, pot = bruteforce_max_partition(vf, g)
    scored = ((ref_potential(vf, g, Partition(b)), b) for b in _set_partitions(list(g.labels)))
    ref_part, ref_value = _argmax(scored)
    assert pot.value == ref_value
    assert canonical_form(part) == canonical_form(ref_part)


def test_bruteforce_at_the_gate_matches_integer_scaled_reference():
    # Ten nodes, the brute-force gate: the reference scales its own
    # Fraction pair values by their common denominator and enumerates.
    g = random_multigraph(random.Random(7), 10, edge_prob=0.35)
    vf = Modularity(gamma=Fraction(3, 2), beta=Fraction(-2, 3))
    values = {(u, v): ref_pair_value(vf, g, u, v) for u in g.labels for v in g.labels if u < v}
    den = math.lcm(*(q.denominator for q in values.values()))
    scaled = {pair: int(q * den) for pair, q in values.items()}

    def score(blocks):
        return sum(scaled[u, v] for b in blocks for u in b for v in b if u < v)

    scored = ((score(b), b) for b in _set_partitions(list(g.labels)))
    ref_part, ref_score = _argmax(scored)
    part, pot = bruteforce_max_partition(vf, g)
    assert pot.value == Fraction(ref_score, den)
    assert canonical_form(part) == canonical_form(ref_part)


def test_modularity_potential_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(30)
    g = random_multigraph(rng, 30, edge_prob=0.15, max_mult=3, connected=True)
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(g.labels)
    for u, v, mult in g.pairs():
        for _ in range(mult):
            nxg.add_edge(u, v)
    vf = Modularity()
    found, _ = better_response(vf, g, Partition.singletons(g.labels))
    squares = Fraction(sum(g.degree(u) ** 2 for u in g.labels), 4 * g.m)
    for p in (found, Partition.grand(g.labels), Partition.singletons(g.labels)):
        q = nx.community.modularity(nxg, [set(b) for b in p.blocks])
        # Q sums (A_ij - d_i d_j / 2m) / 2m over ordered pairs, i == j included.
        assert float(potential(vf, g, p).value) == pytest.approx(g.m * q + float(squares), rel=1e-9)


def _lines_through(x: Fraction, value: int, slopes) -> list[tuple[int, int]]:
    # Integer lines i + s a through (x, value): slopes are multiples of x's
    # denominator, so every intercept is an integer.
    q = x.denominator
    return [(value - t * x.numerator, t * q) for t in slopes]


@st.composite
def line_sets(draw):
    """Integer (intercept, slope) lines, repeats and equal slopes included,
    sometimes with three or more through one point, and an alpha range
    whose endpoints may be crossings of the lines or non-dyadic."""
    small = st.integers(-6, 6)
    forms = draw(st.lists(st.tuples(small, small), min_size=1, max_size=7))
    if draw(st.booleans()):
        x = draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
        slopes = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=4, unique=True))
        forms += _lines_through(x, draw(small), slopes)
    crossings = {
        Fraction(i2 - i1, s1 - s2)
        for i1, s1 in forms
        for i2, s2 in forms
        if s1 != s2 and 0 <= Fraction(i2 - i1, s1 - s2) <= 1
    }
    ends = st.one_of(
        st.sampled_from(sorted(crossings | {Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7)})),
        st.fractions(min_value=0, max_value=1, max_denominator=9),
    )
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return forms, lo, hi


def assert_envelope_matches_the_reference(forms, lo, hi):
    # Candidate k is a one-node partition with its own canonical form and
    # the line forms[k], so repeated forms keep the smallest candidate.
    candidates = list(zip(forms, (Partition([[f"c{k:02d}"]]) for k in range(len(forms)))))
    rows = _envelope(candidates, lo, hi)
    assert rows == [SweepRow(*row) for row in reference_envelope(candidates, lo, hi)]
    # Discovery hands the candidates over in the order it meets them.
    assert _envelope(candidates[::-1], lo, hi) == rows
    assert {type(v) for row in rows for v in (row.alpha_lo, row.alpha_hi, row.intercept, row.slope)} == {Fraction}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line_sets())
def test_the_integer_envelope_matches_the_fraction_reference(lines):
    assert_envelope_matches_the_reference(*lines)


@pytest.mark.parametrize(
    "forms, lo, hi",
    [
        ([(3, -2)], Fraction(0), Fraction(1)),
        ([(1, -1), (4, -1), (2, -1)], Fraction(0), Fraction(1)),
        (_lines_through(Fraction(1, 3), 2, [-2, 0, 1]), Fraction(0), Fraction(1)),
        (_lines_through(Fraction(1, 3), 2, [-2, 0, 1]), Fraction(0), Fraction(1, 3)),
        ([(5, -9), (3, -3), (2, 0), (0, 4)], Fraction(1, 3), Fraction(5, 7)),
    ],
    ids=["one-line", "equal-slopes", "three-through-a-point", "three-through-the-end", "non-dyadic-range"],
)
def test_the_integer_envelope_on_named_line_sets(forms, lo, hi):
    assert_envelope_matches_the_reference(forms, lo, hi)
