import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph import (
    AlphaModel,
    CharPoly,
    Modularity,
    HedonicModel,
    Move,
    MyersonModel,
    Multigraph,
    Partition,
    PartitionError,
    Schedule,
    SizeGateError,
    STABLE,
    alpha_sweep,
    better_response,
    bruteforce_max_partition,
    canonical_form,
    iter_set_partitions,
    move_gain,
    nash_stable,
    pair_value,
    partition_threshold,
    potential,
)
from coopgraph import hedonic, partition
from coopgraph.datasets import (
    example2_clique_partition,
    karate_split_15_19,
    karate_split_17_17,
)
from coopgraph.hedonic import _BlockState
from coopgraph.partition import _index_blocks, settle

from conftest import random_multigraph, random_partition, reference_sweep_candidates


def frac(s):
    return Fraction(s)


class TestPairValue:
    def test_alpha_model(self):
        g = Multigraph([("a", "b", 3)], nodes=["a", "b", "c"])
        vf = AlphaModel(frac("1/4"))
        assert pair_value(vf, g, "a", "b") == frac("3/4")  # binarized
        assert pair_value(vf, g, "a", "c") == frac("-1/4")

    def test_same_node_rejected(self, example1):
        with pytest.raises(ValueError, match="distinct"):
            pair_value(AlphaModel(frac("1/4")), example1, "A", "A")

    def test_modularity_keeps_multiplicities(self, example1):
        # all degrees are 3 and m = 9 on the six-node multigraph
        vf = Modularity()
        assert pair_value(vf, example1, "B", "C") == frac("3/2")
        assert pair_value(vf, example1, "A", "B") == frac("1/2")
        assert pair_value(vf, example1, "B", "D") == frac("-1/2")

    def test_degree_normalized_beta(self, example1):
        vf = Modularity(beta=None)
        # beta_ij = 2m/(d_i d_j) turns the pair value into 2m A_ij/(d_i d_j) - gamma
        assert pair_value(vf, example1, "B", "C") == frac("36/9") - 1
        assert pair_value(vf, example1, "B", "D") == -1

    def test_gamma_scales_null_model(self, example1):
        vf = Modularity(gamma=frac("2"))
        assert pair_value(vf, example1, "B", "C") == 2 - 2 * frac("1/2")

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            AlphaModel(frac("3/2"))

    def test_symmetry(self, example1):
        rng = random.Random(2)
        for vf in (AlphaModel(frac("1/3")), Modularity(gamma=frac("3/2")), Modularity(beta=None)):
            for _ in range(10):
                u, v = rng.sample(example1.labels, 2)
                assert pair_value(vf, example1, u, v) == pair_value(vf, example1, v, u)


class TestPotential:
    def test_karate_grand(self, karate):
        pot = potential(AlphaModel(frac("1/20")), karate, Partition.grand(karate.labels))
        assert (pot.intercept, pot.slope) == (78, -561)
        assert pot.value == 78 - 561 * frac("1/20")

    def test_example2_cliques(self, example2):
        pot = potential(AlphaModel(frac("1/2")), example2, example2_clique_partition())
        assert (pot.intercept, pot.slope) == (74, -74)

    def test_example1_modularity_values(self, example1):
        vf = Modularity()
        grand = potential(vf, example1, Partition.grand(example1.labels))
        assert grand.value == frac("3/2")
        assert grand.intercept is None
        split3 = potential(vf, example1, Partition([{"B", "C"}, {"A", "D"}, {"E", "F"}]))
        split2 = potential(vf, example1, Partition([{"A", "B", "C", "D"}, {"E", "F"}]))
        assert split3.value == split2.value == frac("7/2")
        best = potential(vf, example1, Partition([{"A", "B", "C"}, {"D", "E", "F"}]))
        assert best.value == 5

    def test_closed_form_matches_pairwise_sum(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_multigraph(rng, rng.randint(2, 8))
            p = random_partition(rng, g.labels)
            alpha = Fraction(rng.randint(0, 8), 8)
            vf = AlphaModel(alpha)
            direct = Fraction(0)
            for block in p.blocks:
                members = sorted(block)
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        direct += pair_value(vf, g, members[i], members[j])
            assert potential(vf, g, p).value == direct


class TestMoveGain:
    def test_zachary_node3_gain(self, karate):
        p = karate_split_15_19()
        vf = AlphaModel(frac("1/20"))
        src = p.block_of("3")
        tgt = 1 - src
        gain = move_gain(vf, karate, p, Move("3", src, tgt))
        assert gain == 3 * frac("1/20")

    def test_gain_is_potential_difference(self, karate):
        from coopgraph import apply_move

        p = karate_split_15_19()
        vf = AlphaModel(frac("1/20"))
        src = p.block_of("3")
        mv = Move("3", src, 1 - src)
        before = potential(vf, karate, p).value
        after = potential(vf, karate, apply_move(p, mv)).value
        assert after - before == move_gain(vf, karate, p, mv)
        assert (before, after) == (68 - 276 * frac("1/20"), 68 - 273 * frac("1/20"))

    def test_fresh_move_formula(self):
        # leaving a block of size q with k internal links loses k - (q-1) alpha
        g = Multigraph([("a", "b"), ("a", "c")], nodes=["a", "b", "c", "d"])
        vf = AlphaModel(frac("1/8"))
        p = Partition([{"a", "b", "c", "d"}])
        gain = move_gain(vf, g, p, Move("a", 0, None))
        k, q = 2, 4
        assert gain == -(k - (q - 1) * frac("1/8"))

    def test_example1_binarized_move(self, example1, example1_split):
        vf = AlphaModel(frac("1/5"))
        gain = move_gain(vf, example1, example1_split, Move("A", 0, 1))
        assert gain == -1 - frac("1/5")

    def test_random_gain_identity(self):
        from coopgraph import apply_move, enumerate_deviations

        rng = random.Random(71)
        for _ in range(40):
            g = random_multigraph(rng, rng.randint(2, 8))
            p = random_partition(rng, g.labels)
            node = rng.choice(sorted(p.nodes))
            moves = enumerate_deviations(p, node)
            if not moves:
                continue
            mv = rng.choice(moves)
            if rng.random() < 0.5 and g.m > 0:
                vf = Modularity(gamma=Fraction(rng.randint(0, 3), 2))
            else:
                vf = AlphaModel(Fraction(rng.randint(0, 8), 8))
            diff = potential(vf, g, apply_move(p, mv)).value - potential(vf, g, p).value
            assert move_gain(vf, g, p, mv) == diff


class TestNashStable:
    def test_example1_split_stable(self, example1, example1_split):
        stable, witness = nash_stable(AlphaModel(frac("1/5")), example1, example1_split)
        assert stable and witness is None

    def test_example1_grand_unstable_at_half(self, example1):
        stable, witness = nash_stable(
            AlphaModel(frac("1/2")), example1, Partition.grand(example1.labels)
        )
        assert not stable
        # first improving deviation in label order: a degree-2 node opens a
        # fresh block, gain 5 alpha - 2 = 1/2
        assert witness == Move("B", 0, None)
        assert move_gain(AlphaModel(frac("1/2")), example1, Partition.grand(example1.labels), witness) == frac("1/2")

    def test_k2_singletons_boundary(self):
        g = Multigraph([("u", "v")])
        stable, _ = nash_stable(AlphaModel(1), g, Partition.singletons(g.labels))
        assert stable  # gain 1 - alpha = 0 is not a strict improvement


class TestBetterResponse:
    def test_two_isolated_nodes_stay_apart(self):
        g = Multigraph(nodes=["u", "v"])
        final, trace = better_response(
            AlphaModel(frac("1/2")), g, Partition.singletons(g.labels)
        )
        assert trace.steps == ()
        assert final == Partition.singletons(g.labels)

    def test_k2_merges(self):
        g = Multigraph([("u", "v")])
        final, trace = better_response(
            AlphaModel(frac("1/2")), g, Partition.singletons(g.labels)
        )
        assert final == Partition.grand(g.labels)
        assert len(trace.steps) == 1
        assert trace.steps[0].gain == frac("1/2")

    def test_greedy_keeps_the_first_strict_maximum(self):
        # u, v and w all gain 1/2 by joining v's block or a neighbour's;
        # greedy takes the first such move in label and deviation order.
        g = Multigraph([("u", "v"), ("v", "w")])
        vf = AlphaModel(frac("1/2"))
        _, trace = better_response(vf, g, Partition.singletons(g.labels), Schedule(policy="greedy"))
        assert trace.steps[0].move == Move("u", 0, 1)
        assert trace.steps[0].gain == frac("1/2")

    def test_zachary_reaches_seventeen_split(self, karate):
        final, trace = better_response(
            AlphaModel(frac("1/20")), karate, karate_split_15_19()
        )
        assert trace.status == STABLE
        assert canonical_form(final) == canonical_form(karate_split_17_17())
        assert [s.move.node for s in trace.steps] == ["3", "10"]

    def test_example1_grand_is_second_stable_point(self, example1):
        # distinct from the global optimum at alpha = 1/5, yet no single
        # deviation improves, so dynamics stay put
        vf = AlphaModel(frac("1/5"))
        final, trace = better_response(vf, example1, Partition.grand(example1.labels))
        assert trace.steps == ()
        assert final == Partition.grand(example1.labels)
        assert nash_stable(vf, example1, final)[0]

    def test_output_always_nash_stable(self):
        from coopgraph import apply_move

        rng = random.Random(83)
        for _ in range(15):
            g = random_multigraph(rng, rng.randint(2, 7))
            start = random_partition(rng, g.labels)
            vf = AlphaModel(Fraction(rng.randint(0, 6), 6))
            final, trace = better_response(vf, g, start)
            assert trace.status == STABLE
            assert nash_stable(vf, g, final)[0]
            p, before = start, potential(vf, g, start).value
            for step in trace.steps:
                p = apply_move(p, step.move)
                after = potential(vf, g, p).value
                assert step.gain > 0 and after - before == step.gain
                before = after


class TestPartitionThreshold:
    def test_zachary_cutoffs(self, karate):
        from coopgraph.datasets import karate_split_16_18

        grand = Partition.grand(karate.labels)
        assert partition_threshold(karate, grand, karate_split_15_19()) == frac("2/57")
        assert partition_threshold(karate, grand, karate_split_16_18()) == frac("5/144")
        assert partition_threshold(karate, grand, karate_split_17_17()) == frac("10/289")

    def test_identical_forms_give_none(self, karate):
        assert partition_threshold(karate, karate_split_15_19(), karate_split_15_19()) is None

    def test_boundary_root_reported(self):
        g = Multigraph([("u", "v"), ("u", "w"), ("v", "w")])
        grand = Partition.grand(g.labels)
        singles = Partition.singletons(g.labels)
        # 3 - 3a meets 0 exactly at the range edge
        assert partition_threshold(g, grand, singles) == 1

    def test_out_of_range_root_gives_none(self):
        # triangle plus isolate: forms 3 - 3a and 0 - a meet at a = 3/2
        g = Multigraph([("a", "b"), ("b", "c"), ("a", "c")], nodes=["a", "b", "c", "d"])
        p1 = Partition([{"a", "b", "c"}, {"d"}])
        p2 = Partition([{"a", "d"}, {"b"}, {"c"}])
        assert partition_threshold(g, p1, p2) is None

    def test_parallel_forms_give_none(self):
        g = Multigraph([("u", "v")], nodes=["u", "v", "w"])
        p1 = Partition([{"u", "v"}, {"w"}])
        p3 = Partition([{"u", "w"}, {"v"}])
        assert partition_threshold(g, p1, p3) is None


class TestAlphaSweep:
    def test_example2_candidate_table(self, example2):
        cl = example2_clique_partition()
        g1, g2, g3, g4 = [set(b) for b in cl.blocks]
        labels = example2.labels
        candidates = [
            Partition.grand(labels),
            Partition([g1, g2 | g3 | g4]),
            Partition([g1, g2 | g3, g4]),
            cl,
            Partition([g1 | g2, g3 | g4]),
            Partition([g1 | g2 | g3, g4]),
            Partition([g1, g2, g3 | g4]),
            Partition([g1 | g2, g3, g4]),
        ]
        table = alpha_sweep(example2, candidates)
        intervals = [(r.alpha_lo, r.alpha_hi, r.intercept, r.slope) for r in table.rows]
        assert intervals == [
            (0, frac("1/144"), 78, -325),
            (frac("1/144"), frac("1/77"), 77, -181),
            (frac("1/77"), frac("1/15"), 76, -104),
            (frac("1/15"), 1, 74, -74),
        ]
        assert [len(r.partition) for r in table.rows] == [1, 2, 3, 4]

    def test_example1_breakpoint(self, example1, example1_split):
        table = alpha_sweep(example1, [Partition.grand(example1.labels), example1_split])
        assert [(r.alpha_lo, r.alpha_hi) for r in table.rows] == [
            (0, frac("1/9")),
            (frac("1/9"), 1),
        ]

    def test_k2_grand_wins_everywhere(self):
        g = Multigraph([("u", "v")])
        table = alpha_sweep(g, [Partition.grand(g.labels), Partition.singletons(g.labels)])
        assert len(table.rows) == 1
        assert table.rows[0].partition == Partition.grand(g.labels)
        assert (table.rows[0].alpha_lo, table.rows[0].alpha_hi) == (0, 1)

    def test_discovery_mode(self, example1):
        table = alpha_sweep(example1, grid=12)
        # discovery from singletons and grand must find the same envelope
        assert [(r.alpha_lo, r.alpha_hi, r.intercept, r.slope) for r in table.rows] == [
            (0, frac("1/9"), 7, -15),
            (frac("1/9"), 1, 6, -6),
        ]

    def test_empty_candidates_rejected(self, example1):
        with pytest.raises(ValueError, match="empty"):
            alpha_sweep(example1, [])

    def test_rows_abut_and_cover_range(self):
        rng = random.Random(19)
        for _ in range(10):
            g = random_multigraph(rng, rng.randint(3, 7), connected=True)
            candidates = [random_partition(rng, g.labels) for _ in range(6)]
            lo, hi = Fraction(rng.randint(0, 2), 8), Fraction(rng.randint(6, 8), 8)
            table = alpha_sweep(g, candidates, alpha_range=(lo, hi))
            assert table.rows[0].alpha_lo == lo
            assert table.rows[-1].alpha_hi == hi
            for a, b in zip(table.rows, table.rows[1:]):
                assert a.alpha_hi == b.alpha_lo
                assert a.partition != b.partition
            for row in table.rows:
                # the winner dominates every candidate at the midpoint
                mid = (row.alpha_lo + row.alpha_hi) / 2
                top = row.intercept + row.slope * mid
                for p in candidates:
                    assert potential(AlphaModel(mid), g, p).value <= top

    def test_every_row_is_the_brute_force_maximum_at_its_midpoint(self):
        # With every set partition as a candidate the envelope is the global
        # maximum of the potential at each alpha, and its slopes rise.
        rng = random.Random(43)
        rows = 0
        for _ in range(15):
            g = random_multigraph(rng, rng.randint(2, 6))
            candidates = [Partition(blocks) for blocks in iter_set_partitions(g.labels)]
            table = alpha_sweep(g, candidates)
            slopes = [row.slope for row in table.rows]
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            for row in table.rows:
                mid = (row.alpha_lo + row.alpha_hi) / 2
                _, best = bruteforce_max_partition(AlphaModel(mid), g)
                assert row.intercept + row.slope * mid == best.value
            rows += len(table.rows)
        assert rows >= 25

    def test_range_validation(self, example1):
        with pytest.raises(ValueError, match="range"):
            alpha_sweep(example1, alpha_range=(frac("1/2"), frac("1/4")))

    def test_discovery_builds_no_trace(self, monkeypatch):
        # The reference discovery runs every start to a traced
        # run_schedule; the sweep's own discovery may build no Move and no
        # TraceStep, yet finds the same table.
        g = random_multigraph(random.Random(5), 12, edge_prob=0.3, connected=True)
        lo, hi, grid = frac("1/3"), frac("5/7"), 6
        starts = [random_partition(random.Random(6), g.labels)]
        expected = alpha_sweep(g, reference_sweep_candidates(g, starts, grid, lo, hi), alpha_range=(lo, hi))
        assert len(expected.rows) > 1

        def refuse(*args, **kwargs):
            raise AssertionError("alpha_sweep discovery built a trace object")

        for module in (hedonic, partition):
            monkeypatch.setattr(module, "Move", refuse)
        # partition.run_schedule is the only builder of trace steps.
        monkeypatch.setattr(partition, "TraceStep", refuse)
        assert alpha_sweep(g, starts=starts, grid=grid, alpha_range=(lo, hi)) == expected

    def test_a_start_equal_to_an_earlier_one_adds_no_run(self, example2):
        labels = example2.labels
        split = example2_clique_partition()
        with recorded_runs() as runs:
            table = alpha_sweep(example2, grid=4)
        with recorded_runs() as doubled:
            starts = [Partition.singletons(labels), Partition.grand(labels)]
            assert alpha_sweep(example2, starts=starts, grid=4) == table
        assert len(doubled) == len(runs)
        with recorded_runs() as runs:
            table = alpha_sweep(example2, starts=[split], grid=4)
        with recorded_runs() as doubled:
            assert alpha_sweep(example2, starts=[split, Partition(split.blocks)], grid=4) == table
        assert len(doubled) == len(runs)

    def test_a_start_listing_its_blocks_in_another_order_is_run(self):
        # The centre of the path b - a - c joins the first linked singleton
        # in block order, so the two orders of the singletons end apart
        # and the reversed start does not stand in for the default one.
        g = Multigraph([("a", "b"), ("a", "c")])
        reverse = Partition.singletons(reversed(g.labels))
        model = HedonicModel.bind(AlphaModel(frac("3/4")), g)
        ends = set()
        for s in (Partition.singletons(g.labels), reverse):
            state = _BlockState(model, _index_blocks(g, s))
            settle(state)
            ends.add(canonical_form(state.partition()))
        assert len(ends) == 2
        reference = reference_sweep_candidates(g, [reverse], 10, Fraction(0), Fraction(1))
        with recorded_runs() as runs:
            assert alpha_sweep(g, starts=[reverse], grid=10) == alpha_sweep(g, reference)
        assert {start.blocks for start, _ in runs} == {
            reverse.blocks, Partition.singletons(g.labels).blocks, Partition.grand(g.labels).blocks
        }

    def test_a_large_grid_costs_runs_not_grid_points(self, karate):
        # Every run from singletons or the grand coalition covers the grid
        # points up to the first one where some comparison it made flips;
        # without skipping, grid 10**4 would take 20002 runs.
        with recorded_runs() as runs:
            table = alpha_sweep(karate, grid=10**4)
        assert len(runs) <= 120
        assert (table.rows[0].alpha_lo, table.rows[-1].alpha_hi) == (0, 1)

    def test_discovery_builds_no_fraction_per_comparison(self, karate, monkeypatch):
        made = 0

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                nonlocal made
                made += 1
                return super().__new__(cls, *args, **kwargs)

        compared = 0
        deviations = _BlockState.deviations

        def counted(state, i):
            nonlocal compared
            for deviation in deviations(state, i):
                compared += 1
                yield deviation

        monkeypatch.setattr(hedonic, "Fraction", Counted)
        monkeypatch.setattr(_BlockState, "deviations", counted)
        with recorded_runs() as runs:
            table = alpha_sweep(karate, grid=200)
        # One alpha per grid point run and three bounds per row, while
        # the runs compare gains thousands of times.
        assert made <= len(runs) + 3 * len(table.rows)
        assert compared > 20 * (len(runs) + 3 * len(table.rows))


@contextlib.contextmanager
def recorded_runs():
    """Record every run alpha_sweep discovery settles, as (start, state)
    with the start read before the run."""
    runs = []
    real = hedonic.settle

    def record(state, *args):
        start = state.partition()
        status = real(state, *args)
        runs.append((start, state))
        return status

    with mock.patch.object(hedonic, "settle", record):
        yield runs


def _moves(state):
    return [(node, source, target) for node, source, target, _ in state.log]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32),
    st.integers(1, 14),
    st.lists(st.fractions(0, 1, max_denominator=12), min_size=2, max_size=2, unique=True),
    st.integers(1, 37),
    st.sampled_from([None, "random", "reversed"]),
)
def test_discovery_matches_every_start_run_at_every_grid_point(seed, n, ends, grid, extra):
    # The table is the envelope of what the reference discovery finds, and
    # at every grid point a run covered without running there, a plain run
    # from the same start makes exactly that run's moves; so it does at
    # random rationals between the run's point and its reach, since every
    # comparison is the sign of a line in alpha and keeps its sign between
    # two points where it has it. The extra start is random, or the
    # singletons in reverse block order.
    lo, hi = sorted(ends)
    rng = random.Random(seed)
    g = random_multigraph(rng, n, edge_prob=rng.random(), max_mult=2)
    starts = {
        None: [],
        "random": [random_partition(rng, g.labels)],
        "reversed": [Partition.singletons(reversed(g.labels))],
    }[extra]
    with recorded_runs() as runs:
        table = alpha_sweep(g, starts=starts or None, grid=grid, alpha_range=(lo, hi))
    reference = reference_sweep_candidates(g, starts, grid, lo, hi)
    assert table == alpha_sweep(g, reference, alpha_range=(lo, hi))

    def alpha(j):
        return lo + (hi - lo) * Fraction(j, grid)

    def plain_moves(a, start):
        plain = _BlockState(HedonicModel.bind(AlphaModel(a), g), _index_blocks(g, start))
        settle(plain)
        return _moves(plain)

    covered = {}
    for start, state in runs:
        assert state.model.vf.alpha == alpha(state.here)
        for j in range(state.here + 1, state.reach + 1):
            assert plain_moves(alpha(j), start) == _moves(state)
        if state.reach > state.here:
            q = rng.randint(2, 10**4)
            for t in (Fraction(rng.randint(1, q - 1), q), Fraction(rng.random())):
                x = alpha(state.here) + (alpha(state.reach) - alpha(state.here)) * t
                assert plain_moves(x, start) == _moves(state)
        points = covered.setdefault(start.blocks, [])
        points.extend(range(state.here, state.reach + 1))
    # Each distinct start (its blocks in order) is run once per stretch of
    # grid points it needs.
    for s in [*starts, Partition.singletons(g.labels), Partition.grand(g.labels)]:
        assert covered[s.blocks] == list(range(grid + 1))


class TestBruteForce:
    def test_bell_numbers(self):
        assert sum(1 for _ in iter_set_partitions(range(6))) == 203
        assert sum(1 for _ in iter_set_partitions([])) == 1

    def test_example1_small_alpha_grand(self, example1):
        part, pot = bruteforce_max_partition(AlphaModel(frac("1/20")), example1)
        assert part == Partition.grand(example1.labels)

    def test_example1_larger_alpha_split(self, example1, example1_split):
        part, pot = bruteforce_max_partition(AlphaModel(frac("1/5")), example1)
        assert part == example1_split
        assert pot.value == 6 - 6 * frac("1/5")

    def test_example1_modularity_split(self, example1, example1_split):
        part, pot = bruteforce_max_partition(Modularity(), example1)
        assert part == example1_split
        assert pot.value == 5
        assert nash_stable(Modularity(), example1, part)[0]

    def test_size_gate(self):
        g = Multigraph([(f"v{i}", f"v{i+1}") for i in range(10)])  # 11 nodes
        with pytest.raises(SizeGateError, match="10"):
            bruteforce_max_partition(AlphaModel(0), g)

    def test_alpha_zero_grand_on_connected(self):
        rng = random.Random(97)
        for n in (3, 5, 7):
            g = random_multigraph(rng, n, connected=True)
            part, _ = bruteforce_max_partition(AlphaModel(0), g)
            assert part == Partition.grand(g.labels)

    def test_clique_partition_near_one(self, example2):
        stable, _ = nash_stable(
            AlphaModel(frac("99/100")), example2, example2_clique_partition()
        )
        assert stable


class TestModularityOnZachary:
    def test_better_response_lands_nash_stable(self, karate):
        vf = Modularity()
        final, trace = better_response(vf, karate, karate_split_15_19())
        assert trace.status == STABLE
        assert nash_stable(vf, karate, final)[0]
        assert canonical_form(final) == canonical_form(karate_split_17_17())

    def test_seventeen_split_is_modularity_stable(self, karate):
        stable, _ = nash_stable(Modularity(), karate, karate_split_17_17())
        assert stable


class TestBoundaryValidation:
    def test_partial_start_is_refused(self, example1):
        partial = Partition([{"A", "B"}])
        with pytest.raises(PartitionError, match="cover"):
            better_response(AlphaModel(frac("1/5")), example1, partial)
        with pytest.raises(PartitionError, match="cover"):
            nash_stable(AlphaModel(frac("1/5")), example1, partial)

    def test_unknown_node_is_refused(self, example1):
        extra = Partition([set(example1.labels) | {"Z"}])
        with pytest.raises(PartitionError, match="unknown"):
            better_response(Modularity(), example1, extra)
        with pytest.raises(PartitionError, match="unknown"):
            nash_stable(Modularity(), example1, extra)

    def test_sweep_refuses_partial_starts_and_candidates(self, example1, example1_split):
        partial = Partition([{"A", "B", "C"}])
        with pytest.raises(PartitionError, match="cover"):
            alpha_sweep(example1, starts=[partial], grid=2)
        with pytest.raises(PartitionError, match="cover"):
            alpha_sweep(example1, [example1_split, partial])

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, p: potential(AlphaModel(frac("1/2")), g, p),
            lambda g, p: potential(Modularity(), g, p),
            lambda g, p: hedonic.potential_form(g, p),
            lambda g, p: partition_threshold(g, p, Partition.singletons(g.labels)),
            lambda g, p: partition_threshold(g, Partition.singletons(g.labels), p),
        ],
        ids=["potential-alpha", "potential-modularity", "potential-form", "threshold-first", "threshold-second"],
    )
    def test_potentials_refuse_a_partition_that_does_not_cover(self, example1, call):
        # Before, the partial split read potential 1/2, form (1, -1) and a
        # threshold of 1 against the 3/3 split.
        with pytest.raises(PartitionError, match="cover"):
            call(example1, Partition([{"A", "B"}]))
        with pytest.raises(PartitionError, match="unknown"):
            call(example1, Partition([set(example1.labels) | {"Z"}]))

    def test_sweep_checks_its_range_grid_and_starts_in_both_modes(self, example1, example1_split):
        for bad in ((Fraction(1, 2),), (0, Fraction(1, 2), 1), Fraction(1, 2), "01"):
            with pytest.raises(ValueError, match="pair"):
                alpha_sweep(example1, alpha_range=bad, grid=2)
            with pytest.raises(ValueError, match="pair"):
                alpha_sweep(example1, [example1_split], alpha_range=bad)
        for grid in (True, -3, 0, 2.0):
            with pytest.raises(ValueError, match="grid"):
                alpha_sweep(example1, [example1_split], grid=grid)
        with pytest.raises(ValueError, match="starts"):
            alpha_sweep(example1, [example1_split], starts=[example1_split])
        with pytest.raises(ValueError, match="starts"):
            alpha_sweep(example1, [example1_split], starts=[])
        assert alpha_sweep(example1, [example1_split], alpha_range=[0, Fraction(1, 2)], grid=3).rows

    def test_degree_normalized_refuses_an_isolated_node_when_bound(self):
        g = Multigraph([("a", "b"), ("b", "c")], nodes=["a", "b", "c", "d"])
        vf = Modularity(beta=None)
        with pytest.raises(ValueError, match="positive degrees"):
            HedonicModel.bind(vf, g)
        # The pair (a, b) never involves d, yet the model cannot be bound.
        with pytest.raises(ValueError, match="positive degrees"):
            pair_value(vf, g, "a", "b")
        with pytest.raises(ValueError, match="positive degrees"):
            better_response(vf, g, Partition([{"a", "b", "c"}, {"d"}]))

    @pytest.mark.parametrize("beta", [frac("1"), None])
    def test_modularity_refuses_a_graph_without_edges_when_bound(self, beta):
        g = Multigraph(nodes=["u", "v"])
        with pytest.raises(ValueError, match="at least one edge"):
            HedonicModel.bind(Modularity(beta=beta), g)
        with pytest.raises(ValueError, match="at least one edge"):
            nash_stable(Modularity(beta=beta), g, Partition.singletons(g.labels))

    @pytest.mark.parametrize(
        "call, bad, good",
        [
            (lambda x: AlphaModel(x).alpha, 0.1, "1/10"),
            (lambda x: Modularity(gamma=x).gamma, 0.3, Fraction(3, 10)),
            (lambda x: Modularity(beta=x).beta, 0.5, 2),
            (lambda x: MyersonModel.bind(Multigraph([("u", "v")]), x).den, 0.1, "1/10"),
            (lambda x: CharPoly([1]).evaluate(x), 0.5, "1/2"),
            (lambda x: alpha_sweep(Multigraph([("u", "v")]), alpha_range=(x, 1), grid=2), 0.1, "1/10"),
            (lambda x: alpha_sweep(Multigraph([("u", "v")]), alpha_range=(0, x), grid=2), 0.9, Fraction(9, 10)),
            (lambda x: alpha_sweep(Multigraph([("u", "v")]), grid=x), 2.5, 2),
            (lambda x: alpha_sweep(Multigraph([("u", "v")]), grid=x), True, 1),
            (lambda x: CharPoly([x]).coefficient(1), 0.1, "1/10"),
            (lambda x: (CharPoly([1]) * x).coefficient(1), 0.1, "1/10"),
            (lambda x: AlphaModel(x).alpha, True, 1),
            (lambda x: Modularity(gamma=x).gamma, True, 1),
            (lambda x: MyersonModel.bind(Multigraph([("u", "v")]), x).den, True, 1),
            (lambda x: alpha_sweep(Multigraph([("u", "v")]), alpha_range=(x, 1), grid=2), False, 0),
            (lambda x: partition.run_dynamics(lambda p, mv: x if not mv.is_fresh else -1, Partition.singletons("AB")), 0.5, Fraction(1, 2)),
            (lambda x: partition.run_dynamics(lambda p, mv: x if not mv.is_fresh else -1, Partition.singletons("AB")), True, 1),
            (lambda x: AlphaModel(x).alpha, "0.1", "1/10"),
            (lambda x: Modularity(gamma=x).gamma, "1_0/3", " 10/3 "),
            (lambda x: MyersonModel.bind(Multigraph([("u", "v")]), x).den, "1_0/20", "10/20"),
            (lambda x: CharPoly([x]).coefficient(1), "1e-1", "1/10"),
            (lambda x: AlphaModel(x).alpha, "\u0661/2", "1/2"),
        ],
        ids=[
            "alpha", "gamma", "beta", "r", "evaluate-r", "range-lo", "range-hi", "grid-float", "grid-bool",
            "coefficient", "scalar", "alpha-bool", "gamma-bool", "r-bool", "range-bool",
            "callback-float", "callback-bool", "alpha-decimal", "gamma-underscore", "r-underscore",
            "coefficient-exponent", "alpha-arabic-indic",
        ],
    )
    def test_floats_and_inexact_grids_are_refused(self, call, bad, good):
        # A float would enter as its binary fraction (0.1 as
        # 3602879701896397/36028797018963968), and a bool as 0 or 1; ints,
        # Fractions and "p/q" strings are exact and stay accepted. A
        # string is read only as "p/q" in ASCII digits, as the CLI reads
        # it: Fraction() alone would take "0.1", "1_0/3", "1e-1" and other
        # scripts' digits. A payoff callback's gains pass the same check
        # at the first deviation.
        call(good)
        with pytest.raises(ValueError, match="float|int"):
            call(bad)

    def test_move_gain_refuses_block_indices_outside_the_partition(self, example1, example1_split):
        # A negative index must not wrap to the last block, and one past
        # the end must not escape as an IndexError.
        vf = AlphaModel(frac("1/5"))
        assert move_gain(vf, example1, example1_split, Move("F", 1, 0)) == frac("-11/5")
        for mv in (Move("F", -1, 0), Move("F", 2, 0)):
            with pytest.raises(PartitionError, match="not in source block"):
                move_gain(vf, example1, example1_split, mv)
        for mv in (Move("F", 1, -2), Move("F", 1, 2)):
            with pytest.raises(PartitionError, match="no such target block"):
                move_gain(vf, example1, example1_split, mv)
