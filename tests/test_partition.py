import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph import (
    CAP_REACHED,
    CYCLE_DETECTED,
    GREEDY_BEST,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    STABLE,
    Move,
    Partition,
    PartitionError,
    Schedule,
    apply_move,
    canonical_form,
    enumerate_deviations,
    run_dynamics,
)

from conftest import random_partition


class TestPartition:
    def test_disjoint_cover_validation(self):
        with pytest.raises(PartitionError, match="two blocks"):
            Partition([{"A", "B"}, {"B"}])
        with pytest.raises(PartitionError, match="nonempty"):
            Partition([{"A"}, set()])
        with pytest.raises(PartitionError, match="node listed twice in one block: 'A'"):
            Partition([["A", "A", "B"], ["C"]])
        with pytest.raises(PartitionError, match="node in two blocks: 'A'"):
            Partition([["A", "B"], ["C", "A", "A"]])
        # Members are checked before they are hashed or compared.
        with pytest.raises(PartitionError, match="node label must be a string: 1"):
            Partition([["A", "B", 1, "zz"]], universe=["A", "B"])
        with pytest.raises(PartitionError, match=r"node label must be a string: \['C'\]"):
            Partition([["A"], ["B", ["C"]]])
        # So are the nodes given to the constructors.
        with pytest.raises(PartitionError, match=r"node label must be a string: \['A'\]"):
            Partition.grand([["A"]])
        with pytest.raises(PartitionError, match=r"node label must be a string: \['A'\]"):
            Partition.singletons([["A"]])
        # So are the universe's labels.
        with pytest.raises(PartitionError, match="node label must be a string: 1"):
            Partition([["A"]], universe=["A", 1, "B"])
        with pytest.raises(PartitionError, match="node label must be a string: None"):
            Partition([["A"]], universe=["A", None])
        with pytest.raises(PartitionError, match=r"node label must be a string: \['B'\]"):
            Partition([["A"]], universe=["A", ["B"]])

    def test_universe_check(self):
        with pytest.raises(PartitionError, match="cover"):
            Partition([{"A"}], universe={"A", "B"})
        with pytest.raises(PartitionError, match="unknown"):
            Partition([{"A", "B"}], universe={"A"})

    def test_only_a_tuple_found_covered_is_remembered(self):
        # A tuple cannot change, so a second check against the same one is
        # skipped; a list can, so it is checked every time.
        p = Partition([{"A", "B"}])
        labels = ["A", "B"]
        p.check_cover(labels)
        labels.append("C")
        with pytest.raises(PartitionError, match="cover"):
            p.check_cover(labels)
        with pytest.raises(PartitionError, match="cover"):
            p.check_cover(("A", "B", "C"))
        p.check_cover(("A", "B"))
        with pytest.raises(PartitionError, match="unknown"):
            p.check_cover(("A",))

    def test_equality_ignores_block_order(self):
        assert Partition([{"A", "B"}, {"C"}]) == Partition([{"C"}, {"B", "A"}])
        assert Partition([{"A"}, {"B"}]) != Partition([{"A", "B"}])

    def test_constructors(self):
        assert len(Partition.singletons("ABC")) == 3
        assert len(Partition.grand("ABC")) == 1
        # The grand coalition of no nodes has no block, as their singletons.
        assert Partition.grand([]) == Partition([]) == Partition.singletons([])
        # A repeated node is one member of the grand coalition.
        assert Partition.grand(["a", "a", "b"]) == Partition([["a", "b"]])

    def test_block_of(self):
        p = Partition([{"A", "B"}, {"C"}])
        assert p.block_of("C") == 1
        with pytest.raises(PartitionError, match="'Q'"):
            p.block_of("Q")


class TestCanonicalForm:
    def test_order_insensitive(self):
        a = Partition([{"B", "A"}, {"C"}])
        b = Partition([{"C"}, {"A", "B"}])
        assert canonical_form(a) == canonical_form(b) == b"A,B|C"

    def test_distinguishes_partitions(self):
        assert canonical_form(Partition([{"A"}, {"B"}])) != canonical_form(
            Partition([{"A", "B"}])
        )

    def test_singletons_in_label_order(self):
        p = Partition.singletons(["b", "a", "c"])
        assert canonical_form(p) == b"a|b|c"

    def test_separators_inside_labels_are_escaped(self):
        # Joined unescaped, both would read a,b,c|b,c.
        p = Partition([{"a", "b,c"}, {"b", "c"}])
        q = Partition([{"a", "b", "c"}, {"b,c"}])
        assert canonical_form(p) == b"a,b\\,c|b,c"
        assert canonical_form(q) == b"a,b,c|b\\,c"
        assert canonical_form(Partition([{"x|y", "\\"}])) == b"\\\\,x\\|y"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_encodings_are_equal_exactly_for_equal_partitions(self, data):
        # Distinct letters in increasing order with a separator between
        # neighbours. Each partition keeps some separators inside labels and
        # splits at the others, and may end a letter with a backslash, so
        # joined unescaped many such partitions read the same text.
        letters = sorted(data.draw(st.sets(st.sampled_from("abcdef"), min_size=2, max_size=5)))
        seps = [data.draw(st.sampled_from(",|")) for _ in letters[1:]]

        def partition():
            words = [w + data.draw(st.sampled_from(["", "\\"])) for w in letters]
            blocks, label = [[]], words[0]
            for sep, word in zip(seps, words[1:]):
                if data.draw(st.booleans()):
                    label += sep + word
                    continue
                blocks[-1].append(label)
                label = word
                if sep == "|":
                    blocks.append([])
            blocks[-1].append(label)
            return Partition(blocks)

        p, q = partition(), partition()
        assert (canonical_form(p) == canonical_form(q)) == (p == q)
        assert canonical_form(p) == canonical_form(Partition(reversed(p.blocks)))


class TestApplyMove:
    def test_join_existing(self):
        p = Partition([{"A", "B"}, {"C"}])
        q = apply_move(p, Move("C", 1, 0))
        assert q == Partition([{"A", "B", "C"}])

    def test_fresh_block_appended(self):
        p = Partition([{"A", "B", "C"}])
        q = apply_move(p, Move("A", 0, None))
        assert q.blocks == (frozenset({"B", "C"}), frozenset({"A"}))

    def test_vacated_block_pruned(self):
        p = Partition([{"A"}, {"B"}])
        q = apply_move(p, Move("A", 0, 1))
        assert q == Partition([{"A", "B"}])

    def test_node_not_in_source(self):
        p = Partition([{"A"}, {"B"}])
        with pytest.raises(PartitionError, match="not in source"):
            apply_move(p, Move("A", 1, 0))

    def test_move_target_must_differ(self):
        with pytest.raises(PartitionError, match="equals source"):
            Move("A", 0, 0)

    @pytest.mark.parametrize(
        "source, target",
        [(0, True), (True, 0), (False, None), (0, 1.0), (0, "1"), (1.0, 0), ("0", None), (None, 0)],
    )
    def test_move_indices_must_be_ints(self, source, target):
        # A bool would be read as block 0 or 1, and a float or string would
        # escape as a TypeError from the block lookup.
        with pytest.raises(PartitionError, match="must be an int"):
            Move("A", source, target)

    def test_cover_preserved_random(self):
        rng = random.Random(3)
        labels = [f"v{i}" for i in range(8)]
        p = Partition.singletons(labels)
        for _ in range(200):
            node = rng.choice(labels)
            moves = enumerate_deviations(p, node)
            if not moves:
                continue
            p = apply_move(p, rng.choice(moves))
            assert sorted(u for b in p.blocks for u in b) == sorted(labels)
            assert all(p.blocks)


class TestEnumerateDeviations:
    def test_three_blocks(self):
        p = Partition([{"A"}, {"B", "X"}, {"C"}])
        moves = enumerate_deviations(p, "B")
        assert [(m.target, m.is_fresh) for m in moves] == [(0, False), (2, False), (None, True)]

    def test_singleton_skips_fresh(self):
        p = Partition([{"A"}, {"B", "C"}])
        moves = enumerate_deviations(p, "A")
        assert [(m.target) for m in moves] == [1]

    def test_grand_coalition_only_fresh(self):
        p = Partition.grand("ABC")
        moves = enumerate_deviations(p, "B")
        assert len(moves) == 1 and moves[0].is_fresh


def _pair_payoff(edges):
    """Toy additive payoff: 1 per linked pair in the node's block, -1/4 per
    stranger. Potential-backed, so dynamics must stop Stable."""
    links = {frozenset(e) for e in edges}

    def value(i, j):
        return Fraction(1) if frozenset((i, j)) in links else Fraction(-1, 4)

    def payoff(p, mv):
        gain = Fraction(0)
        if not mv.is_fresh:
            gain += sum(value(mv.node, j) for j in p.blocks[mv.target])
        gain -= sum(value(mv.node, j) for j in p.blocks[mv.source] if j != mv.node)
        return gain

    return payoff


class TestRunDynamics:
    def test_stable_when_no_improvement(self):
        payoff = _pair_payoff([])
        p0 = Partition.singletons("AB")
        final, trace = run_dynamics(payoff, p0)
        assert final == p0
        assert trace.status == STABLE
        assert trace.steps == ()

    def test_single_merge(self):
        payoff = _pair_payoff([("A", "B")])
        final, trace = run_dynamics(payoff, Partition.singletons("AB"))
        assert final == Partition.grand("AB")
        assert trace.status == STABLE
        assert len(trace.steps) == 1
        assert trace.steps[0].gain == 1

    def test_max_steps_must_be_positive(self):
        with pytest.raises(PartitionError, match="positive"):
            run_dynamics(_pair_payoff([]), Partition.singletons("AB"), Schedule(max_steps=0))

    @pytest.mark.parametrize("steps", [2.5, True, -1, "3"])
    def test_max_steps_must_be_a_positive_int(self, steps):
        # A float cap of 2.5 would let a run accept 3 moves, and True
        # would pass as a cap of 1.
        with pytest.raises(PartitionError, match="positive"):
            Schedule(max_steps=steps)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            Schedule(seed=seed)

    def test_cap_reached(self):
        payoff = _pair_payoff([("A", "B"), ("B", "C"), ("A", "C")])
        final, trace = run_dynamics(
            payoff, Partition.singletons("ABC"), Schedule(max_steps=1)
        )
        assert trace.status == CAP_REACHED
        assert len(trace.steps) == 1

    def test_cycle_detected(self):
        # A payoff that always rewards moving: the two-node partition
        # space is tiny, so a previously seen partition must reappear.
        final, trace = run_dynamics(
            lambda p, mv: Fraction(1), Partition.singletons("AB")
        )
        assert trace.status == CYCLE_DETECTED

    @pytest.mark.parametrize("policy", [ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST])
    def test_determinism(self, policy):
        rng = random.Random(17)
        labels = [f"v{i}" for i in range(7)]
        edges = [(a, b) for a in labels for b in labels if a < b and rng.random() < 0.4]
        payoff = _pair_payoff(edges)
        start = random_partition(rng, labels)
        sched = Schedule(policy=policy, seed=99)
        runs = [run_dynamics(payoff, start, sched) for _ in range(2)]
        (f1, t1), (f2, t2) = runs
        assert canonical_form(f1) == canonical_form(f2)
        assert t1 == t2

    def test_seed_changes_random_order(self):
        labels = [f"v{i}" for i in range(6)]
        edges = [(labels[i], labels[i + 1]) for i in range(5)]
        payoff = _pair_payoff(edges)
        start = Partition.singletons(labels)
        _, t1 = run_dynamics(payoff, start, Schedule(policy=SEEDED_RANDOM, seed=1))
        _, t2 = run_dynamics(payoff, start, Schedule(policy=SEEDED_RANDOM, seed=2))
        # Same stable outcome; the paths may differ but both must be valid.
        assert t1.status == t2.status == STABLE

    def test_greedy_takes_best_gain(self):
        # B links to A once and to C twice (weights below), so greedy must
        # join C's block first even though A's block is enumerated earlier.
        links = {frozenset(("A", "B")): Fraction(1), frozenset(("B", "C")): Fraction(2)}

        def payoff(p, mv):
            gain = Fraction(0)
            if not mv.is_fresh:
                gain += sum(
                    links.get(frozenset((mv.node, j)), Fraction(-1, 4))
                    for j in p.blocks[mv.target]
                )
            gain -= sum(
                links.get(frozenset((mv.node, j)), Fraction(-1, 4))
                for j in p.blocks[mv.source]
                if j != mv.node
            )
            return gain

        start = Partition.singletons("ABC")
        _, trace = run_dynamics(payoff, start, Schedule(policy=GREEDY_BEST))
        first = trace.steps[0]
        assert first.gain == 2
