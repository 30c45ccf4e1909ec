import random
from fractions import Fraction

import pytest

from coopgraph import (
    CharPoly,
    Move,
    Multigraph,
    Partition,
    PartitionError,
    SizeGateError,
    STABLE,
    characteristic_value,
    coalition_path_counts,
    component_characteristic,
    connected_components,
    external_stability_check,
    load_dataset,
    myerson_allocation,
    myerson_better_response,
    myerson_gain,
    myerson_nash_stable,
    myerson_shapley_oracle,
)

from conftest import random_multigraph, restricted_myerson_oracle


def poly(*coeffs):
    return CharPoly([Fraction(c) for c in coeffs])


class TestCharPoly:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 0, 0) == poly(1)
        assert poly(0, 0).degree == 0

    def test_zero(self):
        z = CharPoly.zero()
        assert not z
        assert z.evaluate(Fraction(1, 2)) == 0
        assert str(z) == "0"

    def test_arithmetic(self):
        a, b = poly(1, 2), poly(0, 1, 3)
        assert a + b == poly(1, 3, 3)
        assert a - b == poly(1, 1, -3)
        assert a * Fraction(1, 2) == poly(Fraction(1, 2), 1)

    def test_evaluate(self):
        p = poly(9, 4, 4)
        assert p.evaluate(Fraction(1, 2)) == Fraction(9, 2) + 1 + Fraction(1, 2)
        assert p.evaluate(0) == 0

    def test_coefficient_access(self):
        p = poly(Fraction(3, 2), Fraction(4, 3))
        assert p.coefficient(1) == Fraction(3, 2)
        assert p.coefficient(5) == 0
        with pytest.raises(ValueError):
            p.coefficient(0)

    def test_coefficients_are_fractions_and_floats_and_bools_are_refused(self):
        # A Fraction is kept as given; ints and "p/q" strings become
        # Fractions, so every coefficient prints as a rational.
        third = Fraction(1, 3)
        p = CharPoly([2, " 6/8 ", third])
        assert p.coefficient(3) is third
        assert [type(p.coefficient(k)) for k in (1, 2, 3)] == [Fraction] * 3
        assert p == poly(2, Fraction(3, 4), third)
        assert p.power_strings() == ["0", "2", "3/4", "1/3"]
        for bad in (0.5, True, False):
            with pytest.raises(ValueError, match="float|bool"):
                CharPoly([1, bad])

    def test_strings(self):
        p = poly(Fraction(3, 2), Fraction(4, 3), 1)
        assert str(p) == "3/2 r + 4/3 r^2 + r^3"
        assert p.power_strings() == ["0", "3/2", "4/3", "1"]
        # A zero coefficient below the top is left out of the text.
        assert str(CharPoly([0, 1])) == "r^2"
        assert repr(poly(1, 2)) == "CharPoly((Fraction(1, 1), Fraction(2, 1)))"

    def test_equal_polynomials_hash_alike(self):
        a, b = CharPoly([1, "1/2", 0]), poly(1, Fraction(1, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, CharPoly.zero()}) == 2


class TestCharacteristicValue:
    def test_example1_grand(self, example1):
        v = characteristic_value(coalition_path_counts(example1, example1.labels))
        assert v == poly(9, 4, 4)

    def test_example1_abcd(self, example1):
        v = characteristic_value(coalition_path_counts(example1, "ABCD"))
        assert v == poly(5, 2)

    def test_singleton_is_zero(self, example1):
        assert component_characteristic(example1, {"A"}) == CharPoly.zero()


class TestComponentCharacteristic:
    def test_connected_equals_direct(self, example1):
        for coalition in ({"A", "B", "C"}, {"A", "D", "E", "F"}, set(example1.labels)):
            direct = characteristic_value(coalition_path_counts(example1, coalition))
            assert component_characteristic(example1, coalition) == direct

    def test_two_singleton_components(self, example1):
        assert component_characteristic(example1, {"B", "E"}) == CharPoly.zero()

    def test_component_sum(self, example1):
        # triangle ABC (4 links) and the doubled pair EF (2 links)
        assert component_characteristic(example1, {"A", "B", "C", "E", "F"}) == poly(6)


class TestMyersonAllocation:
    def test_example1_triangle(self, example1):
        alloc = myerson_allocation(example1, {"A", "B", "C"})
        assert alloc["A"] == poly(1)

    def test_example1_adef(self, example1):
        alloc = myerson_allocation(example1, {"A", "D", "E", "F"})
        assert alloc["A"] == poly(Fraction(1, 2), Fraction(2, 3))
        assert alloc["D"] == poly(Fraction(3, 2), Fraction(2, 3))
        assert alloc["E"] == poly(Fraction(3, 2), Fraction(1, 3))
        assert alloc["F"] == poly(Fraction(3, 2), Fraction(1, 3))

    def test_example1_grand_geodesic_convention(self, example1):
        # The doubled B-C link makes B-A-C a non-geodesic, so the r^2
        # coefficient for A is 4/3, keeping the six payoffs summing to the
        # grand worth.
        alloc = myerson_allocation(example1, example1.labels)
        assert alloc["A"] == poly(Fraction(3, 2), Fraction(4, 3), 1)

    def test_efficiency_per_component(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_multigraph(rng, rng.randint(2, 7))
            alloc = myerson_allocation(g, g.labels)
            for comp in connected_components(g):
                total = CharPoly.zero()
                for u in comp:
                    total = total + alloc[u]
                assert total == component_characteristic(g, comp)

    def test_coefficients_nonnegative_with_bounded_denominator(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_multigraph(rng, rng.randint(2, 7))
            for p in myerson_allocation(g, g.labels).values():
                for k in range(1, p.degree + 1):
                    c = p.coefficient(k)
                    assert c >= 0
                    assert (k + 1) % c.denominator == 0


class TestShapleyOracle:
    def test_single_edge_splits_evenly(self):
        g = Multigraph([("u", "v")])
        assert myerson_shapley_oracle(g, "u") == poly(Fraction(1, 2))
        assert myerson_shapley_oracle(g, "v") == poly(Fraction(1, 2))

    def test_isolated_node(self):
        g = Multigraph([("u", "v")], nodes=["u", "v", "w"])
        assert myerson_shapley_oracle(g, "w") == CharPoly.zero()

    def test_example1_node_a(self, example1):
        assert myerson_shapley_oracle(example1, "A") == poly(
            Fraction(3, 2), Fraction(4, 3), 1
        )

    def test_matches_closed_form_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(6):
            g = random_multigraph(rng, rng.randint(2, 6), connected=True)
            alloc = myerson_allocation(g, g.labels)
            for u in g.labels:
                assert myerson_shapley_oracle(g, u) == alloc[u]

    def test_restricted_oracle_on_its_own_graph_matches(self):
        # The fixed-worth test oracle, played on the worth's own graph,
        # is the Shapley value this oracle computes; disconnected graphs
        # included, since the game is already component-additive there.
        rng = random.Random(31)
        for _ in range(6):
            g = random_multigraph(rng, rng.randint(2, 6))
            on_g = restricted_myerson_oracle(g, g)
            for u in g.labels:
                assert on_g[u] == myerson_shapley_oracle(g, u)

    def test_size_gate(self):
        g = Multigraph([(f"v{i}", f"v{i+1}") for i in range(12)])  # 13 nodes
        with pytest.raises(SizeGateError, match="12"):
            myerson_shapley_oracle(g, "v0")

    def test_balanced_contributions_on_distance_preserving_graphs(self):
        # Removing one parallel link changes both endpoints' payoffs by the
        # same polynomial. This holds when induced subgraphs preserve
        # distances (true for every graph on <= 4 nodes and for the
        # six-node example). On larger graphs the reduced graph's own
        # geodesics are a different game, so the equality can break there;
        # test_acceptance.py::test_04b checks fairness with the worth fixed.
        rng = random.Random(29)
        graphs = [random_multigraph(rng, rng.randint(2, 4)) for _ in range(6)]
        graphs.append(load_dataset("example1"))
        for g in graphs:
            for u, v, w in list(g.pairs()):
                reduced = [
                    (a, b, m - 1 if {a, b} == {u, v} else m)
                    for a, b, m in g.pairs()
                    if not ({a, b} == {u, v} and m == 1)
                ]
                h = Multigraph(reduced, nodes=g.labels)
                du = myerson_shapley_oracle(g, u) - myerson_shapley_oracle(h, u)
                dv = myerson_shapley_oracle(g, v) - myerson_shapley_oracle(h, v)
                assert du == dv


class TestMyersonGain:
    def test_defection_threshold(self, example1, example1_split):
        mv = Move("A", 0, 1)
        assert myerson_gain(example1, example1_split, mv, Fraction(1, 2)) == Fraction(-1, 12)
        assert myerson_gain(example1, example1_split, mv, Fraction(3, 4)) == 0
        assert myerson_gain(example1, example1_split, mv, Fraction(7, 8)) > 0

    def test_fresh_move_drops_to_zero(self, example1, example1_split):
        mv = Move("A", 0, None)
        assert myerson_gain(example1, example1_split, mv, Fraction(1, 2)) == -Fraction(1, 2)

    def test_r_validated(self, example1, example1_split):
        mv = Move("A", 0, 1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            myerson_gain(example1, example1_split, mv, Fraction(3, 2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            myerson_gain(example1, example1_split, mv, Fraction(-1, 2))

    def test_block_indices_outside_the_partition_are_refused(self, example1, example1_split):
        # A negative index must not wrap to the last block, and one past
        # the end must not escape as an IndexError.
        r = Fraction(1, 2)
        for mv in (Move("F", -1, 0), Move("F", 2, 0)):
            with pytest.raises(PartitionError, match="not in source block"):
                myerson_gain(example1, example1_split, mv, r)
        for mv in (Move("F", 1, -2), Move("F", 1, 2)):
            with pytest.raises(PartitionError, match="no such target block"):
                myerson_gain(example1, example1_split, mv, r)


class TestMyersonDynamics:
    def test_split_stable_at_half(self, example1, example1_split):
        final, trace = myerson_better_response(example1, Fraction(1, 2), example1_split)
        assert trace.status == STABLE
        assert trace.steps == ()
        assert final == example1_split

    def test_grand_at_seven_eighths(self, example1, example1_split):
        final, trace = myerson_better_response(example1, Fraction(7, 8), example1_split)
        assert trace.status == STABLE
        assert final == Partition.grand(example1.labels)

    def test_nash_verifier_agrees(self, example1, example1_split):
        stable, witness = myerson_nash_stable(example1, example1_split, Fraction(1, 2))
        assert stable and witness is None
        unstable, witness = myerson_nash_stable(example1, example1_split, Fraction(7, 8))
        assert not unstable
        assert witness == Move("A", 0, 1)

    def test_partial_partition_is_refused(self, example1):
        # {A, B} alone is stable on its own; nodes C-F must not be ignored.
        with pytest.raises(PartitionError, match="cover"):
            myerson_nash_stable(example1, Partition([{"A", "B"}]), Fraction(1, 2))

    def test_partial_start_is_refused(self, example1):
        # {A, B} has no improving move on its own, so a run that never
        # looked at the graph's labels would return it Stable.
        with pytest.raises(PartitionError, match="do not cover"):
            myerson_better_response(example1, Fraction(1, 2), Partition([{"A", "B"}]))

    def test_one_singleton_start_is_refused(self, example1):
        # A lone singleton has no deviation, so no gain would ever be
        # valued to notice the missing nodes.
        with pytest.raises(PartitionError, match="do not cover"):
            myerson_better_response(example1, Fraction(1, 2), Partition([{"A"}]))

    def test_start_with_unknown_node_is_refused(self, example1):
        start = Partition([set(example1.labels) | {"Z"}])
        with pytest.raises(PartitionError, match="unknown nodes"):
            myerson_better_response(example1, Fraction(1, 2), start)


class TestExternalStability:
    def test_example1_split_externally_stable(self, example1, example1_split):
        ok, witness = external_stability_check(example1, example1_split, Fraction(1, 2))
        assert ok and witness is None

    def test_partial_partition_is_refused(self, example1):
        with pytest.raises(PartitionError, match="cover"):
            external_stability_check(example1, Partition([{"A", "B"}]), Fraction(1, 2))

    def test_single_block_vacuous(self, example1):
        ok, _ = external_stability_check(
            example1, Partition.grand(example1.labels), Fraction(1, 2)
        )
        assert ok

    def test_coincides_with_nash_on_simple_graphs(self):
        # On graphs without parallel links incumbents never lose by
        # admitting an entrant, so the two stability notions agree.
        rng = random.Random(41)
        checked = 0
        for _ in range(25):
            g = random_multigraph(rng, rng.randint(2, 6), max_mult=1)
            labels = list(g.labels)
            rng.shuffle(labels)
            cut = rng.randint(1, len(labels))
            blocks = [labels[:cut], labels[cut:]]
            p = Partition(b for b in blocks if b)
            r = Fraction(rng.randint(0, 4), 4)
            nash, _ = myerson_nash_stable(g, p, r)
            external, _ = external_stability_check(g, p, r)
            assert nash == external
            checked += 1
        assert checked == 25

    def test_witness_on_beneficial_unblocked_entry(self):
        # Path u-v, w isolated: at r=1/2 w gains by joining {u, v} and
        # neither incumbent loses.
        g = Multigraph([("u", "v"), ("v", "w")])
        p = Partition([{"u", "v"}, {"w"}])
        ok, witness = external_stability_check(g, p, Fraction(1, 2))
        assert not ok
        assert witness == ("w", 0)
