import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph import (
    EdgeListError,
    Multigraph,
    coalition_path_counts,
    connected_components,
    geodesic_profile,
    induced_subgraph,
    node_path_counts,
    parse_edge_list,
    serialize_edge_list,
)

from conftest import brute_force_profiles, random_multigraph

# Any whitespace-free label, with '#' (the edge-list comment character)
# and U+FEFF (a byte-order mark when it starts the text) drawn often
# enough to reach every outcome of serialization.
LABELS = st.text(st.one_of(st.sampled_from("#abcdefgh\ufeff"), st.characters()), min_size=1, max_size=4).filter(
    lambda s: s.split() == [s]
)


class TestParsing:
    def test_two_edges(self):
        g = parse_edge_list("A B\nA C")
        assert g.n == 3
        assert g.m == 2
        assert g.degree("A") == 2
        assert g.labels == ("A", "B", "C")

    def test_multiplicity_syntax(self):
        g = parse_edge_list("B C 2")
        assert g.multiplicity("B", "C") == 2
        assert g.m == 2

    def test_repeated_lines_accumulate(self):
        g = parse_edge_list("A B\nA B\nB A 3")
        assert g.multiplicity("A", "B") == 5

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\nA B  # trailing\n\nB C\n")
        assert g.m == 2

    def test_accepts_bytes(self):
        g = parse_edge_list(b"A B\nB C 2\n")
        assert g.m == 3
        # A UTF-8 byte-order mark is not part of the first label.
        g = parse_edge_list(b"\xef\xbb\xbfA B\nA C\n")
        assert g.n == 3
        assert g.labels == ("A", "B", "C")
        assert g == parse_edge_list(b"A B\nA C\n")

    def test_text_and_bytes_with_a_byte_order_mark_parse_alike(self):
        # The mark is dropped after decoding, so a file read as text gives
        # the graph its bytes give, with no mark in the first label.
        data = "\ufeffA B\nA C 2\n".encode("utf-8")
        g = parse_edge_list(data.decode("utf-8"))
        assert g == parse_edge_list(data)
        assert g.labels == ("A", "B", "C")

    def test_first_mention_order(self):
        g = parse_edge_list("Z A\nA B")
        assert g.labels == ("Z", "A", "B")

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("A B\nC C")

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(EdgeListError, match="positive"):
            parse_edge_list("A B 0")
        with pytest.raises(EdgeListError, match="positive"):
            parse_edge_list("A B -2")

    @pytest.mark.parametrize(
        "text",
        ["a b\nb c 1_0", "a b\nd e \u0663"],
        ids=["underscore", "arabic-indic-digit"],
    )
    def test_multiplicity_in_ascii_digits_only(self, text):
        # int() would read these as 10 and 3.
        with pytest.raises(EdgeListError, match="line 2: multiplicity is not an integer"):
            parse_edge_list(text)

    def test_malformed_rejected(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("A")
        with pytest.raises(EdgeListError, match="integer"):
            parse_edge_list("A B x")
        with pytest.raises(EdgeListError):
            parse_edge_list("A B 2 3")


class TestSerialization:
    def test_omits_unit_multiplicity(self):
        g = parse_edge_list("A B\nB C 2")
        assert serialize_edge_list(g) == "A B\nB C 2\n"

    def test_round_trip_is_byte_stable(self, example1):
        text = serialize_edge_list(example1)
        again = serialize_edge_list(parse_edge_list(text))
        assert text == again
        assert parse_edge_list(text) == example1

    def test_accumulated_pairs_emit_once(self):
        g = parse_edge_list("A B\nC D\nA B")
        assert serialize_edge_list(g) == "A B 2\nC D\n"

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_multigraph(rng, rng.randint(2, 8))
            if g.m == 0:
                continue
            text = serialize_edge_list(g)
            h = parse_edge_list(text)
            assert serialize_edge_list(h) == text

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_round_trip_property(self, data):
        # Built from edges alone, so every node is mentioned (isolated
        # nodes are not representable) and labels keep first-mention order.
        pool = data.draw(st.lists(LABELS, min_size=2, max_size=8, unique=True))
        pairs = st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True)
        edges = [
            (u, v, data.draw(st.integers(1, 3)))
            for u, v in data.draw(st.lists(pairs, min_size=1, max_size=12))
        ]
        g = Multigraph(edges)
        if any("#" in u for u in g.labels):
            with pytest.raises(ValueError, match="#"):
                serialize_edge_list(g)
            return
        first = next(g.pairs())[0]
        if first.startswith("\ufeff"):
            with pytest.raises(ValueError, match=re.escape(repr(first))):
                serialize_edge_list(g)
            return
        text = serialize_edge_list(g)
        h = parse_edge_list(text)
        assert h == g
        assert serialize_edge_list(h) == text

    def test_byte_order_mark_starting_the_text_refused(self):
        # Written out, "\ufeffa b" would parse back as the edge a-b: the
        # parser drops a leading byte-order mark. Elsewhere the mark is
        # part of a label and reads back as one.
        with pytest.raises(ValueError, match=re.escape(repr("\ufeffa"))):
            serialize_edge_list(Multigraph([("\ufeffa", "b"), ("b", "c")]))
        g = Multigraph([("b", "\ufeffa"), ("\ufeffa", "c")])
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_comment_character_in_label_refused(self):
        # Written out, "x y#z" would parse back as the edge x-y.
        g = Multigraph([("x", "y#z"), ("y", "w")])
        with pytest.raises(ValueError, match="'y#z'"):
            serialize_edge_list(g)


class TestInvariants:
    def test_handshake_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_multigraph(rng, rng.randint(1, 9))
            assert sum(g.degree(u) for u in g.labels) == 2 * g.m

    def test_no_self_loop_construction(self):
        with pytest.raises(ValueError, match="self-loop"):
            Multigraph([("A", "A")])

    def test_bad_multiplicity_construction(self):
        with pytest.raises(ValueError, match="positive"):
            Multigraph([("A", "B", 0)])

    def test_label_validation(self):
        with pytest.raises(ValueError, match="whitespace-free"):
            Multigraph([("a b", "c")])

    def test_membership_and_equality(self, example1):
        assert "A" in example1 and "Z" not in example1
        assert example1 == parse_edge_list(serialize_edge_list(example1))
        assert (example1 == object()) is False
        assert example1 != Multigraph([("A", "B")])

    @pytest.mark.parametrize("edge", ["ab", ("a", "b", 1, 2), ("a",)], ids=["string", "4-tuple", "1-tuple"])
    def test_edge_shape_validation(self, edge):
        # A 2-character string would unpack as the edge a-b.
        with pytest.raises(ValueError, match=r"\(u, v\) or \(u, v, w\)"):
            Multigraph([edge])


class TestInducedSubgraph:
    def test_example1_triangle(self, example1):
        h = induced_subgraph(example1, {"A", "B", "C"})
        assert h.n == 3
        assert h.m == 4  # AB, AC and the doubled BC

    def test_full_set_is_identity(self, example1):
        assert induced_subgraph(example1, example1.labels) == example1

    def test_singleton(self, example1):
        h = induced_subgraph(example1, {"A"})
        assert (h.n, h.m) == (1, 0)

    def test_unknown_node_named(self, example1):
        with pytest.raises(ValueError, match="'Q'"):
            induced_subgraph(example1, {"A", "Q"})


class TestComponents:
    def test_example1_connected(self, example1):
        comps = connected_components(example1)
        assert comps == [frozenset("ABCDEF")]

    def test_isolated_node(self):
        g = Multigraph([("A", "B")], nodes=["A", "B", "C"])
        assert connected_components(g) == [frozenset({"A", "B"}), frozenset({"C"})]

    def test_empty_graph(self):
        assert connected_components(Multigraph()) == []


class TestGeodesicProfile:
    def test_parallel_edges_are_distinct_paths(self):
        g = Multigraph([("u", "v", 2)])
        dist, sigma = geodesic_profile(g)
        assert dist["u"]["v"] == 1
        assert sigma["u"]["v"] == 2

    def test_example1_b_to_d(self, example1):
        dist, sigma = geodesic_profile(example1)
        assert dist["B"]["D"] == 2
        assert sigma["B"]["D"] == 1  # only via A

    def test_path_graph(self):
        g = Multigraph([("u", "v"), ("v", "w")])
        dist, sigma = geodesic_profile(g)
        assert dist["u"]["w"] == 2
        assert sigma["u"]["w"] == 1
        assert sigma["u"]["u"] == 1

    def test_unreachable_is_none(self):
        g = Multigraph([("A", "B")], nodes=["A", "B", "C"])
        dist, sigma = geodesic_profile(g)
        assert dist["A"]["C"] is None
        assert sigma["A"]["C"] == 0

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        linked = unlinked = 0
        for _ in range(15):
            g = random_multigraph(rng, rng.randint(2, 8), edge_prob=0.3)
            simple = nx.Graph()
            simple.add_nodes_from(g.labels)
            simple.add_edges_from((u, v) for u, v, _ in g.pairs())
            dist, sigma = geodesic_profile(g)
            for u in g.labels:
                for v in g.labels:
                    if not nx.has_path(simple, u, v):
                        assert dist[u][v] is None and sigma[u][v] == 0
                        unlinked += 1
                        continue
                    assert dist[u][v] == nx.shortest_path_length(simple, u, v)
                    assert sigma[u][v] == sum(
                        math.prod(g.multiplicity(a, b) for a, b in zip(path, path[1:]))
                        for path in nx.all_shortest_paths(simple, u, v)
                    )
                    linked += 1
        assert linked >= 200 and unlinked >= 50

    def test_sigma_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_multigraph(rng, rng.randint(2, 7))
            counts, _ = brute_force_profiles(g, g.labels)
            prof = coalition_path_counts(g, g.labels)
            assert prof.counts == counts


class TestCoalitionPathCounts:
    def test_example1_grand(self, example1):
        prof = coalition_path_counts(example1, example1.labels)
        assert prof.counts == (9, 4, 4)
        assert prof.max_distance == 3

    def test_example1_abcd(self, example1):
        prof = coalition_path_counts(example1, {"A", "B", "C", "D"})
        assert prof.counts == (5, 2)

    def test_singleton(self, example1):
        prof = coalition_path_counts(example1, {"A"})
        assert prof.counts == ()
        assert prof.max_distance == 0

    def test_disconnected_coalition_sums_components(self, example1):
        prof = coalition_path_counts(example1, {"A", "B", "C", "E", "F"})
        # triangle ABC contributes 4 links, the doubled EF pair 2 more
        assert prof.counts == (6,)

    def test_empty_coalition_rejected(self, example1):
        with pytest.raises(ValueError, match="nonempty"):
            coalition_path_counts(example1, set())

    def test_first_coefficient_is_induced_edge_count(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_multigraph(rng, rng.randint(2, 8))
            members = [u for u in g.labels if rng.random() < 0.7] or [g.labels[0]]
            prof = coalition_path_counts(g, members)
            a1 = prof.counts[0] if prof.counts else 0
            assert a1 == induced_subgraph(g, members).m


class TestNodePathCounts:
    def test_example1_adef_node_d(self, example1):
        prof = node_path_counts(example1, {"A", "D", "E", "F"})
        assert prof.counts["D"] == (3, 2)

    def test_triangle_symmetry(self):
        g = Multigraph([("x", "y"), ("y", "z"), ("x", "z")])
        prof = node_path_counts(g, g.labels)
        assert prof.counts == {"x": (2,), "y": (2,), "z": (2,)}

    def test_example1_grand_node_a(self, example1):
        # Geodesics only: the non-shortest B-A-C walk does not count, so
        # the length-2 entry is 4, in line with the grand profile (9,4,4).
        prof = node_path_counts(example1, example1.labels)
        assert prof.counts["A"] == (3, 4, 4)

    def test_matches_brute_force(self, example1):
        _, per_node = brute_force_profiles(example1, example1.labels)
        prof = node_path_counts(example1, example1.labels)
        assert prof.counts == per_node

    def test_containment_identity_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_multigraph(rng, rng.randint(2, 8))
            pair_prof = coalition_path_counts(g, g.labels)
            node_prof = node_path_counts(g, g.labels)
            counts, per_node = brute_force_profiles(g, g.labels)
            assert pair_prof.counts == counts
            assert node_prof.counts == per_node
            # every length-k geodesic has k+1 nodes
            for k in range(1, pair_prof.max_distance + 1):
                total = sum(vec[k - 1] for vec in node_prof.counts.values())
                assert total == (k + 1) * pair_prof.counts[k - 1]
