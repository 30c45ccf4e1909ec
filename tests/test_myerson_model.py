"""Differential tests of the Myerson engine against independent references.

MyersonModel reads every gain from cached block tables: a member's
payoff from its block's geodesic counts and distance buckets, a joining
node's payoff derived from the target block's table without a table of
the joined block, and the tables of the two blocks an accepted move
creates changed in place: the target's grown, the source's shrunk. The
tests read a table's distances from its buckets, its only record of
them.
node_path_counts and coalition_path_counts search the coalition's
links with no table. The references in conftest share none of that:
reference_node_path_counts is the direct cubic loop over (x, s, t) on
the induced subgraph, brute_force_profiles enumerates simple paths,
reference_containment scans every pair of a block, reference_entry
walks the rows of a joining node's linked members instead of searching,
and myerson_shapley_oracle sums Shapley marginals over every coalition.
Dynamics are compared move for move with run_dynamics driven by a
reference payoff.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopgraph import (
    CYCLE_DETECTED,
    GREEDY_BEST,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    STABLE,
    Move,
    Multigraph,
    MyersonModel,
    Partition,
    Schedule,
    apply_move,
    coalition_path_counts,
    enumerate_deviations,
    external_stability_check,
    induced_subgraph,
    load_dataset,
    myerson_better_response,
    myerson_gain,
    myerson_nash_stable,
    myerson_shapley_oracle,
    node_path_counts,
    parse_edge_list,
    run_dynamics,
)
from coopgraph import multigraph, myerson
from coopgraph.multigraph import _bfs, _BlockTable, _buckets, _containment, _containments, _detours, _through
from coopgraph.myerson import _block_table, external_scan
from coopgraph.partition import canonical_form, run_schedule, settle
from coopgraph.reports import partition_from_json

from conftest import (
    assert_skips_only_losing_deviations,
    benchmark_suite,
    brute_force_profiles,
    index_block,
    reference_allocation,
    reference_containment,
    reference_entry,
    reference_node_path_counts,
)

DATA = Path(__file__).resolve().parent / "data" / "myerson"
PLANTED = DATA / "planted30.edges"


def ref_value(g: Multigraph, block, node: str, r: Fraction) -> Fraction:
    return reference_allocation(g, block)[node].evaluate(r)


def ref_gain(g: Multigraph, p: Partition, mv: Move, r: Fraction) -> Fraction:
    now = ref_value(g, p.blocks[mv.source], mv.node, r)
    if mv.is_fresh:
        return -now
    return ref_value(g, p.blocks[mv.target] | {mv.node}, mv.node, r) - now


@st.composite
def graphs(draw, max_nodes=8, alphabet=None, max_mult=3):
    """Small multigraphs, multiplicities 1-3, sparse enough that many
    coalitions are disconnected; label order differs from first mention.
    With an alphabet, labels are drawn from it instead. A larger max_mult
    mixes in multiplicities up to it."""
    n = draw(st.integers(1, max_nodes))
    if alphabet is None:
        names = draw(st.permutations([f"n{k}" for k in range(n)]))
    else:
        names = draw(st.lists(st.text(alphabet, min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    weights = st.sampled_from([0, 0, 0, 1, 1, 2, 3])
    if max_mult > 3:
        weights = st.one_of(weights, st.integers(1, max_mult))
    edges = [
        (names[i], names[j], w)
        for i in range(n)
        for j in range(i + 1, n)
        if (w := draw(weights)) > 0
    ]
    return Multigraph(edges, nodes=names)


@st.composite
def partitions(draw, g: Multigraph):
    ids = [draw(st.integers(0, g.n - 1)) for _ in g.labels]
    blocks: dict[int, list[str]] = {}
    for label, k in zip(g.labels, ids):
        blocks.setdefault(k, []).append(label)
    return Partition(draw(st.permutations(list(blocks.values()))))


DISCOUNTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(7, 8)]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)

# Derandomized, so that every run checks the same examples.
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


@SETTINGS
@given(st.data())
def test_node_path_counts_matches_the_cubic_reference(data):
    # Multiplicities up to 10**6 give counts far wider than a machine word.
    g = data.draw(graphs(max_mult=data.draw(st.sampled_from([3, 10**6]))))
    coalition = data.draw(st.sets(st.sampled_from(g.labels), min_size=1))
    got = node_path_counts(g, coalition)
    want = reference_node_path_counts(g, coalition)
    assert got == want
    assert list(got.counts) == list(want.counts)
    assert coalition_path_counts(g, coalition).counts == brute_force_profiles(g, coalition)[0]


def test_one_accumulation_counts_what_each_members_scan_counts():
    # _containments over a table's links against _containment over each
    # member's own row, on tables searched and then grown and shrunk in
    # turn; its vectors run to the block's largest distance. seen records
    # that the runs cover rows swapped by a shrink, members the block's
    # other members cannot reach, and a single member. Multiplicities up
    # to 10**6 stress the width of the packed fields.
    seen = set()

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(graphs(max_mult=10**6))
        block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1)))
        table = _block_table(g, index_block(g, block))

        def compare():
            rows = table.rows
            if any(row[0] for row in rows):
                seen.add("disconnected")
            if len(rows) == 1:
                seen.add("singleton")
            got = _containments(table.adj)
            assert len(got) == len(rows)
            length = max(map(max, all_distances(table)))
            for a, row in enumerate(rows):
                assert len(got[a]) == length
                want = _containment(table.sigma[a], row, _through(rows, row))
                assert without_trailing_zeros(got[a]) == without_trailing_zeros(want)

        compare()
        for node in data.draw(st.lists(st.sampled_from(g.labels), max_size=8)):
            if node not in block:
                table.grow(g.index_of(node))
                block |= {node}
            elif len(block) > 1:
                if table.pos[g.index_of(node)] != len(block) - 1:
                    seen.add("swapped")
                table.shrink(g.index_of(node))
                block -= {node}
            compare()

    check()
    assert seen == {"swapped", "disconnected", "singleton"}


def test_a_coalition_geodesic_may_be_longer_than_the_graph_diameter():
    # The 6-cycle has diameter 3, but inside the block {a,...,e} the only
    # a-e path has length 4. So the model's weights must reach the largest
    # component's size - 1, not the graph's diameter.
    g = parse_edge_list("a b\nb c\nc d\nd e\ne f\nf a\n")
    block = frozenset("abcde")
    assert node_path_counts(g, block).counts["c"] == (2, 3, 2, 1)
    r = Fraction(1, 2)
    model = MyersonModel.bind(g, r)
    for node in sorted(block):
        assert model.payoff(block, node) == ref_value(g, block, node, r) * model.den
    assert Fraction(model.payoff(block, "c"), model.den) == Fraction(33, 40)


@SETTINGS
@given(st.data())
def test_every_deviation_gain_matches_the_reference_allocations(data):
    g = data.draw(graphs())
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    model = MyersonModel.bind(g, r)
    for node in sorted(p.nodes):
        for mv in enumerate_deviations(p, node):
            want = ref_gain(g, p, mv, r)
            # One model for all deviations (cached tables and payoffs) and
            # a fresh binding per call must agree with the reference.
            assert model.gain(p, mv) == want
            assert myerson_gain(g, p, mv, r) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_gains_match_the_shapley_oracle(data):
    g = data.draw(graphs())
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    model = MyersonModel.bind(g, r)

    def oracle(block, node):
        return myerson_shapley_oracle(induced_subgraph(g, block), node).evaluate(r)

    for node in sorted(p.nodes):
        now = oracle(p.blocks[p.block_of(node)], node)
        for mv in enumerate_deviations(p, node):
            joined = 0 if mv.is_fresh else oracle(p.blocks[mv.target] | {node}, node)
            assert model.gain(p, mv) == joined - now


@SETTINGS
@given(st.data())
def test_the_state_leaves_out_only_deviations_that_cannot_gain(data):
    # A node is isolated in a block it has no link to, and alone in a
    # fresh one: the state yields neither, only its linked blocks.
    g = data.draw(graphs())
    p = data.draw(partitions(g))
    model = MyersonModel.bind(g, data.draw(DISCOUNTS))
    state = myerson._MyersonState(model, p)
    assert_skips_only_losing_deviations(
        p, lambda node: state.deviations(g.index_of(node)), lambda mv: model.gain(p, mv), model.den
    )


def ref_first_improving(g, p, r):
    for node in sorted(p.nodes):
        for mv in enumerate_deviations(p, node):
            if ref_gain(g, p, mv, r) > 0:
                return mv
    return None


def ref_beneficial_entries(g, p, r):
    """Every (node, block index) entry that raises the node's payoff, in
    the order the external check visits them."""
    for node in sorted(p.nodes):
        current = ref_value(g, p.blocks[p.block_of(node)], node, r)
        for k, block in enumerate(p.blocks):
            if k != p.block_of(node) and ref_value(g, block | {node}, node, r) > current:
                yield node, k


def ref_unblocked_entry(g, p, r):
    for node, k in ref_beneficial_entries(g, p, r):
        block = p.blocks[k]
        joined = reference_allocation(g, block | {node})
        before = reference_allocation(g, block)
        if not any(joined[j].evaluate(r) < before[j].evaluate(r) for j in block):
            return node, k
    return None


@SETTINGS
@given(st.data())
def test_verifiers_match_the_reference(data):
    g = data.draw(graphs())
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    witness = ref_first_improving(g, p, r)
    assert myerson_nash_stable(g, p, r) == (witness is None, witness)
    entry = ref_unblocked_entry(g, p, r)
    assert external_stability_check(g, p, r) == (entry is None, entry)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_dynamics_match_the_reference_payoff(data):
    # Accepted joins make the model derive the grown block's table from
    # the old one, so a whole run checks the derived tables too.
    g = data.draw(graphs(max_nodes=7))
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    schedule = Schedule(
        policy=data.draw(st.sampled_from([ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST])),
        seed=data.draw(st.integers(0, 3)),
        max_steps=data.draw(st.one_of(st.none(), st.integers(1, 6))),
    )
    got = myerson_better_response(g, r, p, schedule)
    want = run_dynamics(lambda q, mv: ref_gain(g, q, mv, r), p, schedule)
    assert got == want


def test_round_robin_follows_a_true_improvement_cycle():
    # Found by searching small random multigraphs: from this start,
    # round-robin's own choices at r = 3/4 revisit a partition after the
    # moves v6, v2, v6, v2. The reference payoffs make the same run, and
    # each move of the cycle strictly gains for its node.
    g = parse_edge_list((DATA / "cycle7.edges").read_text())
    start = partition_from_json((DATA / "cycle7_start.json").read_text(), universe=g.labels)
    r = Fraction(3, 4)
    final, trace = myerson_better_response(g, r, start)
    assert trace.status == CYCLE_DETECTED
    assert run_dynamics(lambda q, mv: ref_gain(g, q, mv, r), start, Schedule()) == (final, trace)
    seen = [start]
    for step in trace.steps:
        assert ref_gain(g, seen[-1], step.move, r) == step.gain > 0
        seen.append(apply_move(seen[-1], step.move))
    assert [step.move.node for step in trace.steps[-4:]] == ["v6", "v2", "v6", "v2"]
    assert seen.index(seen[-1]) == len(seen) - 5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_the_external_check_on_a_runs_own_state_is_the_check_of_its_partition(data):
    # The partition command scans the run's final state in place; a state
    # rebuilt from its partition has the same block positions and node
    # order, so the scan gives the same answer and witness. Step caps stop
    # runs before they are Stable, where entries go unblocked.
    g = data.draw(graphs(max_nodes=8))
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    schedule = Schedule(
        policy=data.draw(st.sampled_from([ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST])),
        seed=data.draw(st.integers(0, 3)),
        max_steps=data.draw(st.one_of(st.none(), st.integers(1, 4))),
    )
    state = myerson._MyersonState(MyersonModel.bind(g, r), p)
    settle(state, schedule)
    assert external_scan(state) == MyersonModel.bind(g, r).external_stability(state.partition())


def distances(level, q):
    """Hop distances to q members read from one row's buckets: d for
    bucket d >= 1, -1 for bucket 0 (unreachable), 0 for the member a
    row leaves out (itself)."""
    d = [0] * q
    for k, ring in enumerate(level):
        for t in ring:
            d[t] = k if k else -1
    return d


def all_distances(table):
    return [distances(row, len(table.rows)) for row in table.rows]


def assert_same_table(g, table, block):
    """The table of the block against one searched afresh: equal
    distances, read from the buckets, and geodesic counts for every pair
    of members, whatever rows the two tables give them, and each row's
    links those of the block's induced subgraph."""
    built = _block_table(g, index_block(g, block))
    assert table.pos.keys() == built.pos.keys()
    label = {a: g.labels[v] for v, a in table.pos.items()}
    h = induced_subgraph(g, block)
    assert len(table.adj) == len(label)
    for a, links in enumerate(table.adj):
        want = {h.label_of(w): mult for w, mult in h.adjacency[h.index_of(label[a])].items()}
        assert {label[b]: mult for b, mult in links.items()} == want
    dist, want = all_distances(table), all_distances(built)
    for u, a in table.pos.items():
        for v, b in table.pos.items():
            assert dist[a][b] == want[built.pos[u]][built.pos[v]]
            assert table.sigma[a][b] == built.sigma[built.pos[u]][built.pos[v]]


def assert_buckets_partition_the_members(table):
    """Each row's buckets are disjoint and hold every member but the
    row's own."""
    q = len(table.rows)
    for a, row in enumerate(table.rows):
        assert sorted(t for ring in row for t in ring) == [t for t in range(q) if t != a]


@SETTINGS
@given(st.data())
def test_derived_tables_equal_tables_built_by_search(data):
    g = data.draw(graphs())
    p = data.draw(partitions(g))
    model = MyersonModel.bind(g, 1)
    model.better_response(p)
    for block, table in model.tables.items():
        assert table.pos.keys() == block
        assert_same_table(g, table, [g.labels[i] for i in block])
        assert_buckets_partition_the_members(table)


@SETTINGS
@given(st.data())
def test_a_table_grown_in_place_equals_the_searched_one(data):
    # The block may be disconnected, and the node may link it up, touch
    # one component, or not link to it at all; growing again from the
    # grown table exercises buckets that growth itself moved.
    g = data.draw(graphs())
    assume(g.n >= 2)
    block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1, max_size=g.n - 1)))
    outside = data.draw(st.permutations(sorted(set(g.labels) - block)))
    table = _block_table(g, index_block(g, block))
    for node in outside[: data.draw(st.integers(1, len(outside)))]:
        table.grow(g.index_of(node))
        block |= {node}
        assert_same_table(g, table, block)
        assert_buckets_partition_the_members(table)


@SETTINGS
@given(st.data())
def test_a_table_shrunk_in_place_equals_the_searched_one(data):
    # Removals may take a pair's only geodesics, disconnect the block, or
    # leave one member; each swap-removes a row, so the next one reads
    # renumbered buckets.
    g = data.draw(graphs())
    block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1)))
    leaving = data.draw(st.permutations(sorted(block)))
    table = _block_table(g, index_block(g, block))
    for node in leaving[: data.draw(st.integers(0, len(block) - 1))]:
        table.shrink(g.index_of(node))
        block -= {node}
        assert_same_table(g, table, block)
        assert_buckets_partition_the_members(table)


@pytest.mark.parametrize(
    "edges, leaving",
    [
        ("a b\nb c\nc d\n", ["b", "c", "a"]),  # a path split, then down to one member
        ("a b\nb c\nc d\nd a 2\n", ["b", "d"]),  # a cycle: counts drop, then a split
        ("h a 2\nh b\nh c 3\na b\n", ["h", "a"]),  # a star loses its hub
    ],
    ids=["path", "cycle", "star"],
)
def test_shrinking_splits_and_empties_a_block(edges, leaving):
    g = parse_edge_list(edges)
    block = frozenset(g.labels)
    table = _block_table(g, index_block(g, block))
    for node in leaving:
        # Vectors remembered for every member and every node that has left.
        table.vectors.update(dict.fromkeys(range(g.n), [1]))
        table.shrink(g.index_of(node))
        block -= {node}
        assert_same_table(g, table, block)
        assert_buckets_partition_the_members(table)
        assert not table.vectors
    assert len(block) == len(table.rows) >= 1


@SETTINGS
@given(st.data())
def test_a_table_grown_and_shrunk_in_turn_equals_the_searched_one(data):
    # A node outside the block joins, a member other than the last leaves.
    g = data.draw(graphs())
    block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1)))
    table = _block_table(g, index_block(g, block))
    for node in data.draw(st.lists(st.sampled_from(g.labels), max_size=10)):
        if node not in block:
            table.grow(g.index_of(node))
            block |= {node}
        elif len(block) > 1:
            table.shrink(g.index_of(node))
            block -= {node}
        assert_same_table(g, table, block)
        assert_buckets_partition_the_members(table)


def test_a_join_stash_serves_only_the_grow_it_was_taken_for():
    # Rounds on one table: an outsider x is priced, which leaves its join
    # on the table as a stash, and a member is priced; the table may
    # change by a grow or a shrink, then an outsider y grows the table.
    # After each step the table must equal the search and each payoff the
    # reference. seen records that the runs cover a grow by another node
    # than the stashed one and a grow by x after the table changed.
    seen = set()

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(graphs())
        assume(g.n >= 3)
        r = data.draw(DISCOUNTS)
        model = MyersonModel.bind(g, r)
        block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1, max_size=g.n - 2)))
        table = model.table(index_block(g, block))

        def outsider():
            return data.draw(st.sampled_from(sorted(set(g.labels) - block)))

        def price(node):
            joined = block | {node}
            assert model.payoff(block, node) == ref_value(g, joined, node, r) * model.den

        def change(node, joined):
            nonlocal block
            (table.grow if node in joined else table.shrink)(g.index_of(node))
            model.tables[index_block(g, joined)] = model.tables.pop(index_block(g, block))
            block = joined
            assert table.stash is None and not table.vectors
            assert_same_table(g, table, block)

        for _ in range(data.draw(st.integers(1, 4))):
            if len(block) == g.n:
                break
            x = outsider()
            price(x)
            price(data.draw(st.sampled_from(sorted(block))))
            assert table.stash[0] == g.index_of(x)
            step = data.draw(st.sampled_from(["none", "grow", "shrink"]))
            if step == "grow" and len(block) < g.n - 1:
                node = outsider()
                change(node, block | {node})
            elif step == "shrink" and len(block) > 1:
                node = data.draw(st.sampled_from(sorted(block)))
                change(node, block - {node})
            y = x if x not in block and data.draw(st.booleans()) else outsider()
            if table.stash is None and y == x:
                seen.add("changed")
            elif table.stash is not None and y != x:
                seen.add("other node")
            change(y, block | {y})

    check()
    assert seen == {"other node", "changed"}


@SETTINGS
@given(st.data())
def test_a_table_filled_at_one_discount_serves_another(data):
    # A model at r drives a block's table through payoffs, grows and
    # shrinks, then values every node on it. A model at another discount,
    # bound to the same tables, must read each payoff at its own r.
    g = data.draw(graphs())
    assume(g.n >= 2)
    r = data.draw(DISCOUNTS)
    first = MyersonModel.bind(g, r)
    block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1, max_size=g.n - 1)))
    table = first.table(index_block(g, block))
    for node in data.draw(st.lists(st.sampled_from(g.labels), max_size=6)):
        first.payoff(block, node)
        joined = block ^ {node}
        if data.draw(st.booleans()) and joined and len(joined) < g.n:
            (table.shrink if node in block else table.grow)(g.index_of(node))
            first.tables[index_block(g, joined)] = first.tables.pop(index_block(g, block))
            block = joined
    for node in g.labels:
        first.payoff(block, node)
    other = data.draw(DISCOUNTS.filter(lambda x: x != r))
    second = MyersonModel.bind(g, other)
    second.tables = first.tables
    for node in g.labels:
        assert second.payoff(block, node) == ref_value(g, block | {node}, node, other) * second.den


def test_a_remembered_vector_is_the_node_path_counts_vector():
    # On a model's cached table, searched and then grown or shrunk in
    # random turns, every node's vector is counted and remembered: a
    # member's must be its node_path_counts vector in the block, an
    # outsider's its vector in the joined block, up to trailing zeros.
    # After each step the table must equal the search, and _containments
    # over its live links must give every member's node_path_counts
    # vector. seen records that the runs cover each kind of table, and
    # entrants and leavers with one link inside the block.
    seen = set()

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(graphs(max_nodes=9))
        model = MyersonModel.bind(g, 1)
        block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1)))
        table = model.table(index_block(g, block))

        def compare(kind):
            seen.add(kind)
            assert_same_table(g, table, block)
            for i in range(g.n):
                table.counts(i)
            assert table.vectors.keys() == set(range(g.n))
            for i, vec in table.vectors.items():
                node = g.labels[i]
                want = node_path_counts(g, block | {node}).counts[node]
                assert without_trailing_zeros(vec) == without_trailing_zeros(want)
            want = node_path_counts(g, block).counts
            got = _containments(table.adj)
            assert {g.labels[i]: tuple(got[a]) for i, a in table.pos.items()} == want

        compare("searched")
        for step in data.draw(st.lists(st.sampled_from(["grow", "shrink"]), max_size=8)):
            node = data.draw(st.sampled_from(g.labels))
            i = g.index_of(node)
            others = index_block(g, block - {node})
            links = sum(u in others for u in g.adjacency[i])
            if step == "shrink" and node in block and len(block) > 1:
                table.shrink(i)
                changed = block - {node}
            elif step == "grow" and node not in block:
                table.grow(i)
                changed = block | {node}
            else:
                continue
            model.tables[index_block(g, changed)] = model.tables.pop(index_block(g, block))
            block = changed
            if links == 1:
                seen.add(f"leaf {step}")
            compare(step)

    check()
    assert seen == {"searched", "grow", "shrink", "leaf grow", "leaf shrink"}


class CheckedState(myerson._MyersonState):
    """The dynamics state, checking each cycle key it hands out against
    the set of its partition's blocks as graph indices, and checking that keys and
    canonical forms tell the same partitions apart."""

    def __init__(self, model, p):
        super().__init__(model, p)
        self.checked = 0
        self.forms = {}
        self.keys_of = {}

    def cycle_key(self):
        key = super().cycle_key()
        p = self.partition()
        assert key == {index_block(self.model.g, b) for b in p.blocks}
        form = canonical_form(p)
        assert self.forms.setdefault(key, form) == form
        assert self.keys_of.setdefault(form, key) == key
        self.checked += 1
        return key


class RestlessState(CheckedState):
    """Every deviation the dynamics state yields gains 1, so a node can
    hop between blocks it links to and a run can stop CycleDetected."""

    def deviations(self, node):
        for k, _ in super().deviations(node):
            yield k, 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_the_cycle_key_is_the_canonical_form_after_every_move(data):
    # Labels with commas, bars or backslashes make canonical_form escape
    # every label, and must not make two partitions share a key;
    # run_schedule asks for a key at the start and after every accepted
    # move. The restless state runs into cycles.
    alphabet = data.draw(st.sampled_from([None, "ab,", "a|\\", "ab,|\\"]))
    g = data.draw(graphs(max_nodes=7, alphabet=alphabet))
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    schedule = Schedule(
        policy=data.draw(st.sampled_from([ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST])),
        seed=data.draw(st.integers(0, 3)),
        max_steps=data.draw(st.one_of(st.none(), st.integers(1, 6))),
    )
    for cls in (CheckedState, RestlessState):
        state = cls(MyersonModel.bind(g, r), p)
        got = run_schedule(state, schedule)
        assert state.checked == 1 + len(got[1].steps)
        if cls is CheckedState:
            assert got == myerson_better_response(g, r, p, schedule)
        # settle alone stops where run_schedule does, on the same partition.
        state = cls(MyersonModel.bind(g, r), p)
        assert settle(state, schedule) == got[1].status
        assert state.partition() == got[0]


def without_trailing_zeros(counts):
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


@SETTINGS
@given(st.data())
def test_bucketed_containment_matches_the_all_pairs_reference(data):
    # For every member (its own row, scanned at exact lengths and by
    # _detours) and every other node (its join), on a searched table or
    # one grown from a smaller block.
    g = data.draw(graphs())
    block = data.draw(st.lists(st.sampled_from(g.labels), min_size=1, unique=True))
    grown = data.draw(st.integers(0, len(block) - 1))
    table = _block_table(g, index_block(g, block[: len(block) - grown]))
    for node in block[len(block) - grown :]:
        table.grow(g.index_of(node))
    for node in g.labels:
        i = g.index_of(node)
        if i in table.pos:
            a = table.pos[i]
            si, level = table.sigma[a], table.rows[a]
            scans = [_through, _detours]
        else:
            si, level = table.join(i)[1:3]
            scans = [_detours]
        want = reference_containment(all_distances(table), distances(level, len(table.rows)), si)
        for scan in scans:
            got = _containment(si, level, scan(table.rows, level))
            assert without_trailing_zeros(got) == without_trailing_zeros(want)


def test_a_join_counts_what_the_row_walk_counts():
    # On a table searched, grown or shrunk in place, every outside node's
    # join (one search over the block's links) must
    # give the counts and buckets of the row walk over its linked members'
    # rows, and leave the table as it was. seen records that the runs
    # cover each kind of table, entrants with no link into the block, and
    # entrants that join two of its components.
    seen = set()

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(graphs())
        assume(g.n >= 2)
        block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1, max_size=g.n - 1)))
        table = _block_table(g, index_block(g, block))
        kind = "searched"
        for step in data.draw(st.lists(st.sampled_from(["grow", "shrink"]), max_size=3)):
            outside = sorted(set(g.labels) - block)
            if step == "shrink" and len(block) > 1:
                node = data.draw(st.sampled_from(sorted(block)))
                table.shrink(g.index_of(node))
                block -= {node}
            elif step == "grow" and len(outside) > 1:
                node = data.draw(st.sampled_from(outside))
                table.grow(g.index_of(node))
                block |= {node}
            else:
                continue
            kind = step
        seen.add(kind)
        q = len(table.rows)
        for node in sorted(set(g.labels) - block):
            i = g.index_of(node)
            want_si, want_level = reference_entry(table, g.adjacency[i])
            stash = table.join(i)
            assert stash[0] == i
            assert stash[1] == want_si + [1] and stash[2] == want_level
            assert stash[4] == {table.pos[u]: mult for u, mult in g.adjacency[i].items() if u in table.pos}
            linked = [table.pos[u] for u in g.adjacency[i] if u in table.pos]
            if not linked:
                seen.add("no link")
            elif any(b in table.rows[a][0] for a in linked for b in linked):
                seen.add("two components")
        assert_same_table(g, table, block)

    check()
    assert seen == {"searched", "grow", "shrink", "no link", "two components"}


def test_a_node_is_on_no_geodesic_exactly_when_its_linked_members_are_all_linked():
    # On tables searched, then grown and shrunk in turn: _through for a
    # member, and _detours for an outsider (its buckets from the row
    # walk), find a pair exactly when two of the members the node links
    # to are not linked to each other, and the outsider's join holds
    # those pairs. A join with one link must hold the stash the search
    # over the block's links builds: its counts, its buckets, none of
    # them a trailing empty one, and no pair. seen records that the runs
    # cover disconnected blocks, outsiders with no link, one link and
    # links apart, members with links apart and with two or more links
    # all linked, and one-link joins at a row with a trailing empty bucket.
    seen = set()

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(graphs(max_nodes=9))
        block = frozenset(data.draw(st.sets(st.sampled_from(g.labels), min_size=1)))
        table = _block_table(g, index_block(g, block))
        for node in data.draw(st.lists(st.sampled_from(g.labels), max_size=4)):
            if node not in block:
                table.grow(g.index_of(node))
                block |= {node}
            elif len(block) > 1:
                table.shrink(g.index_of(node))
                block -= {node}
        rows, adj, pos = table.rows, g.adjacency, table.pos
        if any(row[0] for row in rows):
            seen.add("disconnected")
        for i in range(g.n):
            linked = [u for u in adj[i] if u in pos]
            apart = any(v not in adj[u] for u, v in combinations(linked, 2))
            if i in pos:
                seen.add("member apart" if apart else "member clique" if len(linked) > 1 else "member")
                assert any(_through(rows, rows[pos[i]])) == apart
                continue
            seen.add("apart" if apart else f"{min(len(linked), 2)} links")
            pairs = list(_detours(rows, reference_entry(table, adj[i])[1]))
            assert bool(pairs) == apart
            stash = table.join(i)
            assert sorted_pairs(stash[3]) == sorted_pairs(pairs)
            if len(linked) == 1:
                (u,) = stash[4]
                if not rows[u][-1]:
                    seen.add("trailing")
                d, si, _ = _bfs(table.adj + [stash[4]], len(pos))
                assert stash[1:4] == (si, _buckets(d), [])
                assert stash[2][-1]

    check()
    assert seen == {
        "disconnected", "0 links", "1 links", "apart", "2 links",
        "member", "member apart", "member clique", "trailing",
    }


def sorted_pairs(pairs):
    return sorted((s, a, d, b, sorted(near)) for s, a, d, b, near in pairs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_tables_after_a_run_are_the_live_blocks_and_fresh(data):
    # A run retires the tables of the blocks a move leaves behind and grows
    # the target's in place, dropping the payoffs cached on it; every gain
    # from the final partition then matches the reference.
    g = data.draw(graphs(max_nodes=7))
    p = data.draw(partitions(g))
    r = data.draw(DISCOUNTS)
    schedule = Schedule(
        policy=data.draw(st.sampled_from([ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST])),
        max_steps=data.draw(st.integers(1, 4)),
    )
    model = MyersonModel.bind(g, r)
    final, _ = model.better_response(p, schedule)
    assert set(model.tables) <= {index_block(g, b) for b in final.blocks}
    for node in sorted(final.nodes):
        for mv in enumerate_deviations(final, node):
            assert model.gain(final, mv) == ref_gain(g, final, mv, r)


class TestTableCache:
    """The model searches each block's table once, a join needs none, and
    the verifiers read the tables a run or a join already left. Every
    miss is one search."""

    @pytest.fixture
    def searched(self, monkeypatch):
        log: list[frozenset] = []
        search = myerson._block_table
        monkeypatch.setattr(myerson, "_block_table", lambda g, block: log.append(block) or search(g, block))
        return log

    @pytest.fixture(params=["example1", "planted30"])
    def graph_and_start(self, request):
        if request.param == "example1":
            return load_dataset("example1"), Partition([{"A", "B", "C"}, {"D", "E", "F"}])
        g = parse_edge_list(PLANTED.read_text())
        labels = sorted(g.labels)
        return g, Partition(labels[k::4] for k in range(4))

    def test_one_round_robin_pass_builds_each_block_once(self, searched, graph_and_start):
        g, p = graph_and_start
        model = MyersonModel.bind(g, Fraction(1, 2))
        evaluated = 0
        for node in sorted(p.nodes):
            for mv in enumerate_deviations(p, node):
                model.gain(p, mv)
                evaluated += 1
        assert sorted(map(sorted, searched)) == sorted(sorted(index_block(g, b)) for b in p.blocks)
        assert model.misses == len(p.blocks)
        assert model.hits > evaluated  # source and target lookups after the first

    def test_a_join_builds_no_table_for_the_joined_block(self, searched, graph_and_start):
        g, p = graph_and_start
        model = MyersonModel.bind(g, Fraction(1, 2))
        node = min(p.blocks[0])
        model.gain(p, Move(node, 0, 1))
        assert searched == [index_block(g, p.blocks[0]), index_block(g, p.blocks[1])]
        assert index_block(g, p.blocks[1] | {node}) not in model.tables

    def test_a_run_builds_no_block_twice(self, searched, graph_and_start):
        # Tables follow the live blocks: after a run every cached table is
        # a block of the final partition. The block an accepted join
        # creates is grown from the target's table in place, so it is
        # never searched.
        g, p = graph_and_start
        model = MyersonModel.bind(g, Fraction(7, 8))
        final, trace = model.better_response(p)
        assert len(searched) == len(set(searched)) == model.misses
        assert model.hits > 0
        assert set(model.tables) <= {index_block(g, b) for b in final.blocks}
        grown = set()
        q = p
        for step in trace.steps:
            if not step.move.is_fresh:
                grown.add(index_block(g, q.blocks[step.move.target] | {step.move.node}))
            q = apply_move(q, step.move)
        assert grown and not grown & set(searched)

    def test_a_run_searches_no_remainder(self, searched):
        # Each accepted move shrinks its source's table in place, so the
        # run searches its start blocks and any singleton it opens, no
        # block a node has left, and ends with a table for every block.
        g = parse_edge_list(PLANTED.read_text())
        labels = sorted(g.labels)
        p = Partition(labels[k::4] for k in range(4))
        model = MyersonModel.bind(g, Fraction(1, 2))
        final, trace = model.better_response(p)
        opened = {frozenset((step.move.node,)) for step in trace.steps if step.move.is_fresh}
        left, q = 0, p
        for step in trace.steps:
            left += len(q.blocks[step.move.source]) > 1
            q = apply_move(q, step.move)
        assert left > 20
        assert sorted(map(sorted, searched)) == sorted(sorted(index_block(g, b)) for b in set(p.blocks) | opened)
        assert set(model.tables) == {index_block(g, b) for b in final.blocks}

    @pytest.mark.parametrize(
        "graph, start, r, most",
        [
            ("karate", None, Fraction(1, 2), 60),
            ("karate", None, Fraction(7, 8), 53),
            ("planted30", None, Fraction(1, 2), 47),
            ("planted30", "planted30_split.json", Fraction(1, 2), 56),
            ("planted30", None, Fraction(7, 8), 47),
            ("planted30", "planted30_split.json", Fraction(7, 8), 46),
        ],
    )
    def test_an_accepted_join_reuses_the_entry_its_payoff_computed(self, monkeypatch, graph, start, r, most):
        # The mover's payoff in the target is the last join valued on the
        # target's table, so grow reads its stash and computes no join.
        # most is the number of joins a run computes (with one per grow
        # too, 107, 100, 88, 88, 88 and 78).
        g = load_dataset("karate") if graph == "karate" else parse_edge_list(PLANTED.read_text())
        p = Partition.singletons(g.labels)
        if start is not None:
            p = partition_from_json((DATA / start).read_text(), universe=g.labels)
        joins, grown = [], []
        join, grow = _BlockTable.join, _BlockTable.grow

        def watched_join(t, i):
            # A join is computed when it leaves a new stash.
            held = t.stash
            stash = join(t, i)
            if stash is not held:
                joins.append(i)
            return stash

        def watched_grow(t, i):
            before = len(joins)
            grow(t, i)
            grown.append(len(joins) - before)

        monkeypatch.setattr(_BlockTable, "join", watched_join)
        monkeypatch.setattr(_BlockTable, "grow", watched_grow)
        _, trace = MyersonModel.bind(g, r).better_response(p, Schedule(policy=ROUND_ROBIN))
        assert len(grown) == sum(not step.move.is_fresh for step in trace.steps) > 0
        assert set(grown) == {0}
        assert len(joins) <= most

    def test_nash_check_after_a_stable_run_builds_no_table(self, graph_and_start):
        # The run's last pass valued every deviation from the final
        # partition, so the check only reads cached tables.
        g, p = graph_and_start
        model = MyersonModel.bind(g, Fraction(1, 2))
        final, trace = model.better_response(p)
        assert trace.status == STABLE
        misses = model.misses
        assert model.nash_stable(final) == (True, None)
        assert model.misses == misses

    def test_the_checks_after_a_stable_run_count_no_vector(self, monkeypatch):
        # Round-robin from singletons ends Stable on the benchmark's
        # Myerson graphs and on karate. Its last pass valued every node in
        # every block it links to, and the final tables remember those
        # vectors, so neither check counts a geodesic again. At r = 1/4
        # every run ends with one block per component, so the checks read
        # no table; at r = 1/8 they read 538.
        calls = []
        containment = multigraph._containment
        monkeypatch.setattr(multigraph, "_containment", lambda *args: calls.append(args) or containment(*args))
        graphs = [Multigraph(edges) for edges in benchmark_suite("myerson-planted")] + [load_dataset("karate")]
        read = 0
        for r in [Fraction(1, 8), Fraction(1, 4)]:
            for g in graphs:
                model = MyersonModel.bind(g, r)
                final, trace = model.better_response(Partition.singletons(g.labels), Schedule(policy=ROUND_ROBIN))
                assert trace.status == STABLE and calls
                counted, hits, misses = len(calls), model.hits, model.misses
                assert model.nash_stable(final) == (True, None)
                assert model.external_stability(final) == (True, None)
                assert len(calls) == counted and model.misses == misses
                read += model.hits - hits
        assert read == 538

    def test_a_grand_coalition_values_no_payoff(self, searched, monkeypatch):
        # In a connected graph no node links outside the grand coalition,
        # so neither verifier has a join to value, nor a member payoff to
        # compare it with.
        calls = []
        containment = multigraph._containment
        monkeypatch.setattr(multigraph, "_containment", lambda *args: calls.append(args) or containment(*args))
        g = load_dataset("karate")
        model = MyersonModel.bind(g, Fraction(1, 2))
        grand = Partition.grand(g.labels)
        assert model.nash_stable(grand) == (True, None)
        assert model.external_stability(grand) == (True, None)
        assert calls == [] and searched == []

    def test_external_check_derives_each_entered_block(self, searched, monkeypatch):
        # Two beneficial entries are blocked by an incumbent before an
        # unblocked one is found. Each is valued on the entered block's
        # cached table, grown by the entrant and shrunk back: the check
        # searches the partition's blocks only, each once, and leaves
        # every table equal to a fresh search.
        g = parse_edge_list(PLANTED.read_text())
        p = partition_from_json((DATA / "planted30_blocked.json").read_text(), universe=g.labels)
        r = Fraction(1, 2)
        entry = ref_unblocked_entry(g, p, r)
        entries = []
        for node, k in ref_beneficial_entries(g, p, r):
            entries.append((g.index_of(node), index_block(g, p.blocks[k])))
            if (node, k) == entry:
                break
        assert entry is not None and len(entries) == 3
        steps = []
        grow, shrink = _BlockTable.grow, _BlockTable.shrink
        monkeypatch.setattr(_BlockTable, "grow", lambda t, i: steps.append(("grow", t, i)) or grow(t, i))
        monkeypatch.setattr(_BlockTable, "shrink", lambda t, i: steps.append(("shrink", t, i)) or shrink(t, i))
        model = MyersonModel.bind(g, r)
        assert model.external_stability(p) == (False, entry)
        blocks = {index_block(g, b) for b in p.blocks}
        assert set(model.tables) == blocks
        assert set(searched) == blocks and len(searched) == len(blocks)
        assert steps == [
            (kind, model.tables[block], i) for i, block in entries for kind in ("grow", "shrink")
        ]
        for block, table in model.tables.items():
            assert_same_table(g, table, [g.labels[i] for i in block])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_only_lookups_and_accepted_moves_write_the_cache(self, data):
        # The external check shrinks every table it grows, so after any
        # sequence of calls on one model every cached table is of a block
        # of a partition passed in or of a run's final partition.
        if data.draw(st.booleans()):
            g = data.draw(graphs(max_nodes=7))
            given_partitions = partitions(g)
        else:
            g = parse_edge_list(PLANTED.read_text())
            given_partitions = st.sampled_from(["planted30_blocked.json", "planted30_split.json"]).map(
                lambda name: partition_from_json((DATA / name).read_text(), universe=g.labels)
            )
        r = data.draw(DISCOUNTS)
        model = MyersonModel.bind(g, r)
        calls = st.sampled_from(["better_response", "nash_stable", "external_stability"])
        allowed = set()
        for call in data.draw(st.lists(calls, min_size=1, max_size=4)):
            p = data.draw(given_partitions)
            allowed |= {index_block(g, b) for b in p.blocks}
            checked = [p]
            if call == "better_response":
                steps = data.draw(st.one_of(st.none(), st.integers(1, 6)))
                final, _ = model.better_response(p, Schedule(max_steps=steps))
                allowed |= {index_block(g, b) for b in final.blocks}
                checked.append(final)
            else:
                getattr(model, call)(p)
            assert set(model.tables) <= allowed
            # A grow and shrink in place leave no stale vector, stash or
            # bucket: the tables equal fresh searches, and the verifiers
            # answer as a freshly bound model does.
            for block, table in model.tables.items():
                assert_same_table(g, table, [g.labels[i] for i in block])
            for q in checked:
                fresh = MyersonModel.bind(g, r)
                assert model.nash_stable(q) == fresh.nash_stable(q)
                assert model.external_stability(q) == fresh.external_stability(q)
            assert set(model.tables) <= allowed
