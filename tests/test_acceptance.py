"""End-to-end acceptance checks against the published worked examples.

Each test prints one "acceptance NN PASS/FAIL" line (visible with
pytest -s) and enforces its time budget. Exact-rational results carry
zero tolerance: equality is equality of Fractions or polynomials.

Two checks state an axiom in the form the method promises it, and their
comments say why an earlier statement of each was wrong:

* 04b: Myerson fairness holds with the game fixed. Deleting a link
  moves both endpoints' payoffs equally when the worth stays the
  geodesic game of the original graph; rebuilding the worth from the
  reduced graph's own geodesics changes the game, and fairness makes no
  promise then.
* 06b: below the grand-coalition potential crossover the 17/17 karate
  split loses the global maximum, yet stays Nash-stable; the crossover
  bounds the potential maximiser, not single-player deviations.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from coopgraph import (
    AlphaModel,
    CharPoly,
    Modularity,
    Move,
    Partition,
    STABLE,
    alpha_sweep,
    apply_move,
    better_response,
    bruteforce_max_partition,
    canonical_form,
    characteristic_value,
    coalition_path_counts,
    component_characteristic,
    connected_components,
    enumerate_deviations,
    induced_subgraph,
    load_dataset,
    move_gain,
    myerson_allocation,
    myerson_better_response,
    myerson_gain,
    myerson_shapley_oracle,
    nash_stable,
    partition_threshold,
    potential,
    potential_form,
)
from coopgraph.datasets import (
    example2_clique_partition,
    karate_split_15_19,
    karate_split_16_18,
    karate_split_17_17,
)

from conftest import random_multigraph, random_partition, restricted_myerson_oracle


def _report(num: str, label: str, failures: list, elapsed: float, budget: float):
    if elapsed > budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget}s")
    status = "FAIL" if failures else "PASS"
    print(f"acceptance {num} {status}: {label} ({elapsed:.2f}s)")
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures)


def _check(failures: list, ok: bool, message: str):
    if not ok:
        failures.append(message)


def poly(*coeffs):
    return CharPoly([Fraction(c) for c in coeffs])


def test_01_six_node_myerson_pipeline():
    began = time.monotonic()
    failures = []
    g = load_dataset("example1")
    v_grand = characteristic_value(coalition_path_counts(g, g.labels))
    _check(failures, v_grand == poly(9, 4, 4), f"grand worth {v_grand}")
    v4 = component_characteristic(g, "ABCD")
    _check(failures, v4 == poly(5, 2), f"ABCD worth {v4}")
    _check(
        failures,
        myerson_allocation(g, "ABC")["A"] == poly(1),
        "A's payoff in the triangle",
    )
    alloc = myerson_allocation(g, "ADEF")
    _check(failures, alloc["A"] == poly(Fraction(1, 2), Fraction(2, 3)), f"Y_A {alloc['A']}")
    _check(failures, alloc["D"] == poly(Fraction(3, 2), Fraction(2, 3)), f"Y_D {alloc['D']}")
    _check(failures, alloc["E"] == poly(Fraction(3, 2), Fraction(1, 3)), f"Y_E {alloc['E']}")
    _check(failures, alloc["F"] == poly(Fraction(3, 2), Fraction(1, 3)), f"Y_F {alloc['F']}")
    _report("01", "six-node Myerson pipeline", failures, time.monotonic() - began, 1.0)


def test_02_myerson_defection_threshold():
    began = time.monotonic()
    failures = []
    g = load_dataset("example1")
    split = Partition([{"A", "B", "C"}, {"D", "E", "F"}])
    mv = Move("A", 0, 1)
    for r in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(74, 100)):
        _check(failures, myerson_gain(g, split, mv, r) < 0, f"gain not negative at r={r}")
    _check(failures, myerson_gain(g, split, mv, Fraction(3, 4)) == 0, "gain nonzero at r=3/4")
    for r in (Fraction(76, 100), Fraction(7, 8), Fraction(1)):
        _check(failures, myerson_gain(g, split, mv, r) > 0, f"gain not positive at r={r}")

    final, trace = myerson_better_response(g, Fraction(1, 2), split)
    _check(failures, trace.status == STABLE and final == split, "split moved at r=1/2")
    final, trace = myerson_better_response(g, Fraction(7, 8), split)
    _check(
        failures,
        trace.status == STABLE and final == Partition.grand(g.labels),
        f"r=7/8 ended at {final}",
    )
    _report("02", "Myerson defection threshold", failures, time.monotonic() - began, 1.0)


def test_03_shapley_oracle_equivalence():
    began = time.monotonic()
    failures = []
    g = load_dataset("example1")
    checked = 0
    for size in range(1, g.n + 1):
        for subset in combinations(g.labels, size):
            if len(connected_components(induced_subgraph(g, subset))) != 1:
                continue
            sub = induced_subgraph(g, subset)
            alloc = myerson_allocation(g, subset)
            for u in subset:
                if myerson_shapley_oracle(sub, u) != alloc[u]:
                    failures.append(f"mismatch at {subset}/{u}")
                checked += 1
    rng = random.Random(20250301)
    for _ in range(20):
        h = random_multigraph(rng, rng.randint(2, 8), connected=True)
        alloc = myerson_allocation(h, h.labels)
        for u in h.labels:
            if myerson_shapley_oracle(h, u) != alloc[u]:
                failures.append(f"mismatch on random graph at {u}")
            checked += 1
    _check(failures, checked > 150, f"only {checked} node cases checked")
    _report("03", "Shapley-form oracle equals geodesic closed form", failures,
            time.monotonic() - began, 30.0)


def test_04_efficiency_axiom():
    began = time.monotonic()
    failures = []
    rng = random.Random(20250302)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 7))
        alloc = myerson_allocation(g, g.labels)
        for comp in connected_components(g):
            total = CharPoly.zero()
            for u in comp:
                total = total + alloc[u]
            if total != component_characteristic(g, comp):
                failures.append(f"efficiency broke on component {sorted(comp)}")
    _report("04", "component efficiency of the allocation", failures,
            time.monotonic() - began, 60.0)


def test_04b_balanced_contributions_axiom():
    # Myerson's fairness axiom (Myerson 1977): deleting link u-v from the
    # communication graph changes u's and v's payoffs by the same amount
    # while the game stays fixed. The game is the one the allocation
    # solves (see myerson_shapley_oracle): w(S) collects the weighted
    # geodesics of g whose nodes all lie in S. Y(w, g) is the library's
    # myerson_allocation; Y(w, h) on g minus the link comes from the
    # exhaustive restricted_myerson_oracle, which shares no counting code
    # with the library. Fairness and component efficiency (test_04)
    # together pin the Myerson value, so an allocation that drifts from it
    # by anything but a per-component constant breaks this check.
    #
    # Comparing myerson_shapley_oracle(g, .) with myerson_shapley_oracle(h, .)
    # instead rebuilds the worth from h's own geodesics, so the game changes
    # with the graph and fairness promises nothing: when a deleted simple
    # link reroutes a pair, h's longer geodesics can contain u but not v,
    # and on this seed 8 links (v2-v4 and v0-v1 among them) part ways.
    began = time.monotonic()
    failures = []
    rng = random.Random(20250302)
    checked = changed = 0
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 7))
        on_g = myerson_allocation(g, g.labels)
        for u, v, _mult in list(g.pairs()):
            reduced = [
                (a, b, m - 1 if {a, b} == {u, v} else m)
                for a, b, m in g.pairs()
                if not ({a, b} == {u, v} and m == 1)
            ]
            on_h = restricted_myerson_oracle(g, type(g)(reduced, nodes=g.labels))
            du = on_g[u] - on_h[u]
            dv = on_g[v] - on_h[v]
            if du != dv:
                failures.append(f"balanced contributions broke on {u}-{v}: {du} != {dv}")
            checked += 1
            changed += bool(du)
    _check(failures, checked >= 70 and changed >= 20,
           f"only {checked} links checked, {changed} changing payoffs")
    _report("04b", "balanced contributions on arbitrary graphs", failures,
            time.monotonic() - began, 60.0)


def test_05_bridged_cliques_sweep_table():
    began = time.monotonic()
    failures = []
    g = load_dataset("example2")
    cliques = example2_clique_partition()
    g1, g2, g3, g4 = [set(b) for b in cliques.blocks]
    candidates = [
        Partition.grand(g.labels),
        Partition([g1, g2 | g3 | g4]),
        Partition([g1, g2 | g3, g4]),
        cliques,
        Partition([g1 | g2, g3 | g4]),
        Partition([g1 | g2 | g3, g4]),
        Partition([g1, g2, g3 | g4]),
        Partition([g1 | g2, g3, g4]),
    ]
    table = alpha_sweep(g, candidates)
    expected = [
        (Fraction(0), Fraction(1, 144), Fraction(78), Fraction(-325)),
        (Fraction(1, 144), Fraction(1, 77), Fraction(77), Fraction(-181)),
        (Fraction(1, 77), Fraction(1, 15), Fraction(76), Fraction(-104)),
        (Fraction(1, 15), Fraction(1), Fraction(74), Fraction(-74)),
    ]
    got = [(r.alpha_lo, r.alpha_hi, r.intercept, r.slope) for r in table.rows]
    _check(failures, got == expected, f"table rows {got}")
    _check(
        failures,
        [len(r.partition) for r in table.rows] == [1, 2, 3, 4],
        "winning partitions not the expected coarsenings",
    )
    _report("05", "bridged-cliques sweep table", failures, time.monotonic() - began, 1.0)


def test_06_karate_thresholds_and_dynamics():
    began = time.monotonic()
    failures = []
    g = load_dataset("karate")
    grand = Partition.grand(g.labels)
    _check(failures, potential_form(g, grand) == (78, -561), "grand form")
    _check(failures, potential_form(g, karate_split_15_19()) == (68, -276), "15/19 form")
    _check(failures, potential_form(g, karate_split_16_18()) == (68, -273), "16/18 form")
    _check(failures, potential_form(g, karate_split_17_17()) == (68, -272), "17/17 form")
    for split, cutoff in (
        (karate_split_15_19(), Fraction(2, 57)),
        (karate_split_16_18(), Fraction(5, 144)),
        (karate_split_17_17(), Fraction(10, 289)),
    ):
        got = partition_threshold(g, grand, split)
        _check(failures, got == cutoff, f"cutoff {got} != {cutoff}")
    for a in (Fraction(10, 289), Fraction(1, 20), Fraction(1, 16)):
        stable, witness = nash_stable(AlphaModel(a), g, karate_split_17_17())
        _check(failures, stable, f"17/17 split unstable at alpha={a} ({witness})")
    final, trace = better_response(AlphaModel(Fraction(1, 20)), g, karate_split_15_19())
    _check(failures, trace.status == STABLE, "dynamics did not stop Stable")
    _check(
        failures,
        canonical_form(final) == canonical_form(karate_split_17_17()),
        "dynamics did not land on the 17/17 split",
    )
    _check(
        failures,
        [s.move.node for s in trace.steps] == ["3", "10"],
        f"move order {[s.move.node for s in trace.steps]}",
    )
    _report("06", "karate thresholds and dynamics", failures, time.monotonic() - began, 2.0)


def test_06b_karate_split_instability_below_global_cutoff():
    # Below the potential crossover with the grand coalition (10/289, the
    # 17/17 split's own cutoff) the split loses globally but not to any
    # single deviation. partition_threshold is where two potential lines
    # cross, so it bounds which partition maximises the potential, which
    # alpha_sweep reports; it is not a deviation bound. With equal blocks
    # every cross move gains (k2 - k1) - alpha <= -alpha and every fresh
    # move gains 16 alpha - k1 < 0 for alpha < 1/16, so the split stays
    # Nash-stable down to alpha = 0. Asserting instability there, as this
    # check once did (at half the 15/19 cutoff 2/57), states a bound the
    # threshold never gave.
    began = time.monotonic()
    failures = []
    g = load_dataset("karate")
    grand = Partition.grand(g.labels)
    split = karate_split_17_17()
    cutoff = partition_threshold(g, grand, split)
    _check(failures, cutoff == Fraction(10, 289), f"cutoff {cutoff}")
    for alpha in (Fraction(0), Fraction(1, 57), cutoff / 2):
        vf = AlphaModel(alpha)
        above = potential(vf, g, grand).value
        below = potential(vf, g, split).value
        _check(failures, above > below,
               f"grand {above} does not beat the split {below} at alpha={alpha}")
        stable, witness = nash_stable(vf, g, split)
        _check(failures, stable, f"17/17 split unstable at alpha={alpha} ({witness})")
    at = Fraction(1, 57)
    _check(failures, potential(AlphaModel(at), g, grand).value == Fraction(1295, 19),
           "grand potential at alpha=1/57")
    _check(failures, potential(AlphaModel(at), g, split).value == Fraction(3604, 57),
           "17/17 potential at alpha=1/57")
    table = alpha_sweep(g, [grand, split])
    rows = [(r.alpha_lo, r.alpha_hi, r.partition) for r in table.rows]
    _check(failures, rows == [(0, cutoff, grand), (cutoff, 1, split)], f"sweep rows {rows}")
    _report("06b", "karate split instability below the potential cutoff",
            failures, time.monotonic() - began, 2.0)


def test_07_modularity_family():
    began = time.monotonic()
    failures = []
    g = load_dataset("example1")
    vf = Modularity()
    split = Partition([{"A", "B", "C"}, {"D", "E", "F"}])
    cases = [
        (Partition.grand(g.labels), Fraction(3, 2)),
        (Partition([{"B", "C"}, {"A", "D"}, {"E", "F"}]), Fraction(7, 2)),
        (Partition([{"A", "B", "C", "D"}, {"E", "F"}]), Fraction(7, 2)),
        (split, Fraction(5)),
    ]
    for p, expected in cases:
        got = potential(vf, g, p).value
        _check(failures, got == expected, f"potential {got} != {expected}")
    best, best_pot = bruteforce_max_partition(vf, g)
    _check(failures, best == split, f"bruteforce found {best}")
    _check(failures, best_pot.value == 5, f"bruteforce value {best_pot.value}")
    _check(failures, nash_stable(vf, g, best)[0], "bruteforce winner not Nash-stable")

    karate = load_dataset("karate")
    final, trace = better_response(vf, karate, karate_split_15_19())
    _check(failures, trace.status == STABLE, "karate modularity run did not stop Stable")
    _check(failures, nash_stable(vf, karate, final)[0], "karate modularity result unstable")
    _check(
        failures,
        nash_stable(vf, karate, karate_split_17_17())[0],
        "17/17 split not modularity-stable",
    )
    _report("07", "modularity potentials, brute force, karate stability", failures,
            time.monotonic() - began, 1.0)


def test_08_potential_game_identities():
    began = time.monotonic()
    failures = []
    rng = random.Random(20250303)
    cases = 0
    graphs = []
    for _ in range(100):
        g = random_multigraph(rng, rng.randint(2, 8), connected=True)
        graphs.append(g)
    while cases < 10_000:
        g = graphs[cases % len(graphs)]
        p = random_partition(rng, g.labels)
        node = rng.choice(sorted(p.nodes))
        moves = enumerate_deviations(p, node)
        if not moves:
            continue
        mv = rng.choice(moves)
        kind = cases % 3
        if kind == 0:
            vf = AlphaModel(Fraction(rng.randint(0, 12), 12))
        elif kind == 1:
            vf = Modularity(gamma=Fraction(rng.randint(0, 6), 4))
        else:
            vf = Modularity(beta=None)
        diff = potential(vf, g, apply_move(p, mv)).value - potential(vf, g, p).value
        if move_gain(vf, g, p, mv) != diff:
            failures.append(f"gain/potential mismatch (case {cases})")
            break
        cases += 1
    _check(failures, cases >= 10_000, f"only {cases} cases ran")

    for _ in range(30):
        g = graphs[rng.randrange(len(graphs))]
        vf = AlphaModel(Fraction(rng.randint(0, 10), 10))
        start = random_partition(rng, g.labels)
        final, trace = better_response(vf, g, start)
        if trace.status != STABLE:
            failures.append(f"better response stopped {trace.status}")
        # Replayed, every step raises the potential by exactly its gain.
        p, before = start, potential(vf, g, start).value
        for step in trace.steps:
            p = apply_move(p, step.move)
            after = potential(vf, g, p).value
            if step.gain <= 0 or after - before != step.gain:
                failures.append(f"trace gain {step.gain} is not the positive potential rise {after - before}")
                break
            before = after
        if not nash_stable(vf, g, final)[0]:
            failures.append("better response output not Nash-stable")
    _report("08", "move gains equal potential differences", failures,
            time.monotonic() - began, 60.0)


def test_09_resolution_limits():
    began = time.monotonic()
    failures = []
    rng = random.Random(20250304)
    graphs = [load_dataset("example1")]
    for n in (4, 6, 8, 10):
        graphs.append(random_multigraph(rng, n, connected=True))
    for g in graphs:
        part, _ = bruteforce_max_partition(AlphaModel(0), g)
        if part != Partition.grand(g.labels):
            failures.append(f"alpha=0 optimum not grand on n={g.n}")
    g2 = load_dataset("example2")
    stable, witness = nash_stable(
        AlphaModel(Fraction(99, 100)), g2, example2_clique_partition()
    )
    _check(failures, stable, f"clique partition unstable near alpha=1 ({witness})")
    _report("09", "resolution limits: grand at 0, cliques near 1", failures,
            time.monotonic() - began, 30.0)


def test_10_six_node_breakpoint():
    began = time.monotonic()
    failures = []
    g = load_dataset("example1")
    split = Partition([{"A", "B", "C"}, {"D", "E", "F"}])
    table = alpha_sweep(g, [Partition.grand(g.labels), split])
    rows = [(r.alpha_lo, r.alpha_hi) for r in table.rows]
    _check(
        failures,
        rows == [(Fraction(0), Fraction(1, 9)), (Fraction(1, 9), Fraction(1))],
        f"rows {rows}",
    )
    _check(failures, table.rows[0].partition == Partition.grand(g.labels), "low side not grand")
    _check(failures, table.rows[1].partition == split, "high side not the split")
    _report("10", "six-node crossover at 1/9", failures, time.monotonic() - began, 1.0)
