"""Walkthrough: Myerson-value partitioning on the six-node multigraph.

Two triangles (A,B,C) and (D,E,F) joined by the link A-D, with doubled
links B-C and E-F. Every quantity below is an exact rational or an exact
polynomial in the path discount r.

Run:  python demos/myerson_six_nodes.py
"""

from fractions import Fraction

from coopgraph import (
    Move,
    Partition,
    STABLE,
    coalition_path_counts,
    characteristic_value,
    load_dataset,
    myerson_allocation,
    myerson_better_response,
    myerson_gain,
    myerson_shapley_oracle,
    serialize_edge_list,
)

g = load_dataset("example1")
print("edge list:")
print(serialize_edge_list(g))
print(f"n = {g.n}, m = {g.m} (multiplicities included), degrees all {g.degree('A')}")

# Coalition worth: each shortest path of length k inside the coalition is
# worth r^k, parallel edges multiplying the count.
for coalition in ("ABCDEF", "ABCD", "ABC", "A"):
    profile = coalition_path_counts(g, coalition)
    print(f"v({{{','.join(coalition)}}}) = {characteristic_value(profile)}"
          f"   (path counts {profile.counts})")

# The allocation splits each length-k path equally among its k+1 nodes.
print("\ngrand-coalition payoffs:")
for node, poly in sorted(myerson_allocation(g, g.labels).items()):
    print(f"  Y_{node} = {poly}")

# An exponential Shapley-style oracle reproduces the closed form.
print("\noracle check for A:", myerson_shapley_oracle(g, "A"))

# Should A defect from its triangle to the other one? Payoffs in the
# enlarged coalition {A,D,E,F}:
print("\npayoffs if A joins {D,E,F}:")
for node, poly in sorted(myerson_allocation(g, "ADEF").items()):
    print(f"  Y_{node} = {poly}")

split = Partition([{"A", "B", "C"}, {"D", "E", "F"}])
mv = Move("A", 0, 1)
print("\ndefection gain for A at several discounts:")
for r in (Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)):
    print(f"  r = {r}: gain = {myerson_gain(g, split, mv, r)}")
print("the move pays exactly when r > 3/4")

# Better-response dynamics from the two-triangle split.
for r in (Fraction(1, 2), Fraction(7, 8)):
    final, trace = myerson_better_response(g, r, split)
    blocks = sorted(sorted(b) for b in final.blocks)
    assert trace.status == STABLE
    print(f"\ndynamics at r = {r}: {len(trace.steps)} moves -> {blocks}")
    for step in trace.steps:
        print(f"  {step.move.node} moved (gain {step.gain})")
