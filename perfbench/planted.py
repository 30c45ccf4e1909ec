"""Seeded planted-partition multigraph generator (stdlib only).

Nodes fall into equal-sized groups at random; each pair is linked with
probability p_in inside a group and p_out across groups, with a
multiplicity drawn uniformly from 1..max_mult. The same arguments always
give the same edge list.
"""

from __future__ import annotations

import random


def planted_edges(n: int, groups: int, p_in: float, p_out: float, max_mult: int, seed: int | str):
    """(u, v, w) triples of a planted partition on labels n000..; pairs
    are visited in label order so the output depends on the seed only."""
    if n < 2 or not 1 <= groups <= n:
        raise ValueError(f"need n >= 2 and 1 <= groups <= n, got n={n}, groups={groups}")
    if not (0 <= p_out <= 1 and 0 <= p_in <= 1) or max_mult < 1:
        raise ValueError("probabilities must lie in [0, 1] and max_mult must be positive")
    rng = random.Random(seed)
    group = [i % groups for i in range(n)]
    rng.shuffle(group)
    width = len(str(n - 1))
    labels = [f"n{i:0{width}d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (p_in if group[i] == group[j] else p_out):
                edges.append((labels[i], labels[j], rng.randint(1, max_mult)))
    return edges


def edge_list_text(edges) -> str:
    """Edge-list text in the format coopgraph parses: "u v" or "u v w"."""
    return "".join(f"{u} {v}\n" if w == 1 else f"{u} {v} {w}\n" for u, v, w in edges)

