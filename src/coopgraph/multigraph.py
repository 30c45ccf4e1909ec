"""Undirected multigraphs with integer edge multiplicities.

Nodes are whitespace-free string labels kept in first-mention order.
Parallel edges are stored as multiplicities. Geodesic counting treats a
pair joined by w parallel edges as w distinct length-1 paths, and the
weight of a longer shortest path is the product of the multiplicities of
its links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import EdgeListError


class Multigraph:
    """Immutable node-labeled undirected multigraph.

    Instances never change after construction and are safe to read from
    many threads; every operation in this module is a pure function of
    its inputs.
    """

    __slots__ = ("_labels", "_index", "_adj", "_pair_order", "_degrees", "_m")

    def __init__(self, edges: Iterable = (), nodes: Iterable[str] = ()):
        labels: list[str] = []
        index: dict[str, int] = {}

        def intern(label):
            if not isinstance(label, str) or not label or label.split() != [label]:
                raise ValueError(f"node label must be a whitespace-free string: {label!r}")
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            return index[label]

        for label in nodes:
            intern(label)

        adj: dict[int, dict[int, int]] = {}
        pair_order: list[tuple[int, int]] = []
        for edge in edges:
            if len(edge) == 2:
                (u, v), w = edge, 1
            else:
                u, v, w = edge
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"multiplicity must be a positive integer: {w!r}")
            ui, vi = intern(u), intern(v)
            if ui == vi:
                raise ValueError(f"self-loop not allowed: {u!r}")
            row = adj.setdefault(ui, {})
            if vi not in row:
                pair_order.append((ui, vi))
            row[vi] = row.get(vi, 0) + w
            back = adj.setdefault(vi, {})
            back[ui] = back.get(ui, 0) + w

        self._labels = tuple(labels)
        self._index = index
        self._adj = tuple(dict(sorted(adj.get(i, {}).items())) for i in range(len(labels)))
        self._pair_order = tuple(pair_order)
        self._degrees = tuple(sum(row.values()) for row in self._adj)
        self._m = sum(self._degrees) // 2

    @property
    def labels(self) -> tuple[str, ...]:
        """Node labels in first-mention order."""
        return self._labels

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def m(self) -> int:
        """Total edge count, parallel edges included."""
        return self._m

    @property
    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Index-level adjacency rows: adjacency[i] maps neighbor index to multiplicity."""
        return self._adj

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown node: {label!r}") from None

    def label_of(self, i: int) -> str:
        return self._labels[i]

    def degree(self, label: str) -> int:
        """Sum of multiplicities incident to the node."""
        return self._degrees[self.index_of(label)]

    def multiplicity(self, u: str, v: str) -> int:
        """Number of parallel edges between u and v (0 when not adjacent)."""
        return self._adj[self.index_of(u)].get(self.index_of(v), 0)

    def pairs(self) -> Iterator[tuple[str, str, int]]:
        """Unordered adjacent pairs with multiplicities, in first-mention order."""
        for i, j in self._pair_order:
            yield self._labels[i], self._labels[j], self._adj[i][j]

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


def parse_edge_list(text: bytes | str) -> Multigraph:
    """Parse edge-list text into a multigraph.

    Each non-comment line is "u v" or "u v w" with w a positive integer
    multiplicity; '#' starts a comment; blank lines are skipped. Repeated
    pairs accumulate multiplicity; nodes appear in first-mention order.
    Raises EdgeListError (with the line number) on self-loops,
    non-positive multiplicities or malformed rows.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"expected 'u v' or 'u v w', got {raw.strip()!r}", line=lineno)
        u, v = parts[0], parts[1]
        w = 1
        if len(parts) == 3:
            try:
                w = int(parts[2])
            except ValueError:
                raise EdgeListError(f"multiplicity is not an integer: {parts[2]!r}", line=lineno) from None
            if w <= 0:
                raise EdgeListError(f"multiplicity must be positive: {w}", line=lineno)
        if u == v:
            raise EdgeListError(f"self-loop not allowed: {u!r}", line=lineno)
        edges.append((u, v, w))
    return Multigraph(edges)


def serialize_edge_list(g: Multigraph) -> str:
    """Emit one "u v w" line per unordered pair (w omitted when 1), in
    first-mention pair order. Parsing the output reproduces the graph and
    re-serializing is byte-stable. Isolated nodes are not representable.
    Raises ValueError for a label containing '#', which the format reads
    as the start of a comment."""
    for label in g.labels:
        if "#" in label:
            raise ValueError(f"node label {label!r} contains '#', which starts an edge-list comment")
    lines = [f"{u} {v}" if w == 1 else f"{u} {v} {w}" for u, v, w in g.pairs()]
    return "".join(line + "\n" for line in lines)


def induced_subgraph(g: Multigraph, coalition: Iterable[str]) -> Multigraph:
    """Subgraph on the given nodes, keeping exactly the edges with both
    endpoints inside, multiplicities preserved."""
    keep = {g.index_of(u) for u in coalition}
    nodes = [g.label_of(i) for i in range(g.n) if i in keep]
    edges = [
        (g.label_of(i), g.label_of(j), g.adjacency[i][j])
        for i, j in g._pair_order
        if i in keep and j in keep
    ]
    return Multigraph(edges, nodes=nodes)


def connected_components(g: Multigraph) -> list[frozenset[str]]:
    """Connected components as label sets, ordered by first mention."""
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append(frozenset(g.label_of(i) for i in comp))
    return out


def _bfs(adj, source: int) -> tuple[list[int], list[int], list[int]]:
    # Brandes-style BFS layering over adjacency rows {neighbour:
    # multiplicity}; parallel edges multiply path counts. Returns the
    # visit order, hop distances (-1 when unreachable) and geodesic counts.
    d = [-1] * len(adj)
    s = [0] * len(adj)
    d[source] = 0
    s[source] = 1
    order = [source]
    for v in order:
        dv, sv = d[v] + 1, s[v]
        for w, mult in adj[v].items():
            if d[w] < 0:
                d[w] = dv
                order.append(w)
            if d[w] == dv:
                s[w] += sv * mult
    return order, d, s


def _bfs_counts(g: Multigraph, source: int) -> tuple[list[int], list[int]]:
    # Hop distances and geodesic counts from source over the whole graph.
    _, d, s = _bfs(g.adjacency, source)
    return d, s


def geodesic_profile(g: Multigraph):
    """Hop distances and geodesic counts for all node pairs.

    Returns (dist, sigma) as label-keyed nested dicts. dist[u][v] is None
    across components, never a sentinel integer. sigma[u][v] sums, over
    the shortest u-v node sequences, the product of link multiplicities;
    sigma[u][u] is 1 and 0 across components.
    """
    dist: dict[str, dict[str, Optional[int]]] = {}
    sigma: dict[str, dict[str, int]] = {}
    for i, u in enumerate(g.labels):
        d, s = _bfs_counts(g, i)
        dist[u] = {g.label_of(j): (d[j] if d[j] >= 0 else None) for j in range(g.n)}
        sigma[u] = {g.label_of(j): s[j] for j in range(g.n)}
    return dist, sigma


@dataclass(frozen=True)
class PathProfile:
    """Geodesic counts of a coalition: counts[k-1] is the number of
    shortest paths of length k, summed over unordered node pairs and over
    the connected components of the induced subgraph."""

    counts: tuple[int, ...]

    @property
    def max_distance(self) -> int:
        """Largest finite distance between two coalition members (0 for singletons)."""
        return len(self.counts)


@dataclass(frozen=True)
class NodePathProfile:
    """Per-node geodesic containment counts for a coalition.

    counts[u][k-1] is the number of length-k geodesics of the induced
    subgraph that contain u, as an endpoint or interior node. Every
    length-k geodesic has k+1 nodes, so the counts of all members sum to
    (k+1) times the coalition's k-th path count.
    """

    counts: dict[str, tuple[int, ...]]
    max_distance: int


def _local_adjacency(g: Multigraph, coalition: Iterable[str]) -> tuple[list[int], list[dict[int, int]]]:
    # Coalition members as graph indices in ascending order (the node
    # order of induced_subgraph), and for each member position its
    # neighbours inside the coalition as {position: multiplicity}.
    members = sorted({g.index_of(u) for u in coalition})
    pos = {v: a for a, v in enumerate(members)}
    adj = g.adjacency
    local = [{pos[w]: mult for w, mult in adj[v].items() if w in pos} for v in members]
    return members, local


def coalition_path_counts(g: Multigraph, coalition: Iterable[str]) -> PathProfile:
    """Geodesic path counts inside g restricted to the coalition."""
    members, local = _local_adjacency(g, coalition)
    if not members:
        raise ValueError("coalition must be nonempty")
    counts: list[int] = []
    for i in range(len(members)):
        _, d, s = _bfs(local, i)
        for j in range(i + 1, len(members)):
            if d[j] >= 1:
                while len(counts) < d[j]:
                    counts.append(0)
                counts[d[j] - 1] += s[j]
    return PathProfile(tuple(counts))


def node_path_counts(g: Multigraph, coalition: Iterable[str]) -> NodePathProfile:
    """Per-node geodesic containment counts inside g restricted to the coalition.

    Brandes-style dependency accumulation (Brandes 2001) in exact
    integers, with one count per geodesic length: after a BFS from source
    s, below[x][j] counts the geodesic continuations from x to the nodes
    j hops beyond it, summed back along the BFS order, so sigma(s, x) *
    below[x][j] is the number of geodesics from s of length d(s, x) + j
    that pass through x (or end there, j = 0). Every unordered pair is
    reached once from each end, so the sums over all sources are halved.
    O(q m_C L) for q members, m_C links inside and longest geodesic L.
    """
    members, local = _local_adjacency(g, coalition)
    if not members:
        raise ValueError("coalition must be nonempty")
    q = len(members)
    rows: list[list[int]] = [[] for _ in range(q)]
    for source in range(q):
        order, d, s = _bfs(local, source)
        below: list[Optional[list[int]]] = [None] * q
        for x in reversed(order):
            acc = [1]
            dx = d[x] + 1
            for w, mult in local[x].items():
                if d[w] == dx:
                    child = below[w]
                    if len(child) >= len(acc):
                        acc.extend([0] * (len(child) + 1 - len(acc)))
                    for j, c in enumerate(child, 1):
                        acc[j] += mult * c
            below[x] = acc
            row, sx, base = rows[x], s[x], d[x] - 1
            if len(row) < base + len(acc):
                row.extend([0] * (base + len(acc) - len(row)))
            for j in range(1 if x == source else 0, len(acc)):
                row[base + j] += sx * acc[j]
    length = max(len(row) for row in rows)
    counts = {
        g.label_of(v): tuple(c // 2 for c in row) + (0,) * (length - len(row))
        for v, row in zip(members, rows)
    }
    return NodePathProfile(counts, length)
