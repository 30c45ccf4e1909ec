"""Undirected multigraphs with integer edge multiplicities.

Nodes are whitespace-free string labels kept in first-mention order.
Parallel edges are stored as multiplicities. Geodesic counting treats a
pair joined by w parallel edges as w distinct length-1 paths, and the
weight of a longer shortest path is the product of the multiplicities of
its links.

Paths inside a coalition are counted from its graph indices: member
positions and the links inside the coalition (_block_links), and one
BFS per member over those links. A Myerson model keeps one geodesic
table per coalition (_BlockTable, built by _block_table): geodesic
counts and distance buckets, searched, then grown by a joining node or
shrunk by a leaving member. Every count is a _bfs over its links, save
one: a joining node with a single link takes that member's counts and
buckets one level out. A node lies on a geodesic between two other
members exactly when two of its links inside the coalition go to
members not linked to each other (_between); a node whose linked
members are all linked lies only on the geodesics it ends, and its
pairs are not scanned.
coalition_path_counts sums the BFS counts per distance, and
node_path_counts accumulates every member's containment vector from
the searches (_containments, Brandes' accumulation), with no table; a
Myerson payoff reads one node's vector from its table
(_BlockTable.counts). Vectors have the layout of NodePathProfile. The
two path-count functions take labels and turn them into graph indices;
every table call takes graph indices.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from .errors import _INTEGER_RE, EdgeListError, _Record


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
            # A 2-character string would unpack as (u, v).
            if not isinstance(edge, (tuple, list)) or len(edge) not in (2, 3):
                raise ValueError(f"edge must be a tuple or list (u, v) or (u, v, w), got {edge!r}")
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
    Bytes are read as UTF-8; a leading byte-order mark is dropped, from
    bytes and from text alike.
    Raises EdgeListError (with the line number) on self-loops,
    non-positive multiplicities or malformed rows.
    """
    if isinstance(text, bytes):
        # Not the utf-8-sig codec: its first use imports a module, which
        # costs about 0.4 ms, a twentieth of a small hedonic run.
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")
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
            if not _INTEGER_RE.fullmatch(parts[2]):
                raise EdgeListError(f"multiplicity is not an integer: {parts[2]!r}", line=lineno)
            w = int(parts[2])
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
    # BFS layering over adjacency rows {neighbour: multiplicity};
    # parallel edges multiply path counts. Returns hop distances (-1 when
    # unreachable), geodesic counts and the visiting order (source first,
    # distances nondecreasing, the unreachable left out).
    d = [-1] * len(adj)
    s = [0] * len(adj)
    d[source] = 0
    s[source] = 1
    queue = [source]
    for v in queue:
        dv, sv = d[v] + 1, s[v]
        for w, mult in adj[v].items():
            dw = d[w]
            if dw < 0:
                d[w] = dv
                s[w] = sv * mult
                queue.append(w)
            elif dw == dv:
                s[w] += sv * mult
    return d, s, queue


def _bfs_counts(g: Multigraph, source: int) -> tuple[list[int], list[int]]:
    # Hop distances and geodesic counts from source over the whole graph.
    return _bfs(g.adjacency, source)[:2]


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


class PathProfile(_Record):
    """Geodesic counts of a coalition: counts[k-1] is the number of
    shortest paths of length k, summed over unordered node pairs and over
    the connected components of the induced subgraph."""

    counts: tuple[int, ...]

    @property
    def max_distance(self) -> int:
        """Largest finite distance between two coalition members (0 for singletons)."""
        return len(self.counts)


class NodePathProfile(_Record):
    """Per-node geodesic containment counts for a coalition.

    counts[u][k-1] is the number of length-k geodesics of the induced
    subgraph that contain u, as an endpoint or interior node. Every
    length-k geodesic has k+1 nodes, so the counts of all members sum to
    (k+1) times the coalition's k-th path count.
    """

    counts: dict[str, tuple[int, ...]]
    max_distance: int


class _BlockTable:
    """One coalition's member positions (pos maps graph index to row),
    links (adj[a] maps row to multiplicity), geodesic counts and distance
    buckets, its only record of distance: rows[a][d] for d >= 1,
    rows[a][0] the members a cannot reach. neighbours holds its graph's
    adjacency rows, so every method takes one graph index. vectors holds
    the containment vectors counts has derived, keyed by graph index;
    they depend on no discount. stash holds the last outsider join
    computed, (i, si, level, pairs, link) from join, for a grow by i to
    read. A table changes only in place, by grow and shrink, and both
    drop vectors and stash."""

    __slots__ = ("neighbours", "pos", "adj", "sigma", "rows", "vectors", "stash")

    def __init__(self, neighbours: tuple[dict, ...], pos: dict[int, int], adj: list[dict], sigma: list, rows: list):
        self.neighbours = neighbours
        self.pos = pos
        self.adj = adj
        self.sigma = sigma
        self.rows = rows
        self.vectors: dict[int, list[int]] = {}
        self.stash: Optional[tuple] = None

    def counts(self, i: int) -> list[int]:
        """Graph index i's containment vector in the coalition joined by
        i (index k-1 counts the length-k geodesics through i): a member's
        from its own row, an outsider's from its join."""
        v = self.vectors.get(i)
        if v is None:
            a = self.pos.get(i)
            if a is None:
                v = _containment(*self.join(i)[1:4])
            else:
                level = self.rows[a]
                pairs = _through(self.rows, level) if _between(self.adj, self.adj[a]) else ()
                v = _containment(self.sigma[a], level, pairs)
            self.vectors[i] = v
        return v

    def join(self, i: int) -> tuple:
        """The stash for outside graph index i, computed unless already
        held: its geodesic counts si (i's own, 1, last, as in the row it
        would take), the members by distance as in rows, the pairs
        _detours finds for it, and its links by row. One BFS from i over
        the block's links gives the counts and distances; with a single
        link u they are u's, one level out, and no pair has a geodesic
        through i."""
        if self.stash is None or self.stash[0] != i:
            pos = self.pos
            link = {pos[u]: mult for u, mult in self.neighbours[i].items() if u in pos}
            if len(link) == 1:
                ((u, mult),) = link.items()
                si = [mult * c for c in self.sigma[u]] + [1]
                row = self.rows[u]
                top = len(row)
                while top > 1 and not row[top - 1]:
                    top -= 1
                level = [row[0].copy(), {u}, *map(set.copy, row[1:top])]
                pairs = []
            else:
                d, si, _ = _bfs(self.adj + [link], len(pos))
                level = _buckets(d)
                pairs = list(_detours(self.rows, level)) if _between(self.adj, link) else []
            self.stash = i, si, level, pairs, link
        return self.stash

    def grow(self, i: int) -> None:
        """Turn this into the table of the coalition plus graph index i,
        in place: its row and column are appended, and each pair _detours
        finds gains its geodesics through i, which replace its own when
        shorter. Its counts, buckets, pairs and links come from join, so a
        stash held for i is used."""
        _, si, level, pairs, link = self.join(i)
        sigma, rows, adj = self.sigma, self.rows, self.adj
        for s, a, d, b, near in pairs:
            length = a + b
            for t in near:
                if b == a and t < s:
                    continue
                w = si[s] * si[t]
                if length == d:
                    sigma[s][t] += w
                    sigma[t][s] += w
                    continue
                sigma[s][t] = sigma[t][s] = w
                rows[s][d].remove(t)
                rows[t][d].remove(s)
                _file(rows[s], length, t)
                _file(rows[t], length, s)
        q = len(sigma)
        for d, ring in enumerate(level):
            for t in ring:
                sigma[t].append(si[t])
                _file(rows[t], d, q)
        for b, mult in link.items():
            adj[b][q] = mult
        sigma.append(si)
        rows.append(level)
        adj.append(link)
        self.pos[i] = q
        self.vectors.clear()
        self.stash = None

    def shrink(self, i: int) -> None:
        """Turn this into the table of the coalition less member i (a
        graph index), in place. Each pair _through finds loses its
        geodesics through i; a pair left with none is farther apart, and
        the row of its nearer end is searched again over the remaining
        links. The row, column and links of i are swap-removed: the last
        member takes its position."""
        pos, sigma, rows, adj = self.pos, self.sigma, self.rows, self.adj
        p = pos.pop(i)
        si, level = sigma[p], rows[p]
        lost = set()
        for s, a, _, b, near in _through(rows, level) if _between(adj, adj[p]) else ():
            if s in lost:
                continue
            for t in near:
                if b == a and t < s:
                    continue
                w = si[s] * si[t]
                if sigma[s][t] == w:
                    if t in lost:
                        continue
                    lost.add(s)
                    break
                sigma[s][t] -= w
                sigma[t][s] -= w
        for d, ring in enumerate(level):
            for t in ring:
                rows[t][d].remove(p)
        for b in adj[p]:
            del adj[b][p]
        last = len(rows) - 1
        if p != last:
            for d, ring in enumerate(rows[last]):
                for t in ring:
                    rows[t][d].remove(last)
                    rows[t][d].add(p)
            for b in adj[last]:
                adj[b][p] = adj[b].pop(last)
            rows[p], sigma[p], adj[p] = rows[last], sigma[last], adj[last]
            for row in sigma:
                row[p] = row[last]
            pos[next(v for v, a in pos.items() if a == last)] = p
            if last in lost:
                lost.remove(last)
                lost.add(p)
        rows.pop()
        sigma.pop()
        adj.pop()
        for row in sigma:
            row.pop()
        for s in lost:
            ds, ss, _ = _bfs(adj, s)
            for d, ring in enumerate(rows[s]):
                for t in ring:
                    if max(ds[t], 0) != d:
                        rows[t][d].remove(s)
                        _file(rows[t], max(ds[t], 0), s)
            rows[s], sigma[s] = _buckets(ds), ss
            for row, c in zip(sigma, ss):
                row[s] = c
        self.vectors.clear()
        self.stash = None


def _file(row: list[set], d: int, t: int) -> None:
    while len(row) <= d:
        row.append(set())
    row[d].add(t)


def _buckets(dist_row: list[int]) -> list[set]:
    row = [set() for _ in range(max(0, *dist_row) + 1)]
    for t, d in enumerate(dist_row):
        if d:
            row[d if d > 0 else 0].add(t)
    return row


def _block_links(g: Multigraph, block: Iterable[int]) -> tuple[dict[int, int], list[dict]]:
    # The block's positions, its graph indices in ascending order (the
    # node order of induced_subgraph), and each member's links inside it
    # by position.
    members = sorted(block)
    if not members:
        raise ValueError("coalition must be nonempty")
    pos = {v: a for a, v in enumerate(members)}
    adj = g.adjacency
    return pos, [{pos[w]: mult for w, mult in adj[v].items() if w in pos} for v in members]


def _block_table(g: Multigraph, block: Iterable[int]) -> _BlockTable:
    # One BFS per member over the links inside the block.
    pos, local = _block_links(g, block)
    searched = [_bfs(local, a) for a in range(len(local))]
    return _BlockTable(g.adjacency, pos, local, [s for _, s, _ in searched], [_buckets(d) for d, _, _ in searched])


def _between(adj: list[dict], links: Iterable[int]) -> bool:
    # Whether a node with these links (rows of adj) lies on a geodesic
    # between two other members: exactly when two of them are not linked,
    # for then they are two apart through it; if all are linked, every
    # path through the node has a shortcut. Stops at the first such pair.
    seen = []
    for u in links:
        row = adj[u]
        for v in seen:
            if v not in row:
                return True
        seen.append(u)
    return False


def _detours(rows: list[list[set]], level: list[set]) -> Iterator[tuple]:
    # The pairs s, t of a coalition with di[s] + di[t] <= d(s, t), or
    # disconnected, for a node i whose distances di are bucketed as level:
    # those whose geodesics i can lie on. From the nearer end s, d(s, t)
    # >= 2 di[s]. Yields (s, a, d, b, near) with a = di[s]: near holds the
    # t with d(s, t) = d (0 if disconnected) and di[t] = b >= a, so a pair
    # with b = a comes from both ends.
    for a in range(1, len(level)):
        for s in level[a]:
            row = rows[s]
            for d in range(2 * a, len(row)):
                if row[d]:
                    for b, ring in enumerate(level[a : d - a + 1], a):
                        near = row[d] & ring
                        if near:
                            yield s, a, d, b, near
            if row[0]:
                for b, ring in enumerate(level[a:], a):
                    near = row[0] & ring
                    if near:
                        yield s, a, 0, b, near


def _through(rows: list[list[set]], level: list[set]) -> Iterator[tuple]:
    # _detours for a member i of the coalition, whose row is level: then
    # d(s, t) <= di[s] + di[t], so only bucket a + b of s's row can hold
    # a pair through i. Yields as _detours does, with d = a + b.
    for a in range(1, len(level)):
        for s in level[a]:
            row = rows[s]
            for b in range(a, min(len(level), len(row) - a)):
                near = row[a + b] & level[b]
                if near:
                    yield s, a, a + b, b, near


def _containment(si: list[int], level: list[set], pairs: Iterable[tuple]) -> list[int]:
    # Per length k, at k-1, the geodesics containing node i: sigma(i, t)
    # per member t and sigma(s, i) sigma(i, t) per pair, from _through
    # when i is a member and _detours otherwise. Counts are doubled, and
    # a pair met from both ends adds once from each.
    get = si.__getitem__
    counts = [2 * sum(map(get, ring)) for ring in level[1:]] + [0] * (len(level) - 1)
    for s, a, _, b, near in pairs:
        counts[a + b - 1] += (1 if b == a else 2) * si[s] * sum(map(get, near))
    return [c // 2 for c in counts]


def _containments(adj: list[dict]) -> list[list[int]]:
    # Brandes' accumulation over a coalition's links (adj[a] maps row to
    # multiplicity): one BFS per member s, then a backward pass in reverse
    # visiting order, h[v] = x^d(s,v) + mult h[w] over v's links w one
    # level farther (a link reaches no farther, and from the farthest
    # level nowhere), and v gains sigma(s,v) h[v]. Doubled counts, x^d at
    # bit d * width: sigma(s,v) sigma(v,t) <= sigma(s,t) keeps each field
    # below sum(sigma).
    searched = [_bfs(adj, s) for s in range(len(adj))]
    length = max(max(d) for d, _, _ in searched)
    width = sum(sum(sig) for _, sig, _ in searched).bit_length() + 1
    power = [1 << d * width for d in range(length + 1)]
    links = [list(a.items()) for a in adj]
    total, h = [0] * len(adj), [0] * len(adj)
    for s, (dist, sig, order) in enumerate(searched):
        top = dist[order[-1]]
        for v in order[:0:-1]:
            d = dist[v]
            hv = power[d]
            if d < top:
                for w, mult in links[v]:
                    if dist[w] > d:
                        hv += mult * h[w]
            h[v] = hv
            total[v] += sig[v] * hv
        total[s] += sum(mult * h[w] for w, mult in links[s])
    mask = (1 << width) - 1
    return [[(c >> k * width & mask) >> 1 for k in range(1, length + 1)] for c in total]


def coalition_path_counts(g: Multigraph, coalition: Iterable[str]) -> PathProfile:
    """Geodesic path counts inside g restricted to the coalition, summed
    per distance from one BFS per member over the coalition's links."""
    _, adj = _block_links(g, {g.index_of(u) for u in coalition})
    counts: list[int] = []
    for a in range(len(adj)):
        d, s, order = _bfs(adj, a)
        for t in order[1:]:
            # The visiting order never skips a distance.
            if d[t] > len(counts):
                counts.append(0)
            counts[d[t] - 1] += s[t]
    return PathProfile(tuple(c // 2 for c in counts))


def node_path_counts(g: Multigraph, coalition: Iterable[str]) -> NodePathProfile:
    """Per-node geodesic containment counts inside g restricted to the coalition."""
    pos, adj = _block_links(g, {g.index_of(u) for u in coalition})
    vecs = _containments(adj)
    return NodePathProfile({g.label_of(v): tuple(vecs[a]) for v, a in pos.items()}, len(vecs[0]))
