"""Undirected simple graphs with dense integer vertices 0..n-1.

Construction goes through build_graph (or the generators), which validates the
input and returns an immutable Graph. Distances, metric summaries, geodesic
convexity, a handful of deterministic generators and the edge-list text format
used by the command line tool all live here.

_bfs is the package's one plain BFS: distances, connectivity, the metric
summary and the block-cut tree's rooting and DP all read its (dist, order).
metric_summary takes the girth by levels: from each root, an edge inside
level d closes a cycle of at most 2d + 1, and a vertex at level d with two
neighbours at level d - 1 closes one of at most 2d; the shortest cycle is
found this way from any of its own vertices. A root's scan stops once 2d
reaches the best girth so far, since order is sorted by level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from numbers import Real

from .errors import DisconnectedGraphError, GraphInputError, SizeLimitError

__all__ = [
    "INFINITE",
    "Graph",
    "Infinite",
    "MAX_EDGES",
    "MAX_VERTICES",
    "MetricSummary",
    "all_pairs_distances",
    "bfs_distances",
    "build_graph",
    "check_vertex",
    "check_vertex_set",
    "complete_bipartite",
    "complete_graph",
    "convex_hull",
    "cycle_graph",
    "diametral_path",
    "format_edge_list",
    "induced_subgraph",
    "is_connected",
    "is_infinite",
    "is_isometric_path",
    "metric_summary",
    "parse_edge_list",
    "path_graph",
    "random_block_graph",
    "random_connected",
    "require_connected",
    "shortest_path",
]


class Infinite:
    """Sentinel for "no finite value": unreachable distance, acyclic girth.

    Deliberately supports no arithmetic, so INFINITE + 1 raises TypeError and a
    disconnected input can never wrap silently into a finite answer.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        return (Infinite, ())


INFINITE = Infinite()

# Largest vertex count build_graph and parse_edge_list accept: both allocate from n before reading edges.
MAX_VERTICES = 10**6
# Largest edge count a generator builds; it refuses before generating the first edge.
MAX_EDGES = 10**7


def is_infinite(value) -> bool:
    return value is INFINITE


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def _is_int(value) -> bool:
    """value is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_vertex(g: Graph, v) -> int:
    """v, if it is a vertex id of g (anything with n: a Graph, a BlockCutTree)."""
    if not _is_int(v) or not 0 <= v < g.n:
        raise GraphInputError(f"vertex id {v!r} out of range [0, {g.n})")
    return v


def _iterate(values, whole: str, part: str):
    """An iterator over values, refusing anything not iterable, and a str,
    bytes or bytearray, which iterate as characters or small ints."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            return iter(values)
        except TypeError:
            pass
    raise GraphInputError(f"{whole} must be an iterable of {part}, got {values!r}")


def check_vertex_set(g: Graph, vertices) -> frozenset[int]:
    """The ids of an iterable of vertices of g, each by check_vertex."""
    return frozenset(check_vertex(g, v) for v in _iterate(vertices, "a vertex set", "vertex ids"))


def _empty_adjacency(n: int, where: str = "") -> list:
    """Empty adjacency lists for n vertices, refusing more than MAX_VERTICES
    before allocating; where prefixes the error (a line number)."""
    if n > MAX_VERTICES:
        raise SizeLimitError(f"{where}graphs are limited to {MAX_VERTICES} vertices, got {n}")
    return [[] for _ in range(n)]


def _assemble(n: int, adj: list, m: int) -> Graph:
    """The Graph of adjacency lists whose m edges are already validated."""
    return Graph(n=n, adj=tuple(tuple(sorted(a)) for a in adj), m=m)


def build_graph(n: int, edges) -> Graph:
    """Validate and build a Graph.

    Rejects out-of-range ids, self-loops and duplicate edges (in either
    orientation), each reported with the offending pair. Refuses more than
    MAX_VERTICES vertices with SizeLimitError before allocating anything.
    """
    if not _is_int(n) or n < 0:
        raise GraphInputError(f"vertex count must be a nonnegative integer, got {n!r}")
    adj = _empty_adjacency(n)
    seen = set()
    count = 0
    for edge in _iterate(edges, "edges", "vertex pairs"):
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphInputError(f"edge {edge!r} is not a pair of vertex ids") from None
        if not _is_int(u) or not _is_int(v) or not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u!r}, {v!r}) has an endpoint outside [0, {n})")
        if u == v:
            raise GraphInputError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphInputError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    return _assemble(n, adj, count)


def _bfs(adj, source: int):
    """Plain BFS from source over adjacency lists: (dist, order), where dist
    is None at unreached vertices and order lists the reached vertices by
    level, source first. order doubles as the queue."""
    dist: list = [None] * len(adj)
    dist[source] = 0
    order = [source]
    for u in order:
        du1 = dist[u] + 1
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = du1
                order.append(w)
    return dist, order


def bfs_distances(g: Graph, v: int) -> list:
    """Distances from v; unreachable vertices get the INFINITE sentinel."""
    check_vertex(g, v)
    return [INFINITE if d is None else d for d in _bfs(g.adj, v)[0]]


def all_pairs_distances(g: Graph) -> list:
    return [bfs_distances(g, v) for v in range(g.n)]


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """One geodesic from u to v inclusive, taking the smallest-id step each time."""
    check_vertex(g, u)
    check_vertex(g, v)
    dist_v = bfs_distances(g, v)
    if is_infinite(dist_v[u]):
        raise DisconnectedGraphError(f"vertices {u} and {v} are in different components")
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.adj[cur] if dist_v[w] == dist_v[cur] - 1)
        path.append(cur)
    return path


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_bfs(g.adj, 0)[1]) == g.n


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")


@dataclass(frozen=True)
class MetricSummary:
    diameter: "int | Infinite"
    girth: "int | Infinite"
    max_degree: int


def metric_summary(g: Graph) -> MetricSummary:
    """Diameter, girth and maximum degree; INFINITE marks disconnected/acyclic."""
    n = g.n
    adj = g.adj
    max_degree = max((len(a) for a in adj), default=0)
    if n == 0:
        return MetricSummary(INFINITE, INFINITE, 0)
    diameter = 0
    disconnected = False
    girth = n + 1  # longer than any cycle
    for root in range(n):
        dist, order = _bfs(adj, root)
        if len(order) < n:
            disconnected = True
        diameter = max(diameter, dist[order[-1]])
        for u in order:
            d = dist[u]
            if 2 * d >= girth:
                break
            up = level = 0
            for w in adj[u]:
                if dist[w] == d - 1:
                    up += 1
                elif dist[w] == d:
                    level = 1
            if up > 1:
                girth = 2 * d
            elif level:
                girth = 2 * d + 1
    return MetricSummary(
        INFINITE if disconnected else diameter,
        INFINITE if girth > n else girth,
        max_degree,
    )


def diametral_path(g: Graph) -> list[int]:
    """Some geodesic realizing the diameter of a connected graph."""
    require_connected(g)
    if g.n == 0:
        raise GraphInputError("empty graph has no diametral path")
    best = (0, 0, 0)
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(g.n):
            if dist[v] > best[0]:
                best = (dist[v], u, v)
    return shortest_path(g, best[1], best[2])


def convex_hull(g: Graph, s) -> set[int]:
    """Smallest geodesically convex superset: fixpoint of the interval operator."""
    require_connected(g)
    members = check_vertex_set(g, s)
    if not members:
        raise GraphInputError("convex hull of an empty set is undefined")
    dist = all_pairs_distances(g)
    hull = set(members)
    while True:
        inside = sorted(hull)
        added = []
        for w in range(g.n):
            if w in hull:
                continue
            dw = dist[w]
            if any(
                dist[u][w] + dw[v] == dist[u][v]
                for i, u in enumerate(inside)
                for v in inside[i + 1 :]
            ):
                added.append(w)
        if not added:
            return hull
        hull.update(added)


def is_isometric_path(g: Graph, path) -> bool:
    """True when the vertex sequence is a path realizing all pairwise distances."""
    seq = [check_vertex(g, v) for v in _iterate(path, "a path", "vertex ids")]
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            raise GraphInputError(f"not a path: {a} and {b} are not adjacent")
    if len(seq) <= 1:
        return True
    dist = {v: bfs_distances(g, v) for v in set(seq)}
    return all(
        dist[seq[i]][seq[j]] == j - i
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
    )


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertices, relabeled to 0..len-1.

    Returns (subgraph, original_ids) where original_ids[new] is the old id.
    """
    ids = tuple(sorted(check_vertex_set(g, vertices)))
    index = {old: new for new, old in enumerate(ids)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return build_graph(len(ids), edges), ids


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _check_size(n: int, m: int) -> None:
    """Refuse a graph of n vertices and m edges before any edge is generated."""
    if n > MAX_VERTICES:
        raise SizeLimitError(f"graphs are limited to {MAX_VERTICES} vertices, got {n}")
    if m > MAX_EDGES:
        raise SizeLimitError(f"graphs are limited to {MAX_EDGES} edges, got {m}")


def path_graph(n: int) -> Graph:
    if not _is_int(n) or n < 1:
        raise GraphInputError(f"path needs at least one vertex, got {n!r}")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if not _is_int(n) or n < 3:
        raise GraphInputError(f"cycle needs at least three vertices, got {n!r}")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if not _is_int(n) or n < 1:
        raise GraphInputError(f"complete graph needs at least one vertex, got {n!r}")
    _check_size(n, n * (n - 1) // 2)
    return build_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    if not _is_int(m) or not _is_int(n) or m < 1 or n < 1:
        raise GraphInputError(f"both sides need at least one vertex, got {m!r}, {n!r}")
    _check_size(m + n, m * n)
    return build_graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def _check_seed(seed) -> None:
    """A generator's seed is an int, so the same seed gives the same graph."""
    if not _is_int(seed):
        raise GraphInputError(f"seed must be an integer, got {seed!r}")


def random_connected(n: int, edge_probability: float, seed: int) -> Graph:
    """Random connected graph: random spanning tree plus Bernoulli extra edges.

    One trial is drawn per vertex pair whatever the edge probability, so it
    refuses with SizeLimitError when the expected edge count or the number of
    pairs exceeds MAX_EDGES.
    """
    if not _is_int(n) or n < 1:
        raise GraphInputError(f"need at least one vertex, got {n!r}")
    if isinstance(edge_probability, bool) or not isinstance(edge_probability, Real) or not 0 <= edge_probability <= 1:
        raise GraphInputError(f"edge probability must be a real number in [0, 1], got {edge_probability!r}")
    _check_seed(seed)
    _check_size(n, round(n - 1 + edge_probability * (n - 1) * (n - 2) / 2))
    if n * (n - 1) // 2 > MAX_EDGES:
        raise SizeLimitError(
            f"random graphs draw one trial per vertex pair, limited to {MAX_EDGES} pairs, got {n * (n - 1) // 2}"
        )
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < edge_probability:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_block_graph(block_count: int, max_block_size: int, seed: int) -> Graph:
    """Random connected graph in which every block is a clique.

    Grown by attaching clique blocks of random size at random existing
    vertices, so consecutive blocks share exactly one cut vertex. Refuses
    with SizeLimitError before the first block that would take the graph
    past MAX_VERTICES vertices or MAX_EDGES edges.
    """
    if not _is_int(block_count) or block_count < 1:
        raise GraphInputError(f"need at least one block, got {block_count!r}")
    if not _is_int(max_block_size) or max_block_size < 2:
        raise GraphInputError(f"blocks need at least two vertices, got {max_block_size!r}")
    _check_seed(seed)
    if block_count > MAX_VERTICES:
        raise SizeLimitError(f"graphs are limited to {MAX_VERTICES} vertices, got {block_count} blocks")
    rng = random.Random(seed)
    edges = []
    total = 1
    for b in range(block_count):
        anchor = rng.randrange(total) if b else 0
        size = rng.randint(2, max_block_size)
        _check_size(total + size - 1, len(edges) + size * (size - 1) // 2)
        edges.extend(combinations([anchor, *range(total, total + size - 1)], 2))
        total += size - 1
    return build_graph(total, edges)


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header, then m lines "u v"; '#' starts a comment
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format, reporting 1-based line numbers on errors.

    Each edge is checked once, as build_graph would, straight into the
    adjacency lists; a header above MAX_VERTICES is refused at its line.
    """
    if not isinstance(text, str):
        raise GraphInputError(f"edge-list text must be a str, got {type(text).__name__}")
    n = declared_m = None
    adj: list = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise GraphInputError(f"line {lineno}: expected two whitespace-separated values")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: values must be integers") from None
        if n is None:
            if a < 0 or b < 0:
                raise GraphInputError(f"line {lineno}: header 'n m' values must be nonnegative")
            adj = _empty_adjacency(a, f"line {lineno}: ")
            n, declared_m = a, b
            continue
        if len(seen) == declared_m:
            raise GraphInputError(f"line {lineno}: more edges than the declared {declared_m}")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphInputError(f"line {lineno}: vertex id out of range [0, {n})")
        if a == b:
            raise GraphInputError(f"line {lineno}: self-loop ({a}, {b}) is not allowed")
        key = a * n + b if a < b else b * n + a
        if key in seen:
            raise GraphInputError(f"line {lineno}: duplicate edge ({a}, {b})")
        seen.add(key)
        adj[a].append(b)
        adj[b].append(a)
    if n is None:
        raise GraphInputError("empty input: missing 'n m' header line")
    if len(seen) != declared_m:
        raise GraphInputError(f"declared {declared_m} edges but found {len(seen)}")
    return _assemble(n, adj, len(seen))


def format_edge_list(g: Graph, comments=()) -> str:
    lines = [f"# {c}" for c in _iterate(comments, "comments", "strings")]
    for line in lines:  # parse_edge_list splits at every boundary str.splitlines knows
        if line.splitlines() != [line]:
            raise GraphInputError(f"a comment may not span lines, got {line[2:]!r}")
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
