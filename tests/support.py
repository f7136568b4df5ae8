"""Brute-force reference implementations the suite checks the library against.

Everything here recomputes from first principles: Floyd-Warshall distances,
explicit materialization of whole shortest paths, raw subset scans over the
power set. No logic is shared with the package internals, so agreement
between the two sides is evidence, not tautology. leafed_tree turns a
block-cut tree into a graph whose mutual k-visible id sets are exactly
its k-admissible sets, the reduction the tree DP rests on, which the
suite checks against is_k_admissible. geodesic_dags builds each source's
shortest-path DAG, which the suite checks against whole-path enumeration,
and path_counts walks those DAGs to rebuild the checker's packed count
rows; the checker builds its own from one BFS per source and calls
neither. connected_labelled_graphs lists every connected graph on a few
labelled vertices, and connected_graphs one per isomorphism class on a few
more, told apart by certificate: the corpora the solvers are checked on in
full.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

import hypothesis
import hypothesis.strategies as st

from mkvis.blocks import block_node, cut_node
from mkvis.graphs import Graph, build_graph, complete_bipartite, random_connected

INF = math.inf


def distance_matrix(g: Graph):
    """All-pairs shortest path lengths by Floyd-Warshall."""
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u in range(n):
        for w in g.adj[u]:
            dist[u][w] = 1
    for mid in range(n):
        dm = dist[mid]
        for u in range(n):
            du = dist[u]
            via = du[mid]
            if via == INF:
                continue
            for w in range(n):
                alt = via + dm[w]
                if alt < du[w]:
                    du[w] = alt
    return dist


def all_geodesics(g: Graph, u: int, w: int, dist=None):
    """Every shortest u-w path, each as a full vertex tuple."""
    if dist is None:
        dist = distance_matrix(g)
    if dist[u][w] == INF:
        return []
    paths = []
    path = [u]

    def grow():
        cur = path[-1]
        if cur == w:
            paths.append(tuple(path))
            return
        for nb in g.adj[cur]:
            if dist[nb][w] == dist[cur][w] - 1:
                path.append(nb)
                grow()
                path.pop()

    grow()
    return paths


def pair_min_internal(g: Graph, x, u: int, w: int, dist=None):
    """Minimum count of x-members strictly inside a shortest u-w path.

    None when u and w are disconnected.
    """
    geos = all_geodesics(g, u, w, dist)
    if not geos:
        return None
    xs = set(x)
    return min(sum(1 for v in p[1:-1] if v in xs) for p in geos)


def pair_visible(g: Graph, x, u: int, w: int, k: int, dist=None) -> bool:
    c = pair_min_internal(g, x, u, w, dist)
    return c is not None and c <= k


def oracle_mkv_check(g: Graph, s, k: int, dist=None) -> bool:
    members = sorted(set(s))
    if dist is None:
        dist = distance_matrix(g)
    return all(
        pair_visible(g, members, u, w, k, dist)
        for i, u in enumerate(members)
        for w in members[i + 1 :]
    )


def oracle_variant_check(g: Graph, x, k: int, variant: str, dist=None) -> bool:
    xs = set(x)
    if dist is None:
        dist = distance_matrix(g)
    if variant == "total":
        pairs = combinations(range(g.n), 2)
    elif variant == "outer":
        inside = sorted(xs)
        outside = [v for v in range(g.n) if v not in xs]
        pairs = list(combinations(inside, 2)) + [(u, w) for u in inside for w in outside]
    elif variant == "dual":
        outside = [v for v in range(g.n) if v not in xs]
        pairs = list(combinations(sorted(xs), 2)) + list(combinations(outside, 2))
    else:
        raise ValueError(variant)
    return all(pair_visible(g, xs, u, w, k, dist) for u, w in pairs)


def brute_mu(g: Graph, k: int) -> int:
    dist = distance_matrix(g)
    for size in range(g.n, 0, -1):
        for comb in combinations(range(g.n), size):
            if oracle_mkv_check(g, comb, k, dist):
                return size
    return 0


def brute_variant_mu(g: Graph, k: int, variant: str) -> int:
    dist = distance_matrix(g)
    for size in range(g.n, -1, -1):
        for comb in combinations(range(g.n), size):
            if oracle_variant_check(g, comb, k, variant, dist):
                return size
    raise AssertionError("unreachable: the empty set passes every variant")


def brute_gp(g: Graph) -> int:
    dist = distance_matrix(g)

    def in_position(s) -> bool:
        for a, b in combinations(s, 2):
            for m in s:
                if m != a and m != b and dist[a][m] + dist[m][b] == dist[a][b]:
                    return False
        return True

    for size in range(g.n, 0, -1):
        for comb in combinations(range(g.n), size):
            if in_position(comb):
                return size
    return 0


def brute_polynomial(g: Graph, k: int) -> list[int]:
    dist = distance_matrix(g)
    coeffs = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            if oracle_mkv_check(g, comb, k, dist):
                coeffs[size] += 1
    return coeffs


def brute_tau(g: Graph, k: int) -> int:
    """Minimum number of mutual k-visible parts by canonical partition search."""
    n = g.n
    if n == 0:
        return 0
    dist = distance_matrix(g)
    feasible_memo: dict = {}

    def feasible(part) -> bool:
        key = frozenset(part)
        hit = feasible_memo.get(key)
        if hit is None:
            hit = feasible_memo[key] = oracle_mkv_check(g, part, k, dist)
        return hit

    best = n

    def place(v, parts):
        nonlocal best
        if len(parts) >= best:
            return
        if v == n:
            best = len(parts)
            return
        for part in parts:
            part.append(v)
            if feasible(part):
                place(v + 1, parts)
            part.pop()
        parts.append([v])
        place(v + 1, parts)
        parts.pop()

    place(0, [])
    return best


def brute_greedy_cover(g: Graph, k: int) -> list[list[int]]:
    """First-fit cover in descending degree order, ties by id, each probe
    decided by oracle_mkv_check."""
    dist = distance_matrix(g)
    parts: list = []
    for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u)):
        for part in parts:
            if oracle_mkv_check(g, part + [v], k, dist):
                part.append(v)
                break
        else:
            parts.append([v])
    return [sorted(p) for p in parts]


def _subset_connected(g: Graph, vs) -> bool:
    vs = set(vs)
    if not vs:
        return True
    start = next(iter(vs))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nb in g.adj[cur]:
            if nb in vs and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen == vs


def connected_labelled_graphs(n: int):
    """Every connected graph on the labelled vertices 0..n-1, one per edge
    set: 1, 1, 4, 38 and 728 of them for n = 1 to 5. Each isomorphism class
    comes under each of its labelings."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        g = build_graph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])
        if _subset_connected(g, range(n)):
            yield g


def _refined(g: Graph, colours: list) -> list:
    """Colour refinement from colours until no class splits. A vertex's new
    colour is the rank of its colour and its neighbours' sorted colours, so
    relabeling g relabels the result alike."""
    while True:
        keys = [(colours[v], tuple(sorted(colours[w] for w in g.adj[v]))) for v in range(g.n)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(rank) == len(set(colours)):
            return colours
        colours = [rank[key] for key in keys]


def certificate(g: Graph) -> tuple:
    """A canonical form of g: two graphs share it iff they are isomorphic.

    Colour refinement from one colour splits the vertices; each vertex of
    the first class still holding more than one is then individualised in
    turn, refined again, and so on until every class is a single vertex.
    Each such colouring numbers the vertices, and the certificate is the
    least sorted edge list over all of them. Refinement alone would merge
    graphs it cannot tell apart, such as K_{3,3} and the triangular prism.
    """
    best = None
    stack = [_refined(g, [0] * g.n)]
    while stack:
        colours = stack.pop()
        cells: dict = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        split = min((c for c, vs in cells.items() if len(vs) > 1), default=None)
        if split is None:
            edges = tuple(sorted(tuple(sorted((colours[u], colours[w]))) for u, w in g.edges()))
            if best is None or edges < best:
                best = edges
            continue
        for v in cells[split]:
            marked = [2 * c + 1 if c == split and u != v else 2 * c for u, c in enumerate(colours)]
            stack.append(_refined(g, marked))
    return best


def connected_graphs(n: int):
    """One connected graph on the vertices 0..n-1 per isomorphism class: 1,
    1, 2, 6, 21, 112 and 853 of them for n = 1 to 7 (OEIS A001349).

    Removing a leaf of a spanning tree leaves a connected graph, so every
    class on n >= 2 vertices arises from one on n - 1 by joining the new
    vertex n - 1 to a nonempty set of old ones. All those are generated,
    and the first graph of each certificate is kept."""
    if n == 1:
        yield build_graph(1, [])
        return
    seen = set()
    for h in connected_graphs(n - 1):
        for bits in range(1, 1 << (n - 1)):
            g = build_graph(n, list(h.edges()) + [(v, n - 1) for v in range(n - 1) if bits >> v & 1])
            key = certificate(g)
            if key not in seen:
                seen.add(key)
                yield g


def brute_articulation(g: Graph) -> set[int]:
    full = set(range(g.n))
    return {
        v
        for v in range(g.n)
        if g.n > 2 and not _subset_connected(g, full - {v})
    }


def brute_blocks(g: Graph) -> set[frozenset]:
    """Blocks as maximal vertex sets inducing a connected, cut-free subgraph.

    A block's vertex set induces the block itself (any chord would lie in the
    same block), so maximal such sets are exactly the blocks.
    """
    if g.n == 1:
        return {frozenset({0})}
    cands = []
    for size in range(2, g.n + 1):
        for comb in combinations(range(g.n), size):
            sub = set(comb)
            if not _subset_connected(g, sub):
                continue
            if size > 2 and any(not _subset_connected(g, sub - {v}) for v in sub):
                continue
            cands.append(frozenset(sub))
    return {c for c in cands if not any(c < d for d in cands)}


def _bfs_len_avoiding_edge(g: Graph, src: int, dst: int, a: int, b: int):
    seen = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            return seen[cur]
        for nb in g.adj[cur]:
            if (cur == a and nb == b) or (cur == b and nb == a):
                continue
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                queue.append(nb)
    return INF


def brute_girth(g: Graph):
    """Shortest cycle length: detour around each edge, plus the edge itself."""
    best = INF
    for u, w in g.edges():
        best = min(best, _bfs_len_avoiding_edge(g, u, w, u, w) + 1)
    return best


def tree_path_naive(tree, a, b) -> list:
    """Unique a-b path in a block-cutpoint tree by plain BFS."""
    prev = {a: None}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            out = []
            while cur is not None:
                out.append(cur)
                cur = prev[cur]
            return out[::-1]
        for nb in tree.neighbors(cur):
            if nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    raise AssertionError("nodes in different tree components")


def seeded_graph(i: int, max_n: int = 10) -> Graph:
    """Deterministic corpus member i for the acceptance suite."""
    n = 3 + i % (max_n - 2)
    p = (0.15, 0.3, 0.5, 0.75)[i % 4]
    return random_connected(n, p, seed=1000 + i)


def lattice(rows: int, cols: int, wrap: bool = False) -> Graph:
    """The rows x cols grid, or with wrap the torus, vertex r * cols + c."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if wrap:
                    r2, c2 = r2 % rows, c2 % cols
                if r2 < rows and c2 < cols and (r2, c2) != (r, c):
                    edges.add(tuple(sorted((v, r2 * cols + c2))))
    return build_graph(rows * cols, sorted(edges))


def hypercube(d: int) -> Graph:
    """Q_d: the d-bit words, adjacent when they differ in one bit."""
    return build_graph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


def with_examples(cases):
    """Decorate a hypothesis test with one explicit example per tuple of
    arguments in cases, run on top of the drawn ones."""
    def apply(test):
        for args in cases:
            test = hypothesis.example(*args)(test)
        return test
    return apply


def geodesic_rich_graphs() -> list:
    """Graphs with many geodesics per pair, up to C(7, 3) = 35 between the
    corners of the 4x5 grid and 4! = 24 between antipodes of Q4, so the
    packed count fields of a growing set must widen."""
    return [lattice(3, 3), lattice(3, 5), lattice(4, 4), lattice(4, 5), lattice(4, 4, wrap=True),
            hypercube(4), complete_bipartite(2, 7), complete_bipartite(4, 5)]


def diamond_chain(diamonds: int) -> Graph:
    """Hubs 0..diamonds in a row, consecutive hubs joined through two middle
    vertices (diamonds + 1 + 2i and the next id for the i-th diamond), so
    2^diamonds geodesics join the end hubs."""
    hubs = diamonds + 1
    edges = [(i, m) for i in range(diamonds) for m in (hubs + 2 * i, hubs + 2 * i + 1)]
    edges += [(m, i + 1) for i in range(diamonds) for m in (hubs + 2 * i, hubs + 2 * i + 1)]
    return build_graph(hubs + 2 * diamonds, edges)


def rising_counts_steps(g: Graph) -> list:
    """Push steps (v, part) for g whose pushes meet ever larger geodesic
    counts: with the vertices ordered by their largest geodesic count to
    any vertex, smallest first, the first twelve go to parts 0, 1 and 2 in
    turn, so each part's fields widen while it holds rows."""
    dist = distance_matrix(g)
    most = [max(len(all_geodesics(g, v, w, dist)) for w in range(g.n)) for v in range(g.n)]
    rising = sorted(range(g.n), key=lambda v: (most[v], v))
    return [(v, i % 3) for i, v in enumerate(rising[:12])]


def random_subset(rng: random.Random, n: int, max_size=None) -> set[int]:
    size = rng.randint(0, n if max_size is None else min(max_size, n))
    return set(rng.sample(range(n), size))


def graphs(min_n: int = 1, max_n: int = 9):
    """Hypothesis strategy: seeded connected graphs."""
    return st.builds(
        random_connected,
        st.integers(min_n, max_n),
        st.sampled_from([0.1, 0.2, 0.35, 0.6, 0.9]),
        st.integers(0, 10**6),
    )


@st.composite
def graph_and_set(draw, min_n: int = 2, max_n: int = 9):
    g = draw(graphs(min_n, max_n))
    members = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    return g, members


def leafed_tree(t):
    """The block-cut tree t as a Graph with a pendant leaf on every block
    node, and the vertex id that stands for each tree node in it.

    Tree nodes keep the int id t gives them (their index in t.nodes) as
    vertex ids, and the leaf of block i is vertex node_count + i. A cut node
    is represented by its own id, a block node by its leaf. A leaf is never
    inside a path and a block node itself is never represented, so the
    represented vertices inside the (unique) path between two ids are the
    selected cut nodes inside the tree path of their nodes: Z is k-admissible
    exactly when its ids are mutual k-visible in this graph. Ids ascend in
    the order of t.nodes.
    """
    size = t.node_count
    edges = [(t._id[cut_node(v)], t._id[block_node(i)]) for v, i in t.tree_edges]
    edges += [(t._id[block_node(i)], size + i) for i in range(len(t.blocks))]
    ids = {node: i if node[0] == "cut" else size + node[1] for node, i in t._id.items()}
    return build_graph(size + len(t.blocks), edges), ids


def geodesic_dags(g: Graph):
    """Per source, the shortest-path DAG and the geodesic counts: the
    reference path_counts walks.

    Returns (dags, sigma). dags[s] lists (u, forward) pairs in BFS order from
    s; forward holds the neighbours w of u with dist[w] == dist[u] + 1, in
    adjacency order. sigma[s][t] is the number of s-t geodesics, summed
    along the same forward edges (1 at s, 0 where unreachable). Only
    vertices reachable from the source appear in its DAG.
    """
    n = g.n
    dags = []
    sigma = []
    for source in range(n):
        dist: list = [None] * n
        dist[source] = 0
        paths = [0] * n
        paths[source] = 1
        order = deque([source])
        dag = []
        while order:
            u = order.popleft()
            forward = []
            for w in g.adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    order.append(w)
                if dist[w] == dist[u] + 1:
                    forward.append(w)
                    paths[w] += paths[u]
            dag.append((u, tuple(forward)))
        dags.append(tuple(dag))
        sigma.append(paths)
    return dags, sigma


def path_counts(dag, mask: int, n: int, width: int, full: int) -> list:
    """Per target, its geodesics from dag's source by tracked internal count:
    the rebuild reference for the checker's packed count rows.

    dag is one source's entry of geodesic_dags. Field j of
    counts[t], bits j*width up to (j+1)*width, is the number of source-t
    geodesics with exactly j vertices of mask strictly inside; the fields
    run up to the one full still covers, and geodesics with more tracked
    vertices are dropped. A tracked vertex shifts what passes through it up
    one field. Neither endpoint counts, and an unreachable target reads 0.
    width must exceed the bit length of every pair's geodesic count, so no
    field carries into the next.
    """
    counts = [0] * n
    source = dag[0][0]
    counts[source] = 1
    mask &= ~(1 << source)
    for u, forward in dag:
        c = counts[u]
        if mask >> u & 1:
            c = c << width & full
        for w in forward:
            counts[w] += c
    return counts
