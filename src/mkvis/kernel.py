"""Geodesic obstruction counting and the mutual k-visibility membership test.

A set X is mutual k-visible when every pair of its vertices has some shortest
path with at most k internal vertices belonging to X (the endpoints never
count). Everything rests on one quantity: from a source, the minimum number
of tracked vertices on a shortest path to every target. It is computed two
ways that share no code.

bfs_mkv is the validated public kernel. One BFS pass discovers the vertices
and relaxes the counts along the edges that advance one level; a count is
final when its vertex leaves the queue, because every shortest-path
predecessor sits one level up and left the queue earlier. mkv_check and
check_variant run it once per source, so a single query pays nothing up
front.

The exact solvers probe thousands of sets on one small graph. For them
_geodesic_dags builds, once per solve, each source's shortest-path DAG: the
BFS order with every vertex's forward neighbours (those one level further
out). _sweep then walks a DAG with the tracked set as an int bitmask, one
addition and one comparison per DAG edge, with no validation and no
per-call allocation beyond the count list.

oracle_min_internal_count recomputes the same quantity by enumerating every
geodesic outright and exists to cross-check the kernel, never to replace it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError, GeodesicCapError, GraphInputError, SizeLimitError
from .graphs import (
    Graph,
    INFINITE,
    bfs_distances,
    check_vertex,
    check_vertex_set,
    is_infinite,
    require_connected,
)

__all__ = [
    "CheckReport",
    "DEFAULT_GEODESIC_CAP",
    "DUAL",
    "KernelResult",
    "MAX_PAIR_COUNT_MEMBERS",
    "OUTER",
    "REASON_DISCONNECTED",
    "REASON_PAIR",
    "TOTAL",
    "VARIANTS",
    "bfs_mkv",
    "check_variant",
    "internal_counts",
    "min_internal_count",
    "mkv_check",
    "oracle_min_internal_count",
]

TOTAL = "total"
OUTER = "outer"
DUAL = "dual"
VARIANTS = (TOTAL, OUTER, DUAL)

DEFAULT_GEODESIC_CAP = 10**6
MAX_PAIR_COUNT_MEMBERS = 1000  # pair_counts holds one entry per member pair

REASON_PAIR = "pair_exceeds_tolerance"
REASON_DISCONNECTED = "members_in_different_components"


def _check_tolerance(k) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise GraphInputError(f"tolerance k must be a nonnegative integer, got {k!r}")
    return k


def _check_variant_name(variant) -> str:
    if not isinstance(variant, str) or variant.lower() not in VARIANTS:
        raise GraphInputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant.lower()


@dataclass(frozen=True)
class KernelResult:
    """Per-source output of the counting BFS.

    cnt[w] is the minimum, over shortest source-w paths, of the number of path
    vertices belonging to the tracked set other than the source itself; the
    target w is included in its own count when it is tracked. dp restricts cnt
    to the tracked set. Unreachable vertices hold the INFINITE sentinel.
    edge_touches counts adjacency-list steps for complexity assertions.
    """

    source: int
    dist: tuple
    cnt: tuple
    dp: dict
    edge_touches: int


def bfs_mkv(g: Graph, s, v: int) -> KernelResult:
    """Counting BFS from v tracking the members of s.

    A single pass: when the BFS discovers w from u it sets dist[w] and
    cnt[w]; every later edge from the same level into w may lower cnt[w].
    The step into w adds one exactly when w is tracked and is not the source.
    Discovery order is nondecreasing in distance, so cnt[u] is final when u
    is dequeued, before it is propagated.
    """
    check_vertex(g, v)
    members = check_vertex_set(g, s)
    n = g.n
    adj = g.adj
    in_s = [False] * n
    for q in members:
        in_s[q] = True
    in_s[v] = False
    dist: list = [None] * n
    cnt: list = [None] * n
    dist[v] = 0
    cnt[v] = 0
    order = [v]
    touches = n
    for u in order:  # the list grows while it is walked: a FIFO queue
        du1 = dist[u] + 1
        cu = cnt[u]
        touches += len(adj[u])
        for w in adj[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                cnt[w] = cu + in_s[w]
                order.append(w)
            elif dw == du1:
                cand = cu + in_s[w]
                if cand < cnt[w]:
                    cnt[w] = cand
    dist_t = tuple(INFINITE if d is None else d for d in dist)
    cnt_t = tuple(INFINITE if c is None else c for c in cnt)
    dp = {q: cnt_t[q] for q in members}
    return KernelResult(source=v, dist=dist_t, cnt=cnt_t, dp=dp, edge_touches=touches)


def _geodesic_dags(g: Graph) -> list:
    """Per source, the shortest-path DAG as (u, forward) pairs in BFS order.

    forward holds the neighbours w of u with dist[w] == dist[u] + 1. Only
    vertices reachable from the source appear. Cost O(n (n + m)).
    """
    n = g.n
    adj = g.adj
    dags = []
    for source in range(n):
        dist: list = [None] * n
        dist[source] = 0
        order = [source]
        for u in order:
            du1 = dist[u] + 1
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = du1
                    order.append(w)
        dags.append(tuple(
            (u, tuple(w for w in adj[u] if dist[w] == dist[u] + 1)) for u in order
        ))
    return dags


def _sweep(dag, mask: int, n: int) -> list:
    """bfs_mkv's cnt over one source's DAG, with the tracked set as a bitmask.

    The source itself is never counted. Unreachable vertices keep the
    sentinel n, which exceeds every real count. Inputs are trusted: callers
    build dag with _geodesic_dags and mask from validated ids.
    """
    cnt = [n] * n
    cnt[dag[0][0]] = 0
    for u, forward in dag:
        cu = cnt[u]
        for w in forward:
            c = cu + (mask >> w & 1)
            if c < cnt[w]:
                cnt[w] = c
    return cnt


def _counts_and_touches(g: Graph, xs: frozenset, source: int):
    """Per-target minimum internal counts (endpoints excluded) from one source."""
    res = bfs_mkv(g, xs | {source}, source)
    counts: list = []
    for w, c in enumerate(res.cnt):
        if is_infinite(c):
            counts.append(INFINITE)
        elif w != source and w in xs:
            counts.append(c - 1)  # the kernel counted the target itself
        else:
            counts.append(c)
    return counts, res.edge_touches


def internal_counts(g: Graph, x, source: int) -> list:
    """For every target, the minimum number of x-members strictly inside some
    shortest path from source; INFINITE where unreachable."""
    xs = check_vertex_set(g, x)
    check_vertex(g, source)
    counts, _ = _counts_and_touches(g, xs, source)
    return counts


def min_internal_count(g: Graph, x, u: int, w: int) -> int:
    """Minimum number of x-members strictly between u and w on a shortest path."""
    xs = check_vertex_set(g, x)
    check_vertex(g, u)
    check_vertex(g, w)
    if u == w:
        return 0
    counts, _ = _counts_and_touches(g, xs, u)
    if is_infinite(counts[w]):
        raise DisconnectedGraphError(f"vertices {u} and {w} are in different components")
    return counts[w]


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    k: int
    offending_pair: tuple | None = None
    offending_count: int | None = None
    reason: str | None = None
    pair_counts: dict | None = None
    ops: int = 0


def mkv_check(g: Graph, s, k: int, collect_pair_counts: bool = False) -> CheckReport:
    """Decide whether s is a mutual k-visible set of g.

    Members in different components fail with a structured reason instead of
    an infinite count. With collect_pair_counts the full matrix of pairwise
    minimum internal counts is attached and no early exit happens; it is
    refused above MAX_PAIR_COUNT_MEMBERS members.
    """
    _check_tolerance(k)
    members = sorted(check_vertex_set(g, s))
    if collect_pair_counts and len(members) > MAX_PAIR_COUNT_MEMBERS:
        raise SizeLimitError(f"pair counts limited to {MAX_PAIR_COUNT_MEMBERS} members, got {len(members)}")
    pair_counts: dict | None = {} if collect_pair_counts else None
    if len(members) <= 1:
        return CheckReport(True, k, pair_counts=pair_counts)
    ops = 0
    first_run = bfs_mkv(g, s, members[0])
    ops += first_run.edge_touches
    for q in members[1:]:
        if is_infinite(first_run.dist[q]):
            return CheckReport(
                False, k,
                offending_pair=(members[0], q),
                reason=REASON_DISCONNECTED,
                ops=ops,
            )
    offending = None
    offending_count = None
    for v in members:
        run = first_run if v == members[0] else bfs_mkv(g, s, v)
        if v != members[0]:
            ops += run.edge_touches
        ops += len(members)
        for q in members:
            if q == v:
                continue
            internal = run.dp[q] - 1  # dp counts the tracked target itself
            if collect_pair_counts:
                pair_counts[(v, q) if v < q else (q, v)] = internal
            if internal > k and offending is None:
                offending = (v, q)
                offending_count = internal
                if not collect_pair_counts:
                    return CheckReport(
                        False, k,
                        offending_pair=offending,
                        offending_count=internal,
                        reason=REASON_PAIR,
                        ops=ops,
                    )
    if offending is not None:
        return CheckReport(
            False, k,
            offending_pair=offending,
            offending_count=offending_count,
            reason=REASON_PAIR,
            pair_counts=pair_counts,
            ops=ops,
        )
    return CheckReport(True, k, pair_counts=pair_counts, ops=ops)


def check_variant(g: Graph, x, k: int, variant: str) -> CheckReport:
    """Total, outer or dual visibility check for the set x.

    total: every pair of vertices of g must be (x, k)-visible.
    outer: every pair inside x and every x-to-complement pair.
    dual:  every pair inside x and every pair inside the complement.
    All pair tests use minimum internal counts, endpoints never counted.
    """
    _check_tolerance(k)
    variant = _check_variant_name(variant)
    require_connected(g)
    xs = check_vertex_set(g, x)
    n = g.n
    inside = sorted(xs)
    outside = [v for v in range(n) if v not in xs]

    if variant == TOTAL:
        sweeps = [(list(range(n)), lambda v: range(v + 1, n))]
    elif variant == OUTER:
        # each within-x pair once (larger ids skipped), each cross pair from its x side
        sweeps = [(inside, lambda v: (w for w in range(n) if w != v and (w not in xs or w > v)))]
    else:
        sweeps = [
            (inside, lambda v: (w for w in inside if w > v)),
            (outside, lambda v: (w for w in outside if w > v)),
        ]

    ops = 0
    for sources, targets in sweeps:
        for v in sources:
            counts, touches = _counts_and_touches(g, xs, v)
            ops += touches
            for w in targets(v):
                ops += 1
                if counts[w] > k:
                    return CheckReport(
                        False, k,
                        offending_pair=(v, w),
                        offending_count=counts[w],
                        reason=REASON_PAIR,
                        ops=ops,
                    )
    return CheckReport(True, k, ops=ops)


def oracle_min_internal_count(g: Graph, x, u: int, w: int, cap: int = DEFAULT_GEODESIC_CAP) -> int:
    """Exact minimum internal count by enumerating every geodesic explicitly.

    Walks every geodesic back from w to u by depth-first search with an
    explicit stack, so path length is not limited by the recursion limit, and
    takes the minimum over complete paths. Refuses with GeodesicCapError once
    more than cap geodesics have been enumerated; it never approximates.
    """
    xs = check_vertex_set(g, x)
    check_vertex(g, u)
    check_vertex(g, w)
    if u == w:
        return 0
    return _oracle_count(g, xs, u, w, bfs_distances(g, u), cap)


def _oracle_count(g: Graph, xs: frozenset, u: int, w: int, du: list, cap: int) -> int:
    """oracle_min_internal_count for u != w, given u's distance row du, so a
    caller covering many pairs holds one row at a time. Every walk back from
    w through neighbours one step closer to u is a u-w geodesic."""
    if is_infinite(du[w]):
        raise DisconnectedGraphError(f"vertices {u} and {w} are in different components")
    best = None
    paths = 0
    stack = [(w, 0)]
    while stack:
        vertex, count = stack.pop()
        if vertex == u:
            paths += 1
            if paths > cap:
                raise GeodesicCapError(f"more than {cap} geodesics between {u} and {w}")
            if best is None or count < best:
                best = count
            continue
        nd = du[vertex] - 1
        for nb in g.adj[vertex]:
            if du[nb] == nd:
                stack.append((nb, count + (1 if (nb in xs and nb != u) else 0)))
    return best
