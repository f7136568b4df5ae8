"""Geodesic obstruction counting and the mutual k-visibility membership test.

A set X is mutual k-visible when every pair of its vertices has some shortest
path with at most k internal vertices belonging to X (the endpoints never
count). Everything rests on one quantity: from a source, the minimum number
of tracked vertices on a shortest path to every target. It is computed two
ways that share no code.

_count_bfs is the counting BFS: one pass discovers the vertices and relaxes
the counts along the edges that advance one level. It trusts its input, a
membership list built once per call, and returns plain lists. bfs_mkv is its
validated public form, wrapped in a KernelResult, and always runs to the
end; check_variant and internal_counts sweep through bfs_mkv once per
source, so a caller that rebinds kernel.bfs_mkv (the benchmark's tracer
does) sees their sweeps.

mkv_check validates the set once and then does only the BFS work its pairs
need, which keeps the MkV bound O(|S|(|V| + |E|) + |S|^2) and cuts the
constant four ways:

- peel: _peel drops, repeatedly, every non-member of degree at most 1. Such
  a vertex lies inside no geodesic between two other vertices, so the
  sweeps run on what is left.
- share: members with the same open or the same closed neighbourhood
  (twins, grouped by _twin_classes) reach every third vertex along geodesics
  with the same interiors. Only the smallest member of a class sweeps; its
  twins read its count row, which is kept until the last of them has read
  it.
- settle: pair counts are symmetric, so the sweep from v owes only the
  members after v in sorted order. It stops once the last of them is
  discovered and its level is complete, and the last member does not sweep.
- stop: after the peel, a member lies inside a geodesic only if it has two
  non-adjacent neighbours. One of degree at most 1 has no two, and one whose
  neighbours are pairwise adjacent (simplicial) would give the path a
  shortcut. When the members left can put at most k inside any pair's
  geodesic, the check passes once the first member's sweep has found every
  member in its component. Degrees alone decide most sets; the neighbour
  test runs only when they do not, once per twin class, and ends once k + 1
  members fail it.

Pairs are still read in lexicographic order, so the offending pair reported
is the first (v, q), v < q, over k. ops counts every adjacency step the
call makes (in the peel pass, the twin keys, the simplicial test and each
sweep; the pass and each sweep also count n) plus one step per member pair
read. It never exceeds |S|(n + 2m + |S|) + n + 2m: the test spends only
what that bound leaves once every class's sweep and every pair is paid for.

The exact solvers, which probe thousands of sets on one small graph, keep
packed geodesic counts per pair instead (solvers._CarriedChecker and
_SweptChecker); the tests rebuild them from DAGs (support.geodesic_dags).

oracle_min_internal_count recomputes the same quantity by enumerating every
geodesic outright, on distances from graphs.bfs_distances (the plain
graphs._bfs), so it shares no code with _count_bfs. It exists to cross-check
the kernel, never to replace it.
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


def _check_count(value, name: str, least: int = 0) -> int:
    """The one check of the tolerance k, every size limit and the oracle's cap."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise GraphInputError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    return value


def _check_tolerance(k) -> int:
    return _check_count(k, "tolerance k")


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
    """Counting BFS from v tracking the members of s: _count_bfs on
    validated ids, its result wrapped in a KernelResult."""
    check_vertex(g, v)
    members = check_vertex_set(g, s)
    dist, cnt, touches = _count_bfs(g.adj, _membership(g.n, members), v)
    dist_t = tuple(INFINITE if d is None else d for d in dist)
    cnt_t = tuple(INFINITE if d is None else c for d, c in zip(dist, cnt))
    dp = {q: cnt_t[q] for q in members}
    return KernelResult(source=v, dist=dist_t, cnt=cnt_t, dp=dp, edge_touches=touches)


def _membership(n: int, members) -> list:
    """in_s for _count_bfs: 1 at the members, 0 elsewhere."""
    in_s = [0] * n
    for q in members:
        in_s[q] = 1
    return in_s


def _count_bfs(adj, in_s: list, v: int, owed: int = 0):
    """Counting BFS from v on trusted input, as plain lists.

    When the BFS discovers w from u it sets dist[w] and cnt[w]; every later
    edge from the same level into w may lower cnt[w]. The step into w adds
    in_s[w] (1 when w is tracked, else 0); no step enters v, so a tracked
    source is not counted. Discovery order is nondecreasing in distance, so
    cnt[u] is final when u is dequeued, and every vertex of a level is final
    once the first vertex of that level is dequeued.

    owed is the number of tracked vertices after v (larger ids) the caller
    needs. Once the last of them is discovered, the sweep finishes its level
    and stops; with owed 0 it runs to the end. Returns (dist, cnt, touches),
    dist None and cnt 0 where unreached (or not reached before the stop);
    touches is n plus the adjacency steps.
    """
    n = len(adj)
    dist: list = [None] * n
    cnt = [0] * n
    dist[v] = 0
    order = [v]
    touches = n
    stop = n  # no distance reaches n, so the sweep runs on until it settles
    for u in order:  # the list grows while it is walked: a FIFO queue
        du1 = dist[u] + 1
        if du1 > stop:
            break  # u opens the settled level, so that level is final
        cu = cnt[u]
        touches += len(adj[u])
        for w in adj[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                tracked = in_s[w]
                cnt[w] = cu + tracked
                order.append(w)
                if tracked and w > v:
                    owed -= 1
                    if not owed:
                        stop = du1
            elif dw == du1:
                cand = cu + in_s[w]
                if cand < cnt[w]:
                    cnt[w] = cand
    return dist, cnt, touches


def _peel(adj, in_s: list):
    """adj without the untracked vertices that lie inside no geodesic.

    Repeatedly drops every untracked vertex of degree at most 1: no shortest
    path between two other vertices enters a vertex by its only edge, so
    dropping one changes no distance and no geodesic between the vertices
    left. Dropped vertices keep their (now unreachable) index. Returns the
    new adjacency, which shares every list no drop changed, and the steps
    taken: n plus the adjacency of every dropped vertex and of every list
    rebuilt, at most n + 2m.
    """
    n = len(adj)
    deg = [len(nbrs) for nbrs in adj]
    drop = [u for u in range(n) if deg[u] <= 1 and not in_s[u]]
    if not drop:
        return adj, n
    dropped = [False] * n
    touched = []
    steps = n
    for u in drop:  # the list grows while it is walked
        dropped[u] = True
        steps += len(adj[u])
        for w in adj[u]:
            if not dropped[w]:
                deg[w] -= 1
                touched.append(w)
                if deg[w] == 1 and not in_s[w]:  # a vertex at 0 was queued at 1
                    drop.append(w)
    peeled = list(adj)
    for w in set(touched):
        if not dropped[w]:
            steps += len(adj[w])
            peeled[w] = [x for x in adj[w] if not dropped[x]]
    return peeled, steps


def _twin_classes(adj, members: list):
    """Group the members by open or closed neighbourhood.

    Returns (rep, last, steps): rep[v] is the smallest member sharing v's
    open neighbourhood N(v) or its closed one N[v], last[r] the largest
    member of r's class, and steps the adjacency steps read. One dict holds
    both kinds of key, since N(u) == N[w] is impossible (w in N[w] would put
    w next to u, and then u in N(u), a contradiction). A vertex with twins of
    one kind has none of the other, so the classes partition the members.
    """
    first: dict = {}
    rep = {}
    last = {}
    steps = 0
    for v in members:
        nbrs = frozenset(adj[v])
        closed = nbrs | {v}
        steps += len(adj[v])
        r = first.get(nbrs, first.get(closed))
        if r is None:
            r = first[nbrs] = first[closed] = v
        rep[v] = r
        last[r] = v
    return rep, last, steps


def _non_simplicial(adj, inner, rep, limit: int, room: int):
    """The members of inner with two non-adjacent neighbours, and the steps
    taken to find them.

    A member whose neighbours are pairwise adjacent (a simplicial member)
    lies inside no geodesic: a path through it enters and leaves by two
    neighbours, and the edge between them is a shortcut. Twins share the
    answer, so each class tests only its representative r, the smallest
    member: every neighbour a of r but the last must be adjacent to all of
    r's other neighbours, which reads r's list and each a's list. Testing
    ends once limit members are known to be non-simplicial, or before a
    test that could take the steps past room; the members left untested
    are kept.
    """
    kept = []
    simplicial = {}
    steps = 0
    for i, v in enumerate(inner):
        r = rep[v]
        if r not in simplicial:
            nbrs = adj[r]
            reads = [adj[a] for a in nbrs[:-1]]
            spend = len(nbrs) + sum(map(len, reads))
            if steps + spend > room:
                return kept + inner[i:], steps
            steps += len(nbrs)
            near = set(nbrs)
            want = len(nbrs) - 1  # a's list holds r but not a itself
            simplicial[r] = True
            for nbrs_a in reads:
                steps += len(nbrs_a)
                if len(near.intersection(nbrs_a)) < want:
                    simplicial[r] = False
                    break
        if not simplicial[r]:
            kept.append(v)
            if len(kept) == limit:
                return kept + inner[i + 1:], steps
    return kept, steps


def internal_counts(g: Graph, x, source: int) -> list:
    """For every target, the minimum number of x-members strictly inside some
    shortest path from source; INFINITE where unreachable."""
    xs = check_vertex_set(g, x)
    counts = list(bfs_mkv(g, xs, source).cnt)
    for q in xs:  # cnt counts a tracked target itself, never the source
        if q != source and not is_infinite(counts[q]):
            counts[q] -= 1
    return counts


def min_internal_count(g: Graph, x, u: int, w: int) -> int:
    """Minimum number of x-members strictly between u and w on a shortest path."""
    xs = check_vertex_set(g, x)
    check_vertex(g, u)
    check_vertex(g, w)
    if u == w:
        return 0
    count = internal_counts(g, xs, u)[w]
    if is_infinite(count):
        raise DisconnectedGraphError(f"vertices {u} and {w} are in different components")
    return count


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

    Peels, shares rows between twins, settles each sweep early and stops,
    as the module docstring describes. Members in different components fail
    with a structured reason instead of an infinite count: the first
    member's sweep finds them.

    The stop: a vertex strictly inside a geodesic has two neighbours on it
    that are not adjacent, or the path would have a shortcut. So after the
    peel (which changes no geodesic between the vertices left) a member lies
    inside none unless it has two non-adjacent neighbours there. Call such
    members inner and let leaves = |S| - inner count the rest. The
    geodesics of a pair (v, q) hold only inner members other than v and q,
    at most inner - max(0, 2 - leaves) of them. Once that cap is at most k
    every pair passes, which covers |S| <= k + 2, and the check returns
    after the first member's sweep and its pair reads.

    The cap is first taken with every member of degree above 1 as inner.
    Only when it exceeds k, and no pair counts are asked for (they need
    every sweep anyway), does _non_simplicial test those members'
    neighbours. A cap above k means |S| >= k + 3, so once k + 1 members
    fail the test the cap stays above k and testing ends. A test that could
    take ops past the bound is skipped; untested members count as inner.

    With collect_pair_counts the full matrix of pairwise minimum internal
    counts is attached and no early exit happens, but for members in
    different components: those still return after the first sweep, with
    pair_counts None. It is refused above MAX_PAIR_COUNT_MEMBERS members.
    """
    _check_tolerance(k)
    members = sorted(check_vertex_set(g, s))
    if collect_pair_counts and len(members) > MAX_PAIR_COUNT_MEMBERS:
        raise SizeLimitError(f"pair counts limited to {MAX_PAIR_COUNT_MEMBERS} members, got {len(members)}")
    pair_counts: dict | None = {} if collect_pair_counts else None
    if len(members) <= 1:
        return CheckReport(True, k, pair_counts=pair_counts)
    in_s = _membership(g.n, members)
    adj, ops = _peel(g.adj, in_s)
    rep, last, steps = _twin_classes(adj, members)
    ops += steps
    size = len(members)
    inner = [v for v in members if len(adj[v]) > 1]
    if len(inner) - max(0, 2 - (size - len(inner))) > k and not collect_pair_counts:
        # what the bound leaves once every class's sweep and every pair is paid for
        room = (size - len(last) + 1) * (g.n + 2 * g.m) + size * (size + 1) // 2 - ops
        inner, steps = _non_simplicial(adj, inner, rep, k + 1, room)
        ops += steps
    cap = len(inner) - max(0, 2 - (size - len(inner)))
    rows = {}  # a class representative's count row, while a later twin needs it
    offending = offending_count = None
    for i, v in enumerate(members[:-1]):  # the last member owes no pair
        later = members[i + 1:]
        r = rep[v]
        if r == v:
            dist, cnt, touches = _count_bfs(adj, in_s, v, len(later))
            ops += touches
            if not i:
                q = next((q for q in later if dist[q] is None), None)
                if q is not None:
                    return CheckReport(False, k, offending_pair=(v, q), reason=REASON_DISCONNECTED, ops=ops)
                if cap <= k and not collect_pair_counts:
                    return CheckReport(True, k, ops=ops + len(later))
            if last[v] != v:
                rows[v] = cnt
        else:
            # a twin's geodesics to any third vertex have its representative's interiors
            cnt = rows[r] if last[r] != v else rows.pop(r)
        ops += len(later)
        # cnt[q] counts the tracked target q itself
        if collect_pair_counts:
            for q in later:
                pair_counts[v, q] = cnt[q] - 1
        if offending is None:
            q = next((q for q in later if cnt[q] > k + 1), None)
            if q is not None:
                offending, offending_count = (v, q), cnt[q] - 1
                if not collect_pair_counts:
                    break
    if offending is None:
        return CheckReport(True, k, pair_counts=pair_counts, ops=ops)
    return CheckReport(False, k, offending_pair=offending, offending_count=offending_count,
                       reason=REASON_PAIR, pair_counts=pair_counts, ops=ops)


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

    in_s = _membership(n, xs)
    ops = 0
    for sources, targets in sweeps:
        for v in sources:
            run = bfs_mkv(g, xs, v)
            ops += run.edge_touches
            cnt = run.cnt
            for w in targets(v):
                ops += 1
                count = cnt[w] - in_s[w]  # cnt counts a tracked target itself
                if count > k:
                    return CheckReport(False, k, offending_pair=(v, w), offending_count=count,
                                       reason=REASON_PAIR, ops=ops)
    return CheckReport(True, k, ops=ops)


def oracle_min_internal_count(g: Graph, x, u: int, w: int, cap: int = DEFAULT_GEODESIC_CAP) -> int:
    """Exact minimum internal count by enumerating every geodesic explicitly.

    Walks every geodesic back from w to u by depth-first search with an
    explicit stack, so path length is not limited by the recursion limit, and
    takes the minimum over complete paths. Refuses with GeodesicCapError once
    more than cap geodesics have been enumerated; it never approximates.
    """
    _check_count(cap, "cap", 1)
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
