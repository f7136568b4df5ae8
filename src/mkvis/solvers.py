"""Exact solvers and bounds for mutual k-visibility numbers.

Mutual k-visible sets, general-position sets, and total and outer sets are
downward-closed families, so one depth-first engine, _search, serves every
exact maximiser here: mu_k, mu_k_variant, gp_number and
visibility_polynomial. (blocks.mu_k_block does not search: on a block graph
a tree DP finds mu_k.) The engine grows a set along a filtered candidate
list, keeps the incumbent, cuts a branch that cannot beat it and stops at a
proven upper bound, or, without one, visits every member of the family
once. mu_k tightens the cut with convex paths, and dual sets, which are not
downward-closed, are searched within the mutual k-visible family and
accepted one by one. All solvers are desk-scale exhaustive searches with
configurable size limits and refuse larger inputs.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from .errors import GraphInputError, SizeLimitError
# bench/tracing.py rebinds all_pairs_distances and metric_summary here by name.
from .graphs import (
    Graph,
    INFINITE,
    Infinite,
    all_pairs_distances,
    check_vertex_set,
    convex_hull,
    induced_subgraph,
    is_infinite,
    is_isometric_path,
    metric_summary,
    require_connected,
)
from .kernel import (
    DUAL,
    TOTAL,
    _check_tolerance,
    _check_variant_name,
    _geodesic_dags,
    _sweep,
    check_variant,
    mkv_check,
)

__all__ = [
    "BoundsRecord",
    "DEFAULT_ENUM_MAX_N",
    "DEFAULT_GP_MAX_N",
    "DEFAULT_MU_MAX_N",
    "Polynomial",
    "SolveResult",
    "bounds",
    "cycle_extremal_set",
    "gp_number",
    "hull_cover_bound",
    "mu_k",
    "mu_k_variant",
    "visibility_polynomial",
]

DEFAULT_MU_MAX_N = 24
DEFAULT_ENUM_MAX_N = 18
DEFAULT_GP_MAX_N = 20


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: frozenset
    nodes_explored: int


def _search(order, fits, push, pop, weight, goal, bound=None, accept=None):
    """Depth-first walk of a downward-closed family, heaviest set first.

    order lists the candidates; fits(v) tells whether the current set plus v
    stays in the family, with push(v) and pop(v) growing and shrinking the
    state fits reads. The root's candidates are filtered by fits like every
    other level's. weight[v] is v's nonnegative weight. A branch is cut when
    its weight plus the most its remaining candidates cands[idx:] can add
    cannot beat the incumbent; that most is bound(cands, idx) when given,
    else their total weight. The walk stops once the incumbent reaches goal.
    accept(current), when given, decides which visited sets may become the
    incumbent. With goal None no incumbent is kept, so nothing is cut and
    every member is visited exactly once.

    Returns (best weight, a best set, sets visited, visited sets by size);
    the best weight is -1 when goal is None.
    """
    best = -1
    best_set: frozenset = frozenset()
    nodes = 0
    sizes = [0] * (len(order) + 1)
    current: list = []

    def walk(cands, cw) -> bool:
        nonlocal best, best_set, nodes
        nodes += 1
        sizes[len(current)] += 1
        if goal is not None and cw > best and (accept is None or accept(current)):
            best = cw
            best_set = frozenset(current)
            if best >= goal:
                return True
        rest = sum(weight[v] for v in cands)
        for idx, v in enumerate(cands):
            if cw + (rest if bound is None else bound(cands, idx)) <= best:
                break
            rest -= weight[v]
            push(v)
            current.append(v)
            child = [w for w in cands[idx + 1 :] if fits(w)]
            stop = walk(child, cw + weight[v])
            current.pop()
            pop(v)
            if stop:
                return True
        return False

    walk([v for v in order if fits(v)], 0)
    return best, best_set, nodes, sizes


class _IncrementalChecker:
    """Feasibility of growing a mutual k-visible set one vertex at a time.

    Built once per solve: every source's shortest-path DAG (_geodesic_dags)
    and through[a][v], the bitmask of vertices b such that v lies on some
    a-b geodesic (v's descendants in a's DAG, v included). It holds the set
    under test as a member list plus an int bitmask, grown and shrunk by
    push and pop, so a probe allocates nothing but count lists; fresh()
    gives an empty checker over the same tables.

    fits(v) tests members + {v}, given that the members are already mutual
    k-visible (true when the set only ever grows by a v that fits): one
    sweep of v's DAG covers the new pairs, then every member a with
    through[a][v] meeting the set is swept again, because adding v can raise
    the minimum count of old pairs through a. Pairs with v on none of their
    geodesics keep their counts, so their old verdict stands.

    Only the mutual k-visible searches call fits. gp_number and the total
    and outer searches of mu_k_variant read through and the held set
    (push, pop, members, mask) with tests of their own.
    """

    def __init__(self, g: Graph, k: int):
        n = g.n
        self.n = n
        self.k = k
        self.dags = _geodesic_dags(g)
        self.through = []
        for dag in self.dags:
            below = [0] * n
            for u, forward in reversed(dag):
                bits = 1 << u
                for w in forward:
                    bits |= below[w]
                below[u] = bits
            self.through.append(below)
        self.members: list = []
        self.mask = 0

    def fresh(self) -> "_IncrementalChecker":
        other = copy(self)
        other.members, other.mask = [], 0
        return other

    def push(self, v: int) -> None:
        self.members.append(v)
        self.mask |= 1 << v

    def pop(self, v: int) -> None:
        self.members.pop()
        self.mask ^= 1 << v

    def fits(self, v: int) -> bool:
        """v is not a member."""
        current = self.members
        if len(current) + 1 <= self.k + 2:
            return True  # a geodesic holds at most |X|-2 internal members
        limit = self.k + 1  # every target is tracked, so cnt counts it too
        n = self.n
        dags = self.dags
        mask = self.mask
        xs = mask | 1 << v
        cnt = _sweep(dags[v], xs, n)
        for q in current:
            if cnt[q] > limit:
                return False
        through = self.through
        for a in current:
            if through[a][v] & mask:
                cnt = _sweep(dags[a], xs, n)
                for q in current:  # the pair a, v was settled by v's sweep
                    if cnt[q] > limit:
                        return False
        return True


def _cheap_upper_bound(g: Graph, k: int) -> int:
    n = g.n
    ms = metric_summary(g)
    ub = min(n, n - ms.diameter + k + 1)
    if not is_infinite(ms.girth):
        ub = min(ub, n - ms.girth + 2 * k + 3)
    return ub


def _convex_paths(dags, size: int) -> list:
    """Vertex-disjoint paths of more than size vertices, each the unique
    geodesic between its ends, picked greedily longest first.

    Geodesics are counted per pair along the DAGs of _geodesic_dags; a
    target reached by exactly one geodesic has exactly one DAG predecessor,
    so its path is read back through those. Every subpath of a unique geodesic is the unique
    geodesic between its own ends, so the path is geodesically convex.
    """
    n = len(dags)
    found = []
    for s, dag in enumerate(dags):
        sigma = [0] * n
        pred = [s] * n
        depth = [0] * n
        sigma[s] = 1
        for u, forward in dag:
            for w in forward:
                sigma[w] += sigma[u]
                pred[w] = u
                depth[w] = depth[u] + 1
        for t in range(s + 1, n):
            if sigma[t] == 1 and depth[t] >= size:
                path = [t]
                while path[-1] != s:
                    path.append(pred[path[-1]])
                found.append(path)
    found.sort(key=len, reverse=True)
    parts = []
    used = 0
    for path in found:
        bits = sum(1 << v for v in path)
        if not bits & used:
            used |= bits
            parts.append(path)
    return parts


def mu_k(g: Graph, k: int, max_n: int = DEFAULT_MU_MAX_N) -> SolveResult:
    """Exact mutual k-visibility number with a verified witness.

    Branch and bound over the downward-closed family: candidates are filtered
    at every level, branches are cut when the surviving candidates cannot beat
    the incumbent, and the whole search stops once the incumbent meets an
    upper bound.

    The cut uses the convex-part argument: when a part C of V(g) is
    geodesically convex, a mutual k-visible X has |X & C| <= mu_k(g[C]). On
    a path that is the unique geodesic between its ends, the two extreme
    members of X see each other only along it, past every other member there,
    so it holds at most k + 2 members. With such paths from _convex_paths, a
    candidate whose path is full is dropped, a branch can add at most its free
    candidates plus, per path, the fewer of its candidates left and its free
    room, and the same sum over V(g) caps the cheap diameter/girth bound.
    """
    _check_tolerance(k)
    require_connected(g)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"mu_k limited to {max_n} vertices, got {n}; raise max_n to override")
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    checker = _IncrementalChecker(g, k)
    parts = _convex_paths(checker.dags, k + 2)
    part_of = [len(parts)] * n  # the last slot holds the vertices on no path
    for i, path in enumerate(parts):
        for v in path:
            part_of[v] = i
    room = [k + 2] * len(parts) + [n]

    def fits(v) -> bool:
        return room[part_of[v]] > 0 and checker.fits(v)

    def push(v) -> None:
        room[part_of[v]] -= 1
        checker.push(v)

    def pop(v) -> None:
        room[part_of[v]] += 1
        checker.pop(v)

    def bound(cands, idx) -> int:
        left = [0] * len(room)
        for v in cands[idx:]:
            left[part_of[v]] += 1
        return sum(map(min, left, room))

    order = sorted(range(n), key=lambda u: (-g.degree(u), u))
    goal = min(_cheap_upper_bound(g, k), bound(order, 0))
    best, best_set, nodes, _ = _search(order, fits, push, pop, [1] * n, goal, bound)
    if not mkv_check(g, best_set, k).verdict:
        raise RuntimeError("internal error: mu_k witness failed verification")
    return SolveResult(best, best_set, nodes)


def mu_k_variant(g: Graph, k: int, variant: str, max_n: int = DEFAULT_ENUM_MAX_N) -> SolveResult:
    """Largest total/outer/dual k-visibility set, with a verified witness.

    Every variant set has all its internal pairs visible, so it is mutual
    k-visible and the plain diameter/girth bound caps the search.

    Total and outer sets are downward-closed. Let X' = X - {x}. Every path
    carries no more X'-members than X-members, so a pair that had a geodesic
    with at most k internal members still has one. Total asks this of the
    same pairs for X' as for X. Outer asks it of the pairs inside X' and
    from X' to V - X'; the only pairs new among those are (a, x) with a in
    X', and they were pairs inside X. So both run on _search with a fits
    that sweeps the geodesic DAGs of the sources whose pairs can change:
    adding v changes only pairs with v strictly inside one of their
    geodesics, that is, pairs (s, t) with t in through[s][v] and s, t != v.
    Total sweeps every such source; outer sweeps the members among them plus
    v, whose pairs to the complement are new.

    Dual is not downward-closed: dropping x adds every pair (x, c) with c
    outside X, which X never had to pass. In P4 with k = 0, {0, 1} is dual
    but {1} is not, since the pair (0, 2) now runs through 1. Dual sets are
    mutual k-visible, so dual searches that family with _IncrementalChecker
    and accepts a set as incumbent only when every pair inside its
    complement passes as well.
    """
    _check_tolerance(k)
    variant = _check_variant_name(variant)
    require_connected(g)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"mu_k_variant limited to {max_n} vertices, got {n}; raise max_n to override")
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    checker = _IncrementalChecker(g, k)
    dags, through = checker.dags, checker.through

    def sees(s, xs, targets) -> bool:
        """Every s-t pair, t in targets, has a geodesic with at most k
        internal members of xs (the sweep counts a tracked target too)."""
        cnt = _sweep(dags[s], xs, n)
        return all(cnt[t] - (xs >> t & 1) <= k for t in targets)

    def keeps(v) -> bool:
        """The members plus v stay a total or outer set."""
        xs = checker.mask | 1 << v
        if variant == TOTAL:
            sources = range(n)
        else:  # outer: the pairs from v to the complement are new
            if not sees(v, xs, range(n)):
                return False
            sources = checker.members
        return all(sees(s, xs, range(n)) for s in sources if s != v and through[s][v] != 1 << v)

    def complement_sees(current) -> bool:
        xs = checker.mask
        outside = [c for c in range(n) if not xs >> c & 1]
        return all(sees(c, xs, outside) for c in outside)

    order = sorted(range(n), key=lambda u: (-g.degree(u), u))
    fits, accept = (checker.fits, complement_sees) if variant == DUAL else (keeps, None)
    best, best_set, nodes, _ = _search(
        order, fits, checker.push, checker.pop, [1] * n, _cheap_upper_bound(g, k), accept=accept
    )
    if not check_variant(g, best_set, k, variant).verdict:
        raise RuntimeError("internal error: mu_k_variant witness failed verification")
    return SolveResult(best, best_set, nodes)


def gp_number(g: Graph, max_n: int = DEFAULT_GP_MAX_N) -> SolveResult:
    """Largest set with no member on any geodesic between two other members."""
    require_connected(g)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"gp_number limited to {max_n} vertices, got {n}; raise max_n to override")
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    checker = _IncrementalChecker(g, 0)
    through = checker.through
    order = sorted(range(n), key=lambda u: (-g.degree(u), u))

    def placeable(v) -> bool:
        """No member is strictly between v and a member, nor v between two."""
        mask = checker.mask
        return all(not through[a][v] & mask and through[v][a] & mask == 1 << a for a in checker.members)

    best, best_set, nodes, _ = _search(order, placeable, checker.push, checker.pop, [1] * n, n)
    return SolveResult(best, best_set, nodes)


@dataclass(frozen=True)
class BoundsRecord:
    """Upper and lower estimates for the k-visibility number of one graph."""

    diameter_bound: int
    girth_bound: "int | Infinite"
    trivial_bound: int
    isometric_bound: int
    degree_lower: int
    gp_lower: int | None

    def upper(self) -> int:
        ub = min(self.diameter_bound, self.trivial_bound, self.isometric_bound)
        if not is_infinite(self.girth_bound):
            ub = min(ub, self.girth_bound)
        return ub

    def lower(self) -> int:
        lo = self.degree_lower
        if self.gp_lower is not None:
            lo = max(lo, self.gp_lower)
        return lo


def bounds(g: Graph, k: int, isometric_path=None, gp_max_n: int = DEFAULT_GP_MAX_N) -> BoundsRecord:
    """Bound record for mu_k: diameter, girth, isometric-path and trivial upper
    bounds, maximum-degree and general-position lower bounds.

    Without an explicit isometric path the bound defaults to a diametral
    geodesic, which is always isometric, making it equal the diameter bound.
    gp_lower is omitted (None) when the graph exceeds gp_max_n.
    """
    _check_tolerance(k)
    require_connected(g)
    n = g.n
    if n == 0:
        raise GraphInputError("bounds need at least one vertex")
    ms = metric_summary(g)
    d = ms.diameter
    if isometric_path is None:
        ell = d
    else:
        path = list(isometric_path)
        if not path:
            raise GraphInputError("an isometric path needs at least one vertex")
        if not is_isometric_path(g, path):
            raise GraphInputError("supplied path is not isometric")
        ell = len(path) - 1
    return BoundsRecord(
        diameter_bound=n - d + k + 1,
        girth_bound=INFINITE if is_infinite(ms.girth) else n - ms.girth + 2 * k + 3,
        trivial_bound=n,
        isometric_bound=n - ell + k + 1,
        degree_lower=ms.max_degree + 1 if k >= 1 else ms.max_degree,
        gp_lower=gp_number(g).value if n <= gp_max_n else None,
    )


@dataclass(frozen=True)
class Polynomial:
    """Counts of mutual k-visible sets by cardinality; coefficient i is the
    number of such sets of size i. The top nonzero index equals mu_k."""

    coefficients: tuple[int, ...]

    def degree(self) -> int:
        top = 0
        for i, c in enumerate(self.coefficients):
            if c:
                top = i
        return top

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return " + ".join(terms) if terms else "0"


def visibility_polynomial(g: Graph, k: int, max_n: int = DEFAULT_ENUM_MAX_N) -> Polynomial:
    """Count every mutual k-visible set, grouped by cardinality.

    The family is downward-closed, so _search without a goal visits each
    feasible set exactly once and tallies them by size.
    """
    _check_tolerance(k)
    require_connected(g)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"visibility_polynomial limited to {max_n} vertices, got {n}; raise max_n to override")
    checker = _IncrementalChecker(g, k)
    _, _, _, sizes = _search(range(n), checker.fits, checker.push, checker.pop, [1] * n, None)
    return Polynomial(tuple(sizes))


def cycle_extremal_set(n: int, k: int) -> set[int]:
    """A largest mutual k-visible set on the n-cycle with vertices 0..n-1.

    Two consecutive runs of sizes k+2 and k+1 separated by gaps of floor and
    ceil of (n-2k-3)/2 unselected vertices; 2k+3 vertices in total.
    """
    _check_tolerance(k)
    if not isinstance(n, int) or n < 3:
        raise GraphInputError(f"cycle needs at least three vertices, got {n!r}")
    if 2 * k + 3 > n:
        raise GraphInputError(
            f"2k+3 = {2 * k + 3} exceeds n = {n}: every vertex subset of the "
            f"{n}-cycle is mutual {k}-visible, take all of V instead"
        )
    gap = (n - (2 * k + 3)) // 2
    first = set(range(k + 2))
    start = k + 2 + gap
    second = set(range(start, start + k + 1))
    return first | second


def hull_cover_bound(g: Graph, parts, k: int, max_n: int = DEFAULT_MU_MAX_N) -> int:
    """Sum of mu_k over the convex hulls of a vertex cover of g.

    The parts must cover every vertex (overlaps allowed); each hull induces a
    convex subgraph whose exact mu_k is solved separately. The sum is an upper
    bound for mu_k of g.
    """
    _check_tolerance(k)
    require_connected(g)
    part_sets = [check_vertex_set(g, p) for p in parts]
    covered: set = set()
    for p in part_sets:
        covered |= p
    if covered != set(range(g.n)):
        raise GraphInputError("parts do not cover every vertex")
    total = 0
    for p in part_sets:
        hull = convex_hull(g, p)
        sub, _ = induced_subgraph(g, hull)
        total += mu_k(sub, k, max_n=max_n).value
    return total
