"""Partitioning the vertex set into mutual k-visible parts.

tau_k is the least number of parts, found by backtracking over part counts
from the ceil(n/mu_k) lower bound upward; only ever opening the next fresh
part breaks symmetric labelings. Every part is a checker grown only by a
vertex that fits. tau_k's parts, solvers._CarriedChecker copies, share
tables built once per call, carry count rows and name the vertices after
each new member. greedy_cover's parts, grown in no such order, are
solvers._SweptChecker copies: nothing is built up front, each push runs one
BFS from the new member for its count row and its through row (shared by
the parts), and rows exist only for members, as its memory at n = 1000 needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError
from .graphs import Graph, check_vertex_set, require_connected
from .kernel import _check_count, _check_tolerance, mkv_check
from .solvers import DEFAULT_MU_MAX_N, _CarriedChecker, _SweptChecker, _admit, _solve_mu, mu_k

__all__ = [
    "CoverResult",
    "DEFAULT_COVER_MAX_N",
    "DEFAULT_TAU_MAX_N",
    "TauBounds",
    "cycle_cover_partition",
    "greedy_cover",
    "is_visibility_cover",
    "tau_bounds",
    "tau_k",
]

DEFAULT_TAU_MAX_N = 16
# greedy_cover keeps a through row of n masks of n bits per vertex and its
# parts one packed count per member and vertex: about 155-165 MB at n = 1000, k <= 1
DEFAULT_COVER_MAX_N = 1000

LOWER_CEIL_MU = "ceil(n/mu_k)"
LOWER_SEARCH = "exhausted-smaller-part-counts"


@dataclass(frozen=True)
class CoverResult:
    value: int
    partition: tuple[tuple[int, ...], ...]
    lower_bound_used: str


@dataclass(frozen=True)
class TauBounds:
    lower: int          # ceil(n / mu_k)
    upper_uniform: int  # parts of size at most k+2 always work
    upper_peel: int     # one maximum set plus size-(k+2) chunks of the rest

    def upper(self) -> int:
        return min(self.upper_uniform, self.upper_peel)


def is_visibility_cover(g: Graph, parts, k: int) -> bool:
    """True when parts partition V(g) into mutual k-visible sets."""
    _check_tolerance(k)
    seen: set = set()
    for part in parts:
        ps = check_vertex_set(g, part)
        if not ps or seen & ps:
            return False
        seen |= ps
        if not mkv_check(g, ps, k).verdict:
            return False
    return seen == set(range(g.n))


def tau_bounds(g: Graph, k: int, mu_value: int | None = None, mu_max_n: int = DEFAULT_MU_MAX_N) -> TauBounds:
    """Bounds on tau_k from mu_k, given as mu_value or solved within mu_max_n."""
    _check_tolerance(k)
    _check_count(mu_max_n, "mu_max_n")
    require_connected(g)
    n = g.n
    if n == 0:
        raise GraphInputError("covering bounds need at least one vertex")
    if mu_value is None:
        mu = mu_k(g, k, max_n=mu_max_n).value
    elif isinstance(mu_value, int) and not isinstance(mu_value, bool) and 1 <= mu_value <= n:
        mu = mu_value
    else:
        raise GraphInputError(f"mu_value must be an integer in [1, {n}], got {mu_value!r}")
    return TauBounds(
        lower=(n + mu - 1) // mu,
        upper_uniform=(n + k + 1) // (k + 2),
        upper_peel=1 + (n - mu + k + 1) // (k + 2),
    )


def tau_k(g: Graph, k: int, max_n: int = DEFAULT_TAU_MAX_N) -> CoverResult:
    """Least number of mutual k-visible parts partitioning V(g), with a witness.

    Exact backtracking: vertices in descending degree order are assigned to
    existing parts or to one fresh part; a vertex joins a part only when it
    fits there (feasibility is downward-hereditary, so the prune is sound).
    The mu_k behind the lower bound runs on the same checker as the parts.
    """
    order = _admit("tau_k", g, k, max_n)
    n = g.n
    if n == 0:
        return CoverResult(0, (), "empty graph")
    checker = _CarriedChecker(g, k)
    lower = tau_bounds(g, k, mu_value=_solve_mu(g, k, order, checker).value).lower
    later = [0] * n  # later[i]: the vertices after order[i]
    for i in range(n - 1, 0, -1):
        later[i - 1] = later[i] | 1 << order[i]

    for target in range(lower, n + 1):
        parts: list = []

        def place(i) -> bool:
            if i == n:
                return True
            v = order[i]
            limit = len(parts) + (1 if len(parts) < target else 0)
            for j in range(limit):
                if j == len(parts):
                    parts.append(checker.fresh())
                part = parts[j]
                if part.fits(v):
                    undo = part.push(v, later[i])
                    if place(i + 1):
                        return True
                    part.pop(v, undo)
                if j == len(parts) - 1 and not part.members:
                    parts.pop()
            return False

        if place(0):
            partition = tuple(tuple(sorted(p.members)) for p in parts)
            used = LOWER_CEIL_MU if target == lower else LOWER_SEARCH
            return CoverResult(target, partition, used)
    raise RuntimeError("unreachable: n singleton parts always cover")


def greedy_cover(g: Graph, k: int, max_n: int = DEFAULT_COVER_MAX_N) -> list[list[int]]:
    """First-fit cover: each vertex joins the first part that stays mutual
    k-visible, else opens a new one. Valid by construction, not optimal."""
    order = _admit("greedy_cover", g, k, max_n)
    checker = _SweptChecker(g, k)
    parts: list = []
    for v in order:
        part = next((p for p in parts if p.fits(v)), None)
        if part is None:
            parts.append(part := checker.fresh())
        part.push(v)
    return [sorted(p.members) for p in parts]


def cycle_cover_partition(n: int, k: int) -> list[list[int]]:
    """Optimal cover of the n-cycle by congruence classes modulo ceil(n/(2k+3)).

    Within one class consecutive selected vertices are at least
    t = ceil(n/(2k+3)) apart, so arcs between them carry no selected internal
    vertices. Requires 2k+3 < n; larger k makes the whole vertex set one part.
    """
    _check_tolerance(k)
    if not isinstance(n, int) or n < 3:
        raise GraphInputError(f"cycle needs at least three vertices, got {n!r}")
    if 2 * k + 3 >= n:
        raise GraphInputError(
            f"needs 2k+3 < n (got 2k+3 = {2 * k + 3}, n = {n}); "
            "for this k the whole vertex set is a single part"
        )
    t = (n + 2 * k + 2) // (2 * k + 3)
    return [list(range(r, n, t)) for r in range(t)]
