"""Partitioning the vertex set into mutual k-visible parts.

tau_k is the least number of parts, found by backtracking over part counts
from the ceil(n/mu_k) lower bound upward; only ever opening the next fresh
part breaks symmetric labelings. Every part is a solvers._IncrementalChecker
over geodesic tables built once per call, grown only by a vertex that fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, SizeLimitError
from .graphs import Graph, check_vertex_set, require_connected
from .kernel import _check_tolerance, mkv_check
from .solvers import DEFAULT_MU_MAX_N, _IncrementalChecker, mu_k

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
# greedy_cover's geodesic tables hold n^2 masks of n bits: about 260 MB at n = 1000
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
    require_connected(g)
    _check_tolerance(k)
    n = g.n
    if n == 0:
        raise GraphInputError("covering bounds need at least one vertex")
    mu = mu_value if mu_value is not None else mu_k(g, k, max_n=mu_max_n).value
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
    """
    require_connected(g)
    _check_tolerance(k)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"tau_k limited to {max_n} vertices, got {n}; raise max_n to override")
    if n == 0:
        return CoverResult(0, (), "empty graph")
    mu = mu_k(g, k, max_n=max_n).value
    lower = (n + mu - 1) // mu
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    checker = _IncrementalChecker(g, k)

    for target in range(max(lower, 1), n + 1):
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
                    part.push(v)
                    if place(i + 1):
                        return True
                    part.pop(v)
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
    require_connected(g)
    _check_tolerance(k)
    if g.n > max_n:
        raise SizeLimitError(f"greedy_cover limited to {max_n} vertices, got {g.n}; raise max_n to override")
    checker = _IncrementalChecker(g, k)
    parts: list = []
    for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u)):
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
