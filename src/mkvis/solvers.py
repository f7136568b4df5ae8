"""Exact solvers and bounds for mutual k-visibility numbers.

Mutual k-visible sets, general-position sets, and total and outer sets are
downward-closed families, so one depth-first engine, _search, serves every
exact maximiser here: mu_k, mu_k_variant, gp_number and
visibility_polynomial. (blocks.mu_k_block does not search: on a block graph
a tree DP finds mu_k.) The engine grows a set along a filtered candidate
list, keeps the incumbent, cuts a branch that cannot beat it and stops at a
proven upper bound, or, without one, counts every member of the family
once, tallying without a visit the subsets of a member that holds all of a
node's later candidates. A node's cut reads bound(cands), which caps what
every suffix of its candidates can add in one pass. mu_k tightens the cut
with convex paths and a clique cover of the candidate pairs that can no
longer see each other, and starts from a first-fit incumbent; dual sets,
which are not downward-closed, are searched within the mutual k-visible
family and accepted one by one. All solvers are desk-scale exhaustive
searches with configurable size limits and refuse larger inputs.

Feasibility is probed by a checker, the one owner of the geodesic
tables. Every ordered solve (mu_k's search and first-fit passes,
mu_k_variant, visibility_polynomial and covering.tau_k's parts) builds a
_CarriedChecker: it holds a count row for every vertex from the start,
and each push(v, later) names the vertices that may still join, so it
updates only the pairs among the members and those, marks in blind masks
the pairs that read 0 and sweeps nothing. fits reads v's new pairs
off those masks and hands the member pairs to breaks, the one test of a
pair that v's joining would zero. mu_k's search filters a node's
candidates with one narrow(v, later, undo) pass over the blind masks and
what the push changed. mu_k_variant keeps every vertex but v live on each
push, so every pair is exact: total and outer read the pairs that touch
the complement with breaks, and dual reads the pairs inside it to accept
a set and to cut a branch once two vertices that can no longer join lose
sight of each other. Only covering.greedy_cover grows sets in no order,
so its parts, _SweptChecker copies, build nothing up front and run one
BFS from each new member at its push. Every geodesic table comes from one
BFS per source (_geodesics) and one walk back (_below, all gp_number uses).
"""

from __future__ import annotations

import random
from copy import copy
from dataclasses import dataclass
from math import comb

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
    OUTER,
    TOTAL,
    _check_count,
    _check_tolerance,
    _check_variant_name,
    check_variant,
    mkv_check,
)

__all__ = [
    "BoundsRecord",
    "DEFAULT_ENUM_MAX_N",
    "DEFAULT_GP_MAX_N",
    "DEFAULT_MU_MAX_N",
    "DEFAULT_VARIANT_MAX_N",
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
# the slowest variant, dual at k = 1, took up to about 0.25 s at n = 22 and 0.5 s at n = 24
DEFAULT_VARIANT_MAX_N = 22


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: frozenset
    nodes_explored: int


def _search(order, fits, push, pop, weight, goal, bound=None, accept=None, incumbent=frozenset(), narrow=None):
    """Depth-first walk of a downward-closed family, heaviest set first.

    order lists the candidates; fits(v) tells whether the current set plus v
    stays in the family, with push(v, later) growing the state fits reads
    and pop(v, undo) shrinking it again, given what that push returned.
    later is the bitmask of the node's candidates after v: every set below
    the branch grows only by some of them, since a vertex filtered out of a
    node's candidates fits none of its descendants, so a push may keep its
    state right for the members and later alone. v is pushed only when
    later is nonzero: a set with no later candidate is still visited, with
    current holding v, but nothing reads the state a push would build for
    it. The root's candidates are filtered by fits. Below the root, without
    narrow, each of later's candidates is filtered by fits too; with it,
    narrow(v, later, undo), called right after the push with what it
    returned, gives the bitmask of later's candidates that still fit, and
    fits is not called. Every candidate in later fit the set before v, so
    narrow need only look for what v rules out.
    weight[v] is v's nonnegative weight. A branch is cut when its weight plus
    the most its remaining candidates cands[idx:] can add cannot beat the
    incumbent. bound(cands), when given, returns that most for every idx in
    one list; without it the most is their total weight. The walk starts
    from incumbent, a member of the family (empty by default), and stops
    once the incumbent reaches goal; an incumbent already there is returned
    with no set visited.
    accept(current), when given, decides which visited sets may become the
    incumbent. It is called on entering a node, when the pushed state holds
    current, or all of current but its last member when that member had no
    later candidate and was not pushed.

    With goal None no incumbent is kept and nothing is cut, and the walk
    counts every member of the family exactly once, visiting some and
    tallying the rest by size. A node then returns whether current plus all
    its candidates is a member; a node with no candidates returns True. When
    the child of cands[idx] returns True and its filter kept all r of
    cands[idx + 1:], current plus v plus those is a member, so, the family
    being downward-closed, current plus any nonempty subset of cands[idx +
    1:] is one too. Those are exactly the sets below the later siblings, so
    they are tallied, comb(r, j) of size len(current) + j, and not walked.
    The node returns True iff that happens at idx 0: were current plus
    cands a member, it would happen there.

    Returns (best weight, a best set, sets visited, sets counted by size).
    With goal None the best weight is -1, and the sets visited can be far
    fewer than the members counted.
    """
    best = sum(weight[v] for v in incumbent) if incumbent else -1
    best_set = frozenset(incumbent)
    nodes = 0
    sizes = [0] * (len(order) + 1)
    current: list = []

    def suffix_weights(cands) -> list:
        caps = []
        rest = 0
        for v in reversed(cands):
            rest += weight[v]
            caps.append(rest)
        caps.reverse()
        return caps

    counting = goal is None
    caps_of = None if counting else bound or suffix_weights

    def walk(cands, cw) -> bool:
        nonlocal best, best_set, nodes
        nodes += 1
        sizes[len(current)] += 1
        if goal is not None and cw > best and (accept is None or accept(current)):
            best = cw
            best_set = frozenset(current)
            if best >= goal:
                return True
        if not cands:
            return counting
        caps = caps_of(cands) if caps_of else None
        later = 0  # the candidates after v; a lone candidate has none
        if len(cands) > 1:
            for v in cands:
                later |= 1 << v
        for idx, v in enumerate(cands):
            if caps is not None and cw + caps[idx] <= best:
                break
            later &= ~(1 << v)
            undo = push(v, later) if later else None
            current.append(v)
            if narrow is None:
                child = [w for w in cands[idx + 1 :] if fits(w)]
            else:
                keep = narrow(v, later, undo) if later else 0
                child = [w for w in cands[idx + 1 :] if keep >> w & 1]
            stop = walk(child, cw + weight[v])
            current.pop()
            if later:
                pop(v, undo)
            if stop:
                if not counting:
                    return True
                r = len(child)
                if r == len(cands) - 1 - idx:
                    for j in range(1, r + 1):
                        sizes[len(current) + j] += comb(r, j)
                    return not idx
        return False

    if goal is None or best < goal:
        walk([v for v in order if fits(v)], 0)
    return best, best_set, nodes, sizes


def _geodesics(adj, s: int):
    """One BFS from s (Brandes' forward pass): the order, dist (None where
    unreached), sigma[t], the number of s-t geodesics, and between[t], the
    bitmask of the vertices on one, s and t included. Both sum or OR a
    vertex's parents, so they are final when it is dequeued."""
    n = len(adj)
    dist: list = [None] * n
    sigma, between = [0] * n, [0] * n
    dist[s], sigma[s], between[s] = 0, 1, 1 << s
    order = [s]
    for u in order:  # the list grows while it is walked: a FIFO queue
        du1 = dist[u] + 1
        pu, bu = sigma[u], between[u]
        for w in adj[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                order.append(w)
                sigma[w] = pu
                between[w] = bu | 1 << w
            elif dw == du1:
                sigma[w] += pu
                between[w] |= bu
    return order, dist, sigma, between


def _below(adj, order, dist) -> list:
    """through[v] for the source order[0], in one walk back over its BFS
    order: the bitmask of the t with v on some source-t geodesic."""
    below = [0] * len(adj)
    for u in reversed(order):
        bits = 1 << u
        du1 = dist[u] + 1
        for w in adj[u]:
            if dist[w] == du1:
                bits |= below[w]
        below[u] = bits
    return below


class _Checker:
    """Feasibility of growing a mutual k-visible set one vertex at a time:
    _CarriedChecker in every ordered solve, _SweptChecker in greedy_cover.

    Built once per solve, a checker owns the geodesic tables, among them
    through[a][v], the bitmask of vertices b such that v lies on some a-b
    geodesic. It holds a member list and its bitmask, mask; push(v, later)
    adds v and returns what pop(v, undo) needs to take it out again, and
    fresh() gives an empty set over the tables. Field j of rows[a][t]
    counts the a-t geodesics with exactly j members strictly inside, for
    j <= k', where k' = min(k, n - 2) since no geodesic has more internal
    vertices. width and full pack them: full keeps fields 0..k', and width
    exceeds the bit length of every geodesic count sigma(a, t) the rows can
    meet, so no field of a row, or of the products below (which count
    geodesics of one pair), carries into the next. A pair passes while its
    vector is nonzero. fits(v) assumes the members are already mutual
    k-visible (true when the set only ever grows by a v that fits) and
    sweeps nothing:

    - a new pair (q, v) keeps its geodesics' counts, so it passes iff it
      reads nonzero;
    - an old pair (a, q) changes only if v is on one of its geodesics, that
      is, q in through[a][v]. Then T = rows[a][v] * rows[q][v] & full counts
      the a-q geodesics through v by members inside (the product of two
      packed vectors convolves their fields, and no field carries), each
      of those gains v, and every other geodesic keeps its count:

          new = (rows[a][q] - T + (T << width)) & full

      new is zero iff every geodesic with at most k members inside has
      exactly k and passes through v: rows[a][q] == T with no field below
      k'. breaks(v, mask, mask) tests the member pairs that way, and total,
      outer and dual call breaks on pairs of their own.
    """

    def __init__(self, g: Graph, k: int, width: int):
        self.n = g.n
        self.k = k
        self.fields = min(k, max(g.n - 2, 0)) + 1
        self._pack(width)
        self._empty()

    def _pack(self, width: int) -> None:
        """Pack the fields width bits apart."""
        self.width = width
        self.full = (1 << self.fields * width) - 1
        self.low = self.full >> width  # the fields below k'

    def fresh(self):
        other = copy(self)
        other._empty()
        return other

    def breaks(self, v: int, sources: int, targets: int) -> bool:
        """Some pair (s, t), s in sources, t in targets and neither of them
        v, would read 0 were v a member, given that none does now: all its
        counted geodesics run through v and none has fewer than k' members
        inside. sources must lie within targets, so each pair is tested
        once, from its first end in sources; only those in inside[v] are
        read. rows[s] and rows[t] must be exact at t and v: members s and t
        in any checker, live s, t and v in a _CarriedChecker, all in
        _AllPairsChecker."""
        rows, through, full, low = self.rows, self.through, self.full, self.low
        sources &= self.inside[v]
        while sources:
            bit = sources & -sources
            sources ^= bit
            targets &= ~bit  # the pairs of s are all tested below
            s = bit.bit_length() - 1
            row = rows[s]
            sv = row[v]
            if not sv:
                continue  # no counted geodesic runs through v
            inner = through[s][v] & targets
            while inner:
                bit = inner & -inner
                inner ^= bit
                t = bit.bit_length() - 1
                c = row[t]
                if not c & low and c == sv * rows[t][v] & full:
                    return True
        return False


class _CarriedChecker(_Checker):
    """Rows for every vertex from the start, kept right for the live set.

    Built once: sigma[a][b], the number of a-b geodesics, and the between
    and through rows of every source a (_geodesics and _below); the width
    comes from the largest sigma, every row starts as its sigma row, and no
    push sweeps. fits and every later push read only pairs inside the live
    set, the members plus later, a bitmask of vertices other than v that
    holds every vertex a later fits or push names: _search passes its
    node's candidates after v, and the first-fit passes and tau_k the
    vertices after v in their order. push(v, later) applies the update to
    each pair {s, t} of the live set with t in through[s][v], in both
    orientations, and returns the old values for pop. A pair that drops
    out of the live set keeps its old value, right again once v is popped.
    It also keeps between[s][t], the bitmask of vertices on some s-t
    geodesic, s and t included, inside[v], the sources s with v strictly
    inside some s-t geodesic, and blind[s], the bitmask of the t whose pair
    with s reads 0: push sets the bits of each pair it zeroes, and pop
    clears them before it restores the old value. Like the rows, the bits
    are right for pairs inside the live set: a node's candidates were live
    at every push on its path, so fits, mu_k's bound and narrow read their
    pairs off blind. fresh() gives each copy its own rows and blind list.
    Memory: n^2 masks of n bits each in sigma, through and between, n^2
    packed ints of at most (k' + 1) * width bits in the rows (an int holds
    only the bits up to its top nonzero field), n masks in inside and blind.
    """

    def __init__(self, g: Graph, k: int):
        self.sigma, self.through, self.between, self.inside = [], [], [], [0] * g.n
        for s in range(g.n):
            order, dist, sigma, between = _geodesics(g.adj, s)
            below = _below(g.adj, order, dist)
            for u in order[1:]:
                if below[u] != 1 << u:  # some geodesic from s runs on past u
                    self.inside[u] |= 1 << s
            self.sigma.append(sigma)
            self.through.append(below)
            self.between.append(between)
        super().__init__(g, k, max((max(row) for row in self.sigma), default=1).bit_length() + 1)

    def _empty(self) -> None:
        self.members, self.mask = [], 0
        self.rows, self.blind = [row[:] for row in self.sigma], [0] * self.n

    def push(self, v: int, later: int):
        width, full, rows, through, blind = self.width, self.full, self.rows, self.through, self.blind
        live = self.mask | later
        vrow = rows[v]
        undo = []
        sources = live & self.inside[v]
        while sources:
            sbit = sources & -sources
            sources ^= sbit
            s = sbit.bit_length() - 1
            row = rows[s]
            sv = row[v]
            if not sv:
                continue  # no geodesic through v counts, so none changes
            inner = through[s][v] & live & -(2 << s)  # each pair once, from its smaller end
            while inner:
                bit = inner & -inner
                inner ^= bit
                t = bit.bit_length() - 1
                via = sv * vrow[t] & full
                if via:
                    old = row[t]
                    new = row[t] = rows[t][s] = (old - via + (via << width)) & full
                    if not new:
                        blind[s] |= bit
                        blind[t] |= sbit
                    undo.append((s, t, old))
        self.members.append(v)
        self.mask |= 1 << v
        return undo

    def pop(self, v: int, undo) -> None:
        rows, blind = self.rows, self.blind
        for s, t, old in undo:
            row = rows[s]
            if not row[t]:
                blind[s] ^= 1 << t
                blind[t] ^= 1 << s
            row[t] = rows[t][s] = old
        self.members.pop()
        self.mask ^= 1 << v

    def fits(self, v: int) -> bool:
        """v is not a member and is live; its new pairs read off blind."""
        mask = self.mask
        if len(self.members) + 1 <= self.k + 2:
            return True  # a geodesic holds at most |X|-2 internal members
        return not self.blind[v] & mask and not self.breaks(v, mask, mask)

    def narrow(self, v: int, later: int, undo) -> int:
        """The bits of later that still fit once v is pushed, given what
        push(v, later) returned; each w in later must have fit the members
        before v. Counts only grow, so w now fails only if its pair with a
        member, v included, reads 0, as blind tells (w and the member were
        live at every push on the path), or if a member pair in undo, or a
        new pair (v, q), has all its counted geodesics through w: fits'
        test, for the w in between[a][q]. A member pair the push left
        unchanged keeps its verdict: were v on an a-w-q geodesic with at
        most k' members inside, the push would have changed rows[a][q]."""
        members = self.members
        if len(members) + 1 <= self.k + 2:
            return later
        rows, mask, full, low, between = self.rows, self.mask, self.full, self.low, self.between
        keep = later
        for a in members:
            keep &= ~self.blind[a]
        pairs = [(v, q) for q in members[:-1]]  # v is the last member
        pairs += [(s, t) for s, t, _ in undo if mask >> s & 1 and mask >> t & 1]
        for a, q in pairs:
            c = rows[a][q]
            if c & low:
                continue
            bits = between[a][q] & keep
            ra, rq = rows[a], rows[q]
            while bits:
                bit = bits & -bits
                bits ^= bit
                w = bit.bit_length() - 1
                if c == ra[w] * rq[w] & full:
                    keep ^= bit
        return keep


class _AllPairsChecker(_CarriedChecker):
    """A _CarriedChecker whose every push keeps all vertices but v live, so
    every pair's row and blind bit is exact in any push order; sighted
    reads the blind masks of the pairs inside a set."""

    def push(self, v: int, later=None):
        """later is ignored: every vertex but v is live."""
        return super().push(v, (1 << self.n) - 1 ^ 1 << v)

    def sighted(self, out: int) -> bool:
        """No pair inside the bitmask out reads 0."""
        blind = self.blind
        bits = out
        while bits:
            bit = bits & -bits
            bits ^= bit
            if blind[bit.bit_length() - 1] & out:
                return False
        return True


class _SweptChecker(_Checker):
    """Rows for the members only, each built by one BFS at its push, as
    greedy_cover's parts, grown in no order, need: nothing is built up front.

    push(v) runs one BFS from v that counts v's geodesics and packs rows[v]
    with the members tracked, both final when a vertex is dequeued (Brandes'
    single-source path counting), and, the first time any copy pushes v,
    walks the BFS order back for through[v] (_below), which does not depend
    on the set and sits in a list that fresh() copies share. It then applies
    the update to rows[a][t] for every member a and t in through[a][v],
    replacing each changed row by an updated copy, and returns the old rows,
    so pop(v, undo) restores them and nothing outlives the pop; a caller
    that never pops drops them at once. Every count the rows and their
    products hold is at most sigma(a, t) for a member a, so width starts at
    4 and grows, in steps of 4 bits, only when a push's BFS meets a larger
    count: the member rows are then repacked before the undo is recorded,
    and pop repacks the rows it restores. Memory: n masks of n bits in
    through[v] for each vertex ever pushed, and n packed ints of at most
    (k' + 1) * width bits per member, so n^2 once all n vertices are
    members, as across greedy_cover's parts.
    """

    def __init__(self, g: Graph, k: int):
        self.adj = g.adj
        self.through = [None] * g.n  # filled per member at its push, shared by fresh() copies
        self.inside = [-1] * g.n  # every source, so breaks filters none
        super().__init__(g, k, 4)  # widened in 4-bit steps

    def _empty(self) -> None:
        self.members, self.mask = [], 0
        self.rows = [None] * self.n
        self.widths = []  # widths[i]: the field width of the rows the i-th push hands back

    def push(self, v: int, later=None):
        """later is ignored: every vertex stays a candidate."""
        n, adj, width, full, rows = self.n, self.adj, self.width, self.full, self.rows
        tracked = bytearray(n)
        for a in self.members:
            tracked[a] = 1
        # one BFS from v: paths[t] counts the v-t geodesics and vrow[t] packs
        # them by members strictly inside, both final when t is dequeued
        dist: list = [None] * n
        paths, vrow = [0] * n, [0] * n
        dist[v], paths[v], vrow[v] = 0, 1, 1
        order = [v]
        for u in order:  # the list grows while it is walked: a FIFO queue
            du1 = dist[u] + 1
            pu = paths[u]
            c = vrow[u]
            if tracked[u]:
                c = c << width & full
            for w in adj[u]:
                dw = dist[w]
                if dw is None:
                    dist[w] = du1
                    order.append(w)
                    paths[w] = pu
                    vrow[w] = c
                elif dw == du1:
                    paths[w] += pu
                    vrow[w] += c
        need = max(paths).bit_length() + 1
        if need > width:
            self._pack((need + 3) // 4 * 4)  # in 4-bit steps, so the rows are repacked less often
            for a in self.members:
                rows[a] = self._repacked(rows[a], width)
            if self.members:  # with none, vrow holds every geodesic in field 0 at any width
                if need > width + 1:
                    return _SweptChecker.push(self, v)  # a field of vrow may have carried into the next
                vrow = self._repacked(vrow, width)
            width, full = self.width, self.full
        through = self.through
        if through[v] is None:
            through[v] = _below(adj, order, dist)
        undo = []
        for a in self.members:
            bits = through[a][v] ^ 1 << v
            if not bits:
                continue
            old = rows[a]
            row = old[:]
            av = old[v]
            while bits:
                bit = bits & -bits
                bits ^= bit
                t = bit.bit_length() - 1
                vt = vrow[t]
                if vt:
                    via = av * vt & full
                    row[t] = (row[t] - via + (via << width)) & full
            rows[a] = row
            undo.append((a, old))
        rows[v] = vrow
        self.members.append(v)
        self.mask |= 1 << v
        self.widths.append(width)
        return undo

    def _repacked(self, row: list, old: int) -> list:
        """row, packed old bits apart, repacked to the current width."""
        width, keep = self.width, (1 << old) - 1
        if old == width or self.fields == 1:
            return row
        packed = [c & keep for c in row]
        for j in range(1, self.fields):
            packed = [p | (c >> j * old & keep) << j * width for p, c in zip(packed, row)]
        return packed

    def pop(self, v: int, undo) -> None:
        width = self.widths.pop()
        for a, old in undo:
            self.rows[a] = self._repacked(old, width)
        self.rows[v] = None
        self.members.pop()
        self.mask ^= 1 << v

    def fits(self, v: int) -> bool:
        """v is not a member; its new pairs read off the member rows."""
        if len(self.members) + 1 <= self.k + 2:
            return True  # a geodesic holds at most |X|-2 internal members
        rows = self.rows
        for q in self.members:
            if not rows[q][v]:
                return False
        return not self.breaks(v, self.mask, self.mask)


def _admit(name: str, g: Graph, k, max_n: int) -> list:
    """Entry checks of every exact solver, in one order: the tolerance k
    (None when the solver has none or checked it already), max_n's type,
    connectivity, then the size limit, refused under the solver's name.
    Returns the search order: vertices by descending degree, ties by id."""
    if k is not None:
        _check_tolerance(k)
    _check_count(max_n, "max_n")
    require_connected(g)
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"{name} limited to {max_n} vertices, got {n}; raise max_n to override")
    return sorted(range(n), key=lambda u: (-g.degree(u), u))


def _convex_paths(sigma, between, size: int) -> list:
    """Vertex-disjoint paths of more than size vertices, each the unique
    geodesic between its ends, as bitmasks picked greedily longest first.

    sigma and between are a _CarriedChecker's: a pair with sigma[s][t] == 1
    has one geodesic, and between[s][t] holds exactly its vertices. Every
    subpath of a unique geodesic is the unique geodesic between its own
    ends, so the path is geodesically convex.
    """
    n = len(sigma)
    found = [between[s][t] for s in range(n) for t in range(s + 1, n)
             if sigma[s][t] == 1 and between[s][t].bit_count() > size]
    found.sort(key=int.bit_count, reverse=True)
    parts = []
    used = 0
    for bits in found:
        if not bits & used:
            used |= bits
            parts.append(bits)
    return parts


def _first_fit(checker, order, goal: int) -> frozenset:
    """A mutual k-visible set to start mu_k's search from: the largest of
    a few first-fit passes, each taking every vertex that fits in turn.

    checker is an empty checker; each pass grows a fresh copy of it and
    pushes a vertex with the vertices after it in the pass as later, which
    holds every vertex the pass probes next. The first pass takes order;
    each further pass takes a shuffle of it from a fixed seed, so the same
    input gives the same set. The passes stop at the first that does not
    beat the best so far, or once the best reaches goal.
    """
    rng = random.Random(0)
    order = list(order)
    best: frozenset = frozenset()
    while len(best) < goal:
        held = checker.fresh()
        later = (1 << checker.n) - 1
        for v in order:
            later ^= 1 << v
            if held.fits(v):
                held.push(v, later)
        if len(held.members) <= len(best):
            break
        best = frozenset(held.members)
        rng.shuffle(order)
    return best


def mu_k(g: Graph, k: int, max_n: int = DEFAULT_MU_MAX_N) -> SolveResult:
    """Exact mutual k-visibility number with a verified witness.

    Branch and bound over the downward-closed family: candidates are filtered
    at every level, branches are cut when the surviving candidates cannot beat
    the incumbent, and the whole search stops once the incumbent meets an
    upper bound. The incumbent starts as the set _first_fit finds, lowest
    degree first, on fresh copies of the search's own checker; when that set
    meets the bound, no search node is visited. nodes_explored counts the
    search nodes only.

    The cut uses the convex-part argument: when a part C of V(g) is
    geodesically convex, a mutual k-visible X has |X & C| <= mu_k(g[C]). On
    a path that is the unique geodesic between its ends, the two extreme
    members of X see each other only along it, past every other member there,
    so it holds at most k + 2 members. With such paths from _convex_paths, a
    branch can add at most its free candidates plus, per path, the fewer of
    its candidates left and its room: k + 2 less the members on it, which
    bound counts off the checker's mask. The same sum over V(g) caps the
    cheap diameter/girth bound. A full path keeps no candidate: one more
    member on it would put k + 1 members inside the unique geodesic between
    two members there, so fits at the root and the checker's narrow below
    it, which is exact, drop it.

    Two candidates whose pair already reads 0, blind to each other, are
    never both in a set below the node, since counts only grow. So a
    greedy clique cover of the candidates' blind pairs, built from the back
    in the same pass, caps every suffix by its clique count too, and a
    branch's cap is the smaller of the two.
    """
    order = _admit("mu_k", g, k, max_n)
    if g.n == 0:
        return SolveResult(0, frozenset(), 0)
    return _solve_mu(g, k, order, _CarriedChecker(g, k))


def _solve_mu(g: Graph, k: int, order: list, checker: _CarriedChecker) -> SolveResult:
    """mu_k past its entry checks, on an empty _CarriedChecker;
    covering.tau_k shares its checker this way."""
    n = g.n
    path_of = [0] * n  # the convex path through each vertex, 0 off every path
    for bits in _convex_paths(checker.sigma, checker.between, k + 2):
        for v in range(n):
            if bits >> v & 1:
                path_of[v] = bits
    blind = checker.blind

    def bound(cands) -> list:
        """For every idx, the fewer of two caps on cands[idx:], in one pass
        from the end: the free candidates plus, per path, the fewer of its
        candidates and its room, k + 2 less the members on it, counted off
        the checker's mask when the pass first meets the path; and the
        cliques of a greedy clique cover of the candidates' blind pairs. A
        candidate joins the first clique it is blind to in full, or opens
        one."""
        mask = checker.mask
        room = {}  # per path met so far, the room its candidates seen leave
        caps = []
        cap = 0
        seen = 0
        cliques = []
        count = 0  # len(cliques)
        for v in reversed(cands):
            path = path_of[v]
            if not path:
                cap += 1
            else:
                free = room[path] if path in room else k + 2 - (mask & path).bit_count()
                if free > 0:
                    cap += 1
                room[path] = free - 1
            bit = 1 << v
            hit = blind[v] & seen
            seen |= bit
            if hit:
                for i, clique in enumerate(cliques):
                    if not clique & ~hit:
                        cliques[i] = clique | bit
                        break
                else:
                    cliques.append(bit)
                    count += 1
            else:  # blind to none seen: a new clique, no scan
                cliques.append(bit)
                count += 1
            caps.append(cap if cap < count else count)
        caps.reverse()
        return caps

    goal = min(bounds(g, k, gp_max_n=0).upper(), bound(order)[0])
    start = _first_fit(checker, order[::-1], goal)
    best, best_set, nodes, _ = _search(order, checker.fits, checker.push, checker.pop, [1] * n, goal, bound,
                                       incumbent=start, narrow=checker.narrow)
    if not mkv_check(g, best_set, k).verdict:
        raise RuntimeError("internal error: mu_k witness failed verification")
    return SolveResult(best, best_set, nodes)


def mu_k_variant(g: Graph, k: int, variant: str, max_n: int = DEFAULT_VARIANT_MAX_N) -> SolveResult:
    """Largest total/outer/dual k-visibility set, with a verified witness.

    Every variant set has all its internal pairs visible, so it is mutual
    k-visible and the plain diameter/girth bound caps the search.

    All three run on an _AllPairsChecker, whose rows are exact for every
    pair of vertices, so no probe sweeps.

    Total and outer sets are downward-closed. Let X' = X - {x}. Every path
    carries no more X'-members than X-members, so a pair that had a geodesic
    with at most k internal members still has one. Total asks this of the
    same pairs for X' as for X. Outer asks it of the pairs inside X' and
    from X' to V - X'; the only pairs new among those are (a, x) with a in
    X', and they were pairs inside X. So both run on _search with a fits
    that reads the rows of the pairs that can change: adding v changes only
    pairs with v strictly inside one of their geodesics, that is, pairs
    (s, t) with t in through[s][v] and s, t != v, and such a pair fails by
    the checker's breaks. Total tests every such pair; outer tests those
    with a member end, once v sees every vertex, since v's pairs are new.

    Dual is not downward-closed: dropping x adds every pair (x, c) with c
    outside X, which X never had to pass. In P4 with k = 0, {0, 1} is dual
    but {1} is not, since the pair (0, 2) now runs through 1. Dual sets are
    mutual k-visible, so dual searches that family with the checker's fits
    and narrow and accepts a set as incumbent only when no pair inside its
    complement reads 0, by the checker's blind masks; it tests the last
    member of current apart when _search did not push it. Counts only grow
    with the set, so once two vertices that no set below a branch takes,
    neither members nor among the branch's candidates, lose sight of each
    other, that branch and every later one of its node hold no dual set, and
    bound cuts them.
    """
    _check_tolerance(k)
    variant = _check_variant_name(variant)
    order = _admit("mu_k_variant", g, None, max_n)
    n = g.n
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    checker = _AllPairsChecker(g, k)
    blind, everyone = checker.blind, (1 << n) - 1
    bound = accept = narrow = None
    if variant == TOTAL:
        def fits(v) -> bool:
            others = everyone ^ 1 << v
            return not checker.breaks(v, others, others)
    elif variant == OUTER:
        def fits(v) -> bool:
            # the pairs from v are new, and every pair is exact
            return not blind[v] and not checker.breaks(v, checker.mask, everyone ^ 1 << v)
    else:
        fits, narrow = checker.fits, checker.narrow

        def accept(current) -> bool:
            out = everyone
            for v in current:
                out ^= 1 << v
            if not checker.sighted(out):
                return False
            if current and not checker.mask >> current[-1] & 1:  # pushed only with a later candidate
                return not checker.breaks(current[-1], out, out)
            return True

        def bound(cands) -> list:
            """The candidates left in cands[idx:], or -(n + 1) from the first
            idx whose out set, the vertices neither members nor in cands[idx:],
            holds a pair that reads 0: no set below that branch or any later
            one is dual, since none of them takes an out vertex and counts
            only grow."""
            size = len(cands)
            out = everyone ^ checker.mask
            for v in cands:
                out ^= 1 << v
            alive = 0
            if checker.sighted(out):
                for v in cands:
                    alive += 1
                    out |= 1 << v
                    if blind[v] & out:
                        break
            return [size - idx for idx in range(alive)] + [-(n + 1)] * (size - alive)

    goal = bounds(g, k, gp_max_n=0).upper()
    best, best_set, nodes, _ = _search(order, fits, checker.push, checker.pop, [1] * n, goal, bound, accept,
                                       narrow=narrow)
    if not check_variant(g, best_set, k, variant).verdict:
        raise RuntimeError("internal error: mu_k_variant witness failed verification")
    return SolveResult(best, best_set, nodes)


def gp_number(g: Graph, max_n: int = DEFAULT_GP_MAX_N) -> SolveResult:
    """Largest set with no member on any geodesic between two other members."""
    order = _admit("gp_number", g, None, max_n)
    n = g.n
    if n == 0:
        return SolveResult(0, frozenset(), 0)
    through = [_below(g.adj, *_geodesics(g.adj, s)[:2]) for s in range(n)]
    members, mask = [], 0

    def placeable(v) -> bool:
        """No member is strictly between v and a member, nor v between two."""
        return all(not through[a][v] & mask and through[v][a] & mask == 1 << a for a in members)

    def push(v, later) -> None:
        nonlocal mask
        members.append(v)
        mask |= 1 << v

    def pop(v, undo) -> None:
        nonlocal mask
        members.pop()
        mask ^= 1 << v

    best, best_set, nodes, _ = _search(order, placeable, push, pop, [1] * n, n)
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
    _check_count(gp_max_n, "gp_max_n")
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
        gp_lower=gp_number(g, max_n=gp_max_n).value if n <= gp_max_n else None,
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

    The family is downward-closed, so _search without a goal counts each
    feasible set exactly once by size, tallying without a visit every set
    below a node whose set plus all its later candidates is feasible. It
    searches in _admit's order, highest degree first: on the 11 random graphs
    (n 14 to 17) the count benchmark sends, that order visited about 38,000
    sets against about 50,000 in id order.
    """
    order = _admit("visibility_polynomial", g, k, max_n)
    n = g.n
    checker = _CarriedChecker(g, k)
    _, _, _, sizes = _search(order, checker.fits, checker.push, checker.pop, [1] * n, None)
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
