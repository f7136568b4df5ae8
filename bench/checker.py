"""Answer checking that does not trust the package under test.

Geodesic minimum counts are recomputed here by a BFS of the benchmark's own:
cnt[w] is the fewest members strictly inside some shortest source-w path,
taken over the w's BFS parents. Nothing here imports mkvis. Values that no
cheap computation can confirm (optima and counts of exponential searches) are
compared with reference.json, written by make_reference.py from answers that
were cross-checked the same way.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def min_counts(adj, members, source):
    """Distances from source and, per target, the fewest members strictly
    between source and target on a shortest path (None where unreachable)."""
    n = len(adj)
    dist = [None] * n
    cnt = [None] * n
    dist[source] = 0
    cnt[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        for w in nxt:
            best = None
            for p in adj[w]:
                if dist[p] == dist[w] - 1:
                    c = cnt[p] + (1 if p in members and p != source else 0)
                    if best is None or c < best:
                        best = c
            cnt[w] = best
        frontier = nxt
    return dist, cnt


def pair_count(adj, members, u, w):
    return min_counts(adj, members, u)[1][w]


def _first_violation(adj, members, k, sources, targets):
    """First (u, w, count) with count > k over u in sources, w in targets(u)."""
    for u in sources:
        cnt = min_counts(adj, members, u)[1]
        for w in targets(u):
            if cnt[w] is None or cnt[w] > k:
                return u, w, cnt[w]
    return None


def mutual_violation(adj, x, k):
    """None when x is mutual k-visible, else an offending (u, w, count)."""
    xs = sorted(set(x))
    return _first_violation(adj, set(xs), k, xs, lambda u: (w for w in xs if w > u))


def variant_violation(adj, x, k, variant):
    """None when x is a total/outer/dual k-visibility set, else an offending pair."""
    n = len(adj)
    xs = set(x)
    inside = sorted(xs)
    outside = [v for v in range(n) if v not in xs]
    if variant == "total":
        return _first_violation(adj, xs, k, range(n), lambda u: range(u + 1, n))
    if variant == "outer":
        return _first_violation(adj, xs, k, inside,
                                lambda u: (w for w in range(n) if w != u and (w not in xs or w > u)))
    return (_first_violation(adj, xs, k, inside, lambda u: (w for w in inside if w > u))
            or _first_violation(adj, xs, k, outside, lambda u: (w for w in outside if w > u)))


def in_general_position(adj, w):
    ws = sorted(set(w))
    dist = {a: min_counts(adj, (), a)[0] for a in ws}
    for a, b in combinations(ws, 2):
        for v in ws:
            if v not in (a, b) and dist[a][v] + dist[v][b] == dist[a][b]:
                return False
    return True


def metric(adj):
    """(diameter, girth or None, maximum degree) of a connected graph."""
    n = len(adj)
    diameter, girth = 0, None
    for root in range(n):
        dist = [None] * n
        parent = [None] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] is None:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        cycle = dist[u] + dist[w] + 1
                        girth = cycle if girth is None else min(girth, cycle)
            frontier = nxt
        diameter = max(diameter, max(dist))
    return diameter, girth, max((len(a) for a in adj), default=0)


def is_partition(n, parts):
    seen = [p for part in parts for p in part]
    return all(parts) and sorted(seen) == list(range(n))


# ---------------------------------------------------------------------------
# reference table
# ---------------------------------------------------------------------------

def summary(command, result):
    """The part of a result that the reference table pins down: invariant
    under relabeling, and None where the answer depends on vertex ids."""
    if command in ("mu", "mu-variant", "gp", "mu-block", "tau"):
        return result["value"]
    if command == "poly":
        return result["coefficients"]
    if command == "cover-greedy":
        return None  # first fit breaks degree ties by id; checked by recomputation
    if command == "check":
        return result["verdict"]
    if command == "bounds":
        return result
    return [len(result["articulation"]), len(result["blocks"])]


def load_reference(path=REFERENCE_PATH):
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# per-command checks; each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------

def _check_witness(adj, req, result):
    w = result["witness"]
    problems = []
    if len(set(w)) != result["value"] or not all(0 <= v < len(adj) for v in w):
        problems.append("witness size differs from value")
    elif req["command"] == "gp":
        if not in_general_position(adj, w):
            problems.append("witness not in general position")
    elif req["command"] == "mu-variant":
        if variant_violation(adj, w, req["k"], req["variant"]) is not None:
            problems.append(f"witness is not a {req['variant']} set")
    elif mutual_violation(adj, w, req["k"]) is not None:
        problems.append("witness is not mutual k-visible")
    return problems


def first_fit(adj, k):
    """The documented greedy cover: vertices by descending degree, then id,
    each joining the first part that stays mutual k-visible."""
    parts = []
    for v in sorted(range(len(adj)), key=lambda u: (-len(adj[u]), u)):
        for part in parts:
            if mutual_violation(adj, part + [v], k) is None:
                part.append(v)
                break
        else:
            parts.append([v])
    return [sorted(p) for p in parts]


def _check_partition(adj, req, result):
    parts = result["partition"]
    if not is_partition(len(adj), parts):
        return ["parts do not partition the vertex set"]
    if req["command"] == "cover-greedy":
        if parts != first_fit(adj, req["k"]) or result["part_count"] != len(parts):
            return ["cover differs from first fit"]
        return []
    if any(mutual_violation(adj, p, req["k"]) is not None for p in parts):
        return ["a part is not mutual k-visible"]
    return [] if result["value"] == len(parts) else ["part count differs from the partition"]


def _check_verdict(adj, req, result):
    k = req["k"]
    if "variant" in req:
        bad = variant_violation(adj, req["set"], k, req["variant"])
    else:
        bad = mutual_violation(adj, req["set"], k)
    if result["verdict"] != (bad is None):
        return [f"verdict {result['verdict']} is wrong"]
    if bad is not None:
        u, w = result["offending_pair"]
        members = set(req["set"])
        if pair_count(adj, members, u, w) != result["offending_count"] or result["offending_count"] <= k:
            return ["offending pair does not violate the tolerance"]
    return []


def _check_poly(adj, req, result):
    c = result["coefficients"]
    n = len(adj)
    if c[:3] != [1, n, n * (n - 1) // 2][: len(c)]:
        return ["low coefficients are not 1, n, n choose 2"]
    top = max(i for i, v in enumerate(c) if v)
    return [] if result["degree"] == top else ["degree is not the top nonzero index"]


def _check_bounds(adj, req, result):
    n = len(adj)
    k = req["k"]
    d, g, maxdeg = metric(adj)
    expect = {
        "diameter_bound": n - d + k + 1,
        "girth_bound": None if g is None else n - g + 2 * k + 3,
        "trivial_bound": n,
        "isometric_bound": n - d + k + 1,
        "degree_lower": maxdeg + 1 if k >= 1 else maxdeg,
    }
    wrong = [key for key, v in expect.items() if result[key] != v]
    return [f"{key} is wrong" for key in wrong]


def _check_blocks(adj, req, result):
    truth = req["graph"].blocks
    blocks = [sorted(b) for b in result["blocks"]]
    if sorted(blocks) != sorted(sorted(b) for b in truth):
        return ["blocks differ from the generated cliques"]
    membership = [0] * len(adj)
    for b in truth:
        for v in b:
            membership[v] += 1
    cuts = [v for v, c in enumerate(membership) if c > 1]
    if result["articulation"] != cuts or result["is_block_graph"] is not True:
        return ["articulation vertices or block-graph verdict wrong"]
    for v, node in enumerate(result["projection"]):
        ok = (node == {"kind": "cut", "vertex": v}) if membership[v] > 1 else (
            node["kind"] == "block" and v in blocks[node["index"]])
        if not ok:
            return [f"projection of vertex {v} is wrong"]
    if len(result["tree_edges"]) != sum(membership[v] for v in cuts):
        return ["tree edge count is wrong"]
    return []


_CHECKS = {
    "mu": _check_witness,
    "mu-variant": _check_witness,
    "gp": _check_witness,
    "mu-block": _check_witness,
    "tau": _check_partition,
    "cover-greedy": _check_partition,
    "check": _check_verdict,
    "poly": _check_poly,
    "bounds": _check_bounds,
    "blocks": _check_blocks,
}


def check_answer(req, result, reference):
    """Problems with one report's result; empty when the answer is correct.
    With reference None only the independent checks run."""
    adj = req["graph"].adjacency()
    try:
        problems = _CHECKS[req["command"]](adj, req, result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]
    if reference is None:
        return problems
    expected = reference.get(req["key"], "missing")
    if expected == "missing":
        problems.append("no reference answer for this input")
    elif expected is not None and summary(req["command"], result) != expected:
        problems.append(f"value differs from reference {expected!r}")
    return problems
