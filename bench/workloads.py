"""Seeded request lists for the benchmark workloads.

Each workload is a fixed list of request groups. A group names a subcommand,
a graph family with its size parameters, the subcommand's arguments, and how
many realizations of that shape one pass sends; realization i is generated
from its own index. The seed draws a fresh random vertex labeling of every
graph (and of the vertex sets passed to check), so each seed gives different
input files while the corpus stays fixed up to isomorphism. Every answer the
reference table pins is invariant under relabeling, so reference.json,
keyed by the unlabeled input, covers every seed. Drawing different graphs per
seed instead made the pass time and the latency tail swing by 10-25% between
seeds, more than the bounds the benchmark must hold.

The graph generators live here rather than in the package, so that a change
to the package's generators cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("search", "count", "check", "blocks")

# Request groups: (count, command, family, family parameters, extra).
# extra holds the subcommand's own parameters. A (lo, hi) pair is an
# inclusive range drawn per realization; the exponential workloads fix n, p
# and k per group instead, so that no one draw dominates the pass time. The
# counts place the median and the tail rank (the 11th slowest request)
# inside large groups of similar requests, so that lat_p50_ms and
# lat_tail_ms do not jump across a gap between request kinds: on search, the
# mu solves on random graphs; on count, cover-greedy at n = 70 (median) and
# at n = 100, k = 1 (tail).
_SEARCH = (
    [(1, "mu", "grid", (r, c), {"k": k}) for r, c in ((3, 6), (4, 5)) for k in (0, 1)]
    + [(8, "mu", "random", (n, 0.2), {"k": 0}) for n in (18, 20)]
    + [(12, "mu", "random", (18, 0.2), {"k": 1})]
    + [(3, "mu", "random", (n, 0.15), {"k": 2}) for n in (22, 24)]
    + [(1, "mu-variant", "random", (15, 0.2), {"k": 1, "variant": v}) for v in ("total", "outer", "dual")]
    + [(1, "mu-variant", "random", (14, 0.2), {"k": 0, "variant": v}) for v in ("total", "outer", "dual")]
    + [(1, "gp", "random", (n, 0.2), {}) for n in (16, 18, 20)]
)

_COUNT = (
    [(2, "poly", "random", (n, 0.2), {"k": 0}) for n in (14, 15, 16, 17)]
    + [(3, "poly", "random", (14, 0.2), {"k": 1})]
    + [(3, "tau", "random", (n, 0.2), {"k": k}) for k in (0, 1) for n in (12, 14, 16)]
    + [(c, "cover-greedy", "random", (n, 5 / n), {"k": 0}) for n, c in ((40, 2), (70, 8), (100, 2))]
    + [(c, "cover-greedy", "random", (n, 5 / n), {"k": 1}) for n, c in ((40, 2), (70, 2), (100, 8))]
)

# Sets drawn from degree-1 vertices always pass (a leaf is never inside a
# path); sets drawn from all vertices mostly fail, early.
_CHECK = (
    [(24, "check", "sparse", ((300, 2000), 0.25), {"k": (0, 3), "size": (5, 60), "leaves": leaves})
     for leaves in (True, False)]
    + [(4, "check", "sparse", ((100, 300), 0.25), {"k": (0, 3), "size": (3, 10), "variant": v})
       for v in ("total", "outer", "dual")]
    + [(8, "blocks", "block", ((1000, 2000), 0, 5), {}),
       (20, "bounds", "random", ((16, 24), (0.15, 0.25)), {"k": (0, 2)})]
)

# Tree-node counts per k keep every solve under about a second: the search
# grows fastest with the tree at k = 1 (2-11 s at 34 nodes), then at k = 3
# (up to 4 s at 31 nodes). k = 0 runs the trees above the 30-node default.
_BLOCKS = (
    [(4, "mu-block", "block", (0, t, 5), {"k": 0}) for t in (28, 32, 35)]
    + [(6, "mu-block", "block", (0, t, 5), {"k": 1}) for t in (18, 20, 22)]
    + [(6, "mu-block", "block", (0, t, 5), {"k": 2}) for t in (22, 24, 26)]
    + [(6, "mu-block", "block", (0, t, 5), {"k": 3}) for t in (20, 22, 24)]
)

# Same shapes at toy sizes, for the benchmark's own tests.
_TINY = {
    "search": [(1, "mu", "grid", (2, 3), {"k": 0}), (1, "mu", "random", ((7, 8), (0.2, 0.3)), {"k": 1}),
               (1, "mu-variant", "random", ((6, 7), (0.2, 0.3)), {"k": 0, "variant": "dual"}),
               (1, "gp", "random", ((7, 8), (0.2, 0.3)), {})],
    "count": [(1, "poly", "random", ((7, 8), (0.2, 0.3)), {"k": 1}),
              (1, "tau", "random", ((6, 7), (0.2, 0.3)), {"k": 0}),
              (1, "cover-greedy", "random", ((10, 12), (0.2, 0.3)), {"k": 0})],
    "check": [(1, "check", "sparse", ((30, 40), 0.25), {"k": (0, 1), "size": (3, 6), "leaves": True}),
              (1, "check", "sparse", ((30, 40), 0.25), {"k": (0, 1), "size": (3, 6), "leaves": False}),
              (1, "check", "sparse", ((12, 15), 0.25), {"k": (0, 1), "size": (2, 4), "variant": "outer"}),
              (1, "blocks", "block", ((20, 30), 0, 4), {}),
              (1, "bounds", "random", ((8, 9), (0.2, 0.3)), {"k": (0, 1)})],
    "blocks": [(1, "mu-block", "block", (0, (5, 8), 4), {"k": 0}),
               (1, "mu-block", "block", (0, (5, 8), 4), {"k": 2})],
}

GROUPS = {"search": _SEARCH, "count": _COUNT, "check": _CHECK, "blocks": _BLOCKS}


class Input:
    """One generated graph: edge list plus whatever ground truth its generator knows."""

    def __init__(self, n, edges, blocks=None):
        self.n = n
        self.edges = edges
        self.blocks = blocks  # the cliques of a generated block graph
        self.tree_nodes = None

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def text(self, comment=None):
        lines = [f"# {comment}"] if comment else []
        lines.append(f"{self.n} {len(self.edges)}")
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def grid(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Input(rows * cols, edges)


def random_connected(n, p, rng):
    """Random spanning tree plus each other pair independently with probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < p:
            edges.add((u, v))
    return Input(n, sorted(edges))


def sparse_connected(n, extra_ratio, rng):
    """Random spanning tree plus extra_ratio * n uniformly drawn extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = len(edges) + int(extra_ratio * n)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Input(n, sorted(edges))


def block_graph(min_vertices, min_tree_nodes, max_block_size, rng):
    """Clique blocks glued at random existing vertices until the graph has
    min_vertices vertices and its block-cut tree min_tree_nodes nodes."""
    size = rng.randint(2, max_block_size)
    blocks = [list(range(size))]
    member_of = [1] * size
    cuts = 0
    while len(member_of) < min_vertices or len(blocks) + cuts < min_tree_nodes:
        anchor = rng.randrange(len(member_of))
        size = rng.randint(2, max_block_size)
        blocks.append([anchor] + list(range(len(member_of), len(member_of) + size - 1)))
        cuts += member_of[anchor] == 1
        member_of[anchor] += 1
        member_of.extend([1] * (size - 1))
    edges = sorted({(min(a, b), max(a, b)) for blk in blocks for a, b in combinations(blk, 2)})
    graph = Input(len(member_of), edges, blocks=blocks)
    graph.tree_nodes = len(blocks) + cuts
    return graph


def _draw(rng, spec):
    if isinstance(spec, tuple):
        lo, hi = spec
        return rng.randint(lo, hi) if isinstance(lo, int) else round(rng.uniform(lo, hi), 3)
    return spec


def _make_graph(family, params, rng):
    if family == "grid":
        return grid(*params)
    if family == "random":
        return random_connected(_draw(rng, params[0]), _draw(rng, params[1]), rng)
    if family == "sparse":
        return sparse_connected(_draw(rng, params[0]), params[1], rng)
    return block_graph(_draw(rng, params[0]), _draw(rng, params[1]), params[2], rng)


def _relabel(graph, members, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges)
    blocks = [sorted(perm[v] for v in b) for b in graph.blocks] if graph.blocks else None
    relabeled = Input(graph.n, edges, blocks)
    relabeled.tree_nodes = graph.tree_nodes
    return relabeled, sorted(perm[v] for v in members) if members is not None else None


def _request(workload, group_index, group, realization, labels=None):
    """One request; with a labels generator its graph is randomly relabeled."""
    _, command, family, params, extra = group
    rng = random.Random(f"{workload}/{group_index}/{realization}")
    graph = _make_graph(family, params, rng)
    req = {"command": command, "group": group_index, "realization": realization}
    if "k" in extra:
        req["k"] = _draw(rng, extra["k"])
    if "variant" in extra:
        req["variant"] = extra["variant"]
    members = None
    if "size" in extra:
        adj = graph.adjacency()
        pool = [v for v in range(graph.n) if len(adj[v]) == 1] if extra.get("leaves") else list(range(graph.n))
        members = sorted(rng.sample(pool, min(len(pool), _draw(rng, extra["size"]))))
    req["key"] = _key(_args(req, graph, members), graph.text())
    if labels is not None:
        graph, members = _relabel(graph, members, labels)
    if members is not None:
        req["set"] = members
    req["graph"] = graph
    req["args"] = _args(req, graph, members)
    return req


def _args(req, graph, members):
    args = [req["command"]]
    if "k" in req:
        args += ["-k", str(req["k"])]
    if "variant" in req:
        args += ["--variant", req["variant"]]
    if members is not None:
        args += ["--set", ",".join(map(str, members))]
    if req["command"] == "mu-block" and graph.tree_nodes > 30:  # the subcommand's default limit
        args += ["--max-nodes", str(graph.tree_nodes)]
    return args


def _key(args, text):
    """Content hash of an unlabeled request: its arguments and its input text."""
    h = hashlib.sha256(" ".join(args).encode())
    h.update(b"\n" + text.encode())
    return h.hexdigest()[:20]


def _groups(workload, tiny):
    return _TINY[workload] if tiny else GROUPS[workload]


def requests(workload, seed, tiny=False):
    """The workload's request list for one seed; every input is in memory."""
    labels = random.Random(f"{workload}#{seed}")
    return [_request(workload, gi, group, r, labels)
            for gi, group in enumerate(_groups(workload, tiny)) for r in range(group[0])]


def pool(workload, tiny=False):
    """Every request of the workload, unlabeled, as the reference table keys them."""
    return [_request(workload, gi, group, r)
            for gi, group in enumerate(_groups(workload, tiny)) for r in range(group[0])]


def write_inputs(reqs, directory: Path):
    """Write each request's graph as an edge-list file and complete its argv."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(reqs):
        path = directory / f"{i:03d}.txt"
        text = req["graph"].text(f"group {req['group']} realization {req['realization']}")
        path.write_text(text, encoding="utf-8")
        req["text"] = text
        req["argv"] = req["args"][:1] + ["--input", str(path)] + req["args"][1:]


def describe(workload):
    """One line per request group, as recorded in design.json."""
    def fmt(value):
        if isinstance(value, tuple):
            return "(" + ", ".join(fmt(v) for v in value) + ")"
        return f"{value:.3g}" if isinstance(value, float) else str(value)

    lines = []
    for count, command, family, params, extra in GROUPS[workload]:
        opts = "".join(f" {k}={fmt(v)}" for k, v in sorted(extra.items()))
        lines.append(f"{count} x {command} on {family}{fmt(params)}{opts}")
    return lines
