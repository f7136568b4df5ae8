"""Block-cutpoint structure and mutual k-visibility on block graphs.

A block graph is a connected graph whose blocks (maximal 2-connected
subgraphs, including bridges) are all cliques; block_decomposition finds
the blocks by one depth-first search that cuts each block off a stack of
discovered vertices as it closes. The block-cutpoint tree has a
node per articulation vertex and per block; a subset Z of tree nodes is
k-admissible when no tree path between two Z-nodes passes through more than k
selected articulation nodes. Expanding a k-admissible Z (all non-cut vertices
of its blocks plus its cut vertices) yields a mutual k-visible set, and every
mutual k-visible set contracts back to a k-admissible Z, so the maximum
expanded size equals mu_k. mu_k_block weighs each cut node 1 and gives
each block node its non-cut vertex count as an end-only weight: a pendant
leaf that is never inside a tree path. Admissibility then only limits how
many chosen cut nodes lie inside each path between two chosen nodes, so the
heaviest such set comes from a linear post-order DP over the tree's own int
adjacency, not a search, whose table entries carry their own members; the
witness is the expansion of the chosen cut and block nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, SizeLimitError
from .graphs import Graph, _bfs, _iterate, check_vertex, check_vertex_set, require_connected
from .kernel import _check_count, _check_tolerance, mkv_check
from .solvers import SolveResult

__all__ = [
    "AdmissibleWitness",
    "BlockCutTree",
    "DEFAULT_TREE_MAX_NODES",
    "block_decomposition",
    "block_node",
    "contract_set",
    "cut_node",
    "expand_admissible",
    "is_block_graph",
    "is_k_admissible",
    "mu_k_block",
]

DEFAULT_TREE_MAX_NODES = 1000


def cut_node(v: int) -> tuple:
    """Tree node for the articulation vertex v."""
    return ("cut", v)


def block_node(i: int) -> tuple:
    """Tree node for the block with index i."""
    return ("block", i)


class BlockCutTree:
    """Block-cutpoint tree of a connected graph.

    Nodes are ("cut", vertex) for articulation vertices and ("block", index)
    for blocks; an edge joins an articulation vertex to each block containing
    it. Each node has one int id, its index in nodes (cut nodes by vertex,
    then block nodes by index), and the tree is held once as int adjacency
    lists on those ids, rooted at id 0 by _bfs so tree paths are
    parent-pointer walks and mu_k_block's DP runs over the same BFS order,
    reversed.
    """

    def __init__(self, n: int, articulation, blocks):
        self.n = n
        self.articulation = frozenset(articulation)
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        cuts = sorted(self.articulation)
        self.nodes = tuple(cut_node(v) for v in cuts) + tuple(block_node(i) for i in range(len(self.blocks)))
        self._id = {node: i for i, node in enumerate(self.nodes)}
        # one pass over the blocks, each in ascending order, gives the tree
        # edges, each non-cut vertex's block and ascending adjacency lists
        cut_id = {v: c for c, v in enumerate(cuts)}
        proj = {v: cut_node(v) for v in cuts}
        edges, adj = [], [[] for _ in self.nodes]
        for i, blk in enumerate(self.blocks):
            b = len(cuts) + i
            for v in blk:
                c = cut_id.get(v)
                if c is None:
                    proj[v] = block_node(i)
                else:
                    edges.append((v, i))
                    adj[c].append(b)
                    adj[b].append(c)
        self.tree_edges = tuple(edges)
        if len(self.nodes) != len(edges) + 1:
            raise RuntimeError("internal error: block-cutpoint structure is not a tree")
        if len(proj) != n:
            raise RuntimeError("internal error: block cover misses a vertex")
        self._adj = adj
        self._projection = proj
        self._depth, self._order = _bfs(adj, 0)
        if len(self._order) != len(self.nodes):
            raise RuntimeError("internal error: block-cutpoint tree is disconnected")
        self._parent = [None] * len(adj)
        for u in self._order:
            for w in adj[u]:
                if self._depth[w] > self._depth[u]:
                    self._parent[w] = u

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def neighbors(self, node) -> tuple:
        return tuple(self.nodes[i] for i in self._adj[self._node_id(node)])

    def projection(self, v: int) -> tuple:
        """Tree node a vertex maps to: its cut node, or its unique block."""
        return self._projection[check_vertex(self, v)]

    def _node_id(self, node) -> int:
        try:
            return self._id[node]
        except (KeyError, TypeError):  # TypeError: an unhashable node
            raise GraphInputError(f"{node!r} is not a node of this tree") from None

    def tree_path(self, a, b) -> list:
        """Node sequence of the unique tree path from a to b, inclusive."""
        x, y = self._node_id(a), self._node_id(b)
        depth, parent = self._depth, self._parent
        up_a = [x]
        up_b = [y]
        while depth[x] > depth[y]:
            x = parent[x]
            up_a.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            up_b.append(y)
        while x != y:
            x = parent[x]
            up_a.append(x)
            y = parent[y]
            up_b.append(y)
        up_b.pop()  # x == y: drop the duplicated meeting node
        return [self.nodes[i] for i in up_a + up_b[::-1]]

    def to_dict(self) -> dict:
        return {
            "articulation": sorted(self.articulation),
            "blocks": [list(b) for b in self.blocks],
            "tree_edges": [[v, i] for v, i in self.tree_edges],
            "projection": [_node_obj(self._projection[v]) for v in range(self.n)],
        }


def _node_obj(node) -> dict:
    kind, idx = node
    if kind == "cut":
        return {"kind": "cut", "vertex": idx}
    return {"kind": "block", "index": idx}


def block_decomposition(g: Graph) -> BlockCutTree:
    """Blocks and articulation vertices by iterative depth-first search on a
    vertex stack (Hopcroft and Tarjan, CACM 16(6), 1973).

    low[u] is the smallest discovery time adjacent to u's subtree; the edge
    back to u's parent only ties it at disc[p]. When a child u of p finishes
    with low[u] >= disc[p], its block is p plus every vertex discovered since
    u, cut off the stack. A non-root p that closes a block is a cut vertex,
    and the root is one exactly when it closes more than one block.
    """
    require_connected(g)
    n = g.n
    if n == 0:
        raise GraphInputError("graph has no vertices")
    if n == 1:
        return BlockCutTree(1, (), ((0,),))
    adj = g.adj
    disc = [-1] * n
    low = [0] * n
    next_i = [0] * n
    disc[0] = 0
    timer = 1
    path = [0]  # the DFS tree path from the root 0 to the current vertex
    stack: list = []  # discovered vertices not yet cut off into a block
    blocks: list = []
    articulation: set = set()
    root_blocks = 0
    while True:
        u = path[-1]
        if next_i[u] < len(adj[u]):
            w = adj[u][next_i[u]]
            next_i[u] += 1
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append(w)
                path.append(w)
            elif disc[w] < low[u]:
                low[u] = disc[w]
            continue
        path.pop()
        if not path:
            break
        p = path[-1]
        if low[u] < low[p]:
            low[p] = low[u]
        if low[u] >= disc[p]:
            blk = [p]
            while blk[-1] != u:
                blk.append(stack.pop())
            blocks.append(blk)
            if p != 0:
                articulation.add(p)
            else:
                root_blocks += 1
    if root_blocks > 1:
        articulation.add(0)
    return BlockCutTree(n, articulation, blocks)


def _blocks_are_cliques(g: Graph, t: BlockCutTree) -> bool:
    """The blocks partition the edges and a block of b vertices holds at
    most b(b - 1)/2 of them, so every block is a clique exactly when those
    counts sum to the edge count."""
    return sum(len(blk) * (len(blk) - 1) // 2 for blk in t.blocks) == g.m


def is_block_graph(g: Graph) -> bool:
    """True when every block of the connected graph g induces a clique."""
    return _blocks_are_cliques(g, block_decomposition(g))


@dataclass(frozen=True)
class AdmissibleWitness:
    z: frozenset
    k: int
    violating_pair: tuple | None
    violating_count: int | None

    @property
    def admissible(self) -> bool:
        return self.violating_pair is None


def _check_nodes(t: BlockCutTree, z) -> frozenset:
    """Z's nodes, each as the tree holds it, refused unless it is one."""
    return frozenset(t.nodes[t._node_id(node)] for node in _iterate(z, "Z", "tree nodes"))


def is_k_admissible(t: BlockCutTree, z, k: int) -> AdmissibleWitness:
    """Check that every tree path between two Z-nodes has at most k internal
    nodes that are selected articulation nodes; reports the first violation."""
    _check_tolerance(k)
    znodes = _check_nodes(t, z)
    zcut = {node for node in znodes if node[0] == "cut"}
    ordered = sorted(znodes, key=t._id.__getitem__)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            path = t.tree_path(a, b)
            count = sum(1 for nd in path[1:-1] if nd in zcut)
            if count > k:
                return AdmissibleWitness(znodes, k, (a, b), count)
    return AdmissibleWitness(znodes, k, None, None)


def expand_admissible(t: BlockCutTree, z) -> set[int]:
    """Vertex set of Z: non-articulation vertices of selected blocks plus the
    selected articulation vertices."""
    znodes = _check_nodes(t, z)
    out: set = set()
    for kind, idx in znodes:
        if kind == "cut":
            out.add(idx)
        else:
            out.update(v for v in t.blocks[idx] if v not in t.articulation)
    return out


def contract_set(t: BlockCutTree, x) -> set:
    """Tree nodes of a vertex set: its articulation vertices as cut nodes plus
    every block owning one of its non-articulation vertices."""
    return {t.projection(v) for v in check_vertex_set(t, x)}


def _heaviest_admissible(adj, depth, order, weights, ends, k: int):
    """Heaviest set X of positive-weight vertices of a tree in which every
    pair has at most k members of X strictly inside its path.

    The tree is given as adjacency lists with each vertex's depth and a BFS
    order from the root, as _bfs returns them. A vertex u may also carry an
    end-only weight ends[u]: a pendant leaf of that weight hung below u,
    which can be chosen but is never inside a path; ~u stands for it among
    the members.

    A post-order DP over order reversed. The state of a vertex u is the
    largest count of members strictly between a member in u's subtree and
    u's parent, or None when the subtree holds no member. With s = 1 when u
    is a member, u merges its children one at a time under their running
    maximum m: a child of state b joins when m + b + s <= k, a member u
    starts m at -1 (so every member below is within k of u), and u's state
    is m + s. So a member takes no child state above k and no state exceeds
    k + 1, the value that bars any member outside the subtree. An end-only
    weight merges last, as the table of a lone chosen leaf, whose state is
    0. Tables are dicts of the states that occur, so the tree's height
    bounds their size, not k. Dropping a zero-weight member keeps a set
    feasible, so none is chosen.

    Each entry is (weight, members) and carries its own witness: members
    starts as u or (), and each merge pairs the running members with the
    child's as (xm, xb), so the root's best entry holds the whole set as
    nested pairs for one flatten loop. Only strictly heavier entries
    replace one, so ties go to the first reached.

    Returns (weight, members in pre-order, DP table entries filled).
    """
    table = [None] * len(adj)  # state -> (weight, members as nested pairs)
    filled = 0
    for u in reversed(order):
        kids = [table[c] for c in adj[u] if depth[c] > depth[u]]
        if ends[u] > 0:
            kids.append({None: (0, ()), 0: (ends[u], ~u)})
        table[u] = best = {}
        for s in (0, 1) if weights[u] > 0 else (0,):
            run = {-1: (weights[u], u)} if s else {None: (0, ())}
            for kid in kids:
                merged = {}
                for m, (wm, xm) in run.items():
                    for b, (wb, xb) in kid.items():
                        if b is None:
                            mb = m
                        elif m is None:
                            mb = b
                        elif m + b + s <= k:
                            mb = max(m, b)
                        else:
                            continue
                        w = wm + wb
                        if mb not in merged or w > merged[mb][0]:
                            merged[mb] = (w, (xm, xb))
                filled += len(merged)
                run = merged
            for m, entry in run.items():
                d = m + 1 if s else m
                if d not in best or entry[0] > best[d][0]:
                    best[d] = entry
        filled += len(best)
    weight, nested = max(table[order[0]].values(), key=lambda entry: entry[0])
    members, stack = [], [nested]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            stack += reversed(x)
        else:
            members.append(x)
    return weight, members, filled


def mu_k_block(g: Graph, k: int, max_nodes: int = DEFAULT_TREE_MAX_NODES):
    """Exact mu_k of a block graph via k-admissible subsets of its tree.

    |X_Z| is additive over nodes: a cut node weighs 1, and a block node's
    non-articulation vertex count is an end-only weight, since those
    vertices are never inside a tree path. The maximum is the tree DP
    _heaviest_admissible on the tree's own int adjacency and BFS order,
    O(N min(k, h)^2) time for N tree nodes and tree height h;
    nodes_explored is the number of DP table entries it filled. The witness
    is the expansion of the chosen cut and block nodes (expand_admissible),
    verified with mkv_check.
    """
    _check_tolerance(k)
    _check_count(max_nodes, "max_nodes")
    t = block_decomposition(g)
    if not _blocks_are_cliques(g, t):
        raise GraphInputError("not a block graph: some block is not a clique")
    if t.node_count > max_nodes:
        raise SizeLimitError(
            f"mu_k_block limited to {max_nodes} tree nodes, got {t.node_count}; raise max_nodes to override"
        )
    weights = [1 if kind == "cut" else 0 for kind, _ in t.nodes]
    ends = [0 if kind == "cut" else sum(v not in t.articulation for v in t.blocks[i]) for kind, i in t.nodes]
    best_w, best_ids, filled = _heaviest_admissible(t._adj, t._depth, t._order, weights, ends, k)
    witness = expand_admissible(t, {t.nodes[x if x >= 0 else ~x] for x in best_ids})
    if len(witness) != best_w:
        raise RuntimeError("internal error: expanded witness size mismatch")
    if not mkv_check(g, witness, k).verdict:
        raise RuntimeError("internal error: mu_k_block witness failed verification")
    return SolveResult(best_w, frozenset(witness), filled)
