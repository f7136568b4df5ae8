"""Block decomposition, block-cutpoint trees, admissible sets, mu on block graphs."""

import hashlib
import json
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import mkvis.blocks
import support
from mkvis.blocks import (
    _blocks_are_cliques,
    _heaviest_admissible,
    _worst_pair,
    block_decomposition,
    block_node,
    contract_set,
    cut_node,
    expand_admissible,
    is_block_graph,
    is_k_admissible,
    mu_k_block,
)
from mkvis.errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    _bfs,
    build_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    random_block_graph,
    random_connected,
)
from mkvis.kernel import mkv_check
from mkvis.solvers import mu_k


def bowtie():
    """Two triangles sharing vertex 4."""
    return build_graph(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])


def block_index(tree, members) -> int:
    want = frozenset(members)
    for i, blk in enumerate(tree.blocks):
        if frozenset(blk) == want:
            return i
    raise AssertionError(f"no block {sorted(want)} in {tree.blocks}")


class TestDecomposition:
    def test_bowtie(self):
        t = block_decomposition(bowtie())
        assert sorted(map(sorted, t.blocks)) == [[0, 1, 4], [2, 3, 4]]
        assert t.articulation == {4}
        assert t.node_count == 3
        # tree is the path b1 - c - b2
        assert sorted(t.tree_edges) == [(4, 0), (4, 1)]

    def test_cycle_is_one_block(self):
        t = block_decomposition(cycle_graph(7))
        assert t.articulation == frozenset()
        assert t.blocks == (tuple(range(7)),)

    def test_path_blocks_are_edges(self):
        t = block_decomposition(path_graph(5))
        assert sorted(map(sorted, t.blocks)) == [[0, 1], [1, 2], [2, 3], [3, 4]]
        assert t.articulation == {1, 2, 3}

    def test_single_vertex(self):
        t = block_decomposition(build_graph(1, []))
        assert t.blocks == ((0,),) and t.articulation == frozenset()

    def test_requires_connected(self):
        with pytest.raises(DisconnectedGraphError):
            block_decomposition(build_graph(4, [(0, 1), (2, 3)]))

    @given(support.graphs(min_n=2, max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g):
        t = block_decomposition(g)
        assert {frozenset(b) for b in t.blocks} == support.brute_blocks(g)
        assert set(t.articulation) == support.brute_articulation(g)

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_tree_invariants(self, g):
        t = block_decomposition(g)
        assert t.node_count == len(t.tree_edges) + 1
        # bipartite: tree edges only join cut nodes to block nodes
        for v, i in t.tree_edges:
            assert v in t.articulation and 0 <= i < len(t.blocks)
        # neighbors lists the tree_edges partners, cut nodes first, each kind by id
        for node in t.nodes:
            joined = [cut_node(v) if node == block_node(i) else block_node(i)
                      for v, i in t.tree_edges if node in (cut_node(v), block_node(i))]
            assert t.neighbors(node) == tuple(sorted(joined, key=lambda nd: (nd[0] == "block", nd[1])))
        # every non-articulation vertex lies in exactly one block
        for v in range(g.n):
            owners = [i for i, blk in enumerate(t.blocks) if v in blk]
            if v in t.articulation:
                assert len(owners) >= 2
                assert t.projection(v) == cut_node(v)
            else:
                assert len(owners) == 1
                assert t.projection(v) == block_node(owners[0])


    @pytest.mark.parametrize("g, digest", [
        # 64 cut vertices and 74 blocks
        (random_connected(300, 0.003, 4), "2d25a5940a009aa12aefafb0783a249d1133f9dcaf64696f543662d68e68c38a"),
        (random_block_graph(60, 4, 3), "3973bc07a01485bc2341e99210703cbc408e5ea27703ecb25657d999371ca354"),
    ], ids=["random_connected", "random_block_graph"])
    def test_block_order_is_pinned(self, g, digest):
        """Block indices reach the blocks report, so the whole record is
        pinned, block order included, not only its counts."""
        text = json.dumps(block_decomposition(g).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTreePaths:
    def test_bowtie_path(self):
        t = block_decomposition(bowtie())
        b1 = block_node(block_index(t, {0, 1, 4}))
        b2 = block_node(block_index(t, {2, 3, 4}))
        assert t.tree_path(b1, b2) == [b1, cut_node(4), b2]
        assert t.tree_path(b1, b1) == [b1]

    def test_unknown_node(self):
        t = block_decomposition(bowtie())
        with pytest.raises(GraphInputError):
            t.tree_path(cut_node(0), cut_node(4))

    @given(
        st.one_of(
            support.graphs(min_n=2, max_n=9),
            # 30 or more blocks, so at least 30 tree nodes: deep trees to lift through
            st.builds(random_block_graph, st.integers(30, 60), st.integers(2, 4), st.integers(0, 10**6)),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs_walk(self, g, rnd):
        t = block_decomposition(g)
        nodes = list(t.nodes)
        for _ in range(6):
            a = rnd.choice(nodes)
            b = rnd.choice(nodes)
            assert t.tree_path(a, b) == support.tree_path_naive(t, a, b)


class TestIsBlockGraph:
    def test_families(self):
        assert is_block_graph(path_graph(6))
        assert is_block_graph(complete_graph(5))
        assert is_block_graph(bowtie())
        assert not is_block_graph(cycle_graph(4))
        assert not is_block_graph(cycle_graph(6))

    @pytest.mark.parametrize("seed", range(6))
    def test_generator_output_qualifies(self, seed):
        assert is_block_graph(random_block_graph(4, 4, seed))

    @given(
        st.one_of(
            support.graphs(min_n=1, max_n=10),
            st.builds(random_block_graph, st.integers(1, 6), st.integers(2, 5), st.integers(0, 10**6)),
        ),
        st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_edge_count_matches_the_pairwise_check(self, g, seed):
        """The edge-count test agrees with checking every pair of every
        block for an edge, on the graph drawn and, when it stays connected,
        on the graph with one vertex pair toggled (a block graph with an
        edge dropped or added is mostly not one)."""
        rnd = random.Random(seed)
        if g.n >= 2:
            u, w = rnd.sample(range(g.n), 2)
            toggled = build_graph(g.n, [e for e in g.edges() if set(e) != {u, w}] + [(u, w)] * (not g.has_edge(u, w)))
            graphs = [g] + [toggled] * is_connected(toggled)
        else:
            graphs = [g]
        for h in graphs:
            t = block_decomposition(h)
            want = all(h.has_edge(u, w) for blk in t.blocks for i, u in enumerate(blk) for w in blk[i + 1 :])
            assert _blocks_are_cliques(h, t) == want


class TestAdmissibility:
    def test_bowtie_selection(self):
        t = block_decomposition(bowtie())
        b1 = block_node(block_index(t, {0, 1, 4}))
        b2 = block_node(block_index(t, {2, 3, 4}))
        z = {b1, cut_node(4), b2}
        w = is_k_admissible(t, z, 0)
        assert not w.admissible
        assert set(w.violating_pair) == {b1, b2} and w.violating_count == 1
        assert is_k_admissible(t, z, 1).admissible

    def test_tiny_selections_always_admissible(self):
        t = block_decomposition(path_graph(6))
        assert is_k_admissible(t, set(), 0).admissible
        assert is_k_admissible(t, {cut_node(2)}, 0).admissible

    def test_all_blocks_are_zero_admissible(self):
        for g in (path_graph(7), bowtie(), random_block_graph(4, 3, 2)):
            t = block_decomposition(g)
            z = {block_node(i) for i in range(len(t.blocks))}
            assert is_k_admissible(t, z, 0).admissible

    def test_unknown_node_rejected(self):
        t = block_decomposition(bowtie())
        with pytest.raises(GraphInputError):
            is_k_admissible(t, {cut_node(99)}, 0)

    @given(
        st.integers(1, 8), st.integers(2, 4), st.integers(0, 10**6), st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_leafed_tree_encodes_admissibility(self, blocks, size, seed, k, rnd):
        """mu_k_block's reduction: Z is k-admissible exactly when its ids are
        mutual k-visible in the leafed tree, and ids keep the tree's order."""
        t = block_decomposition(random_block_graph(blocks, size, seed))
        tree, ids = support.leafed_tree(t)
        assert [ids[nd] for nd in t.nodes] == sorted(ids.values())
        z = {nd for nd in t.nodes if rnd.random() < 0.5}
        assert mkv_check(tree, [ids[nd] for nd in z], k).verdict == is_k_admissible(t, z, k).admissible


class TestWorstPair:
    """The linear pass against the pair loop it replaced in is_k_admissible
    (support.worst_pair_count), and through the contraction of a vertex set
    against mkv_check and the brute-force oracle on the graph itself."""

    @staticmethod
    def assert_pair_holds(t, z, count, pair):
        """The reported pair is two Z-nodes whose tree path holds count."""
        if pair is None:
            assert count == -1 and len(z) < 2
            return
        a, b = t.nodes[pair[0]], t.nodes[pair[1]]
        assert a != b and {a, b} <= z
        assert sum(nd in z and nd[0] == "cut" for nd in t.tree_path(a, b)[1:-1]) == count

    def assert_matches(self, g, t, x, k, dist):
        z = contract_set(t, x)
        count, pair = _worst_pair(t, {t._id[nd] for nd in z})
        assert count == support.worst_pair_count(t, z), (g.edges(), x)
        self.assert_pair_holds(t, z, count, pair)
        visible = count <= k
        assert mkv_check(g, x, k).verdict == visible, (g.edges(), x, k)
        assert support.oracle_mkv_check(g, x, k, dist) == visible, (g.edges(), x, k)
        w = is_k_admissible(t, z, k)
        assert w.admissible == visible and w.violating_count == (None if visible else count)

    @given(
        st.integers(1, 12), st.integers(2, 5), st.integers(0, 10**6), st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(0, 3), st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_membership_on_random_block_graphs(self, blocks, size, seed, density, k, rnd):
        g = random_block_graph(blocks, size, seed)
        t = block_decomposition(g)
        self.assert_matches(g, t, {v for v in range(g.n) if rnd.random() < density}, k, support.distance_matrix(g))
        # any node set, with blocks no vertex set contracts to
        z = {nd for nd in t.nodes if rnd.random() < density}
        count, pair = _worst_pair(t, {t._id[nd] for nd in z})
        assert count == support.worst_pair_count(t, z)
        self.assert_pair_holds(t, z, count, pair)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.exhaustive)])
    def test_every_small_block_graph(self, n):
        """Every vertex set of every block graph among support.connected_graphs(n), k 0-3."""
        for g in support.connected_graphs(n):
            if not is_block_graph(g):
                continue
            t = block_decomposition(g)
            dist = support.distance_matrix(g)
            for bits in range(1 << n):
                x = {v for v in range(n) if bits >> v & 1}
                for k in range(4):
                    self.assert_matches(g, t, x, k, dist)


class TestExpandContract:
    def test_bowtie_expansion(self):
        t = block_decomposition(bowtie())
        b1 = block_node(block_index(t, {0, 1, 4}))
        b2 = block_node(block_index(t, {2, 3, 4}))
        assert expand_admissible(t, {b1, b2}) == {0, 1, 2, 3}
        assert expand_admissible(t, set()) == set()
        assert expand_admissible(t, {b1, cut_node(4)}) == {0, 1, 4}

    def test_bowtie_contraction(self):
        t = block_decomposition(bowtie())
        b1 = block_node(block_index(t, {0, 1, 4}))
        assert contract_set(t, {0, 4}) == {b1, cut_node(4)}
        assert contract_set(t, set()) == set()

    @pytest.mark.parametrize("v", [True, -1, 4, 1.0])
    def test_vertex_ids_follow_the_package_rule(self, v):
        t = block_decomposition(path_graph(4))
        with pytest.raises(GraphInputError, match=r"vertex id .* out of range \[0, 4\)"):
            t.projection(v)
        with pytest.raises(GraphInputError, match=r"vertex id .* out of range \[0, 4\)"):
            contract_set(t, {v})

    def test_all_blocks_give_non_articulation_vertices(self):
        g = random_block_graph(5, 4, 9)
        t = block_decomposition(g)
        z = {block_node(i) for i in range(len(t.blocks))}
        x = set(range(g.n)) - set(t.articulation)
        assert expand_admissible(t, z) == x
        # contraction only sees blocks owning a non-articulation vertex;
        # degenerate bridge blocks between two cut vertices drop out
        back = contract_set(t, x)
        assert back == {
            block_node(i)
            for i, blk in enumerate(t.blocks)
            if any(v not in t.articulation for v in blk)
        }
        assert expand_admissible(t, back) == x

    @pytest.mark.parametrize("seed", range(10))
    def test_lemma_round_trips(self, seed):
        g = random_block_graph(3 + seed % 3, 3, seed)
        t = block_decomposition(g)
        rng = random.Random(seed)
        nodes = list(t.nodes)
        for k in (0, 1, 2):
            # admissible Z expands to a feasible set
            z = {nd for nd in nodes if rng.random() < 0.5}
            if is_k_admissible(t, z, k).admissible:
                assert mkv_check(g, expand_admissible(t, z), k).verdict
            # feasible X contracts to an admissible Z containing X on re-expansion
            x = support.random_subset(rng, g.n)
            if mkv_check(g, x, k).verdict:
                z2 = contract_set(t, x)
                assert is_k_admissible(t, z2, k).admissible
                assert x <= expand_admissible(t, z2)


@st.composite
def weighted_trees(draw, max_n=10):
    """A tree on at most max_n vertices under a random labeling, with
    weights 0-3 (zeros included)."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return build_graph(n, edges), weights


def _heaviest(tree, weights, k, ends=None):
    """_heaviest_admissible on a tree Graph rooted at 0."""
    depth, order = _bfs(tree.adj, 0)
    return _heaviest_admissible(tree.adj, depth, order, weights, ends or [0] * tree.n, k)


class TestHeaviestAdmissible:
    @given(weighted_trees(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_any_tree(self, tree_and_weights, k):
        """The DP's value is the heaviest mutual k-visible set of positive-
        weight vertices, and the members it returns weigh that value and
        are mutual k-visible themselves."""
        tree, weights = tree_and_weights
        dist = support.distance_matrix(tree)
        positive = [v for v in range(tree.n) if weights[v] > 0]
        want = max(
            sum(weights[v] for v in sub)
            for r in range(len(positive) + 1)
            for sub in combinations(positive, r)
            if support.oracle_mkv_check(tree, sub, k, dist)
        )
        value, members, _ = _heaviest(tree, weights, k)
        assert value == want
        assert sum(weights[v] for v in members) == value
        assert support.oracle_mkv_check(tree, members, k, dist)

    @given(weighted_trees(max_n=6), st.data(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_end_weights_are_pendant_leaves(self, tree_and_weights, data, k):
        """End-only weights (zeros included) give the value of the same tree
        with a pendant leaf of that weight on each vertex, checked by brute
        force there, where ~u in the members stands for u's leaf. Each leaf
        is its vertex's last child, so the DP on that tree returns the same
        members too."""
        tree, weights = tree_and_weights
        n = tree.n
        ends = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        leafed = build_graph(2 * n, list(tree.edges()) + [(u, n + u) for u in range(n)])
        full = weights + ends
        dist = support.distance_matrix(leafed)
        positive = [v for v in range(2 * n) if full[v] > 0]
        want = max(
            sum(full[v] for v in sub)
            for r in range(len(positive) + 1)
            for sub in combinations(positive, r)
            if support.oracle_mkv_check(leafed, sub, k, dist)
        )
        value, members, _ = _heaviest(tree, weights, k, ends)
        chosen = [x if x >= 0 else n + ~x for x in members]
        assert value == want
        assert sum(full[v] for v in chosen) == value
        assert support.oracle_mkv_check(leafed, chosen, k, dist)
        assert _heaviest(leafed, full, k)[:2] == (value, chosen)


class TestMuKBlock:
    def test_bowtie_values(self):
        assert mu_k_block(bowtie(), 0).value == 4
        assert mu_k_block(bowtie(), 1).value == 5

    def test_witness_is_verified_feasible(self):
        res = mu_k_block(random_block_graph(4, 4, 3), 1)
        g = random_block_graph(4, 4, 3)
        assert len(res.witness) == res.value
        assert support.oracle_mkv_check(g, res.witness, 1)

    @given(st.integers(1, 12), st.integers(2, 5), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_witness_passes_the_graph_level_check(self, blocks, size, seed, k):
        """mu_k_block checks its witness on the tree; here it is checked on
        the graph, by the kernel and, when small, by the oracle."""
        g = random_block_graph(blocks, size, seed)
        res = mu_k_block(g, k)
        assert mkv_check(g, res.witness, k).verdict
        if g.n <= 12:
            assert support.oracle_mkv_check(g, res.witness, k)

    @pytest.mark.parametrize("g, k", [(bowtie(), 0), (random_block_graph(8, 4, 5), 0), (random_block_graph(8, 4, 5), 1)])
    def test_witness_check_fires(self, g, k):
        """A DP that also returns one more cut node next to its set, with
        the weight to match, gives a witness the tree check refuses."""
        heaviest = mkvis.blocks._heaviest_admissible

        def padded(adj, depth, order, weights, ends, tolerance):
            weight, members, filled = heaviest(adj, depth, order, weights, ends, tolerance)
            chosen = {x if x >= 0 else ~x for x in members}
            extra = next(c for x in sorted(chosen) for c in adj[x] if weights[c] and c not in chosen)
            return weight + 1, members + [extra], filled

        with mock.patch.object(mkvis.blocks, "_heaviest_admissible", padded):
            with pytest.raises(RuntimeError, match="failed verification"):
                mu_k_block(g, k)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_agrees_with_generic_solver(self, seed, k):
        g = random_block_graph(2 + seed % 4, 4, seed)
        assert mu_k_block(g, k).value == mu_k(g, k).value

    @pytest.mark.parametrize("seed", range(12))
    def test_zero_tolerance_counts_non_articulation(self, seed):
        g = random_block_graph(2 + seed % 5, 3, 50 + seed)
        t = block_decomposition(g)
        assert mu_k_block(g, 0).value == g.n - len(t.articulation)

    def test_single_clique(self):
        assert mu_k_block(complete_graph(6), 0).value == 6

    def test_single_vertex(self):
        assert mu_k_block(build_graph(1, []), 0).value == 1

    def test_rejects_non_block_graph(self):
        with pytest.raises(GraphInputError, match="not a block graph"):
            mu_k_block(cycle_graph(5), 0)

    def test_tree_size_limit(self):
        with pytest.raises(SizeLimitError):
            mu_k_block(path_graph(502), 0)  # 501 edge blocks + 500 cut vertices
        assert mu_k_block(path_graph(502), 0, max_nodes=1001).value == 2

    @given(st.integers(9, 16), st.integers(2, 5), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_generic_solver_past_its_size_limit(self, blocks, size, seed, k):
        g = random_block_graph(blocks, size, seed)
        t = block_decomposition(g)
        assume(18 <= t.node_count <= 30)
        res = mu_k_block(g, k)
        assert res.value == mu_k(g, k, max_n=g.n).value
        assert is_k_admissible(t, contract_set(t, res.witness), k).admissible

    @given(st.integers(1, 8), st.integers(2, 4), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_generic_solver_when_small(self, blocks, size, seed, k):
        g = random_block_graph(blocks, size, seed)
        assume(g.n <= 14)
        assert mu_k_block(g, k).value == mu_k(g, k).value

    def test_long_path_needs_no_recursion(self):
        # 5997 tree nodes: a recursive walk would pass the interpreter's limit
        assert mu_k_block(path_graph(3000), 1, max_nodes=10**4).value == 3

    def test_large_tolerance_stabilises_at_n(self):
        # mu_k = n once k >= diam - 1, and past the tree's height k no longer
        # adds reachable DP states
        g = random_block_graph(60, 5, 11)
        res = mu_k_block(g, 10**9)
        assert res.value == g.n
        assert res.nodes_explored == mu_k_block(g, g.n).nodes_explored


class TestSerialization:
    def test_to_dict_shape(self):
        t = block_decomposition(bowtie())
        d = t.to_dict()
        assert d["articulation"] == [4]
        assert sorted(map(sorted, d["blocks"])) == [[0, 1, 4], [2, 3, 4]]
        assert len(d["projection"]) == 5
        assert d["projection"][4] == {"kind": "cut", "vertex": 4}
        kinds = {e["kind"] for e in d["projection"]}
        assert kinds == {"cut", "block"}
