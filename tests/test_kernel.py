"""Membership kernel: BFS counting, pair queries, set checks, variants."""

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from mkvis import kernel
from mkvis.errors import DisconnectedGraphError, GeodesicCapError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    build_graph,
    check_vertex_set,
    complete_graph,
    cycle_graph,
    path_graph,
    random_block_graph,
)
from mkvis.kernel import (
    DUAL,
    OUTER,
    REASON_DISCONNECTED,
    REASON_PAIR,
    TOTAL,
    VARIANTS,
    bfs_mkv,
    check_variant,
    internal_counts,
    min_internal_count,
    mkv_check,
    oracle_min_internal_count,
)


class TestBfsMkv:
    def test_path_counts(self):
        r = bfs_mkv(path_graph(4), {0, 1, 3}, 0)
        assert r.dp[1] == 1 and r.dp[3] == 2
        assert r.cnt[0] == 0 and r.dist[0] == 0

    def test_four_cycle_two_geodesics(self):
        # both geodesics 0-1-2 and 0-3-2 carry only the target itself
        r = bfs_mkv(cycle_graph(4), {0, 2}, 0)
        assert r.dp[2] == 1

    def test_singleton_set(self):
        r = bfs_mkv(path_graph(5), {2}, 2)
        assert r.dp == {2: 0}
        assert r.cnt[2] == 0

    def test_source_outside_set(self):
        r = bfs_mkv(path_graph(4), {1, 3}, 0)
        assert r.dp == {1: 1, 3: 2}

    def test_out_of_range_source(self):
        with pytest.raises(GraphInputError):
            bfs_mkv(path_graph(3), {0}, 3)

    @given(support.graph_and_set(min_n=2, max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_cnt_bounds_and_dist(self, gs):
        g, s = gs
        v = min(s) if s else 0
        r = bfs_mkv(g, s, v)
        ref = support.distance_matrix(g)
        for w in range(g.n):
            assert r.dist[w] == ref[v][w]
            assert 0 <= r.cnt[w] <= r.dist[w]
            assert r.cnt[w] <= len(s)

    @given(support.graph_and_set(min_n=2, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_cnt_attained_by_some_geodesic(self, gs):
        g, s = gs
        v = 0
        r = bfs_mkv(g, s, v)
        dist = support.distance_matrix(g)
        tracked = set(s) - {v}
        for w in range(g.n):
            want = min(
                (sum(1 for x in path[1:] if x in tracked) for path in
                 support.all_geodesics(g, v, w, dist)),
                default=None,
            )
            if want is not None:
                assert r.cnt[w] == want

    def test_edge_touches_counter_is_positive(self):
        assert bfs_mkv(cycle_graph(6), {0, 3}, 0).edge_touches > 0


class TestGeodesicDags:
    def test_path_dag(self):
        dags, sigma = support.geodesic_dags(path_graph(3))
        assert dags[1] == ((1, (0, 2)), (0, ()), (2, ()))
        assert sigma[1] == [1, 1, 1]

    @given(support.graph_and_set(min_n=2, max_n=9), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_sweep_and_fused_kernel_match_enumeration(self, gs, cap):
        g, x = gs
        dist = support.distance_matrix(g)
        dags, sigma = support.geodesic_dags(g)
        mask = sum(1 << v for v in x)
        geodesics = {(u, w): support.all_geodesics(g, u, w, dist) for u in range(g.n) for w in range(g.n)}
        width = max(len(paths) for paths in geodesics.values()).bit_length() + 1
        full = (1 << (cap + 1) * width) - 1  # fields 0..cap
        for u in range(g.n):
            assert sorted(v for v, _ in dags[u]) == list(range(g.n))
            for v, forward in dags[u]:
                assert forward == tuple(w for w in g.adj[v] if dist[u][w] == dist[u][v] + 1)
            assert sigma[u] == [len(geodesics[u, w]) for w in range(g.n)]
            counts = support.path_counts(dags[u], mask, g.n, width, full)
            fused = bfs_mkv(g, x, u).cnt
            for w in range(g.n):
                if w == u:
                    assert counts[w] == 1 and fused[w] == 0
                    continue
                by_inside = [0] * (cap + 1)
                for path in geodesics[u, w]:
                    inside = sum(1 for v in path[1:-1] if v in x)
                    if inside <= cap:
                        by_inside[inside] += 1
                assert counts[w] == sum(c << j * width for j, c in enumerate(by_inside)), (u, w)
                want = support.pair_min_internal(g, x, u, w, dist)
                target = 1 if w in x else 0  # the fused kernel counts a tracked target
                assert fused[w] - target == want, (u, w)

    def test_fused_kernel_touches_each_adjacency_once(self):
        g = cycle_graph(6)
        assert bfs_mkv(g, {0, 3}, 0).edge_touches == g.n + 2 * g.m


class TestMinInternalCount:
    def test_unique_geodesic(self):
        assert min_internal_count(path_graph(5), {0, 2, 4}, 0, 4) == 1

    def test_both_geodesics_blocked(self):
        assert min_internal_count(cycle_graph(6), {1, 2, 4, 5}, 0, 3) == 2

    def test_adjacent_pair(self):
        assert min_internal_count(cycle_graph(6), {0, 1, 2, 3, 4, 5}, 2, 3) == 0

    def test_same_vertex(self):
        assert min_internal_count(path_graph(4), {0, 1, 2, 3}, 2, 2) == 0

    def test_endpoints_never_counted(self):
        assert min_internal_count(path_graph(3), {0, 2}, 0, 2) == 0

    def test_disconnected_pair(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            min_internal_count(g, {1}, 0, 3)

    @given(support.graph_and_set(min_n=2, max_n=9), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_matches_path_enumeration(self, gs, rnd):
        g, x = gs
        dist = support.distance_matrix(g)
        for _ in range(8):
            u = rnd.randrange(g.n)
            w = rnd.randrange(g.n)
            assert min_internal_count(g, x, u, w) == support.pair_min_internal(g, x, u, w, dist)

    def test_internal_counts_vector(self):
        got = internal_counts(path_graph(5), {0, 2, 4}, 0)
        assert got[4] == 1 and got[2] == 0 and got[1] == 0


@st.composite
def tree_plus_edges(draw):
    """A random tree on 2 to 11 vertices with up to 3 extra edges."""
    n = draw(st.integers(2, 11))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges |= {(min(u, w), max(u, w)) for u, w in extra if u != w}
    return build_graph(n, sorted(edges))


@st.composite
def twin_rich_graph_and_set(draw):
    """A graph rich in twins and leaves, with a vertex set drawn from it: a
    block graph (a block's vertices that are no cut vertex are closed twins),
    a complete bipartite graph (each side is one class of open twins) or a
    tree plus a few edges (leaves, and trees hanging off the cycles)."""
    kind = draw(st.sampled_from(("block", "bipartite", "tree")))
    if kind == "block":
        g = random_block_graph(draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(0, 10**6)))
    elif kind == "bipartite":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        g = build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    else:
        g = draw(tree_plus_edges())
    members = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    return g, members


class TestMkvCheck:
    def test_path_blocked_then_tolerated(self):
        rep = mkv_check(path_graph(5), {0, 2, 4}, 0)
        assert not rep.verdict
        assert rep.offending_pair == (0, 4) and rep.offending_count == 1
        assert rep.reason == REASON_PAIR
        assert mkv_check(path_graph(5), {0, 2, 4}, 1).verdict

    def test_complete_graph_everything_passes(self):
        assert mkv_check(complete_graph(6), range(6), 0).verdict

    def test_small_sets_always_pass(self):
        assert mkv_check(path_graph(9), set(), 0).verdict
        assert mkv_check(path_graph(9), {4}, 0).verdict
        assert mkv_check(path_graph(9), {0, 8}, 0).verdict

    def test_disconnected_members(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
        rep = mkv_check(g, {0, 4}, 3)
        assert not rep.verdict
        assert rep.reason == REASON_DISCONNECTED
        assert rep.offending_pair == (0, 4)
        assert rep.offending_count is None

    def test_rejects_bad_tolerance(self):
        with pytest.raises(GraphInputError):
            mkv_check(path_graph(3), {0}, -1)
        with pytest.raises(GraphInputError):
            mkv_check(path_graph(3), {0}, 1.5)

    def test_pair_counts_collection(self):
        rep = mkv_check(path_graph(5), {0, 2, 4}, 0, collect_pair_counts=True)
        assert rep.pair_counts[(0, 4)] == 1
        assert rep.pair_counts[(0, 2)] == 0
        assert rep.pair_counts[(2, 4)] == 0

    def test_pair_counts_refused_above_the_member_limit(self, monkeypatch):
        """One member past MAX_PAIR_COUNT_MEMBERS is refused before the first
        BFS, so before the table of one count per member pair is built."""
        n = kernel.MAX_PAIR_COUNT_MEMBERS + 1
        g = path_graph(n)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"^pair counts limited to {n - 1} members, got {n}$"):
                mkv_check(g, range(n), 0, collect_pair_counts=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10
        assert mkv_check(g, range(n), 0).verdict is False  # the plain check has no member limit
        monkeypatch.setattr(kernel, "MAX_PAIR_COUNT_MEMBERS", 3)
        assert len(mkv_check(g, {0, 2, 4}, 0, collect_pair_counts=True).pair_counts) == 3
        with pytest.raises(SizeLimitError, match="^pair counts limited to 3 members, got 4$"):
            mkv_check(g, {0, 1, 2, 4}, 0, collect_pair_counts=True)

    def test_ops_counter_grows_with_set_size(self):
        g = cycle_graph(12)
        small = mkv_check(g, {0, 4}, 11).ops
        large = mkv_check(g, {0, 2, 4, 6, 8, 10}, 11).ops
        assert 0 < small < large

    def test_validates_members_once(self, monkeypatch):
        calls = []

        def counting(g, vertices):
            calls.append(1)
            return check_vertex_set(g, vertices)

        monkeypatch.setattr(kernel, "check_vertex_set", counting)
        rep = mkv_check(cycle_graph(12), {0, 2, 4, 6, 8, 10}, 11)
        assert len(calls) == 1
        assert rep.verdict and rep.ops == 12 + 12 + 34 + 5  # worked out in TestCheckOps.test_cycle

    @given(twin_rich_graph_and_set(), st.integers(0, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_twins_and_leaves_match_oracle_and_enumeration(self, gs, k, collect):
        g, s = gs
        rep = mkv_check(g, s, k, collect_pair_counts=collect)
        assert rep.verdict == support.oracle_mkv_check(g, s, k)
        assert dataclasses.replace(rep, ops=0) == _expected_check(g, s, k, collect)

    @given(support.graph_and_set(min_n=2, max_n=9) | twin_rich_graph_and_set(), st.integers(0, 3),
           st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_verdict_invariant_under_relabeling(self, gs, k, rnd):
        g, s = gs
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[w]) for u, w in g.edges()])
        rep = mkv_check(g, s, k, collect_pair_counts=True)
        moved = mkv_check(h, {perm[v] for v in s}, k, collect_pair_counts=True)
        assert moved.verdict == rep.verdict
        if rep.pair_counts is not None:
            assert moved.pair_counts == {(min(perm[u], perm[w]), max(perm[u], perm[w])): c
                                         for (u, w), c in rep.pair_counts.items()}

    @given(support.graph_and_set(min_n=2, max_n=9), st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_matches_pairwise_oracle(self, gs, k):
        g, s = gs
        assert mkv_check(g, s, k).verdict == support.oracle_mkv_check(g, s, k)

    @given(support.graph_and_set(min_n=2, max_n=9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_size_guarantee(self, gs, k):
        g, s = gs
        trimmed = set(sorted(s)[: k + 2])
        assert mkv_check(g, trimmed, k).verdict

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_whole_vertex_set_at_saturation(self, g):
        d = max(max(row) for row in support.distance_matrix(g))
        assert mkv_check(g, range(g.n), max(d - 1, 0)).verdict


class TestCheckOps:
    """mkv_check's ops on hand-worked graphs. ops adds up the peel pass (n,
    then the adjacency of every dropped vertex and of every list rebuilt),
    the members' adjacency read for the twin classes, the lists the
    simplicial test reads (only when the cap on degrees exceeds k and no
    pair counts are asked for), each sweep (n plus the adjacency of every
    vertex below the level where its last later member lies) and one step
    per member pair."""

    def test_cycle(self):
        # nothing to peel (12) or share (6 * 2); no member has degree 1, so a
        # geodesic holds at most 6 - 2 = 4 members inside. At k = 11 the check
        # stops after 0 settles 6 at level 6 (12 + 11 * 2) and reads its 5 pairs
        rep = mkv_check(cycle_graph(12), {0, 2, 4, 6, 8, 10}, 11)
        assert rep.verdict and rep.ops == 12 + 12 + 34 + 5
        # at k = 2 the cap 4 does not hold, so the members are tested: each has two
        # non-adjacent neighbours, found by reading its list and its first
        # neighbour's (2 + 2), and testing ends once k + 1 = 3 are found. Then 0, 2
        # and 4 settle at level 6 (12 + 11 * 2 each), 6 at level 4 (12 + 7 * 2), 8
        # at level 2 (12 + 3 * 2), and 10 does not sweep; 15 pairs
        rep = mkv_check(cycle_graph(12), {0, 2, 4, 6, 8, 10}, 2)
        assert rep.verdict and rep.ops == 12 + 12 + 3 * 4 + 3 * 34 + 26 + 18 + 15

    def test_path_with_pendant_trees(self):
        # the path 0-1-2-3-4 with the tree 5, 6, 7 hanging off 1 and the leaf 8 off 3
        g = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (5, 7), (3, 8)])
        # peel 6, 7, 8 and then 5 (9 + 1 + 1 + 1 + 3), rebuild the lists of 1 and 3 (3 + 3);
        # twin keys 1 + 2 + 1; on the path that is left, 0 settles 4 at level 4
        # (9 + 1 + 2 + 2 + 2). There 0 and 4 have degree 1, so only 2 can lie
        # inside a geodesic: at k = 1 the check stops after 0's 2 pairs
        rep = mkv_check(g, {0, 2, 4}, 1)
        assert rep.verdict and rep.ops == 21 + 4 + 16 + 2
        # at k = 0 the cap 1 does not hold, and the test finds 2's neighbours 1 and 3
        # non-adjacent by reading 2's list and 1's (2 + 2); the pair (0, 4) then
        # fails on 0's row, before 2 sweeps
        rep = mkv_check(g, {0, 2, 4}, 0)
        assert (rep.verdict, rep.offending_pair, rep.offending_count) == (False, (0, 4), 1)
        assert rep.ops == 21 + 4 + 4 + 16 + 2

    def test_clique_with_twins(self):
        # K4 on 0..3 with the leaf 4 off 3: 0, 1 and 2 are closed twins
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        # nothing to peel (5); twin keys 3 + 3 + 3 + 1; only 0 sweeps, settling
        # 4 at level 2 (5 + 3 + 3 + 3 + 4), and 1 and 2 read its row; 6 pairs
        rep = mkv_check(g, {0, 1, 2, 4}, 0, collect_pair_counts=True)
        assert rep.verdict and rep.ops == 5 + 10 + 18 + 6
        assert rep.pair_counts == {(0, 1): 0, (0, 2): 0, (0, 4): 0, (1, 2): 0, (1, 4): 0, (2, 4): 0}
        # without pair counts the cap 3 - 1 = 2 > 0 sends the class of 0 to the test: its
        # neighbours 1, 2, 3 are pairwise adjacent (0's list, then 1's and 2's: 3 * 3).
        # No member is left inner, so the check stops after 0's sweep and 3 pairs
        rep = mkv_check(g, {0, 1, 2, 4}, 0)
        assert rep.verdict and rep.ops == 5 + 10 + 9 + 18 + 3
        # with 3 a member every twin reads the count 1 for its pair with 4
        rep = mkv_check(g, {0, 1, 2, 3, 4}, 0, collect_pair_counts=True)
        assert (rep.verdict, rep.offending_pair, rep.offending_count) == (False, (0, 4), 1)
        assert [rep.pair_counts[v, 4] for v in range(4)] == [1, 1, 1, 0]

    def test_whole_clique_is_one_class(self):
        # twin keys 5 * 4; the cap 5 - 2 > 0 sends the one class to the test, which
        # reads 0's list and those of 1, 2 and 3 (4 * 4) and finds them pairwise
        # adjacent. So no member is inner: the check stops after one sweep, which
        # settles every member at level 1 (5 + 4), and its 4 pairs
        rep = mkv_check(complete_graph(5), range(5), 0)
        assert rep.verdict and rep.ops == 5 + 20 + 16 + 9 + 4


class TestCheckVariant:
    def test_total_on_path(self):
        rep = check_variant(path_graph(4), {1, 2}, 0, TOTAL)
        assert not rep.verdict and rep.offending_count > 0
        # the offending pair is a genuine violation at k=0
        u, w = rep.offending_pair
        assert support.pair_min_internal(path_graph(4), {1, 2}, u, w) > 0
        assert check_variant(path_graph(4), {1, 2}, 2, TOTAL).verdict

    def test_total_on_complete(self):
        assert check_variant(complete_graph(5), range(5), 0, TOTAL).verdict

    def test_empty_set_dual(self):
        assert check_variant(path_graph(6), set(), 0, DUAL).verdict

    def test_unknown_variant(self):
        with pytest.raises(GraphInputError):
            check_variant(path_graph(3), {0}, 0, "sideways")

    def test_requires_connected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            check_variant(g, {0}, 0, TOTAL)

    @given(
        support.graph_and_set(min_n=2, max_n=8),
        st.integers(0, 2),
        st.sampled_from(VARIANTS),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_variant_oracle(self, gs, k, variant):
        g, x = gs
        got = check_variant(g, x, k, variant).verdict
        assert got == support.oracle_variant_check(g, x, k, variant)

    @given(support.graphs(min_n=2, max_n=6), st.integers(0, 2), st.sampled_from([TOTAL, OUTER]))
    @settings(max_examples=40, deadline=None)
    def test_total_and_outer_are_hereditary(self, g, k, variant):
        """Every member of either family stays in it when any vertex is dropped."""
        for size in range(1, g.n + 1):
            for x in itertools.combinations(range(g.n), size):
                if check_variant(g, x, k, variant).verdict:
                    for drop in x:
                        rest = [v for v in x if v != drop]
                        assert check_variant(g, rest, k, variant).verdict, (x, drop)

    def test_dual_is_not_hereditary(self):
        # In P4, {0, 1} is dual at k = 0, but dropping 0 leaves the
        # complement pair (0, 2), whose only geodesic runs through 1.
        g = path_graph(4)
        assert check_variant(g, {0, 1}, 0, DUAL).verdict
        rep = check_variant(g, {1}, 0, DUAL)
        assert not rep.verdict and rep.offending_pair == (0, 2)

    @given(support.graph_and_set(min_n=2, max_n=8), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_total_implies_outer_implies_plain(self, gs, k):
        g, x = gs
        if check_variant(g, x, k, TOTAL).verdict:
            assert check_variant(g, x, k, OUTER).verdict
        if check_variant(g, x, k, OUTER).verdict:
            assert mkv_check(g, x, k).verdict
        if check_variant(g, x, k, DUAL).verdict:
            assert mkv_check(g, x, k).verdict


@st.composite
def loose_graph_and_set(draw, max_n=9):
    """A graph that may be disconnected, with a vertex set drawn from it."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    members = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return build_graph(n, edges), members


@st.composite
def leafy_graph_and_set(draw):
    """A tree plus a few edges, or a graph that may be disconnected, with a
    set drawn mostly from its degree-1 vertices plus 0 to 3 others."""
    g = draw(tree_plus_edges() | loose_graph_and_set().map(lambda gs: gs[0]))
    leaves = [v for v in range(g.n) if len(g.adj[v]) == 1]
    members = set(draw(st.lists(st.sampled_from(leaves), unique=True))) if leaves else set()
    return g, members | draw(st.sets(st.integers(0, g.n - 1), max_size=3))


@st.composite
def clique_rich_graph_and_set(draw):
    """A block graph, or a few overlapping cliques on up to 10 vertices
    joined by a random forest (so it may be disconnected), with a set drawn
    mostly from its simplicial vertices (neighbours pairwise adjacent) plus
    0 to 3 others."""
    if draw(st.booleans()):
        g = random_block_graph(draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(0, 10**6)))
    else:
        n = draw(st.integers(2, 10))
        cliques = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=5), min_size=1, max_size=4))
        edges = {(u, w) for c in cliques for u, w in itertools.combinations(sorted(c), 2)}
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n) if draw(st.booleans())}
        g = build_graph(n, sorted(edges))
    simplicial = [v for v in range(g.n) if _simplicial(g.adj, v)]
    members = set(draw(st.lists(st.sampled_from(simplicial), unique=True))) if simplicial else set()
    return g, members | draw(st.sets(st.integers(0, g.n - 1), max_size=3))


def _simplicial(nbrs, v):
    """True when v's neighbours are pairwise adjacent."""
    return all(b in nbrs[a] for a, b in itertools.combinations(nbrs[v], 2))


def _peeled_neighbours(g, members):
    """Every vertex's neighbour set once non-members of degree at most 1
    have been dropped, again and again, until none is left."""
    nbrs = {v: set(g.adj[v]) for v in range(g.n)}
    drop = [v for v in nbrs if v not in members and len(nbrs[v]) <= 1]
    while drop:
        v = drop.pop()
        for w in nbrs.pop(v):
            nbrs[w].discard(v)
            if w not in members and len(nbrs[w]) == 1:
                drop.append(w)
    return nbrs


def _test_fits(g, members, nbrs):
    """Whether mkv_check's simplicial test, run on every twin class, fits in
    its room: the ops bound less the peel, the twin keys, a full sweep per
    class and every member pair. A class's test reads its smallest member's
    list and the lists of all its neighbours but the last."""
    size = len(members)
    first, classes = {}, set()
    for v in sorted(members):
        keys = (frozenset(nbrs[v]), frozenset(nbrs[v] | {v}))
        r = first.get(keys[0], first.get(keys[1]))
        if r is None:
            r = first[keys[0]] = first[keys[1]] = v
        classes.add(r)
    spend = sum(len(nbrs[r]) + sum(len(nbrs[a]) for a in sorted(nbrs[r])[:-1]) for r in classes if len(nbrs[r]) > 1)
    _, peel = kernel._peel(g.adj, kernel._membership(g.n, members))
    room = (size - len(classes) + 1) * (g.n + 2 * g.m) + size * (size + 1) // 2 - peel
    return spend <= room - sum(len(nbrs[v]) for v in members)


def _peeled_degrees(g, members):
    """Each member's degree after that peel."""
    nbrs = _peeled_neighbours(g, members)
    return {v: len(nbrs[v]) for v in members}


def _expected_check(g, s, k, collect):
    """mkv_check's report rebuilt from per-pair geodesic enumeration, ops set
    to 0: pairs (v, q) with v < q scanned in lexicographic order, the first
    one over k reported."""
    members = sorted(set(s))
    pair_counts = {} if collect else None
    if len(members) <= 1:
        return kernel.CheckReport(True, k, pair_counts=pair_counts)
    dist = support.distance_matrix(g)
    first = members[0]
    for q in members[1:]:
        if dist[first][q] == support.INF:
            return kernel.CheckReport(False, k, offending_pair=(first, q), reason=REASON_DISCONNECTED)
    offending = offending_count = None
    for i, v in enumerate(members):
        for q in members[i + 1:]:
            count = support.pair_min_internal(g, members, v, q, dist)
            if collect:
                pair_counts[min(v, q), max(v, q)] = count
            if count > k and offending is None:
                offending, offending_count = (v, q), count
        if offending is not None and not collect:
            break
    if offending is None:
        return kernel.CheckReport(True, k, pair_counts=pair_counts)
    return kernel.CheckReport(False, k, offending_pair=offending, offending_count=offending_count,
                       reason=REASON_PAIR, pair_counts=pair_counts)


def _ops_bound(g, s):
    """One full counting BFS and |S| pair steps per member, plus one peel
    pass of n + 2m: mkv_check's ops never exceed it."""
    size = len(set(s))
    return size * (g.n + 2 * g.m + size) + g.n + 2 * g.m if size > 1 else 0


def _expected_variant(g, x, k, variant):
    """check_variant's report rebuilt from per-pair geodesic enumeration, in
    its sweep order: one BFS (n + 2m steps) per source, one step per target."""
    xs = set(x)
    n = g.n
    dist = support.distance_matrix(g)
    inside = sorted(xs)
    outside = [v for v in range(n) if v not in xs]
    if variant == TOTAL:
        sweep = [(v, range(v + 1, n)) for v in range(n)]
    elif variant == OUTER:
        sweep = [(v, [w for w in range(n) if w != v and (w not in xs or w > v)]) for v in inside]
    else:
        sweep = ([(v, [w for w in inside if w > v]) for v in inside]
                 + [(v, [w for w in outside if w > v]) for v in outside])
    ops = 0
    for v, targets in sweep:
        ops += n + 2 * g.m
        for w in targets:
            ops += 1
            count = support.pair_min_internal(g, xs, v, w, dist)
            if count > k:
                return kernel.CheckReport(False, k, offending_pair=(v, w), offending_count=count,
                                   reason=REASON_PAIR, ops=ops)
    return kernel.CheckReport(True, k, ops=ops)


class TestLeanKernel:
    """Every field of mkv_check but ops, and every field of check_variant,
    against per-pair geodesic enumeration; mkv_check's ops against its
    bound."""

    @given(support.graph_and_set(min_n=1) | loose_graph_and_set(), st.integers(0, 3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mkv_check_matches_enumeration(self, gs, k, collect):
        g, s = gs
        rep = mkv_check(g, s, k, collect_pair_counts=collect)
        assert dataclasses.replace(rep, ops=0) == _expected_check(g, s, k, collect)
        assert rep.ops <= _ops_bound(g, s)

    @given(support.graph_and_set(min_n=2, max_n=9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tolerance_at_the_diameter_passes(self, gs, collect):
        g, s = gs
        diameter = max(max(row) for row in support.distance_matrix(g))
        size = len(s)
        for k in (diameter, diameter + 3):
            rep = mkv_check(g, s, k, collect_pair_counts=collect)
            assert dataclasses.replace(rep, ops=0) == _expected_check(g, s, k, collect)
            assert rep.verdict and (0 < rep.ops <= _ops_bound(g, s) if size > 1 else rep.ops == 0)

    def test_members_in_different_components(self):
        # the first member's component holds 0, 1 and 2; member 4 lies outside it
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        for collect in (False, True):
            rep = mkv_check(g, {0, 2, 4, 5}, 0, collect_pair_counts=collect)
            # peel 3 (6 + 1, then 4's list of 2), twin keys 4, and member 0's sweep
            # over its whole component (6 + 4)
            assert rep == kernel.CheckReport(False, 0, offending_pair=(0, 4), reason=REASON_DISCONNECTED,
                                      ops=9 + 4 + 10)
            assert dataclasses.replace(rep, ops=0) == _expected_check(g, {0, 2, 4, 5}, 0, collect)

    def test_at_most_one_member(self):
        for s in (set(), {3}):
            assert mkv_check(path_graph(5), s, 0) == kernel.CheckReport(True, 0)
            assert mkv_check(path_graph(5), s, 0, collect_pair_counts=True) == kernel.CheckReport(True, 0, pair_counts={})

    @given(
        support.graph_and_set(min_n=2, max_n=8),
        st.integers(0, 3),
        st.sampled_from(VARIANTS),
    )
    @settings(max_examples=150, deadline=None)
    def test_check_variant_matches_enumeration(self, gs, k, variant):
        g, x = gs
        rep = check_variant(g, x, k, variant)
        assert rep == _expected_variant(g, x, k, variant)
        assert rep.verdict == support.oracle_variant_check(g, x, k, variant)

    def test_check_variant_all_three_on_one_set(self):
        # C6 with x = {0, 1, 3}: every variant decided and located the same way
        g = cycle_graph(6)
        x = {0, 1, 3}
        for variant in VARIANTS:
            for k in (0, 1):
                rep = check_variant(g, x, k, variant)
                assert rep == _expected_variant(g, x, k, variant), (variant, k)
                assert rep.verdict == support.oracle_variant_check(g, x, k, variant), (variant, k)


class TestLeafExit:
    """mkv_check passes after its first sweep once at most k members can lie
    inside a geodesic: the members with two non-adjacent neighbours after
    the peel, less one for each endpoint that must be one of them."""

    @given(leafy_graph_and_set(), st.integers(0, 4), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration_with_one_sweep_under_the_cap(self, gs, k, collect):
        g, s = gs
        with mock.patch.object(kernel, "_count_bfs", wraps=kernel._count_bfs) as sweeps:
            rep = mkv_check(g, s, k, collect_pair_counts=collect)
        assert dataclasses.replace(rep, ops=0) == _expected_check(g, s, k, collect)
        assert rep.ops <= _ops_bound(g, s)
        inner = sum(d > 1 for d in _peeled_degrees(g, s).values())
        if len(s) > 1 and not collect and inner - max(0, 2 - (len(s) - inner)) <= k:
            assert sweeps.call_count == 1

    @given(clique_rich_graph_and_set(), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_one_sweep_when_simplicial_members_keep_the_cap(self, gs, k):
        """Without pair counts, the check stops after one sweep whenever
        the members with two non-adjacent neighbours after the peel, counted
        here apart from the kernel, leave at most k for any geodesic, and
        testing every class fits in what the ops bound leaves."""
        g, s = gs
        with mock.patch.object(kernel, "_count_bfs", wraps=kernel._count_bfs) as sweeps:
            rep = mkv_check(g, s, k)
        assert dataclasses.replace(rep, ops=0) == _expected_check(g, s, k, False)
        assert rep.ops <= _ops_bound(g, s)
        nbrs = _peeled_neighbours(g, s)
        inner = sum(not _simplicial(nbrs, v) for v in s)
        if len(s) > 1 and inner - max(0, 2 - (len(s) - inner)) <= k and _test_fits(g, s, nbrs):
            assert sweeps.call_count == 1

    @given(leafy_graph_and_set() | clique_rich_graph_and_set())
    @settings(max_examples=150, deadline=None)
    def test_leaves_lie_inside_no_geodesic(self, gs):
        """No member of degree at most 1 after the peel, and no member whose
        neighbours there are pairwise adjacent, is inside a geodesic between
        two other members."""
        g, s = gs
        adj, _ = kernel._peel(g.adj, kernel._membership(g.n, s))
        dist = support.distance_matrix(g)
        nbrs = [set(a) for a in adj]
        for v in s:
            if _simplicial(nbrs, v):
                others = sorted(s - {v})
                for i, u in enumerate(others):
                    for w in others[i + 1:]:
                        assert all(v not in p[1:-1] for p in support.all_geodesics(g, u, w, dist)), (v, u, w)


class TestOracle:
    def test_two_blocked_geodesics(self):
        assert oracle_min_internal_count(cycle_graph(4), {1, 3}, 0, 2) == 1

    def test_same_vertex(self):
        assert oracle_min_internal_count(path_graph(4), {0, 1, 2, 3}, 1, 1) == 0

    def test_cap_fails_closed(self):
        with pytest.raises(GeodesicCapError):
            oracle_min_internal_count(cycle_graph(6), {1}, 0, 3, cap=1)

    def test_cap_must_be_a_positive_int(self):
        """The CLI's --cap floor holds for library callers too: a cap that
        is not an int of at least 1, a bool included, is malformed input,
        refused before any geodesic is enumerated."""
        g = path_graph(3)
        for cap in (None, "5", True, 3.0, -1, 0):
            with pytest.raises(GraphInputError, match=f"^cap must be a positive integer, got {cap!r}$"):
                oracle_min_internal_count(g, {1}, 0, 2, cap=cap)
        assert oracle_min_internal_count(g, {1}, 0, 2, cap=1) == 1

    def test_disconnected_pair(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            oracle_min_internal_count(g, set(), 0, 2)

    def test_long_geodesic_needs_no_recursion(self):
        g = path_graph(3000)
        assert oracle_min_internal_count(g, {5, 1500, 2999}, 0, 2999) == 2

    @given(support.graph_and_set(min_n=2, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_kernel_and_enumeration(self, gs, rnd):
        g, x = gs
        dist = support.distance_matrix(g)
        for _ in range(6):
            u = rnd.randrange(g.n)
            w = rnd.randrange(g.n)
            want = support.pair_min_internal(g, x, u, w, dist)
            assert oracle_min_internal_count(g, x, u, w) == want
            assert min_internal_count(g, x, u, w) == want
