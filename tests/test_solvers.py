"""Exact solvers: mu_k, variants, gp, polynomial, bounds, constructions."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from mkvis.blocks import mu_k_block
from mkvis.covering import tau_k
from mkvis.errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    build_graph,
    complete_bipartite,
    complete_graph,
    convex_hull,
    cycle_graph,
    induced_subgraph,
    metric_summary,
    path_graph,
    random_block_graph,
    random_connected,
)
from mkvis.kernel import DUAL, OUTER, TOTAL, VARIANTS, _geodesic_dags, mkv_check
from mkvis.solvers import (
    Polynomial,
    _convex_paths,
    bounds,
    cycle_extremal_set,
    gp_number,
    hull_cover_bound,
    mu_k,
    mu_k_variant,
    visibility_polynomial,
)


class TestMuK:
    @pytest.mark.parametrize(
        "g,k,want",
        [
            (path_graph(5), 1, 3),
            (cycle_graph(9), 2, 7),
            (complete_bipartite(2, 3), 1, 5),
            (complete_graph(7), 0, 7),
            (path_graph(1), 0, 1),
        ],
    )
    def test_known_values(self, g, k, want):
        res = mu_k(g, k)
        assert res.value == want
        assert len(res.witness) == want

    @given(support.graphs(min_n=1, max_n=8), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g, k):
        res = mu_k(g, k)
        assert res.value == support.brute_mu(g, k)
        assert support.oracle_mkv_check(g, res.witness, k)

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_chain_and_stabilization(self, g):
        values = [mu_k(g, k).value for k in range(g.n)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == g.n
        if g.n >= 2:
            assert mu_k(g, g.n - 2).value == mu_k(g, g.n + 3).value

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_saturation_iff_tolerant_diameter(self, g, k):
        d = metric_summary(g).diameter
        assert (mu_k(g, k).value == g.n) == (k >= d - 1)

    @given(support.graphs(min_n=5, max_n=9), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_convex_paths_hold_at_most_k_plus_2(self, g, k):
        """The premise of mu_k's bound: each greedy part is a path that is the
        unique geodesic between its ends, the parts are disjoint, and no
        mutual k-visible set holds more than k + 2 vertices of one part."""
        parts = _convex_paths(_geodesic_dags(g), k + 2)
        dist = support.distance_matrix(g)
        seen: set = set()
        for path in parts:
            assert len(path) > k + 2 and not seen & set(path)
            seen |= set(path)
            assert support.all_geodesics(g, path[0], path[-1], dist) == [tuple(path)]
        for size in range(k + 3, g.n + 1):
            for x in combinations(range(g.n), size):
                if any(len(set(x) & set(path)) > k + 2 for path in parts):
                    assert not support.oracle_mkv_check(g, x, k, dist)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            mu_k(path_graph(30), 0)
        assert mu_k(path_graph(30), 0, max_n=30).value == 2

    def test_requires_connected(self):
        with pytest.raises(DisconnectedGraphError):
            mu_k(build_graph(4, [(0, 1), (2, 3)]), 0)


class TestMuKVariant:
    def test_total_on_p3(self):
        assert mu_k_variant(path_graph(3), 0, TOTAL).value == 2

    def test_total_on_complete(self):
        assert mu_k_variant(complete_graph(5), 0, TOTAL).value == 5

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 2), st.sampled_from(VARIANTS))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, k, variant):
        res = mu_k_variant(g, k, variant)
        assert res.value == support.brute_variant_mu(g, k, variant)
        assert support.oracle_variant_check(g, res.witness, k, variant)

    @given(support.graphs(min_n=2, max_n=6), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_variants_never_exceed_plain(self, g, k):
        plain = mu_k(g, k).value
        for variant in VARIANTS:
            assert mu_k_variant(g, k, variant).value <= plain

    @given(support.graphs(min_n=2, max_n=6))
    @settings(max_examples=20, deadline=None)
    def test_saturated_tolerance_takes_everything(self, g):
        k = max(metric_summary(g).diameter - 1, 0)
        for variant in VARIANTS:
            assert mu_k_variant(g, k, variant).value == g.n

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            mu_k_variant(path_graph(19), 0, TOTAL)


class TestGpNumber:
    @pytest.mark.parametrize(
        "g,want",
        [
            (complete_graph(6), 6),
            (path_graph(2), 2),
            (path_graph(8), 2),
            (cycle_graph(4), 2),
            (cycle_graph(5), 3),
        ],
    )
    def test_known_values(self, g, want):
        assert gp_number(g).value == want

    @given(support.graphs(min_n=1, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert gp_number(g).value == support.brute_gp(g)

    @given(support.graphs(min_n=1, max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_in_general_position(self, g):
        res = gp_number(g)
        assert len(res.witness) == res.value
        dist = support.distance_matrix(g)
        for a, b in combinations(res.witness, 2):
            for m in res.witness - {a, b}:
                assert dist[a][m] + dist[m][b] != dist[a][b], (a, m, b)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            gp_number(path_graph(21))


class TestBounds:
    def test_seven_cycle(self):
        rec = bounds(cycle_graph(7), 0)
        assert rec.diameter_bound == 5
        assert rec.girth_bound == 3
        assert rec.upper() == 3 == mu_k(cycle_graph(7), 0).value

    def test_path_bound_is_tight(self):
        for n in (3, 6, 9):
            for k in (0, 1, 2):
                assert bounds(path_graph(n), k).diameter_bound == k + 2
        assert bounds(path_graph(9), 1).upper() == 3 == mu_k(path_graph(9), 1).value

    def test_tree_has_no_girth_bound(self):
        rec = bounds(path_graph(6), 0)
        from mkvis.graphs import is_infinite

        assert is_infinite(rec.girth_bound)
        assert rec.upper() == min(rec.diameter_bound, rec.trivial_bound)

    def test_explicit_isometric_path(self):
        rec = bounds(cycle_graph(8), 0, isometric_path=[0, 1, 2, 3, 4])
        assert rec.isometric_bound == 8 - 4 + 0 + 1

    def test_rejects_non_isometric_path(self):
        with pytest.raises(GraphInputError, match="not isometric"):
            bounds(cycle_graph(6), 0, isometric_path=[0, 1, 2, 3, 4])

    def test_rejects_empty_isometric_path(self):
        with pytest.raises(GraphInputError, match="at least one vertex"):
            bounds(path_graph(4), 0, isometric_path=[])

    def test_gp_lower_omitted_above_limit(self):
        rec = bounds(path_graph(8), 0, gp_max_n=5)
        assert rec.gp_lower is None
        assert rec.lower() == rec.degree_lower

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, g, k):
        rec = bounds(g, k)
        mu = mu_k(g, k).value
        assert rec.lower() <= mu <= rec.upper()

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_degree_lower_bound_is_feasible(self, g, k):
        # the bound's witness: a max-degree neighborhood, plus the center when k >= 1
        ms = metric_summary(g)
        center = max(range(g.n), key=g.degree)
        members = set(g.adj[center])
        if k >= 1:
            members.add(center)
        assert mkv_check(g, members, k).verdict
        assert len(members) == (ms.max_degree + 1 if k >= 1 else ms.max_degree)


class TestPolynomial:
    def test_p3_counts(self):
        p = visibility_polynomial(path_graph(3), 0)
        assert p.coefficients == (1, 3, 3, 0)
        assert p.degree() == 2
        assert str(p) == "1 + 3x + 3x^2"

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", [0, 2])
    def test_complete_graphs_are_binomial(self, n, k):
        p = visibility_polynomial(complete_graph(n), k)
        assert p.coefficients == tuple(comb(n, i) for i in range(n + 1))

    @given(support.graphs(min_n=1, max_n=7), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_unpruned_enumeration(self, g, k):
        p = visibility_polynomial(g, k)
        assert list(p.coefficients) == support.brute_polynomial(g, k)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_low_coefficients_are_binomial(self, g, k):
        p = visibility_polynomial(g, k)
        for i in range(min(k + 2, g.n) + 1):
            assert p.coefficients[i] == comb(g.n, i)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_top_index_is_mu(self, g, k):
        assert visibility_polynomial(g, k).degree() == mu_k(g, k).value

    def test_str_edge_cases(self):
        assert str(Polynomial((1,))) == "1"
        assert str(Polynomial((0, 1, 0, 1))) == "x + x^3"

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            visibility_polynomial(path_graph(19), 0)


@given(support.graphs(min_n=2, max_n=9), st.integers(0, 2), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_invariant_under_relabeling(g, k, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert mu_k(h, k).value == mu_k(g, k).value
    assert visibility_polynomial(h, k) == visibility_polynomial(g, k)
    assert gp_number(h).value == gp_number(g).value
    assert tau_k(h, k).value == tau_k(g, k).value


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


@pytest.mark.parametrize(
    "solve,want",
    [
        (lambda: mu_k(_grid(3, 5), 0), (6, 23, [0, 4, 6, 7, 10, 14])),
        (lambda: mu_k(_grid(3, 5), 1), (9, 68, [1, 2, 4, 6, 7, 9, 10, 11, 14])),
        (lambda: mu_k(cycle_graph(9), 1), (5, 6, [0, 1, 2, 5, 6])),
        (lambda: mu_k(random_connected(14, 0.25, 3), 0), (8, 136, [2, 3, 4, 5, 6, 8, 9, 11])),
        (lambda: mu_k(random_connected(14, 0.25, 3), 1), (12, 29, [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13])),
        (lambda: gp_number(random_connected(14, 0.25, 5)), (7, 94, [3, 5, 6, 8, 9, 10, 12])),
        # the retired branch and bound, kept as the tree DP's oracle
        (lambda: support.bnb_mu_k_block(random_block_graph(9, 4, 2), 0),
         (9, 18, [0, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: support.bnb_mu_k_block(random_block_graph(9, 4, 2), 1),
         (10, 35, [0, 1, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: support.bnb_mu_k_block(random_block_graph(9, 4, 2), 2),
         (12, 31, [0, 1, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14])),
        # interior bridge blocks of a path weigh 0 and are never branched on
        (lambda: support.bnb_mu_k_block(path_graph(12), 1), (3, 220, [1, 2, 3])),
        (lambda: support.bnb_mu_k_block(path_graph(12), 2), (4, 495, [1, 2, 3, 4])),
        # the tree DP: nodes_explored counts DP table entries filled
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 0), (9, 136, [3, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 1), (10, 154, [3, 5, 7, 8, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 2),
         (12, 163, [1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(path_graph(12), 1), (3, 238, [0, 10, 11])),
        (lambda: mu_k_block(path_graph(12), 2), (4, 284, [0, 9, 10, 11])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, TOTAL), (2, 3, [2, 10])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, OUTER), (7, 92, [2, 3, 5, 6, 10, 11, 17])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, DUAL),
         (7, 10532, [5, 8, 10, 11, 14, 15, 16])),
    ],
    ids=["grid3x5-k0", "grid3x5-k1", "c9-k1", "random14-k0", "random14-k1", "gp-random14",
         "block9-k0", "block9-k1", "block9-k2", "path12-block-k1", "path12-block-k2",
         "dp-block9-k0", "dp-block9-k1", "dp-block9-k2", "dp-path12-block-k1", "dp-path12-block-k2",
         "total-random18-k0", "outer-random18-k0", "dual-random18-k0"],
)
def test_search_effort_is_pinned(solve, want):
    """Search order and pruning fix the value, the witness and the node count
    exactly; a change to any of them shows here first."""
    res = solve()
    assert (res.value, res.nodes_explored, sorted(res.witness)) == want


class TestCycleExtremalSet:
    def test_known_constructions(self):
        assert cycle_extremal_set(9, 2) == {0, 1, 2, 3, 5, 6, 7}
        assert cycle_extremal_set(3, 0) == {0, 1, 2}
        assert cycle_extremal_set(7, 1) == {0, 1, 2, 4, 5}

    def test_rejects_small_cycles(self):
        with pytest.raises(GraphInputError):
            cycle_extremal_set(2, 0)

    def test_rejects_oversized_tolerance(self):
        with pytest.raises(GraphInputError, match="exceeds"):
            cycle_extremal_set(5, 2)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_matches_cycle_formula(self, n):
        for k in range((n - 3) // 2 + 1):
            s = cycle_extremal_set(n, k)
            assert len(s) == 2 * k + 3
            assert mkv_check(cycle_graph(n), s, k).verdict


class TestHullCoverBound:
    def test_two_edges_of_a_path(self):
        assert hull_cover_bound(path_graph(4), [{0, 1}, {2, 3}], 0) == 4

    def test_single_part_gives_mu_itself(self):
        g = cycle_graph(6)
        assert hull_cover_bound(g, [set(range(6))], 1) == mu_k(g, 1).value

    def test_six_cycle_halves(self):
        got = hull_cover_bound(cycle_graph(6), [{0, 1, 2}, {3, 4, 5}], 0)
        assert got >= mu_k(cycle_graph(6), 0).value == 3

    def test_rejects_non_cover(self):
        with pytest.raises(GraphInputError, match="cover"):
            hull_cover_bound(path_graph(4), [{0, 1}], 0)

    @given(support.graphs(min_n=4, max_n=9), st.integers(0, 2), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_upper_bounds_mu(self, g, k, rnd):
        cut = rnd.randrange(1, g.n)
        parts = [set(range(cut)), set(range(cut, g.n))]
        assert hull_cover_bound(g, parts, k) >= mu_k(g, k).value


class TestConvexMonotonicity:
    @given(support.graph_and_set(min_n=3, max_n=9), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_hull_subgraph_mu_never_exceeds_whole(self, gs, k):
        g, s = gs
        if not s:
            return
        sub, _ = induced_subgraph(g, convex_hull(g, s))
        assert mu_k(sub, k).value <= mu_k(g, k).value
