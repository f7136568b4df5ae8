"""Visibility covers: exact tau, bounds, greedy heuristic, cycle construction."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from mkvis import covering, solvers
from mkvis.covering import (
    LOWER_CEIL_MU,
    LOWER_SEARCH,
    cycle_cover_partition,
    greedy_cover,
    is_visibility_cover,
    tau_bounds,
    tau_k,
)
from mkvis.errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    MAX_VERTICES,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    metric_summary,
    path_graph,
    random_block_graph,
    random_connected,
)
from mkvis.kernel import mkv_check
from mkvis.solvers import _SweptChecker, mu_k


class TestIsVisibilityCover:
    def test_accepts_valid_partition(self):
        g = path_graph(4)
        assert is_visibility_cover(g, [{0, 1}, {2, 3}], 0)

    def test_rejects_overlap_gap_and_infeasible(self):
        g = path_graph(4)
        assert not is_visibility_cover(g, [{0, 1}, {1, 2, 3}], 0)  # overlap
        assert not is_visibility_cover(g, [{0, 1}], 0)  # gap
        assert not is_visibility_cover(g, [{0, 1, 2}, {3}], 0)  # infeasible part
        assert not is_visibility_cover(g, [{0, 1}, set(), {2, 3}], 0)  # empty part


class TestTauK:
    @pytest.mark.parametrize(
        "g,k,want",
        [
            (path_graph(7), 1, 3),
            (cycle_graph(6), 0, 2),
            (complete_graph(5), 0, 1),
            (complete_graph(5), 3, 1),
            (path_graph(1), 0, 1),
        ],
    )
    def test_known_values(self, g, k, want):
        res = tau_k(g, k)
        assert res.value == want
        assert is_visibility_cover(g, res.partition, k)

    def test_empty_graph(self):
        res = tau_k(build_graph(0, []), 0)
        assert res.value == 0 and res.partition == ()

    def test_lower_bound_certificate_is_named(self):
        res = tau_k(path_graph(6), 0)
        assert res.lower_bound_used in (LOWER_CEIL_MU, "exhausted-smaller-part-counts")

    @given(support.graphs(min_n=1, max_n=7), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, g, k):
        res = tau_k(g, k)
        assert res.value == support.brute_tau(g, k)
        for part in res.partition:
            assert support.oracle_mkv_check(g, part, k)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_tolerance(self, g, k):
        assert tau_k(g, k + 1).value <= tau_k(g, k).value

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_single_part_iff_saturated(self, g, k):
        d = metric_summary(g).diameter
        assert (tau_k(g, k).value == 1) == (k >= d - 1)

    @pytest.mark.parametrize(
        "g,k,value,partition,used",
        [
            (path_graph(7), 1, 3, ((1, 2, 3), (0, 4, 5), (6,)), LOWER_CEIL_MU),
            (cycle_graph(12), 1, 3, ((0, 1, 2, 6, 7), (3, 4, 5, 9, 10), (8, 11)), LOWER_CEIL_MU),
            (complete_bipartite(3, 4), 0, 2, ((0, 1, 2, 3), (4, 5, 6)), LOWER_CEIL_MU),
            (random_connected(10, 0.3, 2), 1, 2, ((0, 1, 2, 3, 4, 5, 6, 7, 8), (9,)), LOWER_CEIL_MU),
            (random_block_graph(5, 4, 3), 1, 2, ((0, 2, 3, 4, 5, 6), (1, 7, 8, 9)), LOWER_CEIL_MU),
            (random_connected(9, 0.2, 3), 0, 3, ((0, 2, 3, 6), (1, 4, 7, 8), (5,)), LOWER_SEARCH),
            (random_connected(11, 0.2, 0), 0, 3, ((3, 4, 8), (0, 2, 7, 9, 10), (1, 5, 6)), LOWER_SEARCH),
            (random_connected(12, 0.3, 2), 0, 3, ((1, 2, 3, 4), (0, 5, 6, 7, 8, 9, 11), (10,)), LOWER_SEARCH),
        ],
    )
    def test_partition_is_pinned(self, g, k, value, partition, used):
        """The exact partition, not only its size: the search order and the
        part-opening rule decide which optimal cover comes back."""
        res = tau_k(g, k)
        assert (res.value, res.partition, res.lower_bound_used) == (value, partition, used)

    def test_geodesic_tables_built_once(self, monkeypatch):
        """The mu_k behind the lower bound shares tau_k's checker, so the
        geodesic tables are built once per call: one BFS per source."""
        built = []
        geodesics = solvers._geodesics

        def counting(adj, s):
            built.append(s)
            return geodesics(adj, s)

        monkeypatch.setattr(solvers, "_geodesics", counting)
        res = tau_k(random_connected(16, 0.2, 1), 0)
        assert built == list(range(16))
        assert (res.value, res.partition, res.lower_bound_used) == (
            3, ((0, 1, 3, 6, 10), (2, 4, 5, 7, 9, 13), (8, 11, 12, 14, 15)), LOWER_SEARCH)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            tau_k(path_graph(17), 0)

    def test_requires_connected(self):
        with pytest.raises(DisconnectedGraphError):
            tau_k(build_graph(4, [(0, 1), (2, 3)]), 0)


class TestTauBounds:
    def test_seven_cycle_pins_the_value(self):
        tb = tau_bounds(cycle_graph(7), 0)
        assert tb.lower == 3
        assert tb.upper_uniform == 4 and tb.upper_peel == 3
        assert tb.upper() == 3 == tau_k(cycle_graph(7), 0).value

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphInputError, match="covering bounds need at least one vertex"):
            tau_bounds(build_graph(0, []), 0)

    def test_accepts_known_mu(self):
        tb = tau_bounds(cycle_graph(7), 0, mu_value=3)
        assert tb.lower == 3 and tb.upper() == 3

    @pytest.mark.parametrize("mu_value", [0, -2, 99, True, 2.0])
    def test_rejects_mu_value_outside_1_to_n(self, mu_value):
        with pytest.raises(GraphInputError, match=r"mu_value must be an integer in \[1, 5\]"):
            tau_bounds(cycle_graph(5), 0, mu_value=mu_value)

    def test_path_uniform_bound_is_exact(self):
        for n in (4, 7, 11):
            for k in (0, 1, 2):
                tb = tau_bounds(path_graph(n), k)
                assert tb.upper_uniform == -(-n // (k + 2)) == tau_k(path_graph(n), k).value

    @given(support.graphs(min_n=1, max_n=8), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_sandwich(self, g, k):
        tb = tau_bounds(g, k)
        value = tau_k(g, k).value
        assert tb.lower <= value <= tb.upper()


class TestGreedyCover:
    def test_complete_graph_single_part(self):
        assert greedy_cover(complete_graph(8), 0) == [sorted(range(8))]

    @given(support.graphs(min_n=1, max_n=8), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_valid_and_never_beats_exact(self, g, k):
        parts = greedy_cover(g, k)
        assert is_visibility_cover(g, parts, k)
        assert len(parts) >= tau_k(g, k).value

    @support.with_examples([(g, k) for g in support.geodesic_rich_graphs() for k in range(4)])
    @given(support.graphs(min_n=1, max_n=9), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_is_first_fit_in_degree_order(self, g, k):
        dist = support.distance_matrix(g)
        parts: list = []
        for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u)):
            for part in parts:
                if support.oracle_mkv_check(g, part + [v], k, dist):
                    part.append(v)
                    break
            else:
                parts.append([v])
        assert greedy_cover(g, k) == [sorted(p) for p in parts]

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_saturated_tolerance_single_part(self, g):
        k = max(metric_summary(g).diameter - 1, 0)
        assert len(greedy_cover(g, k)) == 1

    def test_keeps_no_undo_state(self, monkeypatch):
        """push returns nothing, and the parts of one cover share their
        through rows but no count row list, so a push's in-place update
        never reaches another part: every other part's rows read after the
        push as before it."""
        parts = []

        class Spy(_SweptChecker):
            def push(self, v, later=None):
                if all(p is not self for p in parts):
                    parts.append(self)
                others = [(p, [row and row[:] for row in p.rows]) for p in parts if p is not self]
                assert super().push(v) is None
                for p, rows in others:
                    assert p.rows == rows

        monkeypatch.setattr(covering, "_SweptChecker", Spy)
        g = random_connected(30, 0.15, 4)
        assert len(greedy_cover(g, 1)) == len(parts) > 1
        assert all(p.through is parts[0].through for p in parts)
        lists = {id(row) for p in parts for row in p.rows if row is not None}
        assert len(lists) == g.n


class TestCycleCoverPartition:
    def test_ten_cycle_two_parts(self):
        parts = cycle_cover_partition(10, 1)
        assert len(parts) == 2
        assert all(len(p) == 5 for p in parts)
        assert is_visibility_cover(cycle_graph(10), parts, 1)

    def test_seven_cycle_three_residues(self):
        parts = cycle_cover_partition(7, 0)
        assert len(parts) == 3
        assert parts[0] == [0, 3, 6]

    def test_boundary_is_an_error(self):
        with pytest.raises(GraphInputError):
            cycle_cover_partition(9, 3)  # 2k+3 = 9 is not < 9
        with pytest.raises(GraphInputError):
            cycle_cover_partition(2, 0)

    def test_refuses_more_than_max_vertices(self):
        """A cycle past MAX_VERTICES is refused before any part is built (at
        n = 2^70 the parts would not fit in memory)."""
        for n in (MAX_VERTICES + 1, 2**70):
            with pytest.raises(SizeLimitError, match=f"limited to {MAX_VERTICES} vertices"):
                cycle_cover_partition(n, 0)

    @pytest.mark.parametrize("n", range(4, 14))
    def test_matches_exact_tau(self, n):
        g = cycle_graph(n)
        for k in range(0, (n - 4) // 2 + 1):
            parts = cycle_cover_partition(n, k)
            assert is_visibility_cover(g, parts, k)
            for part in parts:
                assert mkv_check(g, part, k).verdict
            want = -(-n // min(n, 2 * k + 3))
            assert len(parts) == want
