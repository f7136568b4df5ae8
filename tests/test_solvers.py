"""Exact solvers: mu_k, variants, gp, polynomial, bounds, constructions."""

import inspect
import random
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
import mkvis
import mkvis.solvers
from mkvis.blocks import block_decomposition, is_block_graph, mu_k_block
from mkvis.covering import greedy_cover, is_visibility_cover, tau_bounds, tau_k
from mkvis.errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    MAX_VERTICES,
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
from mkvis.kernel import DUAL, OUTER, TOTAL, VARIANTS, mkv_check
from mkvis.solvers import (
    DEFAULT_VARIANT_MAX_N,
    Polynomial,
    _AllPairsChecker,
    _CarriedChecker,
    _SweptChecker,
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
        """The premise of mu_k's bound: each greedy part is a bitmask of more
        than k + 2 vertices that is the vertex set of the unique geodesic
        between its two farthest vertices, the parts are disjoint, and no
        mutual k-visible set holds more than k + 2 vertices of one part."""
        checker = _CarriedChecker(g, k)
        dist = support.distance_matrix(g)
        parts = []
        for bits in _convex_paths(checker.sigma, checker.between, k + 2):
            part = [v for v in range(g.n) if bits >> v & 1]
            assert len(part) > k + 2 and not any(set(part) & set(p) for p in parts)
            s, t = max(combinations(part, 2), key=lambda pair: dist[pair[0]][pair[1]])
            geodesics = support.all_geodesics(g, s, t, dist)
            assert len(geodesics) == 1 and sorted(geodesics[0]) == part
            parts.append(part)
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
            mu_k_variant(path_graph(DEFAULT_VARIANT_MAX_N + 1), 0, TOTAL)
        assert mu_k_variant(path_graph(DEFAULT_VARIANT_MAX_N), 0, TOTAL).value == 2


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

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphInputError, match="bounds need at least one vertex"):
            bounds(build_graph(0, []), 0)

    def test_rejects_empty_isometric_path(self):
        with pytest.raises(GraphInputError, match="at least one vertex"):
            bounds(path_graph(4), 0, isometric_path=[])

    def test_gp_lower_omitted_above_limit(self):
        rec = bounds(path_graph(8), 0, gp_max_n=5)
        assert rec.gp_lower is None
        assert rec.lower() == rec.degree_lower

    def test_gp_lower_solved_up_to_the_limit(self):
        """gp runs under gp_max_n, not under gp_number's own default of 20."""
        assert bounds(random_connected(22, 0.3, 1), 0, gp_max_n=30).gp_lower == 10

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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_search_counts_a_downward_closed_family(self, data):
        """_search without a goal, apart from the kernel: the family is the
        down-closure of a few random sets over at most 10 elements, fits
        is membership and the order is random. The sizes it returns must
        equal a brute-force count by size, with no more sets visited than
        counted."""
        n = data.draw(st.integers(1, 10))
        tops = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1, max_size=4))
        order = data.draw(st.permutations(range(n)))
        held = set()

        def push(v, later):
            held.add(v)

        def pop(v, undo):
            held.remove(v)

        def fits(v) -> bool:
            return any(held <= top and v in top for top in tops)

        members = {frozenset(s) for top in tops for i in range(len(top) + 1) for s in combinations(sorted(top), i)}
        want = [0] * (n + 1)
        for s in members:
            want[len(s)] += 1
        _, _, nodes, sizes = mkvis.solvers._search(order, fits, push, pop, None)
        assert sizes == want
        assert nodes <= len(members)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("k", [0, 1])
    def test_complete_graph_search_visits_n_plus_one_sets(self, n, k):
        """Every set of K_n is mutual k-visible, so each node down the
        first branch holds all its later candidates: the search visits the
        empty set and one set per size and tallies the rest."""
        search = mkvis.solvers._search
        results = []

        def recording(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        with mock.patch.object(mkvis.solvers, "_search", recording):
            p = visibility_polynomial(complete_graph(n), k)
        assert p.coefficients == tuple(comb(n, i) for i in range(n + 1))
        assert [nodes for _, _, nodes, _ in results] == [n + 1]

    def test_str_edge_cases(self):
        assert str(Polynomial((1,))) == "1"
        assert str(Polynomial((0, 1, 0, 1))) == "x + x^3"

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            visibility_polynomial(path_graph(19), 0)


# (name in the size refusal, call(g, k, max_n)); gp_number takes no k and ignores it
_ENTRY_POINTS = [
    ("mu_k", lambda g, k, m: mu_k(g, k, max_n=m)),
    ("mu_k_variant", lambda g, k, m: mu_k_variant(g, k, TOTAL, max_n=m)),
    ("gp_number", lambda g, k, m: gp_number(g, max_n=m)),
    ("visibility_polynomial", lambda g, k, m: visibility_polynomial(g, k, max_n=m)),
    ("tau_k", lambda g, k, m: tau_k(g, k, max_n=m)),
    ("greedy_cover", lambda g, k, m: greedy_cover(g, k, max_n=m)),
    ("mu_k", lambda g, k, m: tau_bounds(g, k, mu_max_n=m)),  # the refusal of the mu_k it solves
]


@pytest.mark.parametrize("name,call", _ENTRY_POINTS, ids=[
    "mu_k", "mu_k_variant", "gp_number", "visibility_polynomial", "tau_k", "greedy_cover", "tau_bounds"])
class TestEntryCheckOrder:
    """Every solver checks the tolerance, then connectivity, then its size limit."""

    disconnected = build_graph(6, [(0, 1), (2, 3), (4, 5)])

    def test_bad_tolerance_comes_first(self, name, call):
        """None too: it is a caller's bad tolerance, not a solver's lack of one."""
        if name == "gp_number":
            pytest.skip("gp_number takes no tolerance")
        for k in (-1, None, True, 1.5, "1"):
            with pytest.raises(GraphInputError, match="tolerance k must be a nonnegative integer"):
                call(self.disconnected, k, 4)

    def test_disconnected_comes_before_size(self, name, call):
        with pytest.raises(DisconnectedGraphError):
            call(self.disconnected, 0, 4)

    def test_size_refusal_message(self, name, call):
        with pytest.raises(SizeLimitError) as info:
            call(path_graph(6), 0, 4)
        assert str(info.value) == f"{name} limited to 4 vertices, got 6; raise max_n to override"


# a valid value for every other required parameter of a public callable that takes k
_TOLERANCE_POOL = {
    "g": path_graph(5),
    "t": block_decomposition(path_graph(5)),
    "n": 5,
    "s": [0, 4],
    "x": [0, 4],
    "z": [],
    "parts": [range(5)],
    "variant": TOTAL,
}
_TAKE_K = sorted(name for name in mkvis.__all__
                 if inspect.isfunction(getattr(mkvis, name))
                 and "k" in inspect.signature(getattr(mkvis, name)).parameters)


@pytest.mark.parametrize("name", _TAKE_K)
def test_every_public_tolerance_refuses_bad_values(name):
    """Every public function with a tolerance k refuses a malformed one with
    GraphInputError; a new function joins with no edit, unless it needs a
    parameter the pool lacks."""
    function = getattr(mkvis, name)
    required = [p for p, spec in inspect.signature(function).parameters.items()
                if spec.default is spec.empty and p != "k"]
    assert set(required) <= set(_TOLERANCE_POOL), f"add {set(required) - set(_TOLERANCE_POOL)} to the pool"
    for k in (-1, None, True, 1.5, "1"):
        with pytest.raises(GraphInputError, match="tolerance k must be a nonnegative integer"):
            function(k=k, **{p: _TOLERANCE_POOL[p] for p in required})


# (the argument a malformed limit is refused under, call(g, limit)) for every public size limit
_SIZE_LIMITS = [
    ("max_n", lambda g, m: mu_k(g, 0, max_n=m)),
    ("max_n", lambda g, m: mu_k_variant(g, 0, TOTAL, max_n=m)),
    ("max_n", lambda g, m: gp_number(g, max_n=m)),
    ("max_n", lambda g, m: visibility_polynomial(g, 0, max_n=m)),
    ("max_n", lambda g, m: tau_k(g, 0, max_n=m)),
    ("max_n", lambda g, m: greedy_cover(g, 0, max_n=m)),
    ("mu_max_n", lambda g, m: tau_bounds(g, 0, mu_max_n=m)),
    ("mu_max_n", lambda g, m: tau_bounds(g, 0, mu_value=2, mu_max_n=m)),  # checked though no mu_k is solved
    ("gp_max_n", lambda g, m: bounds(g, 0, gp_max_n=m)),
    ("max_nodes", lambda g, m: mu_k_block(g, 0, max_nodes=m)),
]


@pytest.mark.parametrize("name,call", _SIZE_LIMITS, ids=[
    "mu_k", "mu_k_variant", "gp_number", "visibility_polynomial", "tau_k", "greedy_cover", "tau_bounds",
    "tau_bounds-mu_value", "bounds", "mu_k_block"])
def test_size_limit_must_be_a_nonnegative_int(name, call):
    """A size limit that is not a nonnegative int, a bool included (True
    would read as 1), is malformed input: GraphInputError, not a bare
    TypeError or a refusal. The limit 3 holds the 3-vertex path, whose
    block-cut tree has 3 nodes."""
    g = path_graph(3)
    for limit in (None, "5", True, False, 3.0, -1):
        with pytest.raises(GraphInputError, match=f"^{name} must be a nonnegative integer, got {limit!r}$"):
            call(g, limit)
    call(g, 3)


def _relabeled(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(support.graphs(min_n=2, max_n=9), st.integers(0, 2), st.randoms(use_true_random=False),
       st.integers(1, 5), st.integers(2, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_invariant_under_relabeling(g, k, rnd, blocks, block_size, seed):
    """Values do not depend on vertex labels; witnesses may (the search
    order breaks degree ties by id, and mu_k's first-fit start shuffles
    ids). greedy_cover's partition may change too, so it is only checked to
    stay a cover. mu_k_block and the block decomposition's sizes are checked
    on a random block graph, relabeled alike."""
    h = _relabeled(g, rnd)
    assert bounds(h, k) == bounds(g, k)
    assert mu_k(h, k).value == mu_k(g, k).value
    for variant in VARIANTS:
        assert mu_k_variant(h, k, variant).value == mu_k_variant(g, k, variant).value
    assert visibility_polynomial(h, k) == visibility_polynomial(g, k)
    assert gp_number(h).value == gp_number(g).value
    assert tau_k(h, k).value == tau_k(g, k).value
    assert is_visibility_cover(h, greedy_cover(h, k), k)
    b = random_block_graph(blocks, block_size, seed)
    c = _relabeled(b, rnd)
    assert mu_k_block(c, k).value == mu_k_block(b, k).value
    tb, tc = block_decomposition(b), block_decomposition(c)
    assert (len(tc.blocks), len(tc.articulation), tc.node_count) == (len(tb.blocks), len(tb.articulation), tb.node_count)


class TestIncrementalChecker:
    # in part 0 the chain's middle hub 5 widens the fields to 8 bits, then end hub 0 meets 2^10 geodesics;
    # in part 1 the middle vertex 21 and end hub 10 do alike
    @support.with_examples([(g, k, 3, support.rising_counts_steps(g)) for g in support.geodesic_rich_graphs()
                            for k in range(4)]
                           + [(support.diamond_chain(10), k, 2, [(5, 0), (21, 1), (0, 0), (10, 1), (12, 0), (7, 1),
                                                                 (3, 0)]) for k in range(4)])
    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3), st.integers(2, 3),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2)), max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_part_rows_match_a_rebuild_as_parts_grow(self, g, k, copies, steps):
        """Push-only walks over copies fresh() copies of one swept checker,
        grown in interleaved order as greedy_cover grows its parts: a step
        (v, p) pushes vertex v % n into part p % copies when v is in no part
        (after checking fits against the oracle whenever the part's members
        are mutual k-visible). After every push, each part's member rows
        must equal rows rebuilt by support.path_counts for its members, with
        fields wider than every member's geodesic counts, and its other rows
        must be None. The examples push vertices with ever larger geodesic
        counts, so a part's fields widen while it holds rows (on the diamond
        chain by more than one bit at once) and the other parts keep theirs."""
        base = _SweptChecker(g, k)
        parts = [base.fresh() for _ in range(copies)]
        dags, sigma = support.geodesic_dags(g)
        dist = support.distance_matrix(g)
        for step, p in steps:
            v = step % g.n
            if any(part.mask >> v & 1 for part in parts):
                continue
            part = parts[p % copies]
            if support.oracle_mkv_check(g, part.members, k, dist):
                assert part.fits(v) == support.oracle_mkv_check(g, part.members + [v], k, dist)
            part.push(v)
            for part in parts:
                for a in range(g.n):
                    if part.mask >> a & 1:
                        assert part.width > max(sigma[a]).bit_length(), (a, part.members)  # no field carries
                        want = support.path_counts(dags[a], part.mask, g.n, part.width, part.full)
                        assert part.rows[a] == want, (a, part.members)
                    else:
                        assert part.rows[a] is None

    @staticmethod
    def assert_rows_match_a_rebuild(g, checker, live):
        """The carried counts between live vertices equal counts rebuilt by
        support.path_counts for the held set."""
        dags = support.geodesic_dags(g)[0]
        for s in range(checker.n):
            if live >> s & 1:
                want = support.path_counts(dags[s], checker.mask, checker.n, checker.width, checker.full)
                for t in range(checker.n):
                    if live >> t & 1:
                        assert checker.rows[s][t] == want[t], (s, t, checker.members)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_carried_rows_match_a_rebuild(self, g, k, seed):
        """A carried checker walked 40 steps drawn from seed over a random
        order, as tau_k and the first-fit passes walk it: a step pops the
        last member one time in five, or when no vertex follows it in the
        order, else pushes one of the vertices after it, early ones likelier,
        with later every vertex after v in the order, so the walk reaches
        sets past k + 2 members (checking fits against the oracle whenever
        the members are mutual k-visible). After every step the carried
        counts between live vertices, the members plus the vertices after
        the last member, must equal counts rebuilt for the held set."""
        rnd = random.Random(seed)
        order = list(range(g.n))
        rnd.shuffle(order)
        after = {v: sum(1 << w for w in order[i + 1 :]) for i, v in enumerate(order)}
        checker = _CarriedChecker(g, k)
        undos = []
        dist = support.distance_matrix(g)
        for _ in range(40):
            later = order[order.index(checker.members[-1]) + 1 :] if checker.members else order
            if not later or rnd.random() < 1 / 5:
                if checker.members:
                    checker.pop(checker.members[-1], undos.pop())
            else:
                v = later[min(rnd.randrange(len(later)), rnd.randrange(len(later)))]
                if support.oracle_mkv_check(g, checker.members, k, dist):
                    assert checker.fits(v) == support.oracle_mkv_check(g, checker.members + [v], k, dist)
                undos.append(checker.push(v, after[v]))
            live = checker.mask | (after[checker.members[-1]] if checker.members else (1 << g.n) - 1)
            self.assert_rows_match_a_rebuild(g, checker, live)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_narrowed_carried_rows_match_a_rebuild(self, g, k, seed):
        """The twin of the test above with narrowed live sets, as _search
        calls push(v, later): each node holds a bitmask of candidates, the
        root all vertices in a random order; a step pops back to the parent
        node one time in five, or when the node has no candidate, else
        pushes a candidate v, early ones likelier, with later the candidates
        after v, each kept with chance 0.7, which become the child's
        candidates. After every step the counts between the members and the
        candidates must equal counts rebuilt for the held set, and while the
        members are mutual k-visible fits must agree with the oracle on
        every candidate."""
        rnd = random.Random(seed)
        order = list(range(g.n))
        rnd.shuffle(order)
        checker = _CarriedChecker(g, k)
        undos = []
        nodes = [(1 << g.n) - 1]
        dist = support.distance_matrix(g)
        for _ in range(40):
            cands = [v for v in order if nodes[-1] >> v & 1]
            if not cands or rnd.random() < 1 / 5:
                if checker.members:
                    checker.pop(checker.members[-1], undos.pop())
                    nodes.pop()
            else:
                idx = min(rnd.randrange(len(cands)), rnd.randrange(len(cands)))
                later = sum(1 << w for w in cands[idx + 1 :] if rnd.random() < 0.7)
                undos.append(checker.push(cands[idx], later))
                nodes.append(later)
            self.assert_rows_match_a_rebuild(g, checker, checker.mask | nodes[-1])
            if support.oracle_mkv_check(g, checker.members, k, dist):
                for w in range(g.n):
                    if nodes[-1] >> w & 1:
                        assert checker.fits(w) == support.oracle_mkv_check(g, checker.members + [w], k, dist)

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_all_pair_rows_and_blind_masks_match_a_rebuild(self, g, k, seed):
        """An _AllPairsChecker walked 40 steps drawn from seed, in no order: a
        step pops the last member one time in five, or when every vertex is
        a member, else pushes any vertex that is not. After every step every
        pair's row must equal counts rebuilt for the held set, and blind[s]
        must hold exactly the t whose rebuilt count is 0."""
        rnd = random.Random(seed)
        checker = _AllPairsChecker(g, k)
        dags = support.geodesic_dags(g)[0]
        undos = []
        for _ in range(40):
            outside = [v for v in range(g.n) if not checker.mask >> v & 1]
            if not outside or rnd.random() < 1 / 5:
                if checker.members:
                    checker.pop(checker.members[-1], undos.pop())
            else:
                undos.append(checker.push(rnd.choice(outside)))
            for s in range(g.n):
                want = support.path_counts(dags[s], checker.mask, g.n, checker.width, checker.full)
                assert checker.rows[s] == want, (s, checker.members)
                assert checker.blind[s] == sum(1 << t for t in range(g.n) if not want[t]), (s, checker.members)

    @given(support.graphs(min_n=3, max_n=9), st.integers(0, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_breaks_matches_a_rebuild(self, g, k, seed):
        """A swept checker and an _AllPairsChecker each grow a set by fits
        in a random order drawn from seed. After every push, for every
        non-member v and three random draws of targets T and sources S
        within T, as every caller passes them, breaks(v, S, T) must be true
        exactly when some pair (s, t), s in S, t in T and s != t, reads 0 in
        counts rebuilt with v a member. The swept checker draws T among the
        members; the all-pair checker among all vertices but v, skipping
        draws where a pair of S x T reads 0 already."""
        rnd = random.Random(seed)
        n = g.n
        dags = support.geodesic_dags(g)[0]
        for checker in (_SweptChecker(g, k), _AllPairsChecker(g, k)):
            order = list(range(n))
            rnd.shuffle(order)
            for u in order:
                if not checker.fits(u):
                    continue
                checker.push(u)
                for v in range(n):
                    if checker.mask >> v & 1:
                        continue
                    pool = (1 << n) - 1 ^ 1 << v if isinstance(checker, _CarriedChecker) else checker.mask
                    rebuilt = [support.path_counts(dags[s], checker.mask | 1 << v, n, checker.width, checker.full)
                               for s in range(n)]
                    for _ in range(3):
                        targets = sum(1 << w for w in range(n) if pool >> w & 1 and rnd.random() < 0.7)
                        sources = sum(1 << w for w in range(n) if targets >> w & 1 and rnd.random() < 0.7)
                        pairs = [(s, t) for s in range(n) for t in range(n)
                                 if s != t and sources >> s & 1 and targets >> t & 1]
                        if any(not checker.rows[s][t] for s, t in pairs):
                            continue
                        want = any(not rebuilt[s][t] for s, t in pairs)
                        assert checker.breaks(v, sources, targets) == want, (v, sources, targets, checker.members)

    @given(support.graphs(min_n=2, max_n=8), st.integers(0, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_blind_masks_mirror_zero_rows_across_fresh_copies(self, g, k, seed):
        """Walks as in the narrowed test above, over a carried checker and
        fresh() copies of it, each with its own node stack: one time in
        eight a step starts a copy of a walk's checker (at most four walks),
        as _first_fit copies the search's; then it picks a walk, which pops
        back to its parent node one time in five, or when the node has no
        candidate, else pushes a candidate, early ones likelier, with later
        the candidates after it, each kept with chance 0.7. After every
        step, in every walk, blind[s] holds a live t exactly when rows[s][t]
        reads 0, for every live s, and a walk with no member holds no blind
        bit at all."""
        rnd = random.Random(seed)
        order = list(range(g.n))
        rnd.shuffle(order)
        everyone = (1 << g.n) - 1
        walks = [(_CarriedChecker(g, k), [], [everyone])]
        for _ in range(60):
            if len(walks) < 4 and rnd.random() < 1 / 8:
                walks.append((rnd.choice(walks)[0].fresh(), [], [everyone]))
            checker, undos, nodes = rnd.choice(walks)
            cands = [v for v in order if nodes[-1] >> v & 1]
            if not cands or rnd.random() < 1 / 5:
                if checker.members:
                    checker.pop(checker.members[-1], undos.pop())
                    nodes.pop()
            else:
                idx = min(rnd.randrange(len(cands)), rnd.randrange(len(cands)))
                later = sum(1 << w for w in cands[idx + 1 :] if rnd.random() < 0.7)
                undos.append(checker.push(cands[idx], later))
                nodes.append(later)
            for checker, _, nodes in walks:
                live = checker.mask | nodes[-1]
                for s in range(g.n):
                    if live >> s & 1:
                        zero = sum(1 << t for t in range(g.n) if live >> t & 1 and not checker.rows[s][t])
                        assert checker.blind[s] & live == zero, (s, checker.members)
                if not checker.members:
                    assert not any(checker.blind)

    @given(support.graphs(min_n=3, max_n=10), st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_narrow_keeps_exactly_the_candidates_that_fit(self, g, k, seed):
        """A walk as _search makes it in a random order, over a carried
        checker: each node holds the candidates that fit, the root's
        filtered by fits. A step pops back to the parent
        node one time in seven, else pushes a random candidate v, early ones
        likelier, with later the candidates after v, each kept with chance
        0.8; the walk takes 40 steps drawn from seed, so it reaches sets
        past k + 2 members. After every push, narrow(v, later, undo) must
        be the bits of later that fit, as fits and the oracle tell, and
        those become the child's candidates."""
        rnd = random.Random(seed)
        order = list(range(g.n))
        rnd.shuffle(order)
        checker = _CarriedChecker(g, k)
        dist = support.distance_matrix(g)
        undos = []
        nodes = [sum(1 << w for w in order if checker.fits(w))]
        for _ in range(40):
            cands = [w for w in order if nodes[-1] >> w & 1]
            if not cands or rnd.random() < 1 / 7:
                if checker.members:
                    checker.pop(checker.members[-1], undos.pop())
                    nodes.pop()
                continue
            idx = min(rnd.randrange(len(cands)), rnd.randrange(len(cands)))
            v = cands[idx]
            later = sum(1 << w for w in cands[idx + 1 :] if rnd.random() < 0.8)
            undos.append(checker.push(v, later))
            keep = checker.narrow(v, later, undos[-1])
            want = [w for w in order if later >> w & 1 and checker.fits(w)]
            assert keep == sum(1 << w for w in want), (v, later, checker.members)
            for w in order:
                if later >> w & 1:
                    assert (w in want) == support.oracle_mkv_check(g, checker.members + [w], k, dist)
            nodes.append(keep)

    @pytest.mark.parametrize("g", [random_connected(9, 0.3, 1), random_connected(13, 0.25, 2),
                                   random_connected(17, 0.2, 3), build_graph(12, [(i, i + 1) for i in range(11)]),
                                   build_graph(12, [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
                                               + [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)])],
                             ids=["random9", "random13", "random17", "path12", "grid3x4"])
    def test_interval_tables_match_distances(self, g):
        """A carried checker's inside[v] holds exactly the sources s != v
        with v strictly inside some s-t geodesic, through[s][v] the t with v
        on an s-t geodesic and between[s][t] the v on one, all read from
        Floyd-Warshall distances; gp_number builds the same through, and a
        swept checker that every vertex is pushed into the same rows."""
        n = g.n
        dist = support.distance_matrix(g)
        checker = _CarriedChecker(g, 1)
        for v in range(n):
            assert checker.inside[v] == sum(
                1 << s for s in range(n)
                if s != v and any(t != v and dist[s][v] + dist[v][t] == dist[s][t] for t in range(n)))
        for s in range(n):
            for t in range(n):
                for v in range(n):
                    on = dist[s][v] + dist[v][t] == dist[s][t]
                    assert checker.between[s][t] >> v & 1 == checker.through[s][v] >> t & 1 == on
        built = []
        below = mkvis.solvers._below

        def recording(adj, order, dist):
            built.append(below(adj, order, dist))
            return built[-1]

        with mock.patch.object(mkvis.solvers, "_below", recording):
            gp_number(g)
        assert built == checker.through
        swept = _SweptChecker(g, 1)
        for v in range(n):
            swept.push(v)
        assert swept.through == checker.through

    def test_diamond_chain_counts_past_64_bits(self):
        """70 diamonds in a row: 2^70 geodesics between the end hubs, so a
        field needs 72 bits and the packed ints exceed machine words. A
        carried checker packs them so from the start, and one without
        carried once a hub's push meets that count."""
        hubs = 71
        edges = []
        for i in range(hubs - 1):
            for middle in (hubs + 2 * i, hubs + 2 * i + 1):
                edges += [(i, middle), (middle, i + 1)]
        g = build_graph(hubs + 2 * (hubs - 1), edges)
        tables = _CarriedChecker(g, 1)
        assert tables.width == 72
        dag = support.geodesic_dags(g)[0][0]
        assert support.path_counts(dag, 0, g.n, tables.width, tables.full)[hubs - 1] == 2**70
        # a tracked middle hub moves every geodesic to field 1
        counts = support.path_counts(dag, 1 << 35, g.n, tables.width, tables.full)
        assert counts[hubs - 1] == 2**70 << 72
        checker = _SweptChecker(g, 0)
        for v in (0, hubs - 1):
            checker.push(v)
        assert checker.width > 71  # the 2^70 end-to-end geodesics need 71 bits
        assert not checker.fits(35)  # every end-to-end geodesic runs through hub 35
        assert checker.fits(hubs)  # half of them avoid this diamond's middle vertex

    def test_diamond_chain_carried_rows(self):
        """The chain above with carried rows, pushed in an order that puts
        the end hubs first, each with the vertices after it as later: the
        same verdicts, read from rows that start at sigma."""
        hubs = 71
        edges = []
        for i in range(hubs - 1):
            for middle in (hubs + 2 * i, hubs + 2 * i + 1):
                edges += [(i, middle), (middle, i + 1)]
        g = build_graph(hubs + 2 * (hubs - 1), edges)
        order = [0, hubs - 1] + list(range(1, hubs - 1)) + list(range(hubs, g.n))
        checker = _CarriedChecker(g, 0)

        def push(v):
            checker.push(v, sum(1 << w for w in order[order.index(v) + 1 :]))

        for v in (0, hubs - 1):
            push(v)
        assert checker.rows[0][hubs - 1] == checker.rows[hubs - 1][0] == 2**70
        assert not checker.fits(35)
        assert checker.fits(hubs)
        push(hubs)  # the geodesics through the first middle vertex move up a field
        assert checker.rows[0][hubs - 1] == 2**69

    @pytest.mark.parametrize("n,seed", [(10, 1), (11, 2), (12, 3), (13, 4), (14, 5)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_carried_and_swept_rows_search_alike(self, n, seed, k):
        """The polynomial runs _search over a carried checker and over swept
        checkers, which only grow, so each pop regrows a fresh copy from the
        members left; both searches return the same best size, best set,
        node count and sizes. (mu_k's first-fit passes and mu_k_variant name
        live sets that only carried rows use, and mu_k's convex paths read
        sigma and between.)"""
        g = random_connected(n, 0.25, seed)
        search = mkvis.solvers._search

        class Regrown:
            def __init__(self, g, k):
                self.base = _SweptChecker(g, k)
                self.held = self.base.fresh()

            def fits(self, v):
                return self.held.fits(v)

            def push(self, v, later):
                self.held.push(v)

            def pop(self, v, undo):
                members, self.held = self.held.members[:-1], self.base.fresh()
                for u in members:
                    self.held.push(u)

        def searches(carried):
            built, results = [], []

            def checker(g, k):
                built.append((_CarriedChecker if carried else Regrown)(g, k))
                return built[-1]

            def recording(*args, **kwargs):
                results.append(search(*args, **kwargs))
                return results[-1]

            with mock.patch.object(mkvis.solvers, "_CarriedChecker", checker), \
                    mock.patch.object(mkvis.solvers, "_search", recording):
                visibility_polynomial(g, k)
            assert [isinstance(c, _CarriedChecker) for c in built] == [carried]
            return results

        carried = searches(True)
        assert len(carried) == 1
        assert carried == searches(False)

    @pytest.mark.parametrize("k", [0, 1])
    def test_mu_search_calls_fits_only_at_the_root(self, k):
        """mu_k's search filters the root's candidates with fits and every
        deeper level's with narrow, so the search's checker sees fits only
        while it holds no member. The first-fit passes probe fresh copies of
        it, which are told apart by identity and not counted."""
        probes, searched = [], []
        fits, narrow, search = _CarriedChecker.fits, _CarriedChecker.narrow, mkvis.solvers._search

        def watched_fits(self, v):
            probes.append(("fits", self, len(self.members)))
            return fits(self, v)

        def watched_narrow(self, v, later, undo):
            probes.append(("narrow", self, len(self.members)))
            return narrow(self, v, later, undo)

        def watched_search(order, fits, *args, **kwargs):
            searched.append(fits.__self__)
            return search(order, fits, *args, **kwargs)

        with mock.patch.object(_CarriedChecker, "fits", watched_fits), \
                mock.patch.object(_CarriedChecker, "narrow", watched_narrow), \
                mock.patch.object(mkvis.solvers, "_search", watched_search):
            res = mu_k(random_connected(14, 0.25, 3), k)
        assert res.nodes_explored > 1 and len(searched) == 1
        mine = [(name, depth) for name, checker, depth in probes if checker is searched[0]]
        assert {depth for name, depth in mine if name == "fits"} == {0}
        assert any(name == "narrow" for name, _ in mine)
        assert any(checker is not searched[0] for _, checker, _ in probes)

    def test_polynomial_sweeps_only_while_building_tables(self):
        """With carried rows no push sweeps, and the geodesic counts that
        build the tables come from the DAG pass: the polynomial, mu_k (its
        first-fit passes included), tau_k and gp_number make no sweeping
        push (_SweptChecker.push) at all."""
        g = random_connected(14, 0.2, 2)
        sweep_push = _SweptChecker.push
        results = {}
        for name, solve in [("poly", lambda: visibility_polynomial(g, 1)), ("mu", lambda: mu_k(g, 1)),
                            ("tau", lambda: tau_k(g, 1)), ("gp", lambda: gp_number(g))]:
            masks = []

            def counting(self, v):
                masks.append(self.mask)
                return sweep_push(self, v)

            with mock.patch.object(_SweptChecker, "push", counting):
                results[name] = solve()
            assert masks == [], name
        assert sum(results["poly"].coefficients) > 1000


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


@pytest.mark.parametrize(
    "solve,want",
    [
        (lambda: mu_k(_grid(3, 5), 0), (6, 0, [0, 4, 7, 8, 10, 14])),
        (lambda: mu_k(_grid(3, 5), 1), (9, 0, [0, 3, 4, 5, 7, 9, 10, 13, 14])),
        # the 4x5 grid as the search benchmark sends it: the search runs on the convex-path rooms
        (lambda: mu_k(_grid(4, 5), 1), (12, 278, [0, 1, 4, 6, 7, 9, 10, 12, 14, 15, 17, 18])),
        (lambda: mu_k(_grid(4, 5), 2), (15, 1148, [1, 2, 3, 5, 6, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19])),
        (lambda: mu_k(cycle_graph(9), 1), (5, 0, [2, 3, 6, 7, 8])),
        (lambda: mu_k(random_connected(14, 0.25, 3), 0), (8, 116, [2, 3, 4, 5, 6, 8, 9, 11])),
        (lambda: mu_k(random_connected(14, 0.25, 3), 1), (12, 21, [0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13])),
        # the first-fit start is optimal but under the bound 17, so the search proves it
        (lambda: mu_k(random_connected(24, 0.25, 1), 0),
         (15, 134, [1, 2, 4, 5, 6, 8, 12, 13, 14, 16, 18, 19, 20, 21, 22])),
        (lambda: gp_number(random_connected(14, 0.25, 5)), (7, 94, [3, 5, 6, 8, 9, 10, 12])),
        # the plain search on the block graphs the tree DP rows below solve
        (lambda: mu_k(random_block_graph(9, 4, 2), 0), (9, 0, [3, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k(random_block_graph(9, 4, 2), 1), (10, 24, [1, 3, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k(random_block_graph(9, 4, 2), 2), (12, 0, [0, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k(path_graph(12), 1), (3, 0, [0, 10, 11])),
        (lambda: mu_k(path_graph(12), 2), (4, 0, [0, 9, 10, 11])),
        # the tree DP: nodes_explored counts DP table entries filled; a block's
        # non-cut vertices merge as one end-only weight, and a block with none adds nothing
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 0), (9, 112, [3, 5, 7, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 1), (10, 129, [3, 5, 7, 8, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(random_block_graph(9, 4, 2), 2),
         (12, 137, [1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])),
        (lambda: mu_k_block(path_graph(12), 1), (3, 190, [0, 10, 11])),
        (lambda: mu_k_block(path_graph(12), 2), (4, 229, [0, 9, 10, 11])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, TOTAL), (2, 3, [2, 10])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, OUTER), (7, 92, [2, 3, 5, 6, 10, 11, 17])),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, DUAL),
         (7, 193, [5, 8, 10, 11, 14, 15, 16])),
        (lambda: mu_k(build_graph(0, []), 0), (0, 0, [])),
    ],
    ids=["grid3x5-k0", "grid3x5-k1", "grid4x5-k1", "grid4x5-k2", "c9-k1", "random14-k0", "random14-k1", "random24-k0",
         "gp-random14", "block9-k0", "block9-k1", "block9-k2", "path12-block-k1", "path12-block-k2",
         "dp-block9-k0", "dp-block9-k1", "dp-block9-k2", "dp-path12-block-k1", "dp-path12-block-k2",
         "total-random18-k0", "outer-random18-k0", "dual-random18-k0", "mu-empty-k0"],
)
def test_search_effort_is_pinned(solve, want):
    """Search order and pruning fix the value, the witness and the node count
    exactly; a change to any of them shows here first."""
    res = solve()
    assert (res.value, res.nodes_explored, sorted(res.witness)) == want


class TestFirstFitStart:
    @staticmethod
    def solve_watched(g, k):
        """mu_k(g, k) with the first-fit start and the goal it was given."""
        starts = []
        first_fit = mkvis.solvers._first_fit

        def watched(checker, order, goal):
            starts.append((first_fit(checker, order, goal), goal))
            return starts[-1][0]

        with mock.patch.object(mkvis.solvers, "_first_fit", watched):
            res = mu_k(g, k)
        assert len(starts) == 1
        return res, *starts[0]

    @given(support.graphs(min_n=1, max_n=10), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_start_is_feasible_and_never_past_the_goal(self, g, k):
        """The start is mutual k-visible and no larger than the goal or the
        optimum; when it meets the goal the search visits no set and
        returns it as the witness."""
        res, start, goal = self.solve_watched(g, k)
        assert support.oracle_mkv_check(g, start, k)
        assert len(start) <= min(goal, res.value)
        if len(start) == goal:
            assert res.nodes_explored == 0
            assert res.witness == start
            assert mkv_check(g, res.witness, k).verdict

    @pytest.mark.parametrize("g,k", [(cycle_graph(9), 1), (path_graph(7), 0), (random_connected(24, 0.3, 2), 1)])
    def test_start_at_the_goal_ends_the_search(self, g, k):
        res, start, goal = self.solve_watched(g, k)
        assert (len(start), res.nodes_explored) == (goal, 0)
        assert res.value == goal and mkv_check(g, res.witness, k).verdict

    @staticmethod
    def assert_passes_alike(g, k):
        """_first_fit over a carried checker, which pushes with the vertices
        after v in its pass as later, returns the same start as over the
        sweeping checker, the reference, in mu_k's order with the goal n,
        so the shuffled passes run until one does not improve."""
        order = mkvis.solvers._admit("mu_k", g, g.n)[::-1]
        first_fit = mkvis.solvers._first_fit
        carried = first_fit(_CarriedChecker(g, k), order, g.n)
        assert carried == first_fit(_SweptChecker(g, k), order, g.n)

    @given(support.graphs(min_n=1, max_n=12), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_carried_passes_match_sweeping_ones(self, g, k):
        self.assert_passes_alike(g, k)

    @pytest.mark.parametrize("p,seed", [(0.15, 1), (0.2, 2), (0.25, 3), (0.3, 4)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_carried_passes_match_sweeping_ones_at_24(self, p, seed, k):
        self.assert_passes_alike(random_connected(24, p, seed), k)

    def test_start_is_deterministic(self):
        """The shuffles are seeded: the same input gives the same start,
        witness and node count."""
        g = random_connected(20, 0.2, 4)
        first, second = self.solve_watched(g, 1), self.solve_watched(g, 1)
        assert first == second
        assert first[0].nodes_explored > 0


@pytest.mark.parametrize(
    "solve,want",
    [
        (lambda: visibility_polynomial(random_connected(16, 0.2, 2), 1), (9867, 13, 49580)),
        (lambda: mu_k_variant(random_connected(18, 0.2, 3), 0, DUAL), (190, 7, 193)),
        (lambda: mu_k(random_connected(24, 0.15, 1), 1), (966, 20, 930)),
    ],
    ids=["poly-random16-k1", "dual-random18-k0", "mu-random24-k1"],
)
def test_push_count_is_pinned(solve, want):
    """_search pushes a set only when a later candidate is probed, so its
    pushes fall short of the sets visited. The polynomial's search visits
    fewer sets than the sum of its coefficients, since it tallies full
    candidate lattices without a visit. mu_k's count also holds the pushes
    of its first-fit passes, which visit no search node."""
    pushes = []
    push = _CarriedChecker.push

    def counting(self, v, *later):
        pushes.append(v)
        return push(self, v, *later)

    with mock.patch.object(_CarriedChecker, "push", counting):
        res = solve()
    if isinstance(res, Polynomial):
        assert (len(pushes), res.degree(), sum(res.coefficients)) == want
    else:
        assert (len(pushes), res.value, res.nodes_explored) == want


def test_module_globals_the_benchmark_tracer_rebinds():
    """The benchmark's tracer reads and rebinds module globals by name:
    solvers' all_pairs_distances and metric_summary, cli's is_block_graph,
    blocks' mkv_check, which blocks no longer calls, and kernel.bfs_mkv,
    which every sweep of check_variant resolves. Its search workload needs
    kernel sweeps, and only dual's witness check makes them."""
    import mkvis.cli
    import mkvis.graphs
    import mkvis.kernel
    assert mkvis.solvers.all_pairs_distances is mkvis.graphs.all_pairs_distances
    assert mkvis.solvers.metric_summary is mkvis.graphs.metric_summary
    assert mkvis.cli.is_block_graph is mkvis.blocks.is_block_graph
    assert mkvis.blocks.mkv_check is mkvis.kernel.mkv_check
    with mock.patch.object(mkvis.kernel, "bfs_mkv", wraps=mkvis.kernel.bfs_mkv) as sweep:
        mu_k_variant(random_connected(10, 0.3, 1), 0, DUAL)
    assert sweep.call_count > 0


class TestSearchPushes:
    @given(support.graphs(min_n=1, max_n=9), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_every_push_is_probed_before_its_pop(self, g, k):
        """Every push inside _search is read by at least one fits or narrow
        call before the matching pop, for every solver that runs on it."""
        search = mkvis.solvers._search
        calls = []

        def watched(order, fits, push, pop, *args, **kwargs):
            open_pushes = []  # [vertex, probed since its push]

            def watched_fits(v):
                if open_pushes:
                    open_pushes[-1][1] = True
                return fits(v)

            def watched_push(v, later):
                open_pushes.append([v, False])
                return push(v, later)

            def watched_pop(v, undo):
                assert open_pushes.pop() == [v, True]
                pop(v, undo)

            narrow = kwargs.get("narrow")
            if narrow is not None:
                def watched_narrow(v, later, undo):
                    open_pushes[-1][1] = True
                    return narrow(v, later, undo)

                kwargs["narrow"] = watched_narrow
            calls.append(open_pushes)
            return search(order, watched_fits, watched_push, watched_pop, *args, **kwargs)

        with mock.patch.object(mkvis.solvers, "_search", watched):
            mu_k(g, k)
            visibility_polynomial(g, k)
            gp_number(g)
            for variant in VARIANTS:
                mu_k_variant(g, k, variant)
        assert len(calls) == 6
        assert all(not open_pushes for open_pushes in calls)

    @staticmethod
    def dual_cuts(g, k) -> list:
        """Runs the dual search and checks that every branch its bound hook
        marks dead (a cap below 0) holds no dual set: the dual sets, found by
        enumerating every subset with the oracle, are matched against each
        dead branch's subtree, the sets with the node's members and
        cands[idx], inside the members plus cands[idx:]. The members are
        those pushed, which at a node with candidates is the whole current
        set. Returns the dead idx of every node, in the order seen."""
        dist = support.distance_matrix(g)
        duals = [sum(1 << v for v in xs) for r in range(g.n + 1) for xs in combinations(range(g.n), r)
                 if support.oracle_variant_check(g, xs, k, DUAL, dist)]
        search = mkvis.solvers._search
        cuts = []

        def watched(order, fits, push, pop, goal, bound, accept, **kwargs):
            members = []

            def watched_push(v, later):
                members.append(v)
                return push(v, later)

            def watched_pop(v, undo):
                members.pop()
                pop(v, undo)

            def watched_bound(cands):
                caps = bound(cands)
                held = sum(1 << v for v in members)
                for idx, cap in enumerate(caps):
                    if cap < 0:
                        must = held | 1 << cands[idx]
                        may = held | sum(1 << w for w in cands[idx:])
                        assert not any(d & must == must and d | may == may for d in duals), (members, cands, idx)
                        cuts.append(idx)
                return caps

            return search(order, fits, watched_push, watched_pop, goal, watched_bound, accept, **kwargs)

        with mock.patch.object(mkvis.solvers, "_search", watched):
            res = mu_k_variant(g, k, DUAL)
        assert res.value == max(bin(d).count("1") for d in duals)
        return cuts

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_dual_cut_spares_every_branch_with_a_dual_set(self, g, k):
        self.dual_cuts(g, k)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [0, 1])
    def test_dual_cut_fires_on_sparse_graphs(self, seed, k):
        """The check above, on graphs where the cut does fire."""
        assert self.dual_cuts(random_connected(9, 0.2, seed), k)

    @staticmethod
    def mu_caps(g, k) -> int:
        """Runs mu_k and checks every cap its bound hook returns. No mutual
        k-visible set that holds a node's members, and otherwise only
        candidates from cands[idx:], outgrows the members by more than
        caps[idx]; the sets are found by enumerating every subset with the
        oracle. And caps[idx] is at most the clique count of the same greedy
        cover of cands[idx:] built here from the oracle's blind pairs, each
        candidate from the back joining the first clique it is blind to in
        full. The members are those pushed, which at a node with candidates
        is the whole current set. Returns how many caps that cover held
        below the candidates left."""
        dist = support.distance_matrix(g)
        sets = [sum(1 << v for v in xs) for r in range(g.n + 1) for xs in combinations(range(g.n), r)
                if support.oracle_mkv_check(g, xs, k, dist)]
        search = mkvis.solvers._search
        fired = 0

        def watched(order, fits, push, pop, goal, bound, *args, **kwargs):
            members = []

            def watched_push(v, later):
                members.append(v)
                return push(v, later)

            def watched_pop(v, undo):
                members.pop()
                pop(v, undo)

            def watched_bound(cands):
                nonlocal fired
                caps = bound(cands)
                cliques, covers = [], []
                for i in range(len(cands) - 1, -1, -1):
                    v = cands[i]
                    blind = {w for w in cands[i + 1 :] if not support.pair_visible(g, members, v, w, k, dist)}
                    for clique in cliques:
                        if clique <= blind:
                            clique.add(v)
                            break
                    else:
                        cliques.append({v})
                    covers.append(len(cliques))
                covers.reverse()
                held = sum(1 << v for v in members)
                for idx, cap in enumerate(caps):
                    may = held | sum(1 << w for w in cands[idx:])
                    most = max(bin(d).count("1") for d in sets if d & held == held and d | may == may)
                    assert len(members) + cap >= most, (members, cands, idx)
                    assert cap <= covers[idx], (members, cands, idx)
                    fired += covers[idx] < len(cands) - idx
                return caps

            return search(order, fits, watched_push, watched_pop, goal, watched_bound, *args, **kwargs)

        with mock.patch.object(mkvis.solvers, "_search", watched):
            res = mu_k(g, k)
        assert res.value == max(bin(d).count("1") for d in sets)
        return fired

    @given(support.graphs(min_n=2, max_n=9), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_mu_caps_spare_every_branch_with_a_larger_set(self, g, k):
        self.mu_caps(g, k)

    @pytest.mark.parametrize("p,seed,k", [(0.2, 0, 0), (0.2, 1, 0), (0.3, 2, 0), (0.2, 3, 1)])
    def test_clique_cap_fires_on_random_graphs(self, p, seed, k):
        """The check above, on graphs where the clique cover does cut."""
        assert self.mu_caps(random_connected(10, p, seed), k)

    @given(support.graphs(min_n=9, max_n=10), st.integers(0, 2))
    @settings(max_examples=15, deadline=None)
    def test_dual_matches_subset_enumeration(self, g, k):
        res = mu_k_variant(g, k, DUAL)
        assert res.value == support.brute_variant_mu(g, k, DUAL)
        assert len(res.witness) == res.value
        assert support.oracle_variant_check(g, res.witness, k, DUAL)


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

    def test_refuses_more_than_max_vertices(self):
        """As the generators do; at n = 2^70, k = 2^68 the set would not fit
        in memory."""
        for n, k in ((MAX_VERTICES + 1, 0), (2**70, 2**68)):
            with pytest.raises(SizeLimitError, match=f"limited to {MAX_VERTICES} vertices"):
                cycle_extremal_set(n, k)

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


class TestEveryConnectedGraph:
    """Every connected labelled graph on n <= 5 vertices, 772 in all, each
    isomorphism class under all its labelings, and one graph per class on
    6 vertices, 112 of them, under two labelings, against brute force. The
    853 classes on 7 vertices run under the exhaustive marker. On the block
    graphs among them the tree DP, mu_k_block, is checked too."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_solvers_match_brute_force(self, n):
        for g in support.connected_labelled_graphs(n):
            assert gp_number(g).value == support.brute_gp(g), g.edges()
            block = is_block_graph(g)
            for k in range(3):
                assert mu_k(g, k).value == support.brute_mu(g, k), (g.edges(), k)
                if block:
                    assert mu_k_block(g, k).value == support.brute_mu(g, k), (g.edges(), k)
                for variant in VARIANTS:
                    assert mu_k_variant(g, k, variant).value == support.brute_variant_mu(g, k, variant), (
                        g.edges(), k, variant)
                assert list(visibility_polynomial(g, k).coefficients) == support.brute_polynomial(g, k), (
                    g.edges(), k)
                assert tau_k(g, k).value == support.brute_tau(g, k), (g.edges(), k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_carried_tables_match_distances(self, n):
        """sigma counts the geodesics, through[s][v] holds the t with v on
        an s-t geodesic, between[s][t] the v on one, and inside[v] the
        sources s != v with v strictly inside some s-t geodesic."""
        graphs = list(support.connected_labelled_graphs(n))
        assert len(graphs) == [1, 1, 4, 38, 728][n - 1]  # OEIS A001187
        for g in graphs:
            dist = support.distance_matrix(g)
            checker = _CarriedChecker(g, 0)
            for s in range(n):
                for t in range(n):
                    assert checker.sigma[s][t] == len(support.all_geodesics(g, s, t, dist)), (g.edges(), s, t)
                    on = [dist[s][v] + dist[v][t] == dist[s][t] for v in range(n)]
                    assert checker.between[s][t] == sum(1 << v for v in range(n) if on[v]), (g.edges(), s, t)
                    for v in range(n):
                        assert checker.through[s][v] >> t & 1 == on[v], (g.edges(), s, t, v)
            for v in range(n):
                assert checker.inside[v] == sum(
                    1 << s for s in range(n)
                    if s != v and any(t != v and dist[s][v] + dist[v][t] == dist[s][t] for t in range(n))), (
                    g.edges(), v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_certificates_tell_the_classes_apart(self, n):
        """support.certificate takes one value per isomorphism class over
        every labelled graph, the values connected_graphs keeps one graph
        each of."""
        keys = [support.certificate(g) for g in support.connected_graphs(n)]
        assert len(keys) == len(set(keys)) == [1, 1, 2, 6, 21][n - 1]  # OEIS A001349
        assert {support.certificate(g) for g in support.connected_labelled_graphs(n)} == set(keys)

    @staticmethod
    def solved(g) -> list:
        """gp and, at k = 0..2, mu, the three variants, the polynomial,
        tau and, on a block graph, mu_k_block; greedy_cover, the one solve
        on the swept checker, is compared with the oracle's first-fit cover,
        since its parts follow labels."""
        values = [gp_number(g).value]
        for k in range(3):
            values += [mu_k(g, k).value] + [mu_k_variant(g, k, variant).value for variant in VARIANTS]
            values += [list(visibility_polynomial(g, k).coefficients), tau_k(g, k).value]
            if is_block_graph(g):
                values.append(mu_k_block(g, k).value)
            assert greedy_cover(g, k) == support.brute_greedy_cover(g, k), (g.edges(), k)
        return values

    @pytest.mark.parametrize("n", [6, pytest.param(7, marks=pytest.mark.exhaustive)])
    def test_classes_match_brute_force_under_two_labelings(self, n):
        """One graph per isomorphism class (support.connected_graphs), its
        values against brute force, and the same values once the graph is
        relabeled by one fixed permutation."""
        graphs = list(support.connected_graphs(n))
        assert len(graphs) == {6: 112, 7: 853}[n]  # OEIS A001349
        assert sum(map(is_block_graph, graphs)) == {6: 22, 7: 59}[n]
        for g in graphs:
            want = [support.brute_gp(g)]
            for k in range(3):
                want += [support.brute_mu(g, k)] + [support.brute_variant_mu(g, k, variant) for variant in VARIANTS]
                want += [support.brute_polynomial(g, k), support.brute_tau(g, k)]
                if is_block_graph(g):
                    want.append(support.brute_mu(g, k))
            assert self.solved(g) == want, g.edges()
            assert self.solved(_relabeled(g, random.Random(n))) == want, g.edges()
