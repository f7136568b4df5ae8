"""Graph container, metric summaries, generators, and the edge-list format."""

import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from mkvis.blocks import block_decomposition, expand_admissible, is_k_admissible
from mkvis.covering import is_visibility_cover
from mkvis.errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from mkvis.graphs import (
    INFINITE,
    MAX_EDGES,
    MAX_VERTICES,
    bfs_distances,
    build_graph,
    check_vertex_set,
    complete_bipartite,
    complete_graph,
    convex_hull,
    cycle_graph,
    diametral_path,
    format_edge_list,
    induced_subgraph,
    is_connected,
    is_infinite,
    is_isometric_path,
    metric_summary,
    parse_edge_list,
    path_graph,
    random_block_graph,
    random_connected,
    shortest_path,
)
from mkvis.kernel import check_variant, mkv_check
from mkvis.solvers import bounds, hull_cover_bound


def refusal_peak(error, match, call) -> int:
    """The peak traced allocation, in bytes, while call() raises error."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildGraph:
    def test_counts_and_degrees(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4
        assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_edges_are_normalized(self):
        g = build_graph(3, [(2, 0), (1, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2)]

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(GraphInputError):
            build_graph(-1, [])
        with pytest.raises(GraphInputError):
            build_graph("3", [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphInputError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphInputError, match=r"duplicate edge \(2, 1\)"):
            build_graph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            build_graph(3, [(-1, 0)])

    def test_rejects_bool_endpoint(self):
        # bool is an int subclass; ids must be genuine integers
        with pytest.raises(GraphInputError):
            build_graph(3, [(True, 2)])

    def test_neighbors_are_the_sorted_adjacency(self):
        g = build_graph(4, [(2, 0), (0, 3), (1, 0)])
        assert g.neighbors(0) == (1, 2, 3) == g.adj[0]
        assert g.neighbors(3) == (0,)

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0 and list(g.edges()) == []


class TestInfinite:
    def test_repr(self):
        assert repr(INFINITE) == "INFINITE"

    def test_is_infinite(self):
        assert is_infinite(INFINITE)
        assert not is_infinite(10**9)

    def test_arithmetic_is_forbidden(self):
        with pytest.raises(TypeError):
            INFINITE + 1
        with pytest.raises(TypeError):
            1 + INFINITE
        with pytest.raises(TypeError):
            INFINITE < 5

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE


class TestDistances:
    @given(support.graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_bfs_matches_floyd_warshall(self, g):
        ref = support.distance_matrix(g)
        for u in range(g.n):
            got = bfs_distances(g, u)
            for w in range(g.n):
                assert got[w] == ref[u][w]

    @given(support.graphs(max_n=9), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, g, rnd):
        dist = [bfs_distances(g, u) for u in range(g.n)]
        for _ in range(10):
            a, b, c = (rnd.randrange(g.n) for _ in range(3))
            assert dist[a][b] <= dist[a][c] + dist[c][b]

    def test_unreachable_is_infinite(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        d = bfs_distances(g, 0)
        assert d[1] == 1 and is_infinite(d[2]) and is_infinite(d[3])

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_shortest_path_is_a_geodesic(self, g):
        ref = support.distance_matrix(g)
        for u in range(g.n):
            for w in range(g.n):
                p = shortest_path(g, u, w)
                assert p[0] == u and p[-1] == w
                assert len(p) - 1 == ref[u][w]
                assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))

    def test_shortest_path_requires_same_component(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            shortest_path(g, 0, 3)

    def test_is_connected(self):
        assert is_connected(build_graph(1, []))
        assert is_connected(path_graph(5))
        assert not is_connected(build_graph(3, [(0, 1)]))


class TestMetricSummary:
    @pytest.mark.parametrize(
        "g,diameter,girth,max_degree",
        [
            (path_graph(7), 6, INFINITE, 2),
            (cycle_graph(5), 2, 5, 2),
            (complete_graph(4), 1, 3, 3),
            (complete_bipartite(2, 3), 2, 4, 3),
            # the only cycle lies 20 levels from vertex 0, past where the
            # girth scans of the first roots stop
            (build_graph(23, [(i, i + 1) for i in range(22)] + [(20, 22)]), 21, 3, 3),
            (build_graph(0, []), INFINITE, INFINITE, 0),
        ],
    )
    def test_known_values(self, g, diameter, girth, max_degree):
        ms = metric_summary(g)
        assert ms.diameter == diameter
        assert ms.girth is girth if girth is INFINITE else ms.girth == girth
        assert ms.max_degree == max_degree

    @given(support.graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_girth_matches_edge_detour_oracle(self, g):
        ms = metric_summary(g)
        ref = support.brute_girth(g)
        if ref == support.INF:
            assert is_infinite(ms.girth)
        else:
            assert ms.girth == ref

    @given(support.graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_diameter_matches_oracle(self, g):
        ref = support.distance_matrix(g)
        want = max(ref[u][w] for u in range(g.n) for w in range(g.n))
        assert metric_summary(g).diameter == want

    @given(support.graphs(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_diametral_path_is_isometric(self, g):
        p = diametral_path(g)
        assert len(p) - 1 == metric_summary(g).diameter
        assert is_isometric_path(g, p)

    def test_empty_graph_has_no_diametral_path(self):
        with pytest.raises(GraphInputError, match="empty graph has no diametral path"):
            diametral_path(build_graph(0, []))

    @given(st.lists(support.graphs(max_n=8), min_size=1, max_size=3), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_unions(self, parts, rnd):
        """Girth and maximum degree stay exact, and the diameter is INFINITE,
        on a relabeled disjoint union of connected graphs."""
        n = sum(p.n for p in parts)
        perm = list(range(n))
        rnd.shuffle(perm)
        edges, offset = [], 0
        for p in parts:
            edges += [(perm[offset + u], perm[offset + v]) for u, v in p.edges()]
            offset += p.n
        g = build_graph(n, edges)
        ms = metric_summary(g)
        ref = support.brute_girth(g)
        assert is_infinite(ms.girth) if ref == support.INF else ms.girth == ref
        if len(parts) > 1:
            assert is_infinite(ms.diameter)
        assert ms.max_degree == max(p.degree(v) for p in parts for v in range(p.n))

    def test_disconnected_summary(self):
        ms = metric_summary(build_graph(3, [(0, 1)]))
        assert is_infinite(ms.diameter)


class TestConvexHull:
    def test_cycle_arc(self):
        assert convex_hull(cycle_graph(5), {0, 2}) == {0, 1, 2}

    def test_even_cycle_antipodes_take_everything(self):
        assert convex_hull(cycle_graph(4), {0, 2}) == {0, 1, 2, 3}

    @given(support.graph_and_set(min_n=1, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_extensive_and_idempotent(self, gs):
        g, s = gs
        if not s:
            return
        h = convex_hull(g, s)
        assert s <= h
        assert convex_hull(g, h) == h

    @given(support.graph_and_set(min_n=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, gs):
        g, s = gs
        if len(s) < 2:
            return
        smaller = set(sorted(s)[:-1])
        assert convex_hull(g, smaller) <= convex_hull(g, s)

    @given(support.graph_and_set(min_n=2, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_hull_contains_all_geodesics(self, gs):
        g, s = gs
        if not s:
            return
        h = sorted(convex_hull(g, s))
        dist = support.distance_matrix(g)
        for i, u in enumerate(h):
            for w in h[i + 1 :]:
                for path in support.all_geodesics(g, u, w, dist):
                    assert set(path) <= set(h)

    def test_empty_set_is_an_error(self):
        with pytest.raises(GraphInputError):
            convex_hull(path_graph(3), set())


class TestIsometricPath:
    def test_whole_path_graph(self):
        assert is_isometric_path(path_graph(6), range(6))

    def test_long_cycle_arc_is_not_isometric(self):
        # 0..4 along C_6 has d(0,4)=2 but path length 4
        assert not is_isometric_path(cycle_graph(6), [0, 1, 2, 3, 4])

    def test_short_cycle_arc_is_isometric(self):
        assert is_isometric_path(cycle_graph(6), [0, 1, 2, 3])

    def test_non_adjacent_step_is_an_error(self):
        with pytest.raises(GraphInputError, match="not adjacent"):
            is_isometric_path(path_graph(5), [0, 2])

    def test_trivial_sequences(self):
        assert is_isometric_path(path_graph(3), [1])


class TestVertexSets:
    @pytest.mark.parametrize("call", [
        lambda g: mkv_check(g, 5, 0),
        lambda g: mkv_check(g, None, 0),
        lambda g: check_variant(g, 3, 0, "total"),
        lambda g: is_visibility_cover(g, [1, 2], 0),
        lambda g: convex_hull(g, 2),
        lambda g: induced_subgraph(g, 7),
        lambda g: check_vertex_set(g, 1.5),
    ], ids=["mkv_check-int", "mkv_check-None", "check_variant", "is_visibility_cover", "convex_hull",
            "induced_subgraph", "check_vertex_set"])
    def test_a_non_iterable_is_an_input_error(self, call):
        """check_vertex_set refuses it for every caller, where iterating it
        raised a bare TypeError."""
        with pytest.raises(GraphInputError, match="^a vertex set must be an iterable of vertex ids, got "):
            call(path_graph(8))


class TestMalformedCollections:
    COLLECTION = "{} must be an iterable of {}, got {!r}"

    @pytest.mark.parametrize("call, message", [
        (lambda g, t: mkv_check(g, b"\x01\x02", 0), COLLECTION.format("a vertex set", "vertex ids", b"\x01\x02")),
        (lambda g, t: mkv_check(g, "12", 0), COLLECTION.format("a vertex set", "vertex ids", "12")),
        (lambda g, t: check_variant(g, bytearray(b"\x01"), 0, "total"),
         COLLECTION.format("a vertex set", "vertex ids", bytearray(b"\x01"))),
        (lambda g, t: convex_hull(g, "12"), COLLECTION.format("a vertex set", "vertex ids", "12")),
        (lambda g, t: expand_admissible(t, 5), COLLECTION.format("Z", "tree nodes", 5)),
        (lambda g, t: expand_admissible(t, "ab"), COLLECTION.format("Z", "tree nodes", "ab")),
        (lambda g, t: expand_admissible(t, [[1]]), "[1] is not a node of this tree"),
        (lambda g, t: is_k_admissible(t, [[1]], 0), "[1] is not a node of this tree"),
        (lambda g, t: t.tree_path([1], [2]), "[1] is not a node of this tree"),
        (lambda g, t: t.neighbors([1]), "[1] is not a node of this tree"),
        (lambda g, t: build_graph(3, 5), COLLECTION.format("edges", "vertex pairs", 5)),
        (lambda g, t: build_graph(3, b"\x00\x01"), COLLECTION.format("edges", "vertex pairs", b"\x00\x01")),
        (lambda g, t: parse_edge_list(5), "edge-list text must be a str, got int"),
        (lambda g, t: parse_edge_list(b"2 1\n0 1\n"), "edge-list text must be a str, got bytes"),
        (lambda g, t: format_edge_list(g, 5), COLLECTION.format("comments", "strings", 5)),
        (lambda g, t: format_edge_list(g, "note"), COLLECTION.format("comments", "strings", "note")),
        (lambda g, t: is_visibility_cover(g, 5, 0), COLLECTION.format("parts", "vertex sets", 5)),
        (lambda g, t: is_visibility_cover(g, "01", 0), COLLECTION.format("parts", "vertex sets", "01")),
        (lambda g, t: hull_cover_bound(g, 5, 0), COLLECTION.format("parts", "vertex sets", 5)),
        (lambda g, t: bounds(g, 0, isometric_path=5), COLLECTION.format("an isometric path", "vertex ids", 5)),
        (lambda g, t: is_isometric_path(g, 5), COLLECTION.format("a path", "vertex ids", 5)),
        (lambda g, t: is_isometric_path(g, b"\x00\x01"), COLLECTION.format("a path", "vertex ids", b"\x00\x01")),
    ], ids=["mkv_check-bytes", "mkv_check-str", "check_variant-bytearray", "convex_hull-str",
            "expand_admissible-int", "expand_admissible-str", "expand_admissible-unhashable",
            "is_k_admissible-unhashable", "tree_path-unhashable", "neighbors-unhashable", "build_graph-int",
            "build_graph-bytes", "parse_edge_list-int", "parse_edge_list-bytes", "format_edge_list-int",
            "format_edge_list-str", "is_visibility_cover-int", "is_visibility_cover-str", "hull_cover_bound-int",
            "bounds-int", "is_isometric_path-int", "is_isometric_path-bytes"])
    def test_is_an_input_error(self, call, message):
        """A non-iterable, a str, bytes or bytearray where a collection is
        due, and an unhashable tree node, each refused with its own message
        where the call raised a bare exception, read the value as characters
        or small ints, or blamed one of them."""
        g = path_graph(8)
        t = block_decomposition(random_block_graph(4, 3, 1))
        with pytest.raises(GraphInputError) as info:
            call(g, t)
        assert str(info.value) == message


class TestInducedSubgraph:
    def test_mapping_and_edges(self):
        g = cycle_graph(5)
        sub, ids = induced_subgraph(g, {1, 2, 4})
        assert ids == (1, 2, 4)
        assert sub.n == 3
        # only the 1-2 edge survives; 4 is adjacent to 0 and 3 only
        assert list(sub.edges()) == [(0, 1)]

    @given(support.graph_and_set(min_n=2, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_degrees_match_original(self, gs):
        g, s = gs
        if not s:
            return
        sub, ids = induced_subgraph(g, s)
        for i, v in enumerate(ids):
            want = sum(1 for nb in g.adj[v] if nb in s)
            assert sub.degree(i) == want


class TestGenerators:
    def test_family_shapes(self):
        assert path_graph(1).m == 0
        assert path_graph(6).m == 5
        assert cycle_graph(6).m == 6
        assert complete_graph(5).m == 10
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6

    def test_family_input_validation(self):
        with pytest.raises(GraphInputError):
            path_graph(0)
        with pytest.raises(GraphInputError):
            cycle_graph(2)
        with pytest.raises(GraphInputError):
            complete_graph(0)
        with pytest.raises(GraphInputError):
            complete_bipartite(0, 3)

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_random_connected_is_connected(self, seed):
        g = random_connected(12, 0.2, seed)
        assert g.n == 12 and is_connected(g)

    def test_random_connected_determinism(self):
        a = random_connected(10, 0.4, 42)
        b = random_connected(10, 0.4, 42)
        assert a == b
        assert a != random_connected(10, 0.4, 43)

    def test_random_connected_probability_extremes(self):
        tree = random_connected(9, 0.0, 3)
        assert tree.m == 8  # spanning tree only
        full = random_connected(9, 1.0, 3)
        assert full.m == 36

    def test_random_connected_rejects_bad_probability(self):
        with pytest.raises(GraphInputError):
            random_connected(5, 1.5, 0)

    @pytest.mark.parametrize("p", ["0.3", None, 0.5j, True, False, float("nan")])
    def test_random_connected_refuses_a_non_real_probability(self, p):
        """A string, None, a complex or a bool (True would read as 1) is
        malformed input, as nan is: GraphInputError, not a bare TypeError."""
        with pytest.raises(GraphInputError, match=r"^edge probability must be a real number in \[0, 1\]"):
            random_connected(5, p, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_block_graph_blocks_are_cliques(self, seed):
        g = random_block_graph(3, 4, seed)
        assert is_connected(g)
        neigh = [set(a) for a in g.adj]
        for blk in support.brute_blocks(g):
            vs = sorted(blk)
            for i, u in enumerate(vs):
                for w in vs[i + 1 :]:
                    assert w in neigh[u]

    def test_random_block_graph_determinism(self):
        assert random_block_graph(4, 3, 5) == random_block_graph(4, 3, 5)

    @pytest.mark.parametrize("make,message", [
        (lambda: random_connected(0, 0.5, 1), "need at least one vertex, got 0"),
        (lambda: random_block_graph(0, 3, 1), "need at least one block, got 0"),
        (lambda: random_block_graph(3, 1, 1), "blocks need at least two vertices, got 1"),
    ])
    def test_random_generators_reject_empty_shapes(self, make, message):
        with pytest.raises(GraphInputError, match=message):
            make()

    @pytest.mark.parametrize("seed", [None, True, False, 1.5, "7", [1]])
    @pytest.mark.parametrize("make", [
        lambda seed: random_connected(5, 0.3, seed),
        lambda seed: random_block_graph(3, 3, seed),
    ], ids=["random_connected", "random_block_graph"])
    def test_random_generators_refuse_a_non_int_seed(self, make, seed):
        """None would give another graph on every call, a bool or a float
        would pass for an int, and a list raised a bare TypeError."""
        with pytest.raises(GraphInputError, match="^seed must be an integer, got "):
            make(seed)

    @pytest.mark.parametrize("make", [
        lambda: complete_bipartite(True, True),
        lambda: complete_bipartite(2, True),
        lambda: random_block_graph(True, 2, 1),
        lambda: random_connected(True, 0.5, 1),
        lambda: path_graph(True),
        lambda: cycle_graph(True),
        lambda: complete_graph(True),
    ], ids=["bipartite-both", "bipartite-one", "block_count", "random_connected", "path", "cycle", "complete"])
    def test_a_bool_is_not_a_size(self, make):
        """As build_graph refuses a bool vertex count, every generator
        refuses a bool size."""
        with pytest.raises(GraphInputError):
            make()

    @pytest.mark.parametrize("make,match", [
        (lambda: complete_graph(MAX_VERTICES + 1), f"^graphs are limited to {MAX_VERTICES} vertices, got "),
        (lambda: complete_graph(4473), f"^graphs are limited to {MAX_EDGES} edges, got 10001628$"),
        (lambda: complete_bipartite(4000, 3000), f"^graphs are limited to {MAX_EDGES} edges, got 12000000$"),
        (lambda: random_block_graph(MAX_VERTICES + 1, 2, 1),
         f"^graphs are limited to {MAX_VERTICES} vertices, got {MAX_VERTICES + 1} blocks$"),
    ], ids=["complete-vertices", "complete-edges", "bipartite-edges", "block-count"])
    def test_size_refusals_come_before_any_allocation(self, make, match):
        """complete_graph(4472) is the largest complete graph within
        MAX_EDGES; each refusal allocates almost nothing."""
        assert refusal_peak(SizeLimitError, match, make) < 64 << 10


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle_graph(7)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n3 2\n# another\n0 1\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_format_includes_comments(self):
        out = format_edge_list(path_graph(2), comments=("hello",))
        assert out.startswith("# hello\n")
        assert "2 1" in out

    @given(support.graphs(max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    # every line boundary str.splitlines, and so parse_edge_list, splits on
    BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_comment_spanning_lines_refused(self, boundary):
        """A comment with a line boundary would end its comment line early and
        put the rest in as data: "note\\n5 0" would put in the header "5 0"."""
        for comment in (f"note{boundary}5 0", f"a{boundary}b", boundary):
            with pytest.raises(GraphInputError, match="a comment may not span lines"):
                format_edge_list(path_graph(3), ["fine", comment])

    @given(support.graphs(max_n=12),
           st.lists(st.text().filter(lambda c: not any(b in c for b in TestEdgeListFormat.BOUNDARIES))))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_comments(self, g, comments):
        assert parse_edge_list(format_edge_list(g, comments)) == g

    def test_missing_header(self):
        with pytest.raises(GraphInputError, match="missing 'n m' header"):
            parse_edge_list("# only comments\n")

    def test_bad_tokens_report_line_numbers(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")
        with pytest.raises(GraphInputError, match="line 3"):
            parse_edge_list("3 2\n0 1\n0 1 2\n")

    def test_declared_count_enforced(self):
        with pytest.raises(GraphInputError, match="declared 2 edges but found 1"):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(GraphInputError, match="more edges than the declared"):
            parse_edge_list("3 1\n0 1\n1 2\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphInputError, match="line 3: duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_parse_equals_build_graph(self, data):
        """Edges in any order and orientation, among comments and blank
        lines, give the graph build_graph gives."""
        n = data.draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
        filler = st.sampled_from(["", "   ", "# note", "\t# indented note"])
        lines = [*data.draw(st.lists(filler, max_size=2)), f"{n} {len(edges)}  # header"]
        for u, v in edges:
            lines += [f" {u}\t{v} ", *data.draw(st.lists(filler, max_size=1))]
        assert parse_edge_list("\n".join(lines)) == build_graph(n, edges)

    @pytest.mark.parametrize("text,message", [
        ("", "empty input: missing 'n m' header line"),
        ("3\n", "line 1: expected two whitespace-separated values"),
        ("# c\n3 1\n0 x\n", "line 3: values must be integers"),
        ("3 -1\n", "line 1: header 'n m' values must be nonnegative"),
        ("3 1\n0 1\n\n1 2\n", "line 4: more edges than the declared 1"),
        ("3 2\n0 1\n2 3\n", "line 3: vertex id out of range [0, 3)"),
        ("3 2\n0 1\n-1 2\n", "line 3: vertex id out of range [0, 3)"),
        ("3 1\n# c\n1 1\n", "line 3: self-loop (1, 1) is not allowed"),
        ("3 2\n0 1\n1 0\n", "line 3: duplicate edge (1, 0)"),
        ("3 2\n0 1\n", "declared 2 edges but found 1"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphInputError) as info:
            parse_edge_list(text)
        assert str(info.value) == message

    def test_header_above_vertex_limit_refused_at_its_line(self):
        # refused at the header, before a malformed edge line is read
        with pytest.raises(SizeLimitError, match="^line 2: graphs are limited to 1000000 vertices"):
            parse_edge_list("# c\n2000000 1\n0 x\n")
