"""The public contract over every entry point: a call returns, or raises one
of the package's errors, whatever its arguments hold.

The entry points are the functions in mkvis.__all__ and BlockCutTree's
tree_path, neighbors and projection, so a new public function joins with no
edit. Each parameter is filled from a fixed pool keyed by its name: values a
caller means, and None, bools, negatives, nan, floats, str, bytes, nested and
unhashable values, iterators and huge ints. Graph and tree slots take real
Graphs and BlockCutTrees only; any other object there is a programming error
outside the promise (see the README's library paragraph).
"""

import copy
import inspect
import math

from hypothesis import given, settings
import hypothesis.strategies as st

import mkvis
from mkvis import (
    INFINITE,
    BlockCutTree,
    DisconnectedGraphError,
    GraphInputError,
    SizeLimitError,
    block_decomposition,
    block_node,
    build_graph,
    complete_bipartite,
    cut_node,
    cycle_graph,
    is_connected,
    path_graph,
    random_block_graph,
    random_connected,
)

ENTRY_POINTS = {name: getattr(mkvis, name) for name in mkvis.__all__ if inspect.isfunction(getattr(mkvis, name))}
ENTRY_POINTS.update({f"BlockCutTree.{name}": getattr(BlockCutTree, name)
                     for name in ("tree_path", "neighbors", "projection")})

_GRAPHS = [path_graph(5), cycle_graph(6), complete_bipartite(2, 3), random_block_graph(3, 4, 1),
           random_connected(9, 0.3, 2), build_graph(1, []), build_graph(4, [(0, 1), (2, 3)]), build_graph(0, [])]
_TREES = [block_decomposition(g) for g in _GRAPHS if g.n and is_connected(g)]

# every slot but a graph or tree also draws from this; calls deep-copy their arguments, so an iterator is fresh
_ODD = [None, True, False, -1, -2**70, 2**70, 0.5, 3.0, math.nan, math.inf, "1", "", "0 1", b"1",
        bytearray(b"\x01"), [None], [[0, 1]], [[]], [0, [1]], [1.5], [True], [-1], [2**70], {"a": 0},
        {0: 1}, set(), (0, (1, 2)), iter([0, 1]), iter([]), object(), path_graph(2)]

_VERTICES = [0, 1, 2, 4, 5, 8]
_VERTEX_SETS = [[], [0], [0, 2], {0, 1, 2}, range(4), (4, 3, 2, 1, 0), [0, 1, 2, 3, 4, 5], [0, 0, 1],
                [0, 99], frozenset({1, 3})]
_LIMITS = [0, 2, 5, 24, 1000]
_NODES = [block_node(0), block_node(1), block_node(3), cut_node(1), cut_node(2), cut_node(0), block_node(99),
          ("cut",), ("leaf", 1), ["cut", 1]]
# valid sizes stay at 50 or below, so no call is slow; _ODD's huge ints lie past MAX_VERTICES
_SIZES = [0, 1, 2, 3, 4, 7, 50]

POOLS = {
    "g": _GRAPHS,
    "t": _TREES,
    "self": _TREES,
    "k": [0, 1, 2, 3],
    "v": _VERTICES, "u": _VERTICES, "w": _VERTICES, "source": _VERTICES, "i": _VERTICES,
    "s": _VERTEX_SETS, "x": _VERTEX_SETS, "vertices": _VERTEX_SETS, "path": _VERTEX_SETS,
    "isometric_path": _VERTEX_SETS,
    "parts": [[range(5)], [[0, 1], [2, 3, 4]], [[0], [0]], [], [range(9)], [{0, 1}, {2, 3}, {4, 5}],
              [[0, 1, 2, 3], [4, 5, 6, 7, 8]]],
    "z": [[], [cut_node(1)], [block_node(0), block_node(1)], [cut_node(1), block_node(0), cut_node(2)],
          {block_node(0), block_node(3)}, [("leaf", 0)], [cut_node(99)], [[0]], [("cut",)]],
    "node": _NODES, "a": _NODES, "b": _NODES,
    "n": _SIZES, "m": _SIZES, "block_count": _SIZES, "max_block_size": _SIZES,
    "max_n": _LIMITS, "max_nodes": _LIMITS, "mu_max_n": _LIMITS, "gp_max_n": _LIMITS, "cap": _LIMITS,
    "mu_value": [None, 0, 1, 3, 9],
    "seed": [0, 1, 7],
    "edge_probability": [0.0, 0.3, 1.0, 0, 1, -0.5, 1.5],
    "edges": [[], [(0, 1)], [(0, 1), (1, 2)], [(0, 0)], [(0, 1), (1, 0)], [(0, 9)], [[0, 1]], [(0,)],
              [(0, 1, 2)], {(0, 1)}, [(0.0, 1)]],
    "text": ["3 2\n0 1\n1 2\n", "1 0\n", "# c\n2 1\n0 1\n", "2 1\n0 1 2\n", "x", "2 1\n0 0\n", "-1 0\n",
             "3 1\n0 1\n1 2\n", "\x00", "2 1\r0 1", "[" * 1000],
    "comments": [(), ["note"], ["two\nlines"], ["x\r"], [""], [1], ["a", "b"]],
    "variant": ["total", "outer", "dual", "DUAL", "none"],
    "collect_pair_counts": [False, True],
    "value": [INFINITE],
}

_ERRORS = (GraphInputError, DisconnectedGraphError, SizeLimitError)


def _pool(name):
    values = POOLS[name]
    return st.sampled_from(values if name in ("g", "t", "self") else values + _ODD)


def _arguments(name):
    params = inspect.signature(ENTRY_POINTS[name]).parameters.values()
    required = {p.name: _pool(p.name) for p in params if p.default is p.empty}
    optional = {p.name: _pool(p.name) for p in params if p.default is not p.empty}
    return st.tuples(st.just(name), st.fixed_dictionaries(required, optional=optional))


def test_every_parameter_of_an_entry_point_has_a_pool():
    missing = {name: sorted(set(inspect.signature(function).parameters) - set(POOLS))
               for name, function in ENTRY_POINTS.items()}
    assert {name: params for name, params in missing.items() if params} == {}


@given(st.sampled_from(sorted(ENTRY_POINTS)).flatmap(_arguments))
@settings(max_examples=1500, deadline=None)
def test_every_call_returns_or_raises_a_package_error(call):
    name, arguments = call
    try:
        ENTRY_POINTS[name](**copy.deepcopy(arguments))
    except _ERRORS:
        pass
