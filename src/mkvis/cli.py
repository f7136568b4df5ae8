"""Command line interface.

Every analysis subcommand reads one graph (edge-list text from a file or
stdin, or JSON with --json) and prints a single JSON report to stdout;
diagnostics go to stderr. gen is the exception: it emits edge-list text so it
can be piped straight back into the other subcommands.

Exit codes: 0 success, 1 negative verdict under --strict, 2 usage or input
errors, 3 size-limit refusals and running out of memory, 130 interrupted.
Output into a pipe whose reader has gone (as after head) ends the command
quietly with 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
# is_block_graph stays bound here because bench/tracing.py rebinds it by name.
from .blocks import DEFAULT_TREE_MAX_NODES, _blocks_are_cliques, block_decomposition, is_block_graph, mu_k_block
from .covering import DEFAULT_COVER_MAX_N, DEFAULT_TAU_MAX_N, greedy_cover, tau_k
from .errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from .graphs import (
    bfs_distances,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    format_edge_list,
    build_graph,
    check_vertex_set,
    is_infinite,
    parse_edge_list,
    path_graph,
    random_block_graph,
    random_connected,
)
from .kernel import (
    DEFAULT_GEODESIC_CAP,
    VARIANTS,
    _oracle_count,
    check_variant,
    internal_counts,
    mkv_check,
)
from .solvers import (
    DEFAULT_ENUM_MAX_N,
    DEFAULT_GP_MAX_N,
    DEFAULT_MU_MAX_N,
    DEFAULT_VARIANT_MAX_N,
    bounds,
    gp_number,
    mu_k,
    mu_k_variant,
    visibility_polynomial,
)

# family: its generator and parameters; a seeded family's generator takes the seed last
GEN_FAMILIES = {
    "path": (path_graph, (("n", int),)),
    "cycle": (cycle_graph, (("n", int),)),
    "complete": (complete_graph, (("n", int),)),
    "bipartite": (complete_bipartite, (("m", int), ("n", int))),
    "random": (random_connected, (("n", int), ("p", float))),
    "block": (random_block_graph, (("blocks", int), ("max_block_size", int))),
}
SEEDED_FAMILIES = ("random", "block")
# oracle enumerates the geodesics of all n(n-1)/2 pairs: at n = 1000 about 5 s on a
# star and 17 s on a path
MAX_ORACLE_VERTICES = 1000


def _json_default(value):
    """The default hook of json.dumps and _dumps for the one value of a
    report that JSON has no type for: INFINITE (the girth bound of an
    acyclic graph), written as null."""
    if is_infinite(value):
        return None
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# the writers of the exact types json.dumps writes as scalars
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, default=_json_default), byte for byte, for
    what a report holds: dicts with str keys, lists, tuples, str, int, bool,
    None, finite floats (timing_seconds) and INFINITE.

    With indent, json.dumps runs its pure-Python encoder, one generator per
    container; this builds each container with one join and writes scalars
    by a lookup on their exact type: reports hold no subclass of str, int
    or float, so one goes to _json_default like any other type. A key that
    is not a str raises TypeError. indent is the newline and spaces before
    the value's closing bracket.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    scalar, inner = _SCALAR_TEXT.get, indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [text(v) if (text := scalar(type(v))) else _dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [encode_basestring_ascii(k) + ": " + (text(v) if (text := scalar(type(v))) else _dumps(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    return _dumps(_json_default(value), indent)


def _at_least(low: int):
    """An argparse type for a limit: an integer no smaller than low. A limit
    below it is a usage error (exit 2), not a size refusal."""

    def limit(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return limit


def _parse_ids(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(f) for f in text.split(",")]
    except ValueError:
        raise GraphInputError(f"expected comma-separated integers, got {text!r}") from None


def _load_graph(args):
    source = "stdin" if args.input == "-" else args.input
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read {source}: {exc}") from None
    if args.json:
        try:
            payload = json.loads(text)
            return build_graph(payload["n"], [tuple(e) for e in payload["edges"]]), source
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
            raise GraphInputError(f"bad JSON graph input: {exc}") from None
    return parse_edge_list(text), source


def _emit(args, g, source, parameters, result, started) -> None:
    report = {
        "command": args.command,
        "input_summary": {
            "n": g.n,
            "m": g.m,
            "source": source,
            "parameters": parameters,
        },
        "result": result,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    sys.stdout.write(_dumps(report) + "\n")


def _solved(res) -> dict:
    """The result of a maximiser: its value, a sorted witness and the work done."""
    return {"value": res.value, "witness": sorted(res.witness), "nodes_explored": res.nodes_explored}


# Each graph handler takes the parsed arguments and the loaded graph and returns
# (parameters, result, exit code); main loads the graph and writes the report.
# Handlers look the solvers up as module globals when called, so rebinding a
# name here (as the benchmark's tracer does) reaches every call.

def _cmd_check(args, g):
    members = _parse_ids(args.set)
    if args.variant is None:
        report = mkv_check(g, members, args.k, collect_pair_counts=args.pair_counts)
    else:
        if args.pair_counts:
            raise GraphInputError("--pair-counts is only available for the plain check")
        report = check_variant(g, members, args.k, args.variant)
    ids = sorted(set(members))
    result = {
        "verdict": report.verdict,
        "k": report.k,
        "offending_pair": list(report.offending_pair) if report.offending_pair else None,
        "offending_count": report.offending_count,
        "reason": report.reason,
        "ops": report.ops,
        "set": ids,
    }
    if report.pair_counts is not None:
        result["pair_counts"] = [[u, v, c] for (u, v), c in sorted(report.pair_counts.items())]
    code = 0 if report.verdict or not args.strict else 1
    return {"k": args.k, "set": ids, "variant": args.variant}, result, code


def _cmd_mu(args, g):
    return {"k": args.k, "max_n": args.max_n}, _solved(mu_k(g, args.k, max_n=args.max_n)), 0


def _cmd_mu_variant(args, g):
    res = mu_k_variant(g, args.k, args.variant, max_n=args.max_n)
    return ({"k": args.k, "variant": args.variant, "max_n": args.max_n},
            {"variant": args.variant, **_solved(res)}, 0)


def _cmd_gp(args, g):
    return {"max_n": args.max_n}, _solved(gp_number(g, max_n=args.max_n)), 0


def _cmd_poly(args, g):
    poly = visibility_polynomial(g, args.k, max_n=args.max_n)
    return ({"k": args.k, "max_n": args.max_n},
            {"coefficients": list(poly.coefficients), "degree": poly.degree(), "pretty": str(poly)}, 0)


def _cmd_bounds(args, g):
    path = _parse_ids(args.path) if args.path is not None else None
    rec = bounds(g, args.k, isometric_path=path, gp_max_n=args.gp_max_n)
    result = {**dataclasses.asdict(rec), "upper": rec.upper(), "lower": rec.lower()}
    return {"k": args.k, "path": path, "gp_max_n": args.gp_max_n}, result, 0


def _cmd_tau(args, g):
    res = tau_k(g, args.k, max_n=args.max_n)
    return ({"k": args.k, "max_n": args.max_n},
            {"value": res.value, "partition": [list(p) for p in res.partition],
             "lower_bound_used": res.lower_bound_used}, 0)


def _cmd_cover_greedy(args, g):
    parts = greedy_cover(g, args.k, max_n=args.max_n)
    return {"k": args.k, "max_n": args.max_n}, {"part_count": len(parts), "partition": parts}, 0


def _cmd_blocks(args, g):
    tree = block_decomposition(g)
    verdict = _blocks_are_cliques(g, tree)
    result = tree.to_dict()
    result["is_block_graph"] = verdict
    return {}, result, 0 if verdict or not args.strict else 1


def _cmd_mu_block(args, g):
    res = mu_k_block(g, args.k, max_nodes=args.max_nodes)
    return {"k": args.k, "max_nodes": args.max_nodes}, _solved(res), 0


def _cmd_oracle(args, g):
    if g.n > MAX_ORACLE_VERTICES:
        raise SizeLimitError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices, got {g.n}")
    members = check_vertex_set(g, _parse_ids(args.set))
    mismatches = []
    pairs = 0
    for u in range(g.n - 1):
        du = bfs_distances(g, u)
        counts = internal_counts(g, members, u)
        for w in range(u + 1, g.n):
            pairs += 1
            fast = counts[w]
            slow = _oracle_count(g, members, u, w, du, args.cap)
            if fast != slow:
                mismatches.append({"u": u, "w": w, "kernel": fast, "oracle": slow})
    return ({"set": sorted(members), "cap": args.cap},
            {"pairs_checked": pairs, "mismatches": mismatches, "match": not mismatches},
            0 if not mismatches or not args.strict else 1)


def _cmd_gen(args):
    family = args.family
    generate, spec = GEN_FAMILIES[family]
    if len(args.params) != len(spec):
        names = " ".join(name for name, _ in spec)
        raise GraphInputError(f"gen {family} expects parameters: {names}")
    values = []
    for raw, (name, conv) in zip(args.params, spec):
        try:
            values.append(conv(raw))
        except ValueError:
            raise GraphInputError(f"parameter {name} must be {conv.__name__}, got {raw!r}") from None
    if family in SEEDED_FAMILIES:
        if args.seed is None:
            raise GraphInputError(f"gen {family} requires --seed")
        g = generate(*values, args.seed)
    elif args.seed is not None:
        raise GraphInputError(f"gen {family} takes no --seed")
    else:
        g = generate(*values)
    comments = [f"mkvis gen {family} " + " ".join(str(v) for v in values)]
    if args.seed is not None:
        comments.append(f"seed {args.seed}")
    sys.stdout.write(format_edge_list(g, comments))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkvis",
        description="Mutual k-visibility in graphs: checks, exact solvers, "
                    "block-graph structure, covers.",
    )
    parser.add_argument("--version", action="version", version=f"mkvis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, handler, help, k=False, max_n=None):
        """A subcommand that reads one graph; k adds -k, max_n adds --max-n with that default."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--input", "-i", default="-", metavar="FILE",
                        help="edge-list input file, '-' for stdin (default)")
        sp.add_argument("--json", action="store_true",
                        help='input is JSON: {"n": ..., "edges": [[u, v], ...]}')
        if k:
            sp.add_argument("-k", type=int, required=True, help="visibility tolerance")
        if max_n is not None:
            sp.add_argument("--max-n", type=_at_least(1), default=max_n, dest="max_n",
                            help=f"size refusal limit (default {max_n})")
        sp.set_defaults(handler=handler)
        return sp

    sp = graph_command("check", _cmd_check, "test whether a vertex set is mutual k-visible", k=True)
    sp.add_argument("--set", required=True, metavar="IDS", help="comma-separated vertex ids")
    sp.add_argument("--variant", choices=VARIANTS, default=None,
                    help="check a total/outer/dual set instead of the plain one")
    sp.add_argument("--pair-counts", action="store_true", help="include the pairwise count matrix")
    sp.add_argument("--strict", action="store_true", help="exit 1 on a negative verdict")

    graph_command("mu", _cmd_mu, "exact mutual k-visibility number", k=True, max_n=DEFAULT_MU_MAX_N)
    sp = graph_command("mu-variant", _cmd_mu_variant, "exact total/outer/dual visibility number",
                       k=True, max_n=DEFAULT_VARIANT_MAX_N)
    sp.add_argument("--variant", choices=VARIANTS, required=True)
    graph_command("gp", _cmd_gp, "exact general position number", max_n=DEFAULT_GP_MAX_N)
    graph_command("poly", _cmd_poly, "k-visibility polynomial coefficients", k=True, max_n=DEFAULT_ENUM_MAX_N)

    sp = graph_command("bounds", _cmd_bounds, "upper and lower bounds for mu_k", k=True)
    sp.add_argument("--path", metavar="IDS", default=None,
                    help="comma-separated isometric path for the path bound")
    sp.add_argument("--gp-max-n", type=_at_least(0), default=DEFAULT_GP_MAX_N, dest="gp_max_n",
                    help="skip the general-position lower bound above this size (0 always leaves it out)")

    graph_command("tau", _cmd_tau, "exact k-visibility covering number", k=True, max_n=DEFAULT_TAU_MAX_N)
    graph_command("cover-greedy", _cmd_cover_greedy, "first-fit k-visibility cover",
                  k=True, max_n=DEFAULT_COVER_MAX_N)

    sp = graph_command("blocks", _cmd_blocks, "block decomposition and block-graph test")
    sp.add_argument("--strict", action="store_true", help="exit 1 when not a block graph")

    sp = graph_command("mu-block", _cmd_mu_block, "exact mu_k of a block graph via its tree", k=True)
    sp.add_argument("--max-nodes", type=_at_least(1), default=DEFAULT_TREE_MAX_NODES, dest="max_nodes",
                    help=f"tree-node refusal limit (default {DEFAULT_TREE_MAX_NODES})")

    sp = sub.add_parser("gen", help="emit a generated graph in edge-list format")
    sp.add_argument("family", choices=sorted(GEN_FAMILIES))
    sp.add_argument("params", nargs="*", help="family parameters, e.g. 'gen random 10 0.3 --seed 7'")
    sp.add_argument("--seed", type=int, default=None, help="required for random/block")

    sp = graph_command("oracle", _cmd_oracle, "compare the kernel against full geodesic enumeration")
    sp.add_argument("--set", required=True, metavar="IDS", help="obstruction set, comma-separated ids")
    sp.add_argument("--cap", type=_at_least(1), default=DEFAULT_GEODESIC_CAP,
                    help=f"geodesic enumeration cap (default {DEFAULT_GEODESIC_CAP})")
    sp.add_argument("--strict", action="store_true", help="exit 1 on any mismatch")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first main call, not at import. Reuse only
    pays when main runs many times in one process (a library caller, the
    benchmark's in-process loop); the console script builds it once anyway."""
    return build_parser()


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's flush at exit finds no closed pipe either. A stdout with no
    descriptor (an in-process caller's StringIO) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        _drop_stdout()
        return 0
    except MemoryError:
        print("mkvis: refused: out of memory", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("mkvis: interrupted", file=sys.stderr)
        return 130
    return code


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        g, source = _load_graph(args)
        parameters, result, code = args.handler(args, g)
        _emit(args, g, source, parameters, result, started)
        return code
    except SizeLimitError as exc:
        print(f"mkvis: refused: {exc}", file=sys.stderr)
        return 3
    except (GraphInputError, DisconnectedGraphError) as exc:
        print(f"mkvis: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
