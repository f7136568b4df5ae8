"""Command line interface.

Every analysis subcommand reads one graph (edge-list text from a file or
stdin, or JSON with --json) and prints a single JSON report to stdout;
diagnostics go to stderr. gen is the exception: it emits edge-list text so it
can be piped straight back into the other subcommands.

Exit codes: 0 success, 1 negative verdict under --strict, 2 usage or input
errors, 3 size-limit refusals.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
# is_block_graph stays bound here because bench/tracing.py rebinds it by name.
from .blocks import DEFAULT_TREE_MAX_NODES, _blocks_are_cliques, block_decomposition, is_block_graph, mu_k_block
from .covering import DEFAULT_COVER_MAX_N, DEFAULT_TAU_MAX_N, greedy_cover, tau_k
from .errors import DisconnectedGraphError, GraphInputError, SizeLimitError
from .graphs import (
    INFINITE,
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
    bounds,
    gp_number,
    mu_k,
    mu_k_variant,
    visibility_polynomial,
)

GEN_FAMILIES = {
    "path": (("n", int),),
    "cycle": (("n", int),),
    "complete": (("n", int),),
    "bipartite": (("m", int), ("n", int)),
    "random": (("n", int), ("p", float)),
    "block": (("blocks", int), ("max_block_size", int)),
}
SEEDED_FAMILIES = ("random", "block")


def _jsonable(value):
    if is_infinite(value):
        return None
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


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
    if getattr(args, "json", False):
        try:
            payload = json.loads(text)
            return build_graph(payload["n"], [tuple(e) for e in payload["edges"]]), source
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise GraphInputError(f"bad JSON graph input: {exc}") from None
    return parse_edge_list(text), source


def _emit(args, g, source, parameters, result, started) -> None:
    report = {
        "command": args.command,
        "input_summary": {
            "n": g.n,
            "m": g.m,
            "source": source,
            "parameters": _jsonable(parameters),
        },
        "result": _jsonable(result),
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _pair_counts_list(pair_counts):
    if pair_counts is None:
        return None
    return [[u, v, c] for (u, v), c in sorted(pair_counts.items())]


def _check_report_result(report, members=None):
    result = {
        "verdict": report.verdict,
        "k": report.k,
        "offending_pair": list(report.offending_pair) if report.offending_pair else None,
        "offending_count": report.offending_count,
        "reason": report.reason,
        "ops": report.ops,
    }
    if members is not None:
        result["set"] = sorted(members)
    if report.pair_counts is not None:
        result["pair_counts"] = _pair_counts_list(report.pair_counts)
    return result


def _cmd_check(args, started):
    g, source = _load_graph(args)
    members = _parse_ids(args.set)
    if args.variant is None:
        report = mkv_check(g, members, args.k, collect_pair_counts=args.pair_counts)
    else:
        if args.pair_counts:
            raise GraphInputError("--pair-counts is only available for the plain check")
        report = check_variant(g, members, args.k, args.variant)
    params = {"k": args.k, "set": sorted(set(members)), "variant": args.variant}
    _emit(args, g, source, params, _check_report_result(report, members), started)
    return 0 if report.verdict or not args.strict else 1


def _cmd_mu(args, started):
    g, source = _load_graph(args)
    res = mu_k(g, args.k, max_n=args.max_n)
    _emit(args, g, source, {"k": args.k, "max_n": args.max_n},
          {"value": res.value, "witness": sorted(res.witness), "nodes_explored": res.nodes_explored},
          started)
    return 0


def _cmd_mu_variant(args, started):
    g, source = _load_graph(args)
    res = mu_k_variant(g, args.k, args.variant, max_n=args.max_n)
    _emit(args, g, source, {"k": args.k, "variant": args.variant, "max_n": args.max_n},
          {"variant": args.variant, "value": res.value, "witness": sorted(res.witness),
           "nodes_explored": res.nodes_explored},
          started)
    return 0


def _cmd_gp(args, started):
    g, source = _load_graph(args)
    res = gp_number(g, max_n=args.max_n)
    _emit(args, g, source, {"max_n": args.max_n},
          {"value": res.value, "witness": sorted(res.witness), "nodes_explored": res.nodes_explored},
          started)
    return 0


def _cmd_poly(args, started):
    g, source = _load_graph(args)
    poly = visibility_polynomial(g, args.k, max_n=args.max_n)
    _emit(args, g, source, {"k": args.k, "max_n": args.max_n},
          {"coefficients": list(poly.coefficients), "degree": poly.degree(),
           "pretty": str(poly)},
          started)
    return 0


def _cmd_bounds(args, started):
    g, source = _load_graph(args)
    path = _parse_ids(args.path) if args.path is not None else None
    rec = bounds(g, args.k, isometric_path=path, gp_max_n=args.gp_max_n)
    result = {
        "diameter_bound": rec.diameter_bound,
        "girth_bound": rec.girth_bound,
        "trivial_bound": rec.trivial_bound,
        "isometric_bound": rec.isometric_bound,
        "degree_lower": rec.degree_lower,
        "gp_lower": rec.gp_lower,
        "upper": rec.upper(),
        "lower": rec.lower(),
    }
    _emit(args, g, source, {"k": args.k, "path": path, "gp_max_n": args.gp_max_n},
          result, started)
    return 0


def _cmd_tau(args, started):
    g, source = _load_graph(args)
    res = tau_k(g, args.k, max_n=args.max_n)
    _emit(args, g, source, {"k": args.k, "max_n": args.max_n},
          {"value": res.value, "partition": [list(p) for p in res.partition],
           "lower_bound_used": res.lower_bound_used},
          started)
    return 0


def _cmd_cover_greedy(args, started):
    g, source = _load_graph(args)
    parts = greedy_cover(g, args.k, max_n=args.max_n)
    _emit(args, g, source, {"k": args.k, "max_n": args.max_n},
          {"part_count": len(parts), "partition": parts}, started)
    return 0


def _cmd_blocks(args, started):
    g, source = _load_graph(args)
    tree = block_decomposition(g)
    verdict = _blocks_are_cliques(g, tree)
    result = tree.to_dict()
    result["is_block_graph"] = verdict
    _emit(args, g, source, {}, result, started)
    return 0 if verdict or not args.strict else 1


def _cmd_mu_block(args, started):
    g, source = _load_graph(args)
    res = mu_k_block(g, args.k, max_nodes=args.max_nodes)
    _emit(args, g, source, {"k": args.k, "max_nodes": args.max_nodes},
          {"value": res.value, "witness": sorted(res.witness), "nodes_explored": res.nodes_explored},
          started)
    return 0


def _cmd_oracle(args, started):
    g, source = _load_graph(args)
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
    _emit(args, g, source, {"set": sorted(members), "cap": args.cap},
          {"pairs_checked": pairs, "mismatches": mismatches, "match": not mismatches},
          started)
    return 0 if not mismatches or not args.strict else 1


def _cmd_gen(args, started):
    family = args.family
    spec = GEN_FAMILIES[family]
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
    elif args.seed is not None:
        raise GraphInputError(f"gen {family} takes no --seed")
    if family == "path":
        g = path_graph(values[0])
    elif family == "cycle":
        g = cycle_graph(values[0])
    elif family == "complete":
        g = complete_graph(values[0])
    elif family == "bipartite":
        g = complete_bipartite(values[0], values[1])
    elif family == "random":
        g = random_connected(values[0], values[1], args.seed)
    else:
        g = random_block_graph(values[0], values[1], args.seed)
    comments = [f"mkvis gen {family} " + " ".join(str(v) for v in values)]
    if args.seed is not None:
        comments.append(f"seed {args.seed}")
    sys.stdout.write(format_edge_list(g, comments))
    return 0


def _add_input_options(sp):
    sp.add_argument("--input", "-i", default="-", metavar="FILE",
                    help="edge-list input file, '-' for stdin (default)")
    sp.add_argument("--json", action="store_true",
                    help='input is JSON: {"n": ..., "edges": [[u, v], ...]}')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkvis",
        description="Mutual k-visibility in graphs: checks, exact solvers, "
                    "block-graph structure, covers.",
    )
    parser.add_argument("--version", action="version", version=f"mkvis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="test whether a vertex set is mutual k-visible")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True, help="visibility tolerance")
    sp.add_argument("--set", required=True, metavar="IDS", help="comma-separated vertex ids")
    sp.add_argument("--variant", choices=VARIANTS, default=None,
                    help="check a total/outer/dual set instead of the plain one")
    sp.add_argument("--pair-counts", action="store_true", help="include the pairwise count matrix")
    sp.add_argument("--strict", action="store_true", help="exit 1 on a negative verdict")

    sp = sub.add_parser("mu", help="exact mutual k-visibility number")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MU_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_MU_MAX_N})")

    sp = sub.add_parser("mu-variant", help="exact total/outer/dual visibility number")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--variant", choices=VARIANTS, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_ENUM_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_ENUM_MAX_N})")

    sp = sub.add_parser("gp", help="exact general position number")
    _add_input_options(sp)
    sp.add_argument("--max-n", type=int, default=DEFAULT_GP_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_GP_MAX_N})")

    sp = sub.add_parser("poly", help="k-visibility polynomial coefficients")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_ENUM_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_ENUM_MAX_N})")

    sp = sub.add_parser("bounds", help="upper and lower bounds for mu_k")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--path", metavar="IDS", default=None,
                    help="comma-separated isometric path for the path bound")
    sp.add_argument("--gp-max-n", type=int, default=DEFAULT_GP_MAX_N, dest="gp_max_n",
                    help="skip the general-position lower bound above this size")

    sp = sub.add_parser("tau", help="exact k-visibility covering number")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_TAU_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_TAU_MAX_N})")

    sp = sub.add_parser("cover-greedy", help="first-fit k-visibility cover")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_COVER_MAX_N, dest="max_n",
                    help=f"size refusal limit (default {DEFAULT_COVER_MAX_N})")

    sp = sub.add_parser("blocks", help="block decomposition and block-graph test")
    _add_input_options(sp)
    sp.add_argument("--strict", action="store_true", help="exit 1 when not a block graph")

    sp = sub.add_parser("mu-block", help="exact mu_k of a block graph via its tree")
    _add_input_options(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--max-nodes", type=int, default=DEFAULT_TREE_MAX_NODES, dest="max_nodes",
                    help=f"tree-node refusal limit (default {DEFAULT_TREE_MAX_NODES})")

    sp = sub.add_parser("gen", help="emit a generated graph in edge-list format")
    sp.add_argument("family", choices=sorted(GEN_FAMILIES))
    sp.add_argument("params", nargs="*", help="family parameters, e.g. 'gen random 10 0.3 --seed 7'")
    sp.add_argument("--seed", type=int, default=None, help="required for random/block")

    sp = sub.add_parser("oracle", help="compare the kernel against full geodesic enumeration")
    _add_input_options(sp)
    sp.add_argument("--set", required=True, metavar="IDS", help="obstruction set, comma-separated ids")
    sp.add_argument("--cap", type=int, default=DEFAULT_GEODESIC_CAP,
                    help=f"geodesic enumeration cap (default {DEFAULT_GEODESIC_CAP})")
    sp.add_argument("--strict", action="store_true", help="exit 1 on any mismatch")

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "mu": _cmd_mu,
    "mu-variant": _cmd_mu_variant,
    "gp": _cmd_gp,
    "poly": _cmd_poly,
    "bounds": _cmd_bounds,
    "tau": _cmd_tau,
    "cover-greedy": _cmd_cover_greedy,
    "blocks": _cmd_blocks,
    "mu-block": _cmd_mu_block,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        return _HANDLERS[args.command](args, started)
    except SizeLimitError as exc:
        print(f"mkvis: refused: {exc}", file=sys.stderr)
        return 3
    except (GraphInputError, DisconnectedGraphError) as exc:
        print(f"mkvis: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
