"""Command line interface: subcommands, report shape, exit codes, round trips."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import mkvis
import mkvis.cli
import mkvis.graphs
import mkvis.kernel
from mkvis import __version__
from mkvis.cli import GEN_FAMILIES, main
from mkvis.graphs import build_graph, format_edge_list, parse_edge_list, path_graph, random_connected
from mkvis.kernel import VARIANTS


def run(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, monkeypatch, argv, stdin_text=None):
    code, out, err = run(capsys, monkeypatch, argv, stdin_text)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out), err


PATH5 = format_edge_list(path_graph(5))


def run_capped(argv, limit, stdin_text=None):
    """Run the CLI in a subprocess under an address-space cap of limit bytes,
    so an allocation the size limits should have refused ends in a
    MemoryError at once instead of filling the machine."""
    pytest.importorskip("resource")
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from mkvis.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        input=stdin_text,
        env={**os.environ, "PYTHONPATH": str(Path(mkvis.__file__).parents[1])},
        capture_output=True, text=True, timeout=120,
    )


class TestReports:
    def test_report_shape_and_version(self, capsys, monkeypatch):
        code, rep, _ = run_json(capsys, monkeypatch, ["mu", "-k", "1"], PATH5)
        assert code == 0
        assert rep["command"] == "mu"
        assert rep["version"] == __version__
        assert rep["input_summary"]["n"] == 5
        assert rep["input_summary"]["m"] == 4
        assert rep["result"]["value"] == 3
        assert sorted(rep["result"]) == ["nodes_explored", "value", "witness"]
        assert isinstance(rep["timing_seconds"], float)

    def test_determinism_modulo_timing(self, capsys, monkeypatch):
        argv = ["tau", "-k", "0"]
        _, one, _ = run_json(capsys, monkeypatch, argv, PATH5)
        _, two, _ = run_json(capsys, monkeypatch, argv, PATH5)
        one.pop("timing_seconds"), two.pop("timing_seconds")
        assert one == two

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text(PATH5)
        code, rep, _ = run_json(capsys, monkeypatch, ["mu", "-i", str(f), "-k", "0"])
        assert code == 0 and rep["result"]["value"] == 2
        assert rep["input_summary"]["source"] == str(f)

    def test_json_input(self, capsys, monkeypatch):
        payload = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
        code, rep, _ = run_json(capsys, monkeypatch, ["mu", "--json", "-k", "0"], payload)
        assert code == 0 and rep["result"]["value"] == 2


class TestCheck:
    def test_verdict_and_offender(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch, ["check", "-k", "0", "--set", "0,2,4"], PATH5
        )
        assert code == 0
        assert rep["result"]["verdict"] is False
        assert rep["result"]["offending_pair"] == [0, 4]
        assert rep["result"]["offending_count"] == 1

    def test_strict_negative_exit(self, capsys, monkeypatch):
        code, _, _ = run_json(
            capsys, monkeypatch, ["check", "-k", "0", "--set", "0,2,4", "--strict"], PATH5
        )
        assert code == 1

    def test_strict_positive_exit(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch, ["check", "-k", "1", "--set", "0,2,4", "--strict"], PATH5
        )
        assert code == 0 and rep["result"]["verdict"] is True

    def test_pair_counts(self, capsys, monkeypatch):
        _, rep, _ = run_json(
            capsys, monkeypatch,
            ["check", "-k", "0", "--set", "0,2,4", "--pair-counts"], PATH5,
        )
        assert [0, 4, 1] in rep["result"]["pair_counts"]

    def test_pair_counts_across_components(self, capsys, monkeypatch):
        """Members in different components end the check after the first
        sweep, so the report carries no pair counts."""
        code, rep, _ = run_json(
            capsys, monkeypatch,
            ["check", "-k", "0", "--set", "0,2", "--pair-counts"], "4 2\n0 1\n2 3\n",
        )
        assert code == 0 and rep["result"]["reason"] == "members_in_different_components"
        assert "pair_counts" not in rep["result"]

    def test_variant_check(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch,
            ["check", "-k", "2", "--set", "1,2", "--variant", "total"],
            format_edge_list(path_graph(4)),
        )
        assert code == 0 and rep["result"]["verdict"] is True

    def test_variant_rejects_pair_counts(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch,
            ["check", "-k", "0", "--set", "1", "--variant", "total", "--pair-counts"],
            PATH5,
        )
        assert code == 2 and "pair-counts" in err

    def test_bad_set_syntax(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["check", "-k", "0", "--set", "0,x"], PATH5
        )
        assert code == 2 and "comma-separated" in err

    def test_repeated_ids_reported_once(self, capsys, monkeypatch):
        code, rep, _ = run_json(capsys, monkeypatch, ["check", "-k", "0", "--set", "3,1,1"], PATH5)
        assert code == 0 and rep["result"]["verdict"] is True
        assert rep["result"]["set"] == [1, 3]
        assert rep["input_summary"]["parameters"]["set"] == [1, 3]


class TestGen:
    def test_families_round_trip(self, capsys, monkeypatch):
        for argv, n, m in [
            (["gen", "path", "6"], 6, 5),
            (["gen", "cycle", "5"], 5, 5),
            (["gen", "complete", "4"], 4, 6),
            (["gen", "bipartite", "2", "3"], 5, 6),
        ]:
            code, out, _ = run(capsys, monkeypatch, argv)
            assert code == 0
            g = parse_edge_list(out)
            assert (g.n, g.m) == (n, m)

    def test_seeded_families_embed_seed(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "random", "8", "0.3", "--seed", "7"])
        assert code == 0 and "# seed 7" in out
        again = run(capsys, monkeypatch, ["gen", "random", "8", "0.3", "--seed", "7"])[1]
        assert out == again
        code, out, _ = run(capsys, monkeypatch, ["gen", "block", "3", "3", "--seed", "2"])
        assert code == 0 and parse_edge_list(out).n >= 3

    def test_seed_is_required_for_random(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "random", "8", "0.3"])
        assert code == 2 and "--seed" in err

    def test_seed_rejected_for_fixed_families(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "path", "5", "--seed", "3"])
        assert code == 2 and "no --seed" in err

    def test_wrong_parameter_count(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "path"])
        assert code == 2 and "expects parameters" in err

    def test_bad_parameter_type(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "path", "five"])
        assert code == 2 and "must be int" in err

    def test_unknown_family(self, capsys, monkeypatch):
        assert run(capsys, monkeypatch, ["gen", "torus", "3"])[0] == 2

    def test_pipe_into_check(self, capsys, monkeypatch):
        _, out, _ = run(capsys, monkeypatch, ["gen", "cycle", "7"])
        code, rep, _ = run_json(
            capsys, monkeypatch, ["check", "-k", "1", "--set", "0,1,2,4,5"], out
        )
        assert code == 0 and rep["result"]["verdict"] is True


class TestSolverCommands:
    def test_mu_variant(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch,
            ["mu-variant", "-k", "0", "--variant", "total"],
            format_edge_list(path_graph(3)),
        )
        assert code == 0 and rep["result"]["value"] == 2

    def test_gp(self, capsys, monkeypatch):
        code, rep, _ = run_json(capsys, monkeypatch, ["gp"], PATH5)
        assert code == 0 and rep["result"]["value"] == 2

    def test_poly(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch, ["poly", "-k", "0"], format_edge_list(path_graph(3))
        )
        assert code == 0
        assert rep["result"]["coefficients"] == [1, 3, 3, 0]
        assert rep["result"]["degree"] == 2
        assert rep["result"]["pretty"] == "1 + 3x + 3x^2"

    def test_bounds(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch, ["bounds", "-k", "0"],
            format_edge_list(path_graph(6)),
        )
        assert code == 0
        assert rep["result"]["girth_bound"] is None  # INFINITE serializes as null
        assert rep["result"]["diameter_bound"] == 2

    def test_bounds_on_a_tree_emits_null_girth(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["bounds", "-k", "1"], "4 3\n0 1\n0 2\n0 3\n")
        assert code == 0 and '\n    "girth_bound": null,\n' in out

    def test_bounds_rejects_empty_path(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["bounds", "-k", "0", "--path", ""],
                             format_edge_list(path_graph(4)))
        assert code == 2 and not out and "at least one vertex" in err

    def test_tau_partition_revalidates(self, capsys, monkeypatch):
        code, rep, _ = run_json(capsys, monkeypatch, ["tau", "-k", "1"], PATH5)
        assert code == 0 and rep["result"]["value"] == 2
        for part in rep["result"]["partition"]:
            ids = ",".join(map(str, part))
            sub_code, sub_rep, _ = run_json(
                capsys, monkeypatch,
                ["check", "-k", "1", "--set", ids, "--strict"], PATH5,
            )
            assert sub_code == 0 and sub_rep["result"]["verdict"] is True

    def test_cover_greedy(self, capsys, monkeypatch):
        code, rep, _ = run_json(capsys, monkeypatch, ["cover-greedy", "-k", "0"], PATH5)
        assert code == 0
        assert rep["result"]["part_count"] == len(rep["result"]["partition"])

    def test_blocks_and_strict(self, capsys, monkeypatch):
        bowtie = "5 6\n0 1\n0 4\n1 4\n2 3\n2 4\n3 4\n"
        code, rep, _ = run_json(capsys, monkeypatch, ["blocks"], bowtie)
        assert code == 0
        assert rep["result"]["is_block_graph"] is True
        assert rep["result"]["articulation"] == [4]
        cycle = "4 4\n0 1\n1 2\n2 3\n3 0\n"
        assert run_json(capsys, monkeypatch, ["blocks", "--strict"], cycle)[0] == 1

    def test_mu_block(self, capsys, monkeypatch):
        bowtie = "5 6\n0 1\n0 4\n1 4\n2 3\n2 4\n3 4\n"
        code, rep, _ = run_json(capsys, monkeypatch, ["mu-block", "-k", "0"], bowtie)
        assert code == 0 and rep["result"]["value"] == 4

    def test_oracle_agreement(self, capsys, monkeypatch):
        code, rep, _ = run_json(
            capsys, monkeypatch, ["oracle", "--set", "1,3", "--strict"],
            format_edge_list(path_graph(6)),
        )
        assert code == 0
        assert rep["result"]["match"] is True
        assert rep["result"]["pairs_checked"] == 15

    def test_oracle_runs_one_distance_bfs_per_vertex(self, capsys, monkeypatch):
        runs = []
        for module in (mkvis.graphs, mkvis.kernel):
            counted = module.bfs_distances

            def counting(g, v, counted=counted):
                runs.append(v)
                return counted(g, v)

            monkeypatch.setattr(module, "bfs_distances", counting)
        code, rep, _ = run_json(
            capsys, monkeypatch, ["oracle", "--set", "1,3"], format_edge_list(path_graph(8)),
        )
        assert code == 0 and rep["result"]["pairs_checked"] == 28
        assert len(runs) <= 8

    def test_oracle_takes_one_distance_row_per_source(self, capsys, monkeypatch):
        rows = []
        counted = mkvis.cli.bfs_distances

        def counting(g, v):
            rows.append(v)
            return counted(g, v)

        monkeypatch.setattr(mkvis.cli, "bfs_distances", counting)
        code, rep, _ = run_json(
            capsys, monkeypatch, ["oracle", "--set", "1,3"], format_edge_list(path_graph(8)),
        )
        assert code == 0 and rep["result"]["pairs_checked"] == 28
        assert rows == list(range(7))

    def test_oracle_holds_one_distance_row(self, capsys, monkeypatch):
        """On a 600-leaf star the n x n distance table alone is about 2.9 MB;
        the oracle's peak stays under half of it."""
        n = 601
        text = format_edge_list(build_graph(n, [(0, leaf) for leaf in range(1, n)]))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, monkeypatch, ["oracle", "--set", "0"], text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["result"]["match"] is True
        assert peak < n * sys.getsizeof([0] * n) // 2

    def test_oracle_refuses_above_its_vertex_limit(self, capsys, monkeypatch):
        """Above MAX_ORACLE_VERTICES the oracle refuses before its first BFS,
        so the refusal costs no more than reading the graph."""
        assert mkvis.cli.MAX_ORACLE_VERTICES == 1000
        code, text, _ = run(capsys, monkeypatch, ["gen", "path", "1001"])
        assert code == 0
        started = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["oracle", "--set", "0"], text)
        assert time.perf_counter() - started < 1.0
        assert code == 3 and not out and "oracle limited to 1000 vertices" in err


class TestExitCodes:
    def test_usage_error(self, capsys, monkeypatch):
        assert main(["mu"]) == 2  # missing -k
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys, monkeypatch):
        assert main(["warp"]) == 2
        capsys.readouterr()

    def test_bad_edge_list(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["mu", "-k", "0"], "garbage\n")
        assert code == 2 and "line 1" in err

    def test_missing_file(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["mu", "-i", "/no/such/file", "-k", "0"])
        assert code == 2 and "cannot read" in err

    def test_non_utf8_file(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "g.bin"
        f.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, monkeypatch, ["check", "-i", str(f), "-k", "0", "--set", "0"])
        assert code == 2 and not out
        assert err.startswith("mkvis: error: cannot read") and "Traceback" not in err

    def test_bad_json(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["mu", "--json", "-k", "0"], "{short")
        assert code == 2 and "JSON" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads raises RecursionError here, not JSONDecodeError
        f = tmp_path / "nested.json"
        f.write_text("[" * 100000)
        code = main(["mu", "-k", "0", "--json", "-i", str(f)])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert err.startswith("mkvis: error: bad JSON graph input:") and "Traceback" not in err

    @pytest.mark.parametrize("edges", [[[0]], [[0, 1, 2]], [7], ["abc"]])
    def test_json_edge_not_a_pair(self, capsys, monkeypatch, edges):
        payload = json.dumps({"n": 3, "edges": edges})
        code, out, err = run(capsys, monkeypatch, ["mu", "--json", "-k", "0"], payload)
        assert code == 2 and not out
        assert err.startswith("mkvis: error:") and "Traceback" not in err

    def test_oracle_rejects_bad_ids_without_pairs(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["oracle", "--set", "5"], "1 0\n")
        assert code == 2 and not out and "out of range" in err

    def test_size_limit_refusal(self, capsys, monkeypatch):
        big = format_edge_list(path_graph(30))
        code, _, err = run(capsys, monkeypatch, ["mu", "-k", "0"], big)
        assert code == 3 and "refused" in err
        code, rep, _ = run_json(capsys, monkeypatch, ["mu", "-k", "0", "--max-n", "30"], big)
        assert code == 0 and rep["result"]["value"] == 2

    @pytest.mark.parametrize("argv,low", [
        (["mu", "-k", "0", "--max-n", "-1"], 1),
        (["mu", "-k", "0", "--max-n", "0"], 1),
        (["mu-variant", "--variant", "dual", "-k", "0", "--max-n", "0"], 1),
        (["gp", "--max-n", "0"], 1),
        (["poly", "-k", "0", "--max-n", "-5"], 1),
        (["tau", "-k", "0", "--max-n", "0"], 1),
        (["cover-greedy", "-k", "0", "--max-n", "0"], 1),
        (["mu-block", "-k", "0", "--max-nodes", "0"], 1),
        (["mu-block", "-k", "0", "--max-nodes", "-1"], 1),
        (["oracle", "--set", "0", "--cap", "-1"], 1),
        (["oracle", "--set", "0", "--cap", "0"], 1),
        (["bounds", "-k", "0", "--gp-max-n", "-1"], 0),
    ])
    def test_nonsensical_limit_is_a_usage_error(self, capsys, monkeypatch, argv, low):
        """A limit below its least meaningful value is a usage error (exit 2)
        raised by the parser, not a size refusal (exit 3) or a traceback."""
        code, out, err = run(capsys, monkeypatch, argv, PATH5)
        assert code == 2 and not out
        assert f"argument {argv[-2]}: must be at least {low}, got {argv[-1]}" in err
        assert "refused" not in err and "Traceback" not in err

    def test_limit_must_be_an_integer(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["mu", "-k", "0", "--max-n", "x"], PATH5)
        assert code == 2 and not out and "argument --max-n: invalid int value: 'x'" in err

    def test_least_limits_stay_valid(self, capsys, monkeypatch):
        """--gp-max-n 0 leaves out gp_lower, and a limit of 1 refuses a
        larger graph as a size limit."""
        code, rep, _ = run_json(capsys, monkeypatch, ["bounds", "-k", "0", "--gp-max-n", "0"], PATH5)
        assert code == 0 and rep["result"]["gp_lower"] is None
        assert rep["input_summary"]["parameters"]["gp_max_n"] == 0
        code, out, err = run(capsys, monkeypatch, ["mu", "-k", "0", "--max-n", "1"], PATH5)
        assert code == 3 and not out and "mu_k limited to 1 vertices" in err
        code, rep, _ = run_json(capsys, monkeypatch, ["oracle", "--set", "0", "--cap", "1"], PATH5)
        assert code == 0 and rep["result"]["match"] is True

    def test_gp_max_n_lets_bounds_solve_gp_past_its_default(self, capsys, monkeypatch):
        """--gp-max-n 30 solves gp at n = 22, above gp's own limit of 20."""
        text = format_edge_list(random_connected(22, 0.3, 1))
        code, rep, _ = run_json(capsys, monkeypatch, ["bounds", "-k", "0", "--gp-max-n", "30"], text)
        assert code == 0
        assert (rep["result"]["gp_lower"], rep["result"]["lower"]) == (10, 13)

    @pytest.mark.parametrize("argv,text", [
        (["mu", "-k", "0"], "100000000000 0\n"),
        (["mu", "--json", "-k", "0"], '{"n": 100000000000, "edges": []}'),
    ])
    def test_vertex_count_limit(self, capsys, monkeypatch, argv, text):
        code, out, err = run(capsys, monkeypatch, argv, text)
        assert code == 3 and not out
        assert err.startswith("mkvis: refused:") and "1000000 vertices" in err

    @pytest.mark.parametrize("params", [
        ["path", "100000000000"],
        ["cycle", "100000000000"],
        ["complete", "100000000000"],
        ["bipartite", "1", "100000000000"],
        ["random", "100000000000", "0.5", "--seed", "1"],
        ["block", "100000000000", "3", "--seed", "1"],
        ["block", "2", "100000000000", "--seed", "1"],
    ])
    def test_gen_refuses_before_allocating(self, params):
        """Run under a 256 MiB address-space cap, so building the edges first
        ends in a MemoryError at once instead of filling the machine."""
        proc = run_capped(["gen", *params], 256 << 20)
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr.startswith("mkvis: refused:") and "1000000 vertices" in proc.stderr

    @pytest.mark.parametrize("params", [
        ["complete", "100000"],
        ["bipartite", "30000", "30000"],
        ["random", "100000", "0.5", "--seed", "1"],
        ["block", "2", "900000", "--seed", "1"],
    ])
    def test_gen_refuses_too_many_edges(self, params):
        """Within the vertex limit but past MAX_EDGES: refused under the same
        256 MiB address-space cap, before the first edge is generated."""
        proc = run_capped(["gen", *params], 256 << 20)
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr.startswith("mkvis: refused:") and "10000000 edges" in proc.stderr

    def test_gen_random_refuses_too_many_trials(self, capsys, monkeypatch):
        """Few expected edges, but one Bernoulli trial per pair: 17,997,000
        pairs exceed MAX_EDGES, so it is refused before the first draw."""
        code, out, err = run(capsys, monkeypatch, ["gen", "random", "6000", "0.0001", "--seed", "1"])
        assert code == 3 and not out
        assert err.startswith("mkvis: refused:") and "10000000 pairs" in err

    def test_cover_greedy_size_limit(self, capsys, monkeypatch):
        """The default limit refuses before the n x n geodesic tables are
        built: under a 1 GiB address-space cap a 3000-vertex path exits 3,
        where building the tables ends in a MemoryError."""
        proc = run_capped(["cover-greedy", "-k", "1"], 1 << 30, format_edge_list(path_graph(3000)))
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr.startswith("mkvis: refused:") and "1000 vertices" in proc.stderr
        code, _, err = run(capsys, monkeypatch, ["cover-greedy", "-k", "0", "--max-n", "4"], PATH5)
        assert code == 3 and "refused" in err

    def test_pair_counts_member_limit(self):
        """All 20,000 vertices of a path as the set: refused before the first
        BFS, where the pair count table ends in a MemoryError under 512 MiB."""
        n = 20000
        proc = run_capped(
            ["check", "-k", "0", "--pair-counts", "--set", ",".join(map(str, range(n)))],
            512 << 20, format_edge_list(path_graph(n)),
        )
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr.startswith("mkvis: refused:") and "1000 members" in proc.stderr

    def test_pair_counts_member_limit_in_process(self, capsys, monkeypatch):
        """One member past MAX_PAIR_COUNT_MEMBERS exits 3, as the README's
        size limits say."""
        n = mkvis.kernel.MAX_PAIR_COUNT_MEMBERS + 1
        argv = ["check", "-k", "0", "--pair-counts", "--set", ",".join(map(str, range(n)))]
        code, out, err = run(capsys, monkeypatch, argv, format_edge_list(path_graph(n)))
        assert code == 3 and not out
        assert err.startswith("mkvis: refused:") and f"pair counts limited to {n - 1} members, got {n}" in err

    @pytest.mark.parametrize("text", ["2000000 0\n", "2000000 1\n0 x\n"])
    def test_header_above_vertex_limit(self, capsys, monkeypatch, text):
        """Refused at the header line, before any edge line is read."""
        code, out, err = run(capsys, monkeypatch, ["check", "-k", "0", "--set", "0"], text)
        assert code == 3 and not out
        assert err.startswith("mkvis: refused: line 1:") and "1000000 vertices" in err

    def test_disconnected_input(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["mu", "-k", "0"], "4 2\n0 1\n2 3\n")
        assert code == 2 and "connected" in err

    def test_version_flag(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["--version"])
        assert code == 0 and __version__ in out

    def test_help_exits_zero(self, capsys, monkeypatch):
        assert run(capsys, monkeypatch, ["--help"])[0] == 0
        assert run(capsys, monkeypatch, ["check", "--help"])[0] == 0

    @pytest.mark.parametrize("argv,stdin_text", [
        (["gen", "path", "50"], None),
        (["mu", "-k", "0"], PATH5),
        (["blocks"], PATH5),
    ])
    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch, argv, stdin_text):
        """A stdout whose reader has gone: gen's edge list and a JSON report
        both end with exit 0 and nothing on stderr. This stdout has no file
        descriptor, like the StringIO of an in-process caller, so it is left
        in place."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        closed = ClosedPipe()
        monkeypatch.setattr("sys.stdout", closed)
        assert main(argv) == 0
        assert sys.stdout is closed
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["gen", "path", "200000"], ["gen", "random", "12", "0.3", "--seed", "7"]])
    def test_closed_pipe_in_a_process(self, argv):
        """The reader closes its end before the first write: the process
        exits 0 with no traceback, also at interpreter exit, when the
        buffered rest of stdout is flushed into the null device."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "mkvis.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(mkvis.__file__).parents[1])},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    @pytest.mark.parametrize("exc,code,message", [
        (MemoryError, 3, "mkvis: refused: out of memory\n"),
        (KeyboardInterrupt, 130, "mkvis: interrupted\n"),
    ])
    def test_out_of_memory_and_interrupt(self, capsys, monkeypatch, exc, code, message):
        """A solver that runs out of memory or is interrupted ends the
        command with its own exit code and one line on stderr, no report
        and no traceback."""

        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(mkvis.cli, "mu_k", raising)
        assert run(capsys, monkeypatch, ["mu", "-k", "0"], PATH5) == (code, "", message)


class TestReportKeyOrder:
    """The key order of every report, as json.dumps writes it; dict equality
    would not notice a reordered result."""

    REPORT = ["command", "input_summary", "result", "timing_seconds", "version"]
    SUMMARY = ["n", "m", "source", "parameters"]
    # argv on PATH5: (parameters keys, result keys)
    CASES = {
        "check": (["check", "-k", "0", "--set", "0,2,4"],
                  ["k", "set", "variant"],
                  ["verdict", "k", "offending_pair", "offending_count", "reason", "ops", "set"]),
        "mu": (["mu", "-k", "1"], ["k", "max_n"], ["value", "witness", "nodes_explored"]),
        "mu-variant": (["mu-variant", "--variant", "total", "-k", "0"],
                       ["k", "variant", "max_n"], ["variant", "value", "witness", "nodes_explored"]),
        "gp": (["gp"], ["max_n"], ["value", "witness", "nodes_explored"]),
        "poly": (["poly", "-k", "0"], ["k", "max_n"], ["coefficients", "degree", "pretty"]),
        "bounds": (["bounds", "-k", "1"], ["k", "path", "gp_max_n"],
                   ["diameter_bound", "girth_bound", "trivial_bound", "isometric_bound",
                    "degree_lower", "gp_lower", "upper", "lower"]),
        "tau": (["tau", "-k", "0"], ["k", "max_n"], ["value", "partition", "lower_bound_used"]),
        "cover-greedy": (["cover-greedy", "-k", "0"], ["k", "max_n"], ["part_count", "partition"]),
        "blocks": (["blocks"], [], ["articulation", "blocks", "tree_edges", "projection", "is_block_graph"]),
        "mu-block": (["mu-block", "-k", "0"], ["k", "max_nodes"], ["value", "witness", "nodes_explored"]),
        "oracle": (["oracle", "--set", "1,3"], ["set", "cap"], ["pairs_checked", "mismatches", "match"]),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_key_order(self, capsys, monkeypatch, command):
        argv, parameters, result = self.CASES[command]
        code, rep, _ = run_json(capsys, monkeypatch, argv, PATH5)
        assert code == 0
        assert list(rep) == self.REPORT
        assert list(rep["input_summary"]) == self.SUMMARY
        assert list(rep["input_summary"]["parameters"]) == parameters
        assert list(rep["result"]) == result


# what a report holds: str keys, and str, int, bool, None, finite floats and INFINITE
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.just(mkvis.graphs.INFINITE),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


class TestReportWriter:
    """cli._dumps writes what json.dumps(..., indent=2, default=_json_default)
    writes, byte for byte, for every value a report holds."""

    @given(_JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        want = json.dumps(value, indent=2, default=mkvis.cli._json_default)
        assert mkvis.cli._dumps(value) == want

    def test_refuses_what_json_dumps_refuses(self):
        for value in ([object()], {(1, 2): 3}):
            with pytest.raises(TypeError):
                mkvis.cli._dumps(value)

    def test_refuses_what_no_report_holds(self):
        """A key that is not a str and a set, which json.dumps would write."""
        for value in ({1: 2}, {1, 2}):
            with pytest.raises(TypeError):
                mkvis.cli._dumps(value)

    @pytest.mark.parametrize("command", sorted(TestReportKeyOrder.CASES))
    def test_every_report_matches_json_dumps(self, capsys, monkeypatch, command):
        """The report of every subcommand, whose values include INFINITE
        (bounds on a path), as main writes it."""
        reports = []
        dumps = mkvis.cli._dumps

        def watched(value, *indent):
            reports.append(value)  # the report comes first, then what it holds
            return dumps(value, *indent)

        monkeypatch.setattr(mkvis.cli, "_dumps", watched)
        code, out, _ = run(capsys, monkeypatch, TestReportKeyOrder.CASES[command][0], PATH5)
        assert code == 0
        assert out == json.dumps(reports[0], indent=2, default=mkvis.cli._json_default) + "\n"


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    SEQUENCES = {
        "strict failure, then plain check": [
            ["check", "-k", "0", "--set", "0,2,4", "--strict"],
            ["check", "-k", "0", "--set", "0,2,4"],
        ],
        "usage error, then a valid call": [
            ["check", "-k", "0"],
            ["check", "-k", "1", "--set", "0,2,4", "--pair-counts"],
        ],
        "version, then a valid call": [["--version"], ["mu", "-k", "1"]],
        "help, then an unknown subcommand, then a variant check": [
            ["check", "--help"], ["nope"], ["check", "-k", "2", "--set", "1,2", "--variant", "total"],
        ],
    }

    @staticmethod
    def _outcomes(capsys, monkeypatch, sequence):
        outcomes = []
        for argv in sequence:
            code, out, err = run(capsys, monkeypatch, argv, PATH5)
            if out.startswith("{"):
                out = json.loads(out)
                out.pop("timing_seconds")
            outcomes.append((code, out, err))
        return outcomes

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_interleaved_calls_match_a_fresh_parser(self, capsys, monkeypatch, name):
        sequence = self.SEQUENCES[name]
        shared = self._outcomes(capsys, monkeypatch, sequence)
        monkeypatch.setattr(mkvis.cli, "_parser", mkvis.cli.build_parser)  # a new parser per call
        fresh = self._outcomes(capsys, monkeypatch, sequence)
        assert shared == fresh
        assert shared[-1][0] == 0

    def test_parser_built_once_and_not_at_import(self, capsys, monkeypatch):
        probe = "import mkvis.cli; print(mkvis.cli._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(Path(mkvis.__file__).parents[1])})
        assert proc.stdout.strip() == "0"
        run(capsys, monkeypatch, ["--version"])
        parser = mkvis.cli._parser()
        run(capsys, monkeypatch, ["mu", "-k", "0"], PATH5)
        assert mkvis.cli._parser() is parser


GRAPH_COMMANDS = [
    ["check", "-k", "1", "--set", "0,1"],
    ["mu", "-k", "1"],
    ["mu-variant", "-k", "1", "--variant", "dual"],
    ["gp"],
    ["poly", "-k", "1"],
    ["bounds", "-k", "1"],
    ["tau", "-k", "1"],
    ["cover-greedy", "-k", "1"],
    ["blocks"],
    ["mu-block", "-k", "1"],
    ["oracle", "--set", "0"],
]

_json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 8) | st.just(10**11)
    | st.floats() | st.text(max_size=4)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_json_graphs = st.fixed_dictionaries({
    "n": st.integers(-1, 6) | _json_values,
    "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3) | _json_values, max_size=8),
})


_fuzz_files = itertools.count()


def _main_on_file(directory, data: bytes, argv):
    """main(argv) reading a new file that holds data, its output discarded."""
    f = directory / f"fuzz-{next(_fuzz_files)}"  # a new name: truncating in place is slow on some filesystems
    f.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([*argv, "-i", str(f)])


class TestContractFuzz:
    """Whatever a graph-reading subcommand is fed, main returns an exit code
    of the documented contract and raises nothing."""

    @given(st.sampled_from(GRAPH_COMMANDS), st.binary(max_size=48))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_file(self, tmp_path_factory, argv, data):
        assert _main_on_file(tmp_path_factory.getbasetemp(), data, argv) in (0, 1, 2, 3)

    @given(st.sampled_from(GRAPH_COMMANDS), _json_graphs | _json_values)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json(self, tmp_path_factory, argv, payload):
        data = json.dumps(payload).encode()
        assert _main_on_file(tmp_path_factory.getbasetemp(), data, [*argv, "--json"]) in (0, 1, 2, 3)


# Every subcommand with the options it requires and those it may take; gen
# takes positional parameters instead.
_REQUIRED = {
    "check": ["-k", "--set"], "mu": ["-k"], "mu-variant": ["-k", "--variant"], "gp": [], "poly": ["-k"],
    "bounds": ["-k"], "tau": ["-k"], "cover-greedy": ["-k"], "blocks": [], "mu-block": ["-k"],
    "oracle": ["--set"],
}
_OPTIONAL = {
    "check": ["--variant", "--pair-counts", "--strict"], "bounds": ["--path", "--gp-max-n"],
    "blocks": ["--strict"], "mu-block": ["--max-nodes"], "oracle": ["--cap", "--strict"],
}


def _mostly(good, bad):
    """good three times in four, else bad."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


# ids may be out of range (up to 9 on graphs of at most 7 vertices), negative or repeated
_ids = _mostly(st.lists(st.integers(-1, 9), min_size=1, max_size=5).map(lambda ids: ",".join(map(str, ids))),
               st.sampled_from(["", ",", "a", "1,,2", "0,0,0", " 1", "99999999999999999999"]))
_limits = _mostly(st.integers(1, 30).map(str), st.sampled_from(["-2", "0", "", "x", "1.5", "1e3"]))
_OPTIONS = {
    "-k": _mostly(st.integers(0, 4).map(str), st.sampled_from(["-1", "", "x", "0.5", "-0"])),
    "--set": _ids,
    "--path": _ids,
    "--variant": _mostly(st.sampled_from(VARIANTS), st.sampled_from(["plain", ""])),
    "--max-n": _limits,
    "--max-nodes": _limits,
    "--cap": _limits,
    "--gp-max-n": _limits,
    "--pair-counts": st.none(),
    "--strict": st.none(),
}
# (text, whether it is JSON): small graphs, a few broken ones, and junk
_small_graphs = st.builds(random_connected, st.integers(1, 7), st.sampled_from([0.2, 0.5]), st.integers(0, 99))
_inputs = _mostly(
    _small_graphs.map(lambda g: (format_edge_list(g), False))
    | _small_graphs.map(lambda g: (json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}), True)),
    st.sampled_from([("4 2\n0 1\n2 3\n", False), ("3 2\n0 1\n1 1\n", False), ("2 1\n0 5\n", False),
                     ("", False), ('{"n": 3, "edges": [[0, 1], [1, 2], [0, 1]]}', True)])
    | st.text(max_size=24).map(lambda text: (text, False))
    | _json_graphs.map(lambda graph: (json.dumps(graph), True)),
)


@st.composite
def _requests(draw):
    """argv and stdin text for one in-process call: a subcommand, each of its
    required options nine times in ten and each of its other options half
    the time, values good or bad, now and then an option it does not take,
    and a graph or junk on stdin, with --json mostly when it is JSON."""
    command = draw(st.sampled_from(["gen", *_REQUIRED]))
    if command == "gen":
        argv = ["gen", draw(st.sampled_from([*sorted(GEN_FAMILIES), "warp"]))]
        argv += draw(st.lists(st.integers(-2, 12).map(str) | st.sampled_from(["0.3", "x", "-0.5", "1e400"]),
                              max_size=3))
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["1", "-3", "x"]))]
        return argv, None
    options = [o for o in _REQUIRED[command] if draw(st.integers(0, 9)) < 9]
    takes_max_n = command not in ("check", "bounds", "blocks", "mu-block", "oracle")
    options += [o for o in _OPTIONAL.get(command, ["--max-n"] if takes_max_n else []) if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 7:
        options.append(draw(st.sampled_from(sorted(_OPTIONS))))
    argv = [command]
    for option in options:
        value = draw(_OPTIONS[option])
        argv += [option] if value is None else [option, value]
    text, is_json = draw(_inputs)
    if is_json and draw(st.integers(0, 4)) < 4:
        argv.append("--json")
    return argv, text


class TestExitCodeFuzz:
    @given(_requests())
    @settings(max_examples=300, deadline=None)
    def test_generated_requests_keep_the_exit_code_contract(self, request):
        """main, in process, on generated argv and stdin: it raises nothing,
        returns an exit code from 0 to 3, and anything on stderr is one of
        its own messages or argparse's usage text."""
        argv, text = request
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text or "")), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
        assert not err.getvalue() or err.getvalue().startswith(("mkvis", "usage:")), (argv, text, err.getvalue())
