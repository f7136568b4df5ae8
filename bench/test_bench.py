"""The benchmark's own tests (stdlib only).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def star(leaves):
    return workloads.Input(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def all_geodesic_min_count(adj, members, u, w):
    """Minimum members strictly inside a u-w geodesic, by listing every path."""
    dist = checker.min_counts(adj, (), u)[0]
    best = None
    stack = [(u, 0)]
    while stack:
        v, count = stack.pop()
        if v == w:
            best = count if best is None else min(best, count)
            continue
        for x in adj[v]:
            if dist[x] == dist[v] + 1:
                stack.append((x, count + (1 if x in members and x != w else 0)))
    return best


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_tiny(workload, 1, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, expected)

    def test_counts_repeat_for_a_seed(self):
        first = run_tiny("search", 5, 1)["metrics"]
        second = run_tiny("search", 5, 1)["metrics"]
        for name in tracing.EXACT_COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["kernel.sweeps"]["value"], 0)

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(tracing.LAYER_METRICS))
        design = json.loads((ROOT / "bench" / "design.json").read_text(encoding="utf-8"))
        for workload in workloads.WORKLOADS:
            self.assertEqual(design["workloads"][workload]["request_groups"], workloads.describe(workload))


class Inputs(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        def texts(seed):
            return [(r["args"], r["graph"].text()) for r in workloads.requests("check", seed, tiny=True)]
        self.assertEqual(texts(3), texts(3))
        self.assertNotEqual(texts(3), texts(4))

    def test_relabeling_keeps_the_reference_key(self):
        keys = {r["key"] for r in workloads.pool("blocks", tiny=True)}
        for seed in (0, 1):
            self.assertEqual({r["key"] for r in workloads.requests("blocks", seed, tiny=True)}, keys)

    def test_every_input_has_a_reference_answer(self):
        reference = checker.load_reference()
        for workload in workloads.WORKLOADS:
            for tiny in (False, True):
                missing = [r["args"] for r in workloads.pool(workload, tiny) if r["key"] not in reference]
                self.assertEqual(missing, [], workload)


class Checker(unittest.TestCase):
    def test_min_counts_match_geodesic_listing(self):
        rng = random.Random(11)
        for _ in range(30):
            g = workloads.random_connected(rng.randint(4, 9), 0.35, rng)
            adj = g.adjacency()
            members = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            source = rng.randrange(g.n)
            cnt = checker.min_counts(adj, members, source)[1]
            for w in range(g.n):
                if w != source:
                    self.assertEqual(cnt[w], all_geodesic_min_count(adj, members, source, w))

    def test_rejects_a_witness_with_one_vertex_swapped(self):
        req = {"command": "mu", "k": 0, "graph": star(3), "key": "x"}
        self.assertEqual(checker.check_answer(req, {"value": 3, "witness": [1, 2, 3]}, None), [])
        self.assertTrue(checker.check_answer(req, {"value": 3, "witness": [0, 2, 3]}, None))

    def test_rejects_a_bad_partition_and_a_wrong_verdict(self):
        req = {"command": "tau", "k": 0, "graph": star(3), "key": "x"}
        self.assertEqual(checker.check_answer(req, {"value": 2, "partition": [[0], [1, 2, 3]]}, None), [])
        self.assertTrue(checker.check_answer(req, {"value": 1, "partition": [[0, 1, 2, 3]]}, None))
        self.assertTrue(checker.check_answer(req, {"value": 2, "partition": [[0, 1], [1, 2, 3]]}, None))
        check = {"command": "check", "k": 0, "set": [0, 2, 3], "graph": star(3), "key": "x"}
        wrong = {"verdict": True, "offending_pair": None, "offending_count": None}
        self.assertTrue(checker.check_answer(check, wrong, None))

    def test_rejects_a_value_off_the_reference(self):
        req = {"command": "mu", "k": 0, "graph": star(3), "key": "x"}
        self.assertEqual(checker.check_answer(req, {"value": 2, "witness": [1, 2]}, {"x": 2}), [])
        problems = checker.check_answer(req, {"value": 2, "witness": [1, 2]}, {"x": 3})
        self.assertIn("value differs from reference 3", problems)


if __name__ == "__main__":
    unittest.main()
