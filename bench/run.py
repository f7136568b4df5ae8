"""mkvis benchmark: seeded CLI workloads driven in-process through mkvis.cli.main.

Usage (from the repository root):

    python3 bench/run.py --workload search --seed 3 --seconds 20 --trace 0

One client sends requests in a closed loop, in one process and thread: the
next request starts when the previous one has returned. A pass sends the
workload's whole request list; passes repeat until --seconds have elapsed
(at least one pass). Every answer is checked (checker.py), then one JSON line
ends standard output with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). A traced run alternates plain and traced
passes, so trace.overhead_ratio compares the two within one run.

Times are host-calibrated. The shared host's speed drifts by up to 1.8x
within seconds, with CPU time tracking wall time, so raw wall clock cannot
hold a 25% bound between runs. A fixed pure-Python probe (BFS sweeps over a
grid, the benchmark's own code) runs before the first and after every
measured interval; each interval is scaled by PROBE_NOMINAL_S over the mean of
its two neighbouring probes. The result reads as seconds on a host where the
probe takes PROBE_NOMINAL_S. Raw times are printed alongside.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROBE_NOMINAL_S = 0.0016
PROBE_GRID = workloads.grid(10, 20).adjacency()

END_TO_END_UNITS = {
    "wall_s": "s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_package():
    for name in [m for m in sys.modules if m == "mkvis" or m.startswith("mkvis.")]:
        del sys.modules[name]
    importlib.import_module("mkvis")
    return importlib.import_module("mkvis.cli")


def probe():
    """Duration of a fixed amount of pure-Python work: 60 BFS sweeps of a 10x20 grid."""
    start = time.perf_counter()
    for source in range(0, 200, 10):
        for _ in range(3):
            dist = [-1] * 200
            dist[source] = 0
            queue = [source]
            for u in queue:
                for w in PROBE_GRID[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        queue.append(w)
    return time.perf_counter() - start


class Clock:
    """Calibrated interval timer: call start(), then stop() after the work."""

    def __init__(self):
        self.last_probe = probe()
        self.raw = 0.0

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        self.raw = time.perf_counter() - self._t0
        before, self.last_probe = self.last_probe, probe()
        return self.raw * PROBE_NOMINAL_S / ((before + self.last_probe) / 2)


def setup(workload, seed, tiny):
    """Import mkvis and generate and write the inputs, SETUP_REPEATS times.

    Returns the request list, the CLI module, the median calibrated set-up
    time and the input directory.
    """
    work = WORK / f"{workload}-{seed}{'-tiny' if tiny else ''}"
    times = []
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        clock.start()
        cli = _import_package()
        reqs = workloads.requests(workload, seed, tiny)
        workloads.write_inputs(reqs, work)
        times.append(clock.stop())
    return reqs, cli, statistics.median(times), work


def run_pass(cli, reqs, first=None, tracer=None):
    """Send every request once. Returns the pass time (the sum of calibrated
    latencies), the raw pass time, and per request (calibrated latency_s,
    exit code, result). After the first pass (given as first) the result is
    only whether it equals the first pass's, so memory does not grow with
    the number of passes."""
    outcomes = []
    raw = 0.0
    clock = Clock()
    for i, req in enumerate(reqs):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            clock.start()
            try:
                if tracer is None:
                    code = cli.main(req["argv"])
                else:
                    with tracer.request(i):
                        code = cli.main(req["argv"])
            except Exception as exc:  # a traceback is a failed request, not a crashed benchmark
                code = f"exception {exc!r}"
            latency = clock.stop()
        raw += clock.raw
        result = None
        if code == 0:
            try:
                result = json.loads(out.getvalue())["result"]
            except (ValueError, KeyError):
                code = "unparseable report"
        if first is not None:
            result = result == first[2][i][2]
        outcomes.append((latency, code, result))
    return sum(o[0] for o in outcomes), raw, outcomes


def tail(values):
    """The highest nearest-rank percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def count_failures(reqs, passes, reference):
    """Attempted and failed requests over all passes, plus one line per problem.

    A request fails on a nonzero exit (3 is a refusal), on an answer the
    checker rejects, or on an answer that differs from the first pass's.
    """
    first_pass = passes[0]
    problems = []
    verdicts = []
    for i, req in enumerate(reqs):
        first = first_pass[2][i]
        issues = [] if first[1] != 0 else checker.check_answer(req, first[2], reference)
        verdicts.append(issues)
        problems.extend(f"request {i} ({' '.join(req['args'])}): {p}" for p in issues)
    failed = 0
    attempted = 0
    for p in passes:
        for i, (_, code, result) in enumerate(p[2]):
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"request {i} ({' '.join(reqs[i]['args'])}): exit {code}")
            elif verdicts[i] or (p is not first_pass and result is not True):
                failed += 1
    return attempted, failed, problems


def measure(cli, reqs, seconds, traced, work):
    """Passes until the deadline. Plain runs return end-to-end timings; traced
    runs alternate plain and traced passes and return per-layer metrics."""
    modules = {name: sys.modules[f"mkvis.{name}"] for name in ("cli", "covering", "solvers", "blocks", "kernel")}
    deadline = time.perf_counter() + seconds
    plain, with_trace, layer_runs = [], [], []
    last_tracer = None
    first = None
    while True:
        plain.append(run_pass(cli, reqs, first))
        first = first or plain[0]
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed(modules):
                with_trace.append(run_pass(cli, reqs, first, tracer))
            layer_runs.append(tracer.layer_metrics())
            last_tracer = tracer
        if time.perf_counter() >= deadline:
            break
    if last_tracer is not None:
        with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
            for i, span in enumerate(last_tracer.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")
    return plain, with_trace, layer_runs


def end_to_end(reqs, plain):
    per_request = [statistics.median(p[2][i][0] for p in plain) for i in range(len(reqs))]
    tail_value, tail_pct = tail(per_request)
    metrics = {
        "wall_s": statistics.median(p[0] for p in plain),
        "lat_p50_ms": 1000 * statistics.median(per_request),
        "lat_tail_ms": 1000 * tail_value,
    }
    note = (f"lat_tail_ms is p{tail_pct:.1f} of {len(per_request)} per-request medians over "
            f"{len(plain)} passes; raw wall {statistics.median(p[1] for p in plain):.3f} s")
    return metrics, note


def per_layer(plain, with_trace, layer_runs):
    metrics = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(p[0] for p in with_trace)
                             / statistics.median(p[0] for p in plain))
        elif name in tracing.EXACT_COUNTS:
            metrics[name] = layer_runs[-1][name]
        else:
            metrics[name] = statistics.median(run[name] for run in layer_runs)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "mkvis" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'mkvis'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reqs, cli, setup_s, work = setup(args.workload, args.seed, args.tiny)
    if Path(cli.__file__).resolve().parent != SRC / "mkvis":
        print(f"bench: imported mkvis from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    plain, with_trace, layer_runs = measure(cli, reqs, args.seconds, args.trace == 1, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = checker.load_reference()
    attempted, failed, problems = count_failures(reqs, plain + with_trace, reference)
    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(plain, with_trace, layer_runs)
        units = tracing.LAYER_METRICS
        notes = [f"{len(with_trace)} traced and {len(plain)} plain passes of {len(reqs)} requests"]
    else:
        metrics, note = end_to_end(reqs, plain)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
        notes = [f"{len(plain)} passes of {len(reqs)} requests", note]
    notes.append(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} attempted)")
    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(notes))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
