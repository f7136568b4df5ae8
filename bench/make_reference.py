"""Write reference.json: the expected answer for every input of every workload.

    python3 bench/make_reference.py

Runs each unlabeled input of each workload's pool (and of the toy-size pools
the tests use) once through mkvis.cli.main, checks each answer with the
benchmark's own checker, and stores the part of it that checker.summary pins
down, keyed by the input's content hash. Run it only on a commit whose
answers are trusted, and only when the workloads change: later commits are
judged against the table it writes.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import checker
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    cli = run._import_package()
    work = run.WORK / "reference"
    table = {}
    for tiny in (False, True):
        for workload in workloads.WORKLOADS:
            reqs = workloads.pool(workload, tiny)
            shutil.rmtree(work, ignore_errors=True)
            workloads.write_inputs(reqs, work)
            for req in reqs:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(req["argv"])
                if code != 0:
                    sys.exit(f"{' '.join(req['args'])}: exit {code}")
                result = json.loads(out.getvalue())["result"]
                problems = checker.check_answer(req, result, None)
                if problems:
                    sys.exit(f"{' '.join(req['args'])}: {problems}")
                table[req["key"]] = checker.summary(req["command"], result)
            print(f"{workload}{' (tiny)' if tiny else ''}: {len(reqs)} inputs", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(table.items())]
    checker.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
