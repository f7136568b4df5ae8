"""The README's library quickstart runs as written and prints what its
comments say, and its check example prints the report it shows."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from mkvis.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quickstart_prints_its_comments():
    code = _quickstart()
    expected = []
    for line in code.splitlines():
        if line.startswith("print(") and "#" in line:
            comment = line.split("#", 1)[1].strip()
            # a trailing parenthetical in words is a remark, not output
            expected.append(re.sub(r"\s+\([a-z][^()]*\)$", "", comment))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 7


def test_check_example_prints_the_report_it_shows(capsys, monkeypatch):
    """Each stage of the shown pipeline runs through mkvis.cli.main on the
    previous stage's output; every field the README shows, ops included,
    must match the report."""
    text = README.read_text(encoding="utf-8")
    command, shown = re.search(r"```sh\n\$ (mkvis gen cycle 7 \| mkvis check [^\n]*)\n```\s*```json\n(.*?)```",
                               text, re.S).groups()
    out = None
    for stage in command.split("|"):
        argv = shlex.split(stage)
        assert argv[0] == "mkvis"
        if out is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(argv[1:]) == 0
        out = capsys.readouterr().out
    shown = json.loads(shown)
    report = json.loads(out)
    assert shown["command"] == report["command"] == "check"
    assert shown["result"] == {key: report["result"][key] for key in shown["result"]}
