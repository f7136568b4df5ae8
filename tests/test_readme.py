"""The README's library quickstart runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
