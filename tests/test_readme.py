"""The Python examples in README.md run, the Quick start prints what its
comments say, and the functions its Diagnostics list names exist."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import l1ppr

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _run(code: str) -> str:
    """Run ``code`` in a fresh namespace and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    return out.getvalue()


def test_readme_python_blocks():
    quick_starts = 0
    for code in BLOCKS:
        printed = _run(code)
        if "sol = solve(" in code:
            # the Quick start: support, total work and minimum slack
            quick_starts += 1
            items, work, min_slack = printed.splitlines()
            ((node, value),) = ast.literal_eval(items)
            assert node == 0 and value == pytest.approx(0.2, abs=1e-9)
            assert work == "108"
            assert float(min_slack) == pytest.approx(0.025, abs=1e-9)
    assert quick_starts == 1


def test_readme_diagnostics_names_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)\(", section, re.M)
    assert len(names) >= 7
    assert [name for name in names if not hasattr(l1ppr, name)] == []
