"""The Python examples in README.md run, and the Quick start prints what its
comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

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
