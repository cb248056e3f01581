"""List the statements of the package that no test runs.

    python3 tests/line_coverage.py [pytest args ...]

Runs the test suite (``tests/``, or the pytest arguments given) in this
process under ``sys.settrace`` and prints, module by module, each statement
of ``src/l1ppr/`` that ran in no test, as ``file:line: source``, then their
count. Only this process is traced, so a statement that runs only in a
child process (``python -m l1ppr.cli``, the benchmark harness) is listed as
missed. Tracing slows every call, so a test that bounds time or memory may
fail under it; the list is printed whatever the test outcomes. Standard
library only, and not collected by pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "l1ppr"


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements of the module at ``path`` that the
    interpreter runs: a statement that compiles to no code of its own, such
    as a docstring, is left out."""
    source = path.read_text(encoding="utf-8")
    code_lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & code_lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - ran[name]):
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement(s) of src/l1ppr/ ran in no test (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
