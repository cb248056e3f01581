"""Count the executable lines of the package, module by module.

    python3 tests/exec_lines.py

Prints one line per module of ``src/l1ppr/`` with its count of executable
lines, then their total. A line is executable when it holds part of a token
other than a comment: blank lines, comment lines and the lines of
docstrings (the leading string of a module, class or function) do not
count, and a statement spread over several lines counts each line it spans.
Not collected by pytest.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "l1ppr"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(source: str) -> int:
    """The number of executable lines of the module text ``source``."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = executable_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main()
