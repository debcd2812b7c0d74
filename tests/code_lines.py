"""Count the code lines of each module of the ``polybern`` package.

A code line is a physical line that holds part of a token other than a
comment, where docstrings (the string that opens a module, class or
function body) and blank lines do not count.  For each module the script
prints its code lines and its physical lines, then the totals:

    python tests/code_lines.py [package-directory]

The directory defaults to ``src/polybern`` next to this file's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "polybern"
    total_code = total_physical = 0
    for path in sorted(root.glob("*.py")):
        code, physical = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_physical += physical
        print(f"{path.name:<16}{code:>6}{physical:>7}")
    print(f"{'total':<16}{total_code:>6}{total_physical:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
