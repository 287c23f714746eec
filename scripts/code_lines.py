"""Count the code lines of the eraserlang package.

A code line is a line that holds a token other than a comment, a
docstring or blank space; a token that spans lines (a long string)
counts every line it covers.  Prints the count of each module and of
src/eraserlang as a whole:

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eraserlang"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) of every module, class and function docstring."""
    return {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING
                                 and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name}: {count}")
    print(f"{_PACKAGE.name}: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
