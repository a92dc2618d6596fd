"""Count the code lines of Python sources: lines that hold a token of code,
not counting blank lines, comments or docstrings.

A docstring is the string literal that opens a module, class or function
body (``ast.get_docstring``'s node); every line it spans is left out.  A
line that holds code is counted once, however many tokens it holds or
however many lines a bracketed statement spans.

Usage: ``python tools/code_lines.py PATH...``, where each path is a file
or a directory searched for ``*.py``.  Prints one line per file, ``lines
path``, sorted by path, and then ``lines total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source ``path``."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["."]:
        root = Path(arg)
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
