"""Count the code lines of each Python module in a directory.

A code line holds at least one token other than a comment, and lies outside
the docstrings of modules, classes and functions.  Blank lines, comment-only
lines and docstring lines do not count; a line that holds code and a comment
does.

Usage: ``python tools/code_lines.py [DIRECTORY]`` (default
``src/factoralign``).  Prints one ``module lines`` row per module, largest
first, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the module at ``path``."""
    source = path.read_text()
    skipped = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/factoralign")
    counts = {path.stem: code_lines(path) for path in sorted(directory.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
