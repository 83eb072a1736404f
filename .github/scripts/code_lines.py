"""Count the code lines of each module in a Python package.

    python .github/scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the repository's src/sparsebeam. A code line is
one that holds a token of code, so blank lines and comment lines do not
count; neither do the lines of a module, class or function docstring,
found with ``ast``. A statement or string that spans several lines counts
each of them. It prints one ``module count`` line per ``*.py`` file, in
name order, then ``total count``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[2] / "src" / "sparsebeam"
_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
})


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, nargs="?", default=DEFAULT_PACKAGE, metavar="PACKAGE_DIR")
    args = parser.parse_args(argv)
    modules = sorted(args.package.glob("*.py"))
    if not modules:
        parser.error(f"no *.py files in {args.package}")
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
