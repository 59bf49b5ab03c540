#!/usr/bin/env python3
"""Code lines of each module of ``src/lrq``, and their total.

A code line is a line of the source that is not blank, not a comment (its
text starts with "#" once stripped) and not part of a docstring.  The
docstrings are found with ``ast``: the string literal that opens a module,
class or function body, over every line it spans.  Comments are found by
the line text alone, so a line inside another multi-line string literal
that starts with "#" also counts as a comment.

    python scripts/code_lines.py
"""

import ast
from pathlib import Path

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source `source`."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def report(directory: Path) -> None:
    """Print the code lines of each ``*.py`` file in `directory`, then the total."""
    total = 0
    for path in sorted(directory.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:>6}  {path.name}")
    print(f"{total:>6}  total")


def main() -> None:
    report(Path(__file__).resolve().parents[1] / "src" / "lrq")


if __name__ == "__main__":
    main()
