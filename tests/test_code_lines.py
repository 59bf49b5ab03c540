"""scripts/code_lines.py: code lines without docstrings, comments or blanks."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# Code lines are marked "# code" at their end; every other line is a
# docstring line, a comment or blank.
SAMPLE = '''"""A module docstring
over two lines."""

import math  # code

# A comment.


class Box:  # code
    """A class docstring."""

    side = "#"  # code


def area(box):  # code
    """A function docstring

    with a blank line inside it.
    """
    # An indented comment.
    text = """not a docstring:

    """  # code
    "a string after the first statement is code, too"  # code
    return math.prod((box.side,)) or text  # code
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    script = runpy.run_path(str(SCRIPT))
    marked = sum(line.endswith("# code") for line in SAMPLE.splitlines())
    assert marked == 7
    # The first line of a multi-line literal that is not a docstring is
    # code too; its blank line is not.
    assert script["code_lines"](SAMPLE) == marked + 1
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    script["report"](tmp_path)
    assert capsys.readouterr().out == "     0  empty.py\n     8  sample.py\n     8  total\n"
