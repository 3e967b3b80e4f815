"""tools/loc.py's line counts and table, on fixed sources (no git runs here)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring

over three lines."""

import os  # a trailing comment: code

# a comment line


def f(x):
    """One line."""
    text = """a string

    that is not a docstring"""
    return x, text


class C:
    """Two

    lines."""
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_line_counts_once_as_code_docstring_comment_or_blank():
    counts = load_loc().count_lines(SOURCE)
    # blank lines inside docstrings and other strings count as blank
    assert counts == {"code": 6, "docstring": 5, "comment": 1, "blank": 9}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_table_gives_each_module_its_total_and_with_a_revision_the_changes():
    loc = load_loc()
    now = {"a.py": {"code": 5, "docstring": 2, "comment": 1, "blank": 2},
           "b.py": {"code": 1, "docstring": 0, "comment": 0, "blank": 0}}
    assert [line.split() for line in loc.table(now)] == [
        ["module", "code", "docstring", "comment", "blank", "total"],
        ["a.py", "5", "2", "1", "2", "10"],
        ["b.py", "1", "0", "0", "0", "1"],
        ["total", "6", "2", "1", "2", "11"]]
    # a module on one side only counts as zero lines on the other
    before = {"a.py": {"code": 7, "docstring": 1, "comment": 1, "blank": 2},
              "c.py": {"code": 3, "docstring": 0, "comment": 0, "blank": 1}}
    assert [line.split() for line in loc.table(now, before)][1:] == [
        ["a.py", "5", "(-2)", "2", "(+1)", "1", "(+0)", "2", "(+0)", "10", "(-1)"],
        ["b.py", "1", "(+1)", "0", "(+0)", "0", "(+0)", "0", "(+0)", "1", "(+1)"],
        ["c.py", "0", "(-3)", "0", "(+0)", "0", "(+0)", "0", "(-1)", "0", "(-4)"],
        ["total", "6", "(-4)", "2", "(+1)", "1", "(+0)", "2", "(-1)", "11", "(-4)"]]
