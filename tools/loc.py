"""Code, docstring, comment and blank lines of each module of src/sceneplan.

    python3 tools/loc.py [--against REV]

Each line of a module is counted once: a blank line if it holds only
whitespace, wherever it lies; else a docstring line if it lies in the string
that opens the module, a class or a function (``ast``); else a code line if
it holds any token but a comment (``tokenize``), so a line of code with a
trailing comment is code, and so is a line inside any other string; else a
comment line. The four counts add up to ``wc -l``. With --against REV the modules of REV's
src/sceneplan (read with ``git show``) are counted too, and each count is
printed with its change from REV; a module on one side only counts as zero
lines on the other.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/sceneplan"
KINDS = ("code", "docstring", "comment", "blank")
COLUMNS = (*KINDS, "total")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The number of ``source``'s lines of each kind of ``KINDS``."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), 1):
        kind = ("blank" if not line.strip() else "docstring" if n in docs else
                "code" if n in code else "comment")
        counts[kind] += 1
    return counts


def rows(counts: dict, names) -> dict:
    """Each module of ``names`` (zero lines if ``counts`` lacks it) and the
    ``total`` row, each with its counts of ``COLUMNS``."""
    out = {}
    for name in names:
        row = counts.get(name, dict.fromkeys(KINDS, 0))
        out[name] = {**row, "total": sum(row.values())}
    out["total"] = {column: sum(row[column] for row in out.values()) for column in COLUMNS}
    return out


def table(counts: dict, before: dict | None = None) -> list[str]:
    """One line per module of ``counts`` (module name to ``count_lines``),
    then their total; with ``before`` (the same for another tree), each
    count is followed by its change from there."""
    names = sorted(counts.keys() | (before or {}).keys())
    now, then = rows(counts, names), before is not None and rows(before, names)
    width = 10 if before is None else 16
    lines = [f"{'module':16}" + "".join(f"{column:>{width}}" for column in COLUMNS)]
    for name, row in now.items():
        cells = [f"{row[c]}" + (f" ({row[c] - then[name][c]:+d})" if then else "")
                 for c in COLUMNS]
        lines.append(f"{name:16}" + "".join(f"{cell:>{width}}" for cell in cells))
    return lines


def tree_counts() -> dict:
    return {path.name: count_lines(path.read_text())
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def rev_counts(rev: str) -> dict:
    names = [name for name in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
             if name.endswith(".py")]
    return {name: count_lines(git("show", f"{rev}:{PACKAGE}/{name}")) for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="a git revision to compare with")
    args = parser.parse_args()
    print("\n".join(table(tree_counts(), args.against and rev_counts(args.against))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
