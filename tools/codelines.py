"""Count the physical and code lines of the tenfact package.

A code line holds at least one token other than a comment; blank lines,
comment-only lines and the lines of module, class and function docstrings
are not code.  A token that spans lines, such as a multi-line string,
makes each of its lines a code line.  Uses only the standard library and,
for ``--against``, git:

    python tools/codelines.py            # every module of src/tenfact
    python tools/codelines.py DIR_OR_FILE ...
    python tools/codelines.py --against REV [DIR_OR_FILE ...]

``--against REV`` adds each file's physical and code delta against the git
revision ``REV``, whose copy is read through ``git show REV:path``.  A file
that ``REV`` lacks had no lines there, and one deleted since ``REV`` has
none now; the total row sums the deltas too.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source, name="<source>"):
    """``(physical, code)`` line counts of one Python source, given as bytes."""
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    code = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source, filename=name))
    return len(source.splitlines()), len(code)


def count(path):
    """``(physical, code)`` line counts of one Python source file."""
    return count_source(path.read_bytes(), str(path))


def _git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def revision_files(target, rev):
    """The ``.py`` files under ``target``, a directory or a file, as they
    were at ``rev``, named by their paths in the working tree."""
    base, spec = (target, ".") if target.is_dir() else (target.parent, target.name)
    names = _git(base, "ls-tree", "-r", "--name-only", rev, "--", spec).decode().splitlines()
    return {base / n for n in names if n.endswith(".py")}


def revision_count(path, rev):
    """``count`` of ``path`` as it was at ``rev``."""
    return count_source(_git(path.parent, "show", f"{rev}:./{path.name}"), f"{rev}:{path}")


def _row(numbers):
    physical, code, *delta = numbers
    return f"{physical:9d} {code:6d}" + "".join(f" {d:+6d}" for d in delta)


def main(argv):
    parser = argparse.ArgumentParser(description="Count physical and code lines.")
    parser.add_argument("targets", nargs="*", type=Path, help="directories or files")
    parser.add_argument("--against", metavar="REV", help="also print deltas against REV")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    targets = [t.resolve() for t in args.targets] or [root / "src" / "tenfact"]
    files = {f for t in targets for f in ([t] if t.is_file() else t.rglob("*.py"))}
    old = set()
    if args.against:
        try:
            old = {f for t in targets for f in revision_files(t, args.against)}
        except subprocess.CalledProcessError as exc:
            sys.exit(f"codelines: {exc.stderr.decode().strip()}")
    totals = [0] * (4 if args.against else 2)
    delta = f" {'dphys':>6} {'dcode':>6}" if args.against else ""
    print(f"{'physical':>9} {'code':>6}{delta}  file")
    for f in sorted(files | old):
        row = list(count(f) if f in files else (0, 0))
        if args.against:
            was = revision_count(f, args.against) if f in old else (0, 0)
            row += [row[0] - was[0], row[1] - was[1]]
        totals = [t + x for t, x in zip(totals, row)]
        print(_row(row) + f"  {f.relative_to(root) if f.is_relative_to(root) else f}")
    print(_row(totals) + "  total")


if __name__ == "__main__":
    main(sys.argv[1:])
