"""Count the physical and code lines of the tenfact package.

A code line holds at least one token other than a comment; blank lines,
comment-only lines and the lines of module, class and function docstrings
are not code.  A token that spans lines, such as a multi-line string,
makes each of its lines a code line.  Uses only the standard library:

    python tools/codelines.py            # every module of src/tenfact
    python tools/codelines.py DIR_OR_FILE ...
"""

import ast
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


def count(path):
    """``(physical, code)`` line counts of one Python source file."""
    source = path.read_bytes()
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    code = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source, filename=str(path)))
    return len(source.splitlines()), len(code)


def main(argv):
    root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv] or [root / "src" / "tenfact"]
    files = sorted(f for t in targets for f in ([t] if t.is_file() else t.rglob("*.py")))
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for f in files:
        physical, code = count(f)
        total_physical += physical
        total_code += code
        print(f"{physical:9d} {code:6d}  {f.relative_to(root) if f.is_relative_to(root) else f}")
    print(f"{total_physical:9d} {total_code:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
