"""Tests of the line counter in ``tools/codelines.py``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

# Code lines: 5 (trailing comment), 8, 11, 14-15 (a multi-line string that
# is not a docstring) and 16.  Not code: the docstrings on lines 1-2, 9 and
# 12-13, the comment on line 4 and the blank lines.
FIXTURE = '''\
"""Module docstring
on two lines."""

# a comment-only line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        text = """a multi-line
string that is not a docstring"""
        return text
'''


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_fixture(codelines, tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert codelines.count(path) == (16, 6)


def test_main_total_is_sum_of_files(codelines, tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "small.py").write_text("x = 1\n\n# note\ny = [\n    2,\n]\n")
    codelines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    files, total = rows[:-1], rows[-1]
    assert [Path(r[2]).name for r in files] == ["fixture.py", "small.py"]
    assert [(int(r[0]), int(r[1])) for r in files] == [(16, 6), (6, 4)]
    assert total[2] == "total"
    sums = tuple(sum(int(r[col]) for r in files) for col in (0, 1))
    assert (int(total[0]), int(total[1])) == sums == (22, 10)


def test_against_prints_deltas_from_a_git_revision(codelines, tmp_path, capsys):
    """Each file's counts now and their change since the revision: a file
    the revision lacks counts from zero, a deleted one down to zero."""

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    git("init", "-q")
    (pkg / "kept.py").write_text("x = 1\n\n# note\n")
    (pkg / "gone.py").write_text("y = 2\nz = 3\n")
    git("add", "-A")
    git("commit", "-qm", "old")
    (pkg / "kept.py").write_text(FIXTURE)
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("w = [\n    4,\n]\n")
    codelines.main(["--against", "HEAD", str(pkg)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(Path(r[4]).name, *map(int, r[:4])) for r in rows[:-1]] == [
        ("gone.py", 0, 0, -2, -2),
        ("kept.py", 16, 6, 13, 5),
        ("new.py", 3, 3, 3, 3),
    ]
    assert rows[-1] == ["19", "9", "+14", "+6", "total"]
    with pytest.raises(SystemExit, match="^codelines: "):
        codelines.main(["--against", "no-such-rev", str(pkg)])
