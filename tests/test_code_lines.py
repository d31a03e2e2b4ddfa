"""tools/code_lines.py: code lines without docstrings, comments or blanks."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 8 code lines: import, def, both lines of the string that is not a
# docstring, both lines of the return, class and y = 1
FIXTURE = '''"""Module docstring
spanning two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    s = """not a
docstring"""
    return (x,
            s)


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''


@pytest.fixture
def package(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n\n# end\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    return tmp_path


def test_counts_code_lines_only(package):
    assert code_lines.code_lines(str(package / "a.py")) == 8


def test_prints_each_module_and_the_total(package, capsys):
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     8  a.py", "     1  b.py", "     9  total", ""
    ]
