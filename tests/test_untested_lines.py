"""tools/untested_lines.py: the statement lines that a test run never runs."""

import os
import subprocess
import sys

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "untested_lines.py")

# 8 statement lines: the module docstring, import, both defs, if, both
# returns of sign and the return of unused; the function docstring and the
# global line compile to no code
MODULE = '''"""Module docstring."""

import os


def sign(x):
    """Function docstring."""
    global _last
    if x > 0:
        return 1
    return -1


def unused():
    return (0,
            1)
'''

TEST = '''from tiny.mod import sign


def test_positive():
    assert sign(2) == 1
'''


def test_lists_each_statement_line_that_no_test_runs(tmp_path):
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_tiny.py").write_text(TEST)
    argv = [sys.executable, _TOOL, "--package", str(package)]
    # the tiny test needs neither plugin, and each costs about a second of
    # imports under the tracer
    argv += ["-q", "-p", "no:cacheprovider", "-p", "no:benchmark"]
    argv += ["-p", "no:hypothesispytest", "test_tiny.py"]
    proc = subprocess.run(
        argv, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    path = os.path.join("tiny", "mod.py")
    assert proc.stdout.splitlines()[-3:] == [
        f"{path}:11", f"{path}:15", "2 of 8 statement lines not run"
    ]
