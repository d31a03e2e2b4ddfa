"""Print each statement line of src/solitonscf that no test runs.

No coverage package is needed. The script starts a sys.settrace line
tracer before the package is imported, runs pytest in this process, and
compares the lines that ran with each module's statement lines. A
statement line is the first line of a statement that compiles to code, so
docstrings and ``global`` lines are not counted.

Run from the repo root:

    PYTHONPATH=src python3 tools/untested_lines.py [--package DIR] [PYTEST_ARG ...]

DIR defaults to src/solitonscf and the pytest arguments to ``-q tests``.
It prints pytest's own report, then one ``path:line`` per statement line
that never ran, then the count. Lines that run only in a child process
(the tests that start ``python -m solitonscf``) are not seen and are
listed as not run. The tracer makes the suite slower, about twice as
slow for this repo's tests. pytest's installed plugins (its ``pytest11``
entry points) are imported before the tracer starts, since their imports
run no line of the package. Only the standard library is used, and pytest.
"""

import ast
import os
import sys
import threading
import types
from importlib.metadata import entry_points


def statement_lines(path: str) -> set:
    """The first lines of the statements in the file at path that compile
    to code."""
    with open(path, "rb") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    compiled, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & compiled


def lines_run(package: str, pytest_args) -> tuple:
    """pytest's exit code and the (path, line) pairs that ran in the .py
    files under package while pytest ran pytest_args in this process."""
    root = os.path.join(os.path.abspath(package), "")
    ran = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        # trace line events only in the package's own frames
        return line_tracer if frame.f_code.co_filename.startswith(root) else None

    import pytest

    for plugin in entry_points(group="pytest11"):
        plugin.load()
    # pytest cannot rewrite the asserts of a plugin imported before it runs,
    # and says so; the plugins hold no test
    quiet = ["-W", "ignore::pytest.PytestAssertRewriteWarning"]
    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(quiet + list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "solitonscf")
    if argv[:1] == ["--package"]:
        package, argv = argv[1], argv[2:]
    code, ran = lines_run(package, argv or ["-q", "tests"])
    missed = total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.abspath(os.path.join(package, name))
        lines = statement_lines(path)
        total += len(lines)
        for line in sorted(lines - {line for file, line in ran if file == path}):
            missed += 1
            print(f"{os.path.relpath(path)}:{line}")
    print(f"{missed} of {total} statement lines not run")
    # 0 and 1 (some tests failed) are runs; any other code is pytest's error
    return 0 if code in (0, 1) else int(code)


if __name__ == "__main__":
    sys.exit(main())
