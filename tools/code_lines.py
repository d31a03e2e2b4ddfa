"""Count the code lines of each module of src/solitonscf.

A code line is a physical line that holds part of a token other than a
comment, and is not part of a docstring (the leading string of a module,
class or function). Blank lines, comment lines and docstrings are not
counted. This is how ROADMAP.md counts the package's size.

Run from the repo root:

    python3 tools/code_lines.py [PATH ...]

With no PATH it counts every module of src/solitonscf; a PATH may be a
file or a directory of .py files. It prints one line per module, then the
total. Only the standard library is used.
"""

import ast
import io
import os
import sys
import tokenize

_SKIPPED = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines in the Python file at path."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, path)))


def _modules(paths):
    for path in paths:
        if os.path.isdir(path):
            names = sorted(n for n in os.listdir(path) if n.endswith(".py"))
            yield from (os.path.join(path, name) for name in names)
        else:
            yield path


def main(argv=None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = (argv if argv is not None else sys.argv[1:]) or [
        os.path.join(root, "src", "solitonscf")
    ]
    total = 0
    for path in _modules(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
