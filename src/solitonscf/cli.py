"""Command line: ``main``, which runs one command through ``front.main``.

``python -m solitonscf`` and the installed ``solitonscf`` command enter at
``solitonscf.front``, which holds the parser, the exit codes and all four
commands (scan, solve, dispersion and trial-eval) and imports numpy only
inside ``scan`` and a ``solve`` that it does not certify. ``main``, the one
export here, hands any command to ``front.main``, so in-process callers
take the same path as the command line. The exit codes, OUTPUT_DIR_ENV,
build_parser and main_entry are front's: import them from there.

Importing this module loads every layer of the package, numpy's too.

The output directory resolves flag first, then the SOLITONSCF_OUTPUT_DIR
environment variable, then the config file, then the current directory.
All artifacts are deterministic; rerunning a command with the same inputs
reproduces byte-identical files.
"""

from typing import List, Optional

# scan loads solver, model and functional: a caller that imports this module
# finds every layer in sys.modules, as a tracer that wraps them needs
from . import front, scan

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command through the front, as ``python -m solitonscf`` does."""
    return front.main(argv)
