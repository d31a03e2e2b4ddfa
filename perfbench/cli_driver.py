"""Run one solitonscf command with spans recorded.

    python3 perfbench/cli_driver.py SPANS_PATH COMMAND [ARGS...]

The traced cli_session job runs this in place of ``python -m solitonscf``:
it imports the package, installs the benchmark's wrappers, calls
``solitonscf.cli.main(argv)`` and writes its spans to SPANS_PATH once, on
the way out. Its exit code is the command's.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        import solitonscf.cli

        tracer.add("cli.import", STARTED, time.perf_counter())
        tracer.install()
        return solitonscf.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
