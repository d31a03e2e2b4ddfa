"""Property tests of the command line over arbitrary dispersion inputs."""

import json
import math
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from solitonscf.cli import EXIT_OK, EXIT_USAGE, main

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    _FLOATS,
    st.sampled_from(["", "0.158", "nan", "1e400"]),
    st.lists(_FLOATS, max_size=2),
)
_SUMMARIES = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries({"E0_over_m0": _JSON_VALUES}),
    st.dictionaries(st.sampled_from(["", "E0", "a0"]), _JSON_VALUES, max_size=2),
)

_SHORT_TABLE = {"p_min": 0.0, "p_max": 2.0, "p_count": 3}


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(database=None, derandomize=True, deadline=None)
@given(
    source=st.one_of(
        st.tuples(st.just("e0"), _FLOATS),
        st.tuples(st.just("summary"), _SUMMARIES),
    ),
    p_min=_FLOATS,
    p_max=_FLOATS,
    p_count=st.integers(min_value=-2, max_value=64),
)
# P * P overflows, the energy overflows, a summary root that is no object,
# a bool and an integer beyond the float range in place of E0
@example(source=("e0", 1.0), p_min=0.0, p_max=1e200, p_count=3)
@example(source=("e0", 1.5e308), p_min=1.5e308, p_max=1.5e308, p_count=1)
@example(source=("summary", 3), **_SHORT_TABLE)
@example(source=("summary", {"E0_over_m0": True}), **_SHORT_TABLE)
@example(source=("summary", {"E0_over_m0": 10**400}), **_SHORT_TABLE)
def test_dispersion_exits_cleanly_on_any_input(source, p_min, p_max, p_count):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        kind, value = source
        if kind == "e0":
            argv = [f"--e0={value!r}"]
        else:
            path = os.path.join(tmp, "scan_summary.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            argv = ["--from-summary", path]
        code = main(
            ["dispersion"] + argv
            + [f"--p-min={p_min!r}", f"--p-max={p_max!r}", f"--p-count={p_count}"]
            + ["--output-dir", out]
        )
        assert code in (EXIT_OK, EXIT_USAGE)
        if code != EXIT_OK:
            return
        summary_path = os.path.join(out, "dispersion_summary.json")
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_refuse_constant)
        assert summary["rows"] == p_count
        with open(os.path.join(out, "dispersion.csv"), encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        assert header == "P,E_electron,E_positron,L,K,velocity"
        assert len(rows) == p_count
        for row in rows:
            values = [float(cell) for cell in row.split(",")]
            assert len(values) == 6 and all(math.isfinite(v) for v in values)
