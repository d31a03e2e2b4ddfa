"""tools/node_memory.py: peak resident memory per grid node."""

import importlib.util
import os
import re

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "node_memory.py")
_SPEC = importlib.util.spec_from_file_location("node_memory", _PATH)
node_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(node_memory)


def test_prints_both_cases_per_node(capsys):
    assert node_memory.main(["4000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "grid",
        "grid + cold solve",
        "warm-up solve at 200 nodes, not counted",
    ]
    for line in lines[:2]:
        per_node, kib = re.fullmatch(
            r".*: (\d+) B/node \(ru_maxrss \+(\d+) KiB at 4000 nodes\)", line
        ).groups()
        assert int(per_node) == round(int(kib) * 1024 / 4000)


@pytest.mark.parametrize("argv", [[], ["1"], ["x"], ["2000", "3"]])
def test_refuses_anything_but_one_node_count(argv, capsys):
    assert node_memory.main(argv) == 2
    assert "usage" in capsys.readouterr().err
