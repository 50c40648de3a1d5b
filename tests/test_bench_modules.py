"""The traced bench replay (``bench/trace_replay.py``) imports every module in
its ``MODULES`` tuple. A module deleted or renamed in the package fails here,
in the unit tests, instead of crashing ``bench/run.py --trace 1``. The bench
script is parsed, not imported, so its own imports play no part.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_REPLAY = Path(__file__).resolve().parents[1] / "bench" / "trace_replay.py"


def traced_modules() -> tuple:
    for node in ast.parse(TRACE_REPLAY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "MODULES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE_REPLAY.name} assigns no MODULES tuple")


def test_the_replay_names_modules():
    assert len(traced_modules()) >= 1


@pytest.mark.parametrize("name", traced_modules())
def test_traced_module_imports(name):
    importlib.import_module(f"roweis.{name}")
