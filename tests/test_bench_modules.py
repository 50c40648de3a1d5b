"""The traced bench replay (``bench/trace_replay.py``) imports every module in
its ``MODULES`` tuple, and reads span attributes off the results of the
functions its ``ATTRS`` table names. A module deleted or renamed in the
package, or a function whose result no longer has the shape its reader
takes apart, fails here, in the unit tests, instead of crashing
``bench/run.py --trace 1``. The bench script is parsed, not imported, so its
own imports play no part: the readers are compiled from its source alone.
"""

import ast
import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from roweis import datasets, kernels, linalg, rda
from roweis.rda import RoweisConfig

from conftest import moments

TRACE_REPLAY = Path(__file__).resolve().parents[1] / "bench" / "trace_replay.py"
TREE = ast.parse(TRACE_REPLAY.read_text())


def _assigned(name: str) -> ast.expr:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACE_REPLAY.name} assigns no {name}")


def traced_modules() -> tuple:
    return ast.literal_eval(_assigned("MODULES"))


def attrs_readers() -> dict:
    """{traced function name: its reader}, the readers compiled from the
    script's own definitions."""
    table = _assigned("ATTRS")
    names = {ast.literal_eval(key): value.id for key, value in zip(table.keys, table.values)}
    defs = [node for node in TREE.body if isinstance(node, ast.FunctionDef) and node.name in names.values()]
    namespace = {"os": os}
    exec(compile(ast.Module(body=defs, type_ignores=[]), str(TRACE_REPLAY), "exec"), namespace)
    return {name: namespace[reader] for name, reader in names.items()}


def _wrapped(name: str) -> bool:
    """Whether the replay can wrap ``name``: it wraps only functions that exist."""
    module, attr = name.split(".")
    return callable(getattr(importlib.import_module(f"roweis.{module}"), attr, None))


def _blobs():
    rng = np.random.default_rng(0)
    y = np.arange(12) % 3
    return rng.standard_normal((2, 12)) + 3.0 * y, y


# A real call of each function ATTRS reads: (args, kwargs) from a scratch directory.
def _load_csv_call(tmp_path):
    path = tmp_path / "data.csv"
    datasets.save_csv(path, *_blobs())
    return (str(path), "label"), {}


def _generalized_eig_call(tmp_path):
    x, y = _blobs()
    xc = x - x.mean(axis=1, keepdims=True)
    return (xc @ xc.T, linalg.factor_constraint(rda.constraint(moments(x, y), 0.5))), {}


def _save_model_call(tmp_path):
    return (rda.fit(*_blobs(), RoweisConfig(0.5, 0.5)), str(tmp_path / "model.txt")), {}


CALLS = {
    "datasets.load_csv": _load_csv_call,
    "kernels.label_gram": lambda tmp_path: ((kernels.KernelSpec("rbf", gamma=0.5), _blobs()[1], _blobs()[1]), {}),
    "kernels.gram": lambda tmp_path: ((kernels.KernelSpec("linear"), _blobs()[0], _blobs()[0]), {}),
    "linalg.generalized_eig": _generalized_eig_call,
    "rda.fit": lambda tmp_path: ((*_blobs(), RoweisConfig(0.5, 0.5)), {}),
    "kernel_rda.fit_direct": lambda tmp_path: (
        (*_blobs(), RoweisConfig(0.5, 0.5), kernels.KernelSpec("rbf", gamma=0.5)), {}),
    "persist.save_model": _save_model_call,
}

READ = sorted(name for name in attrs_readers() if _wrapped(name))


def test_the_replay_names_modules():
    assert len(traced_modules()) >= 1


@pytest.mark.parametrize("name", traced_modules())
def test_traced_module_imports(name):
    importlib.import_module(f"roweis.{name}")


def test_every_read_function_has_a_call_here():
    # A name whose function is gone is never wrapped, so its reader never runs.
    assert READ and set(READ) <= set(CALLS)


@pytest.mark.parametrize("name", READ)
def test_attrs_reader_takes_its_functions_result(name, tmp_path):
    module, attr = name.split(".")
    args, kwargs = CALLS[name](tmp_path)
    result = getattr(importlib.import_module(f"roweis.{module}"), attr)(*args, **kwargs)
    attrs = attrs_readers()[name](args, kwargs, result)
    assert attrs and all(isinstance(value, int) and value >= 0 for value in attrs.values())
