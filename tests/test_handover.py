"""Solvers free a handed-over input before their LAPACK call allocates.

``symmetric_eig``, ``factor_constraint`` and ``psd_factor`` replace an input
that is symmetric only within SYMMETRY_ATOL by its symmetrized copy. When the
caller keeps no reference to the input, it must already be gone when LAPACK
runs: a weak reference to it is dead inside the (spied) numpy call.

Their LinAlgError handling is a ``with _numerical(...)`` block: used as a
decorator, ``_numerical`` would hold the call's arguments, and so the input,
for the whole call. ``src/roweis`` is parsed with ``ast`` to keep it that way.
"""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from roweis import linalg

from conftest import random_psd
from test_dead_code import PACKAGE

SOLVERS = {
    "symmetric_eig": ("eigh",),
    "factor_constraint": ("eigvalsh", "cholesky"),
    "psd_factor": ("eigh",),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_handed_over_input_is_gone_when_lapack_runs(monkeypatch, solver):
    refs, alive = [], []
    for name in SOLVERS[solver]:
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            alive.append(refs[0]() is not None)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)

    def handed_over():
        s = random_psd(np.random.default_rng(8), 30)
        s[0, 1] += 1e-13  # symmetric within SYMMETRY_ATOL, not exactly
        refs.append(weakref.ref(s))
        return s

    getattr(linalg, solver)(handed_over())
    assert len(alive) == len(SOLVERS[solver]) and not any(alive)


def numerical_uses(package: Path) -> list:
    """(file, line) of every reference to ``_numerical`` in the package that
    is not the context expression of a ``with`` item."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(item.context_expr.func) for node in ast.walk(tree) if isinstance(node, ast.With)
                   for item in node.items if isinstance(item.context_expr, ast.Call)}
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Name) and node.id == "_numerical") or (
                isinstance(node, ast.Attribute) and node.attr == "_numerical")
            if named and id(node) not in allowed:
                out.append((path.name, node.lineno))
    return out


def test_a_decorator_use_is_caught(tmp_path):
    (tmp_path / "solver.py").write_text(
        "from . import linalg\nfrom .linalg import _numerical\n\n\n"
        "@_numerical('eig')\ndef eig(a):\n    with _numerical('eig'):\n        return a\n\n\n"
        "@linalg._numerical('svd')\ndef svd(a):\n    return a\n"
    )
    assert numerical_uses(tmp_path) == [("solver.py", 5), ("solver.py", 11)]


def test_numerical_is_used_only_as_a_with_block():
    assert numerical_uses(PACKAGE) == []
