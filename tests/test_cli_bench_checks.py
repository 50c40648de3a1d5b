"""Every fit variant, run through the CLI, passes the benchmark's output checks.

``bench/checks.py`` rebuilds each model's problem densely in plain numpy and
checks the model against it (constraint and eigen-equation residuals, the
stored spectrum being the top of the full one) and each embedding or
reconstruction against a recomputation from the model file. It is imported
here by path, so a model file the benchmark would refuse fails in the unit
tests first. The data are class blobs on both sides of d = n.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from roweis.cli import main

CHECKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    # No bytecode cache is written under bench/.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


checks = _load_checks()

# (d, n, classes)
SHAPES = {"d<n": (6, 40, 3), "d>n": (60, 20, 4)}
VARIANTS = {
    "primal": ("--r1", "0.5", "--r2", "0.5"),
    "primal robust": ("--r1", "0.5", "--r2", "0.5", "--robust"),
    "dual": ("--variant", "dual", "--r1", "0.5"),
    "kernel": ("--variant", "kernel", "--r1", "0.5", "--r2", "0.5"),
    "kernel-pca": ("--variant", "kernel-pca"),
    "kernel-spca": ("--variant", "kernel-spca"),
}


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_blobs(path, d: int, n: int, classes: int, seed: int):
    """Gaussian class blobs as the benchmark writes them: one row per
    sample, shortest round-trip floats, an integer label column last."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % classes)
    x = 1.5 * rng.standard_normal((d, classes))[:, y] + rng.standard_normal((d, n))
    lines = [",".join([f"f{i + 1}" for i in range(d)] + ["label"])]
    lines += [",".join(map(repr, col)) + f",{label}" for col, label in zip(x.T.tolist(), y)]
    path.write_text("\n".join(lines) + "\n")
    return x, y


@pytest.mark.parametrize("p", [None, 50], ids=["p=None", "p above the rank"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cli_outputs_pass_the_bench_checks(tmp_path, variant, shape, p):
    data = tmp_path / "blobs.csv"
    x, y = write_blobs(data, *SHAPES[shape], seed=11)
    model = tmp_path / "model.txt"
    p_flag = () if p is None else ("--p", p)
    assert run("fit", "--data", data, "--label-col", "label", *VARIANTS[variant], *p_flag,
               "--out", model) == 0
    problems, fingerprint = checks.check_model(str(model), x, y)
    assert problems == []
    assert fingerprint["dims"][0] >= 1

    kinds = ["transform"] if variant.startswith("kernel") else ["transform", "reconstruct"]
    for kind in kinds:
        out = tmp_path / f"{kind}.csv"
        assert run(kind, "--model", model, "--data", data, "--label-col", "label", "--out", out) == 0
        problems, _ = checks.check_apply(str(out), str(model), x, kind == "reconstruct")
        assert problems == []
