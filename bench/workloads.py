"""Seeded inputs and command plans for the four benchmark workloads.

Each workload is one shape regime of the single problem
``max tr(U' R1 U)  s.t.  U' R2 U = I``:

    tall    n >> d  the n x n label side and the CSV parse dominate
    wide    d >> n  the d x d constraint work dominates
    kernel  n x n   coefficient-space work of the kernel variants
    bundle  many small fits, where fixed per-call cost dominates

The benchmark writes every input CSV itself, from the seed it is given, before
any timing starts; the program receives only these files. A plan is a list of
CLI commands, run in order from the workload's working directory, each with
the files it must leave behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Sizes per workload. The regimes matter, not the exact numbers: tall keeps
# n >> d, wide keeps d >> n, kernel keeps an n x n coefficient space.
TALL = {"d": 50, "n": 4000, "classes": 5}
WIDE = {"d": 800, "n": 100, "classes": 4}
RINGS_N = 700
XOR_N = 4000
BUNDLE = {"reps": 50, "n": 100, "panel_n": 400}

WHY = {
    "tall": "n >> d blobs (d=50, n=4000): the n x n label kernel and the CSV parse dominate primal fits",
    "wide": "d >> n blobs (d=800, n=100): the d x d generalized eigensolve and robustify dominate; dual fit exercises persist",
    "kernel": "rings n=700 kernel fits, 4000 XOR points embedded, kernel sweep: n x n coefficient-space work and Gram builds",
    "bundle": "the experiments bundle (50 reps, n=100, 400-point panels): about 900 small fits, fixed per-call cost",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its kind (the subcommand), argv and output files."""

    cid: str
    kind: str
    argv: tuple
    outputs: tuple


def _write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """Rows are samples; floats use the shortest round-trip repr."""
    d, n = x.shape
    lines = [",".join([f"f{i + 1}" for i in range(d)] + ["label"])]
    cols = x.T.tolist()
    for j in range(n):
        lines.append(",".join(map(repr, cols[j])) + f",{int(y[j])}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def blobs(rng: np.random.Generator, d: int, n: int, classes: int):
    """Gaussian class blobs: unit-variance noise around N(0, 1.5^2) class means."""
    means = 1.5 * rng.standard_normal((d, classes))
    y = rng.permutation(np.arange(n) % classes)
    x = means[:, y] + rng.standard_normal((d, n))
    return x, y


def rings(rng: np.random.Generator, n: int):
    """Two concentric rings, radii 1 and 3, radial noise 0.1."""
    y = rng.permutation(np.arange(n) % 2)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = np.where(y == 0, 1.0, 3.0) + 0.1 * rng.standard_normal(n)
    return np.vstack([radius * np.cos(angle), radius * np.sin(angle)]), y


def xor(rng: np.random.Generator, n: int):
    """Points in [-1, 1]^2 outside a 0.05 band round the axes; class = sign XOR."""
    x = rng.uniform(0.05, 1.0, (2, n)) * np.where(rng.integers(0, 2, (2, n)) == 0, 1.0, -1.0)
    y = ((x[0] > 0) != (x[1] > 0)).astype(int)
    return x, y


def _fit(cid: str, data: str, out: str, *flags) -> Command:
    argv = ("fit", "--data", data, "--label-col", "label", *flags, "--out", out)
    return Command(cid, "fit", argv, (out, out + ".manifest.json"))


def _apply(cid: str, kind: str, model: str, data: str, out: str) -> Command:
    argv = (kind, "--model", model, "--data", data, "--label-col", "label", "--out", out)
    return Command(cid, kind, argv, (out, out + ".manifest.json"))


def tall(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    _write_csv(os.path.join(workdir, "tall.csv"), *blobs(rng, TALL["d"], TALL["n"], TALL["classes"]))
    return [
        _fit("fit_00", "tall.csv", "m00.txt", "--r1", "0", "--r2", "0"),
        _fit("fit_10", "tall.csv", "m10.txt", "--r1", "1", "--r2", "0"),
        _fit("fit_01", "tall.csv", "m01.txt", "--r1", "0", "--r2", "1"),
        _fit("fit_11", "tall.csv", "m11.txt", "--r1", "1", "--r2", "1"),
        _fit("fit_rob", "tall.csv", "mrob.txt", "--r1", "0.5", "--r2", "0.5", "--robust"),
        _apply("transform_rob", "transform", "mrob.txt", "tall.csv", "emb_rob.csv"),
    ]


def wide(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    _write_csv(os.path.join(workdir, "wide.csv"), *blobs(rng, WIDE["d"], WIDE["n"], WIDE["classes"]))
    return [
        _fit("fit_00", "wide.csv", "m00.txt", "--r1", "0", "--r2", "0"),
        _fit("fit_11", "wide.csv", "m11.txt", "--r1", "1", "--r2", "1"),
        _fit("fit_rob", "wide.csv", "mrob.txt", "--r1", "0.5", "--r2", "0.5", "--robust"),
        _fit("fit_dual", "wide.csv", "mdual.txt", "--variant", "dual", "--r1", "0.5"),
        _apply("transform_dual", "transform", "mdual.txt", "wide.csv", "emb_dual.csv"),
        _apply("reconstruct_dual", "reconstruct", "mdual.txt", "wide.csv", "rec_dual.csv"),
        _apply("transform_11", "transform", "m11.txt", "wide.csv", "emb_11.csv"),
        _apply("reconstruct_11", "reconstruct", "m11.txt", "wide.csv", "rec_11.csv"),
    ]


def kernel(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 3])
    _write_csv(os.path.join(workdir, "rings.csv"), *rings(rng, RINGS_N))
    _write_csv(os.path.join(workdir, "xor.csv"), *xor(rng, XOR_N))
    sweep = ("sweep", "--data", "rings.csv", "--label-col", "label", "--variant", "kernel",
             "--grid", "3", "--seed", str(seed), "--out", "sweep.csv")
    return [
        _fit("fit_direct", "rings.csv", "mdirect.txt", "--variant", "kernel", "--r1", "0.5", "--r2", "0.5"),
        _fit("fit_kpca", "rings.csv", "mkpca.txt", "--variant", "kernel-pca"),
        _fit("fit_kspca", "rings.csv", "mkspca.txt", "--variant", "kernel-spca"),
        _apply("transform_kpca", "transform", "mkpca.txt", "xor.csv", "emb_kpca.csv"),
        _apply("transform_direct", "transform", "mdirect.txt", "xor.csv", "emb_direct.csv"),
        Command("sweep", "sweep", sweep, ("sweep.csv", "sweep.csv.manifest.json")),
    ]


def bundle(seed: int, workdir: str) -> list:
    argv = ("experiments", "--out-dir", "results", "--reps", str(BUNDLE["reps"]), "--n", str(BUNDLE["n"]),
            "--panel-n", str(BUNDLE["panel_n"]), "--seed", str(seed))
    panels = tuple(
        f"results/panels/{name}_r1_{r1:g}_r2_{r2:g}.csv"
        for name in ("xor", "rings") for r1 in (0.0, 0.5, 1.0) for r2 in (0.0, 0.5, 1.0)
    )
    outputs = ("results/regression_table.csv", "results/regression_table.txt", "results/run.manifest.json") + panels
    return [Command("experiments", "experiments", argv, outputs)]


PLANS = {"tall": tall, "wide": wide, "kernel": kernel, "bundle": bundle}
