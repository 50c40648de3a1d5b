"""Desk-scale experiment runners shared by the CLI and the acceptance suite.

The regression benchmark table repeatedly samples each benchmark, splits
70/30, embeds to two dimensions with the linear and the kernelized method at
several supervision settings (r2 = 0 throughout, since the regression targets
cannot feed the within-class scatter), fits a linear regression on the
training embedding, and aggregates test RMSE over repetitions.

The embedding panels fit the kernelized method on the two synthetic
classification sets over the 3 x 3 grid of mixing factors and export the
leading embedding dimensions of the train and test splits.

Both, and the CLI sweep, fit and embed a split's whole grid with
:func:`grid_embeddings`, which resolves each bandwidth and builds each label
term once per split; the results are those of one fit per grid point, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datasets, evaluate, kernel_rda, kernels, rda
from .exceptions import ConfigError

BENCH_R1_VALUES = (0.0, 0.5, 1.0)
PANEL_R_VALUES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class BenchCell:
    method: str  # linear | kernel
    r1: float
    bench_id: int
    report: evaluate.EvalReport


def _cell_seed(base_seed: int, bench_id: int, rep: int) -> int:
    seq = np.random.SeedSequence([datasets._checked_seed(int(base_seed)), int(bench_id), int(rep)])
    return int(seq.generate_state(1)[0])


def grid_embeddings(variant, train, test, configs, data_kernel) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) embeddings of every config, from one grid fit on the
    training split: :func:`roweis.rda.fit_grid` for the primal variant,
    :func:`roweis.kernel_rda.fit_direct_grid` with ``data_kernel`` for the
    kernel one."""
    if variant == "primal":
        models = rda.fit_grid(train.X, train.y, configs)
        return [(rda.project(model, train.X), rda.project(model, test.X)) for model in models]
    models = kernel_rda.fit_direct_grid(train.X, train.y, configs, data_kernel)
    return list(zip(kernel_rda.project_grid(models, train.X), kernel_rda.project_grid(models, test.X)))


def _split_rmse(train, test, r1_values) -> list[tuple[str, float, float]]:
    """(method, r1, test RMSE) of every method and r1 on one split; the RBF
    label bandwidth is resolved once for both methods."""
    label_kernel = kernels.resolve_label_kernel(kernels.KernelSpec(family="rbf"), train.y)
    configs = [rda.RoweisConfig(r1=r1, r2=0.0, p=2, label_kernel=label_kernel) for r1 in r1_values]
    return [
        (method, config.r1, evaluate.linear_regression_rmse(emb_train, train.y, emb_test, test.y).value)
        for method, variant in (("linear", "primal"), ("kernel", "kernel"))
        for config, (emb_train, emb_test) in zip(
            configs, grid_embeddings(variant, train, test, configs, kernels.KernelSpec(family="rbf")))
    ]


def regression_benchmark_table(
    bench_ids=(1, 2, 3),
    r1_values=BENCH_R1_VALUES,
    repetitions: int = 50,
    n: int = 100,
    train_fraction: float = 0.7,
    base_seed: int = 0,
) -> list[BenchCell]:
    """Mean and spread of test RMSE per (method, r1, benchmark) cell."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    cells: dict[tuple, list] = {
        (method, r1, b): [] for method in ("linear", "kernel") for r1 in r1_values for b in bench_ids
    }
    for bench_id in bench_ids:
        for rep in range(repetitions):
            seed = _cell_seed(base_seed, bench_id, rep)
            ds = datasets.gen_regression_benchmark(bench_id, n, seed)
            train, test = datasets.train_test_split(ds, train_fraction, seed)
            for method, r1, value in _split_rmse(train, test, r1_values):
                cells[(method, r1, bench_id)].append(value)
    return [
        BenchCell(method, r1, b, evaluate.EvalReport.from_values("rmse", values))
        for (method, r1, b), values in cells.items()
    ]


def benchmark_table_lines(cells: list[BenchCell]) -> list[str]:
    """Aligned text rows: one line per (method, r1), one column per benchmark."""
    bench_ids = sorted({c.bench_id for c in cells})
    lookup = {(c.method, c.r1, c.bench_id): c.report for c in cells}
    header = f"{'method':<8} {'r1':>4}  " + "  ".join(f"{'benchmark ' + str(b):>17}" for b in bench_ids)
    lines = [header]
    for method in ("linear", "kernel"):
        for r1 in sorted({c.r1 for c in cells if c.method == method}):
            row = f"{method:<8} {r1:>4.2f}  "
            row += "  ".join(
                f"{lookup[(method, r1, b)].mean:>8.3f} +- {lookup[(method, r1, b)].std:<5.3f}"
                for b in bench_ids
            )
            lines.append(row)
    return lines


@dataclass(frozen=True)
class Panel:
    dataset: str
    r1: float
    r2: float
    train_emb: np.ndarray
    test_emb: np.ndarray
    train_y: np.ndarray
    test_y: np.ndarray


def embedding_panels(
    dataset_name: str,
    n: int = 400,
    seed: int = 7,
    train_fraction: float = 0.7,
    r_values=PANEL_R_VALUES,
) -> list[Panel]:
    """Two-dimensional kernel embeddings over the mixing-factor grid.

    Both datasets have two classes. At r2 = 1 the rank cap is one (class
    count minus one), and at r1 = 1 the objective has rank one, so those
    panels carry a single embedding row.
    """
    if dataset_name == "xor":
        ds = datasets.gen_xor(n, seed)
    elif dataset_name == "rings":
        ds = datasets.gen_rings(n, seed)
    else:
        raise ConfigError(f"unknown panel dataset {dataset_name!r}")
    train, test = datasets.train_test_split(ds, train_fraction, seed)
    configs = [rda.RoweisConfig(r1=r1, r2=r2, p=2) for r1 in r_values for r2 in r_values]
    return [
        Panel(dataset_name, config.r1, config.r2, train_emb, test_emb, train.y, test.y)
        for config, (train_emb, test_emb) in zip(
            configs, grid_embeddings("kernel", train, test, configs, kernels.KernelSpec(family="rbf")))
    ]
