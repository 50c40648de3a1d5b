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
for bit. The table and the sweep score it with :func:`grid_scores`, the
one caller of :mod:`roweis.evaluate`.

The table's splits are independent, each seeded on its own, so they run
side by side, one process per CPU in this process's affinity (see
:func:`_map`), and are merged back in split order: every output is
byte-identical to a run on one CPU. The table runs as a plain loop on one
CPU, where ``os.fork`` or ``os.sched_getaffinity`` is missing, and in a
process that already runs a second thread, which a fork could deadlock. The
panels are two unequal fits and stay in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datasets, evaluate, kernel_rda, kernels, rda
from ._util import as_number
from .exceptions import ConfigError

BENCH_IDS = (1, 2, 3)
BENCH_R1_VALUES = (0.0, 0.5, 1.0)
PANEL_R_VALUES = (0.0, 0.5, 1.0)
# Share of each sample that the table and the panels train on.
TRAIN_FRACTION = 0.7


@dataclass(frozen=True)
class BenchCell:
    """Test RMSE of one (method, r1, benchmark) cell: the value of each
    repetition, their mean and their population standard deviation."""

    method: str  # linear | kernel
    r1: float
    bench_id: int
    values: tuple
    mean: float
    std: float


def _cell_seed(base_seed: int, bench_id: int, rep: int) -> int:
    seq = np.random.SeedSequence([datasets._checked_seed(base_seed), bench_id, rep])
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


def grid_scores(variant, train, test, configs, data_kernel) -> list[float]:
    """The test score of every config's :func:`grid_embeddings`: the 1-NN
    error rate on a classification split, the OLS RMSE otherwise."""
    score = evaluate.knn_classify if train.kind == "classification" else evaluate.linear_regression_rmse
    return [score(emb_train, train.y, emb_test, test.y)
            for emb_train, emb_test in grid_embeddings(variant, train, test, configs, data_kernel)]


def _split_rmse(job) -> list[float]:
    """Test RMSE of the linear, then the kernel method at each r1 of
    BENCH_R1_VALUES, on the split that ``job = (bench_id, n, seed)`` draws;
    the RBF label bandwidth is resolved once for both methods."""
    bench_id, n, seed = job
    ds = datasets.gen_regression_benchmark(bench_id, n, seed)
    train, test = datasets.train_test_split(ds, TRAIN_FRACTION, seed)
    label_kernel = kernels.resolve_label_kernel(kernels.KernelSpec(family="rbf"), train.y)
    configs = [rda.RoweisConfig(r1=r1, r2=0.0, p=2, label_kernel=label_kernel) for r1 in BENCH_R1_VALUES]
    return [score for variant in ("primal", "kernel")
            for score in grid_scores(variant, train, test, configs, kernels.KernelSpec(family="rbf"))]


def _leading(fn, jobs: list, first: int, step: int) -> dict:
    """{index: fn(jobs[index])} over ``range(first, len(jobs), step)``, up to
    the first job that raises."""
    done = {}
    for index in range(first, len(jobs), step):
        try:
            done[index] = fn(jobs[index])
        except Exception:  # the caller runs this job again in order, and raises its error there
            break
    return done


def _map(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, on one process per CPU in this process's
    affinity.

    With w workers, the parent forks w - 1 children; child k computes
    ``jobs[k::w]``, sends its pickled results down its own pipe and leaves
    by ``os._exit``, so buffered output and exit handlers run once, in the
    parent. The parent computes ``jobs[0::w]``, reads every pipe and reaps
    every child, killing the ones still running when it leaves by an
    exception (``KeyboardInterrupt`` included). A share stops at its first
    failing job. The parent then runs, in order, every job whose result it
    does not hold: one that failed, or one whose child could not be started
    or ended without a result. So the error raised is that of the earliest
    failing job, as in the loop, with its own type and message.

    It is the plain loop on one CPU, where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, and when another thread runs, since
    forking a threaded process can deadlock. Importing nothing at module
    level keeps the CLI's start-up as it was.
    """
    import os
    import pickle
    import threading

    workers = min(len(os.sched_getaffinity(0)), len(jobs)) if hasattr(os, "sched_getaffinity") else 1
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(job) for job in jobs]
    children = []  # (pid, read end) of every child started
    payloads = []  # what each child sent; shorter than children when leaving by an exception
    statuses = []
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs the shares left
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(_leading(fn, jobs, k, workers), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        done = _leading(fn, jobs, 0, workers)
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            if len(payloads) < len(children):
                import signal

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for status, payload in zip(statuses, payloads):
        if status == 0:
            done.update(pickle.loads(payload))
    return [done[index] if index in done else fn(job) for index, job in enumerate(jobs)]


def regression_benchmark_table(repetitions: int = 50, n: int = 100, base_seed: int = 0) -> list[BenchCell]:
    """Mean and spread of test RMSE per (method, r1, benchmark) cell, over
    BENCH_IDS and BENCH_R1_VALUES."""
    repetitions, n = as_number(repetitions, "repetitions", whole=True), as_number(n, "n", whole=True)
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    methods = [(method, r1) for method in ("linear", "kernel") for r1 in BENCH_R1_VALUES]
    cells: dict[tuple, list] = {(method, r1, b): [] for method, r1 in methods for b in BENCH_IDS}
    jobs = [(bench_id, n, _cell_seed(base_seed, bench_id, rep))
            for bench_id in BENCH_IDS for rep in range(repetitions)]
    for job, values in zip(jobs, _map(_split_rmse, jobs)):
        for (method, r1), value in zip(methods, values):
            cells[(method, r1, job[0])].append(value)
    return [
        BenchCell(method, r1, b, tuple(values), float(np.mean(values)), float(np.std(values)))
        for (method, r1, b), values in cells.items()
    ]


def benchmark_table_lines(cells: list[BenchCell]) -> list[str]:
    """Aligned text rows: one line per (method, r1), one column per benchmark."""
    bench_ids = sorted({c.bench_id for c in cells})
    lookup = {(c.method, c.r1, c.bench_id): c for c in cells}
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


def embedding_panels(dataset_name: str, n: int = 400, seed: int = 7) -> list[Panel]:
    """Two-dimensional kernel embeddings over the mixing-factor grid,
    PANEL_R_VALUES on each axis.

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
    train, test = datasets.train_test_split(ds, TRAIN_FRACTION, seed)
    configs = [rda.RoweisConfig(r1=r1, r2=r2, p=2) for r1 in PANEL_R_VALUES for r2 in PANEL_R_VALUES]
    return [
        Panel(dataset_name, config.r1, config.r2, train_emb, test_emb, train.y, test.y)
        for config, (train_emb, test_emb) in zip(
            configs, grid_embeddings("kernel", train, test, configs, kernels.KernelSpec(family="rbf")))
    ]
