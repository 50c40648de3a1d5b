"""Command-line front end.

Subcommands: gen (synthetic datasets), fit (any variant), transform,
reconstruct, sweep (metric over the mixing-factor grid), experiments (the
desk-scale benchmark bundle). Every run writes exactly one JSON manifest
recording the resolved configuration, input hashes, and output paths, and
reruns with identical inputs reproduce outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. The default seed comes from the ROWEIS_SEED environment variable.

Memory: starting Python and importing numpy costs about 27 MB of RSS. The
manifest's input hashes come from CPython's built-in SHA-256 (see
:func:`_sha256`), so fit, transform and reconstruct never load OpenSSL:
``hashlib`` maps ``_hashlib`` and OpenSSL with it, 3.5 MB of max RSS in a
process that has imported numpy, and those pages set the final peak of
every linear fit. ``numpy.random`` still imports OpenSSL (through
``secrets``), so gen, sweep and experiments hold it from their first draw.
Likewise ``persist`` (model files) and ``experiments`` (with ``evaluate``,
which only it imports) are imported by the commands that use them. A kernel
fit peaks at ``K_x`` plus ``eigh``'s buffers, about 5 n^2 doubles.

Exit: run as the program (``argv`` None), :func:`main` first freezes the
objects that exist (``gc.freeze``), numpy's import-time objects among them,
so no collection visits them again; the exit of a fit on the benchmark's
``tall.csv`` took 6.8 ms in place of 23.9 (medians of 15, 2-CPU x86-64,
Python 3.11). A caller that passes ``argv`` keeps the collector as it was.

``fit`` reads the CSV's layout once (:func:`roweis.datasets.csv_session`).
A primal or dual fit on d <= n with no label Gram streams its parse blocks
to :func:`roweis.rda.fit_blocks`, so it holds O(d^2 + c d) and one block,
never X nor a label per row, at any class count c (flat in n: about 37 MB
max RSS at n = 200 000, d = 50). Every other fit, and one the stream
cannot reproduce bit for bit (see :func:`_streamed_fit`), collects X from
the same session and fits it. The commands that load X drop it, its labels
and what they computed from it before they write their CSV and manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

import numpy as np

from . import __version__, datasets, dual, kernel_rda, kernels, rda
from .exceptions import ConfigError, DataError, NumericalError

SEED_ENV = "ROWEIS_SEED"

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _default_seed() -> int:
    try:
        return int(os.environ.get(SEED_ENV, "0"))
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer seed, got {os.environ[SEED_ENV]!r}") from None


def _sha256(path: str) -> str:
    """Hex SHA-256 of the file's bytes, for the manifest's ``inputs``.

    Takes the digest from CPython's built-in SHA-256 (``_sha2`` on 3.12+,
    ``_sha256`` on 3.10-3.11), which maps no OpenSSL, and from ``hashlib``
    only where neither exists (see the module docstring). It is slower than
    OpenSSL's on large inputs: 15.9 ms against 6.4 ms for the benchmark's
    ``tall.csv`` (3.9 MB, a cold process, the import included), which the
    shorter exit of :func:`main` more than pays back.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return digest.hexdigest()


def _write_manifest(command: str, config: dict, seed, inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": outputs,
        "version": __version__,
    }
    path = outputs[0] + ".manifest.json"
    try:
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write manifest {path}: {exc}") from None


@contextlib.contextmanager
def _output(path: str, newline: str | None = None):
    """A text file open for writing; an OSError on the way becomes DataError."""
    try:
        with open(path, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------- kernels

def _kernel_from_args(family: str, gamma, degree, offset) -> kernels.KernelSpec:
    """The KernelSpec of the given flags; one not given takes its default."""
    given = {"gamma": gamma, "degree": degree, "offset": offset}
    return kernels.KernelSpec(family, **{name: value for name, value in given.items() if value is not None})


def _label_kernel_from_args(args) -> kernels.KernelSpec | None:
    if args.label_kernel is None:
        return None
    return _kernel_from_args(args.label_kernel, args.label_gamma, args.label_degree, args.label_offset)


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    seed = args.seed
    if args.generator == "xor":
        ds = datasets.gen_xor(args.n, seed, margin=args.margin)
        config = {"generator": "xor", "n": args.n, "margin": args.margin}
    elif args.generator == "rings":
        ds = datasets.gen_rings(args.n, seed, inner=args.inner, outer=args.outer, noise=args.noise)
        config = {
            "generator": "rings",
            "n": args.n,
            "inner": args.inner,
            "outer": args.outer,
            "noise": args.noise,
        }
    elif args.generator == "bench":
        if args.id is None:
            raise ConfigError("gen bench requires --id 1|2|3")
        ds = datasets.gen_regression_benchmark(args.id, args.n, seed, noise_scale=args.noise_scale)
        config = {"generator": "bench", "id": args.id, "n": args.n, "noise_scale": args.noise_scale}
    else:
        raise ConfigError(f"unknown generator {args.generator!r}")
    out = args.out or f"{args.generator}.csv"
    try:
        datasets.save_csv(out, ds.X, ds.y)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None
    _write_manifest("gen", config, seed, [], [out])
    print(f"wrote {ds.n} samples ({ds.kind}) to {out}")
    return 0


# ---------------------------------------------------------------- fit

def _print_spectrum(values) -> None:
    values = np.asarray(values, dtype=float)
    total = values.sum()
    print(f"{'component':>9}  {'eigenvalue':>14}  {'share':>7}")
    for i, v in enumerate(values, start=1):
        share = v / total if total > 0 else 0.0
        print(f"{i:>9}  {v:>14.6e}  {share:>7.4f}")


def _fit_settings(args, r1: float, r2: float):
    """(data kernel, config) of ``fit``'s arguments, or the ConfigError a
    fit of them raises before it reads the data."""
    variant = args.variant
    if variant == "kernel-pca" and (r1 != 0.0 or r2 != 0.0):
        raise ConfigError("kernel-pca is the r1=0, r2=0 corner; drop --r1/--r2 or use --variant kernel")
    if variant == "kernel-spca" and (r1 != 1.0 or r2 != 0.0):
        raise ConfigError("kernel-spca is the r1=1, r2=0 corner; drop --r1/--r2 or use --variant kernel")
    if args.robust and variant != "primal":
        raise ConfigError(f"--robust repairs the primal constraint only; --variant {variant} has no robust form")
    data_kernel = _kernel_from_args(args.kernel, args.gamma, args.degree, args.offset)
    config = rda.RoweisConfig(r1=r1, r2=r2, p=args.p, label_kernel=_label_kernel_from_args(args), robust=args.robust)
    return data_kernel, config


def _streamed_fit(args, session, config: rda.RoweisConfig):
    """The primal or dual fit of ``config`` from the CSV ``session``'s blocks
    (:func:`roweis.rda.fit_blocks`); None where it would not be the library
    fit of the collected X bit for bit: where ``fit_blocks`` gives up, on
    the kernel variants, the dual at r2 > 0 and labels without a column."""
    if args.variant not in ("primal", "dual") or (args.variant == "dual" and config.r2 != 0.0):
        return None
    if (config.r1 > 0 or config.r2 > 0) and args.label_col is None:
        return None
    models = rda.fit_blocks(session.blocks(), session.n, session.d, [config], session.read_labels)
    return None if models is None else models[0]


def _fit_data(variant, x, y, config, data_kernel):
    """The fit of ``variant`` on the loaded X and labels."""
    if variant == "primal":
        return rda.fit(x, y, config)
    if variant == "dual":
        return dual.fit_dual(x, y, config.r1, r2=config.r2, p=config.p, label_kernel=config.label_kernel)
    if variant == "kernel":
        return kernel_rda.fit_direct(x, y, config, data_kernel)
    if variant == "kernel-pca":
        return kernel_rda.fit_kernel_pca(x, data_kernel, p=config.p)
    if variant == "kernel-spca":
        return kernel_rda.fit_kernel_spca(x, y, data_kernel, config.label_kernel, p=config.p)
    raise ConfigError(f"unknown variant {variant!r}")


def cmd_fit(args) -> int:
    variant = args.variant
    r1 = args.r1 if args.r1 is not None else (1.0 if variant == "kernel-spca" else 0.0)
    r2 = args.r2 if args.r2 is not None else 0.0
    with datasets.csv_session(args.data, args.label_col) as session:
        try:
            data_kernel, config = _fit_settings(args, r1, r2)
        except ConfigError:
            # A bad file is reported before bad arguments, as when X is read first.
            session.collect()
            raise
        model = _streamed_fit(args, session, config)
        if model is None:
            x, y, _ = session.collect()
            model = _fit_data(variant, x, y, config, data_kernel)
            del x, y  # not beside the model file's text

    from . import persist

    out = args.out or "model.txt"
    try:
        persist.save_model(model, out)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None
    config_dict = {
        "variant": variant,
        "r1": r1,
        "r2": r2,
        "p": args.p,
        "robust": args.robust,
        "kernel": data_kernel.to_dict(),
        "label_kernel": config.label_kernel.to_dict() if config.label_kernel else None,
        "label_col": args.label_col,
    }
    _write_manifest("fit", config_dict, None, [args.data], [out])
    for note in model.notes:
        print(f"note: {note}")
    _print_spectrum(model.eigvals)
    print(f"wrote model to {out}")
    return 0


# ---------------------------------------------------------------- transform / reconstruct

def _project_any(model, x):
    if isinstance(model, rda.RdaModel):
        return rda.project(model, x)
    return kernel_rda.project(model, x)


def _apply(apply, model, args, out: str, prefix: str) -> tuple:
    """Write ``apply(model, X)`` for the X of ``args.data`` to ``out``, one
    row per sample under columns ``prefix1``, ``prefix2``, ..., and return
    its shape. X dies before the CSV is written, and the result before the
    caller writes its manifest."""
    values = apply(model, datasets.load_csv(args.data, args.label_col)[0])
    with _output(out, newline="") as handle:
        datasets.write_csv(handle, [f"{prefix}{i + 1}" for i in range(values.shape[0])], values)
    return values.shape


def cmd_transform(args) -> int:
    from . import persist

    out = args.out or "embedding.csv"
    dims, rows = _apply(_project_any, persist.load_model(args.model), args, out, "e")
    _write_manifest("transform", {"label_col": args.label_col}, None, [args.model, args.data], [out])
    print(f"wrote {rows} embeddings ({dims} dimensions) to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    from . import persist

    out = args.out or "reconstruction.csv"
    _, rows = _apply(rda.reconstruct, persist.load_primal_model(args.model), args, out, "f")
    _write_manifest("reconstruct", {"label_col": args.label_col}, None, [args.model, args.data], [out])
    print(f"wrote {rows} reconstructions to {out}")
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    if args.grid < 2:
        raise ConfigError(f"--grid must be at least 2 per axis, got {args.grid}")
    rows, kind, data_kernel, requested = _sweep_rows(args)
    out = args.out or "sweep.csv"
    with _output(out, newline="") as handle:
        datasets.write_csv(handle, ["r1", "r2", "s", "metric", "value"], np.empty((0, len(rows))), rows)
    config_dict = {
        "variant": args.variant,
        "grid": args.grid,
        "p": args.p,
        "train_fraction": args.train_fraction,
        "kernel": data_kernel.to_dict(),
        "label_kernel": requested.to_dict() if requested else None,
        "label_col": args.label_col,
    }
    if kind == "regression":
        config_dict["r2_values"] = [0.0]
    _write_manifest("sweep", config_dict, args.seed, [args.data], [out])
    if kind == "regression":
        print("real-valued targets: swept r1 at r2 = 0 only (r2 > 0 needs class labels)")
    print(f"wrote {len(rows)} grid points to {out}")
    return 0


def _sweep_rows(args):
    """(rows, kind, data kernel, requested label kernel) of a sweep; its rows
    are text cells for :func:`roweis.datasets.write_csv`, its one grid is
    scored by :func:`roweis.experiments.grid_scores`. The data, the split and
    the embeddings die on return, before the sweep's CSV is written."""
    from . import experiments  # here, so the other commands do not hold it

    x, y, _ = datasets.load_csv(args.data, args.label_col)
    if y is None:
        raise ConfigError("sweep needs labels; pass --label-col")
    kind = "classification" if kernels.is_categorical(y) else "regression"
    ds = datasets.Dataset(X=x, y=y, kind=kind)
    train, test = datasets.train_test_split(ds, args.train_fraction, args.seed)

    data_kernel = _kernel_from_args(args.kernel, args.gamma, args.degree, args.offset)
    if args.variant == "kernel":
        data_kernel = kernels.resolve_gamma(data_kernel, train.X)
    requested = _label_kernel_from_args(args)

    values = np.linspace(0.0, 1.0, args.grid)
    # The within-class scatter that r2 > 0 needs exists only for class labels.
    r2_values = values if kind == "classification" else values[:1]
    configs = [
        rda.RoweisConfig(r1=float(r1), r2=float(r2), p=args.p, label_kernel=requested)
        for r1 in values for r2 in r2_values
    ]
    metric = "error-rate" if kind == "classification" else "rmse"
    rows = [
        [repr(config.r1), repr(config.r2), repr(rda.supervision_level(config.r1, config.r2)), metric, repr(value)]
        for config, value in zip(configs, experiments.grid_scores(args.variant, train, test, configs, data_kernel))
    ]
    return rows, kind, data_kernel, requested


# ---------------------------------------------------------------- experiments

def cmd_experiments(args) -> int:
    from . import experiments  # here, so the other commands do not hold it

    # Everything is computed before anything is created, so a refused run
    # (--reps, --n, --panel-n or the seed) leaves no directory behind.
    cells = experiments.regression_benchmark_table(
        repetitions=args.reps, n=args.n, base_seed=args.seed
    )
    panels = [panel for name in ("xor", "rings")
              for panel in experiments.embedding_panels(name, n=args.panel_n, seed=args.seed)]
    out_dir = args.out_dir
    panel_dir = os.path.join(out_dir, "panels")
    try:
        os.makedirs(panel_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {out_dir}: {exc}") from None

    table_csv = os.path.join(out_dir, "regression_table.csv")
    rows = [
        [cell.method, repr(cell.r1), str(cell.bench_id), repr(cell.mean), repr(cell.std)]
        for cell in cells
    ]
    header = ["method", "r1", "benchmark", "rmse_mean", "rmse_std"]
    with _output(table_csv, newline="") as handle:
        datasets.write_csv(handle, header, np.empty((0, len(rows))), rows)
    table_txt = os.path.join(out_dir, "regression_table.txt")
    with _output(table_txt) as handle:
        handle.write("\n".join(experiments.benchmark_table_lines(cells)) + "\n")

    outputs = [table_csv, table_txt]
    for panel in panels:
        path = os.path.join(panel_dir, f"{panel.dataset}_r1_{panel.config.r1:g}_r2_{panel.config.r2:g}.csv")
        header = ["split", "label"] + [f"e{i + 1}" for i in range(panel.train_emb.shape[0])]
        lead = [["train", str(y)] for y in panel.train_y] + [["test", str(y)] for y in panel.test_y]
        with _output(path, newline="") as handle:
            datasets.write_csv(handle, header, np.hstack([panel.train_emb, panel.test_emb]), lead)
        outputs.append(path)

    config_dict = {"reps": args.reps, "n": args.n, "panel_n": args.panel_n}
    _write_manifest("experiments", config_dict, args.seed, [], [os.path.join(out_dir, "run")])
    print("\n".join(experiments.benchmark_table_lines(cells)))
    print(f"wrote {len(outputs)} files under {out_dir}")
    return 0


# ---------------------------------------------------------------- parser

def _add_kernel_flags(parser) -> None:
    parser.add_argument("--kernel", default="rbf", choices=["linear", "rbf", "polynomial"],
                        help="data kernel family (kernel variants)")
    parser.add_argument("--gamma", type=float, default=None, help="rbf bandwidth; default median heuristic")
    parser.add_argument("--degree", type=int, default=None, help="polynomial degree")
    parser.add_argument("--offset", type=float, default=None, help="polynomial offset")
    parser.add_argument("--label-kernel", default=None,
                        choices=["delta", "linear", "rbf", "polynomial"],
                        help="label kernel family; default delta for classes, rbf for targets")
    parser.add_argument("--label-gamma", type=float, default=None)
    parser.add_argument("--label-degree", type=int, default=None)
    parser.add_argument("--label-offset", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roweis",
        description="Two-factor generalized subspace learning toolkit",
    )
    parser.add_argument("--version", action="version", version=f"roweis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("generator", choices=["xor", "rings", "bench"])
    p_gen.add_argument("--n", type=int, default=400)
    p_gen.add_argument("--seed", type=int, help=f"default: ${SEED_ENV}, else 0")
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--id", type=int, default=None, help="benchmark id (bench only)")
    p_gen.add_argument("--margin", type=float, default=datasets.XOR_MARGIN)
    p_gen.add_argument("--inner", type=float, default=datasets.RING_INNER)
    p_gen.add_argument("--outer", type=float, default=datasets.RING_OUTER)
    p_gen.add_argument("--noise", type=float, default=datasets.RING_NOISE)
    p_gen.add_argument("--noise-scale", type=float, default=1.0)
    p_gen.set_defaults(func=cmd_gen)

    p_fit = sub.add_parser("fit", help="fit a subspace model")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--label-col", default=None)
    p_fit.add_argument("--variant", default="primal",
                       choices=["primal", "dual", "kernel", "kernel-pca", "kernel-spca"])
    p_fit.add_argument("--r1", type=float, default=None)
    p_fit.add_argument("--r2", type=float, default=None)
    p_fit.add_argument("--p", type=int, default=None)
    p_fit.add_argument("--robust", action="store_true")
    p_fit.add_argument("--out", default=None)
    _add_kernel_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_tr = sub.add_parser("transform", help="embed data with a fitted model")
    p_tr.add_argument("--model", required=True)
    p_tr.add_argument("--data", required=True)
    p_tr.add_argument("--label-col", default=None)
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(func=cmd_transform)

    p_rc = sub.add_parser("reconstruct", help="map embedded data back to input space")
    p_rc.add_argument("--model", required=True)
    p_rc.add_argument("--data", required=True)
    p_rc.add_argument("--label-col", default=None)
    p_rc.add_argument("--out", default=None)
    p_rc.set_defaults(func=cmd_reconstruct)

    p_sw = sub.add_parser("sweep", help="evaluate a metric over the (r1, r2) grid")
    p_sw.add_argument("--data", required=True)
    p_sw.add_argument("--label-col", required=True)
    p_sw.add_argument("--variant", default="primal", choices=["primal", "kernel"])
    p_sw.add_argument("--grid", type=int, default=3)
    p_sw.add_argument("--p", type=int, default=2)
    p_sw.add_argument("--train-fraction", type=float, default=0.7)
    p_sw.add_argument("--seed", type=int, help=f"default: ${SEED_ENV}, else 0")
    p_sw.add_argument("--out", default=None)
    _add_kernel_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("experiments", help="run the desk-scale benchmark bundle")
    p_ex.add_argument("--out-dir", default="results")
    p_ex.add_argument("--reps", type=int, default=50)
    p_ex.add_argument("--n", type=int, default=100)
    p_ex.add_argument("--panel-n", type=int, default=400)
    p_ex.add_argument("--seed", type=int, help=f"default: ${SEED_ENV}, else 0")
    p_ex.set_defaults(func=cmd_experiments)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # The program's own run: leave the import-time objects out of every
        # later collection, the exit's included. In-process callers keep theirs.
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
