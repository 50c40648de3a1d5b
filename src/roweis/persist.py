"""Model persistence: a versioned, line-oriented text format.

Layout: a format tag, one ``key: value`` line per scalar (values are JSON),
then ``array <name> <rows> <cols>`` blocks holding row-major numbers written
with shortest round-trip repr, so a save/load cycle is bit-exact. Optional
scalars take a default when absent, so files written before a key existed
still load (a primal file without ``route`` loads as ``"dense"``). An array
holding NaN or inf does not load.
"""

from __future__ import annotations

import json

import numpy as np

from ._util import float_rows
from .dual import DualRdaModel
from .exceptions import DataError
from .kernel_rda import KernelRdaModel
from .kernels import KernelSpec
from .linalg import RegPolicy
from .rda import ROUTES, RdaModel, RoweisConfig

FORMAT_TAG = "roweis-model/1"

_VARIANT_NAMES = {
    "direct": "kernel-direct",
    "trick_pca": "kernel-pca",
    "trick_spca": "kernel-spca",
}
_VARIANT_FROM_NAME = {v: k for k, v in _VARIANT_NAMES.items()}


def _write_array(handle, name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    rows, cols = arr.shape
    handle.write(f"array {name} {rows} {cols}\n")
    handle.writelines(line + "\n" for line in float_rows(arr, " "))


def _kernel_dict(spec: KernelSpec | None):
    return None if spec is None else spec.to_dict()


def _kernel_from(value) -> KernelSpec | None:
    return None if value is None else KernelSpec.from_dict(value)


def _fields(model) -> tuple[list, list]:
    """The model's (key, value) scalars and (name, array) blocks, in file order."""
    if isinstance(model, RdaModel):
        cfg = model.config
        scalars = [
            ("variant", "primal"),
            ("r1", cfg.r1),
            ("r2", cfg.r2),
            ("robust", cfg.robust),
            ("valid_eig_threshold", cfg.valid_eig_threshold),
            ("auto_dim_ratio", cfg.auto_dim_ratio),
            ("reg", [cfg.reg.base_scale, cfg.reg.max_scale, cfg.reg.growth]),
            ("label_kernel", _kernel_dict(cfg.label_kernel)),
            ("shift", model.shift),
            ("notes", list(model.notes)),
            ("route", model.route),
        ]
        arrays = [("mean", model.mean), ("eigvals", model.eigvals), ("basis", model.basis)]
    elif isinstance(model, DualRdaModel):
        scalars = [("variant", "dual"), ("r1", model.r1), ("notes", list(model.notes))]
        arrays = [
            ("mean", model.mean),
            ("sigma", model.sigma),
            ("right_vectors", model.right_vectors),
            ("factor", model.factor),
        ]
    elif isinstance(model, KernelRdaModel):
        scalars = [
            ("variant", _VARIANT_NAMES[model.variant]),
            ("r1", model.r1),
            ("r2", model.r2),
            ("kernel", _kernel_dict(model.kernel)),
            ("label_kernel", _kernel_dict(model.label_kernel)),
            ("shift", model.shift),
            ("notes", list(model.notes)),
        ]
        arrays = [("eigvals", model.eigvals), ("train_x", model.train_x)]
        if model.variant == "direct":
            arrays.append(("coeffs", model.coeffs))
        else:
            arrays += [("sigma", model.sigma), ("right_vectors", model.right_vectors)]
            if model.upsilon is not None:
                arrays.append(("upsilon", model.upsilon))
    else:
        raise DataError(f"cannot persist object of type {type(model).__name__}")
    return scalars, arrays


def save_model(model, path) -> None:
    scalars, arrays = _fields(model)
    with open(path, "w") as handle:
        handle.write(FORMAT_TAG + "\n")
        handle.writelines(f"{key}: {json.dumps(value)}\n" for key, value in scalars)
        for name, arr in arrays:
            _write_array(handle, name, arr)


def _parse(path) -> tuple[dict, dict]:
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines or lines[0] != FORMAT_TAG:
        raise DataError(f"{path}: not a recognized model file (expected {FORMAT_TAG!r})")
    scalars: dict = {}
    arrays: dict = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("array "):
            try:
                _, name, rows, cols = line.split()
                rows, cols = int(rows), int(cols)
                if rows < 0 or cols < 0:
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: malformed array header {line!r}") from None
            arrays[name] = _parse_array(path, name, lines[i:i + rows], rows, cols)
            i += rows
        elif ": " in line:
            key, raw = line.split(": ", 1)
            try:
                scalars[key] = json.loads(raw)
            except json.JSONDecodeError:
                raise DataError(f"{path}: malformed value for {key!r}") from None
        else:
            raise DataError(f"{path}: unrecognized line {line!r}")
    return scalars, arrays


def _parse_array(path, name: str, block: list, rows: int, cols: int) -> np.ndarray:
    """One ``array`` block from its row lines: one bulk parse, and the
    row-by-row scan, which names the first bad row, when that refuses it.
    NaN or inf anywhere in the block raises DataError."""
    values = None
    if len(block) == rows and rows and cols:
        try:
            values = np.loadtxt(block, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (rows, cols):
        values = np.empty((rows, cols))
        for r in range(rows):
            if r >= len(block):
                raise DataError(f"{path}: truncated array {name!r}")
            cells = block[r].split()
            if len(cells) != cols:
                raise DataError(f"{path}: array {name!r} row {r} has {len(cells)} values, expected {cols}")
            try:
                values[r] = [float(v) for v in cells]
            except ValueError:
                raise DataError(f"{path}: array {name!r} row {r} holds a non-numeric value") from None
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: array {name!r} holds non-finite values (nan or inf)")
    return values


def _vec(arrays: dict, name: str, path) -> np.ndarray:
    if name not in arrays:
        raise DataError(f"{path}: missing array {name!r}")
    return arrays[name].ravel()


def _mat(arrays: dict, name: str, path) -> np.ndarray:
    if name not in arrays:
        raise DataError(f"{path}: missing array {name!r}")
    return arrays[name]


def load_model(path):
    scalars, arrays = _parse(path)
    variant = scalars.get("variant")
    notes = tuple(scalars.get("notes", []))
    if variant == "primal":
        route = scalars.get("route", "dense")
        if route not in ROUTES:
            raise DataError(f"{path}: unknown route {route!r}")
        reg = scalars.get("reg", [1e-8, 1e-2, 10.0])
        config = RoweisConfig(
            r1=float(scalars["r1"]),
            r2=float(scalars["r2"]),
            p=int(_mat(arrays, "basis", path).shape[1]),
            label_kernel=_kernel_from(scalars.get("label_kernel")),
            robust=bool(scalars.get("robust", False)),
            reg=RegPolicy(*[float(v) for v in reg]),
            valid_eig_threshold=float(scalars.get("valid_eig_threshold", 1e-9)),
            auto_dim_ratio=float(scalars.get("auto_dim_ratio", 0.01)),
        )
        return RdaModel(
            basis=_mat(arrays, "basis", path),
            eigvals=_vec(arrays, "eigvals", path),
            mean=_vec(arrays, "mean", path),
            config=config,
            shift=float(scalars.get("shift", 0.0)),
            notes=notes,
            route=route,
        )
    if variant == "dual":
        return DualRdaModel(
            right_vectors=_mat(arrays, "right_vectors", path),
            sigma=_vec(arrays, "sigma", path),
            factor=_mat(arrays, "factor", path),
            mean=_vec(arrays, "mean", path),
            r1=float(scalars["r1"]),
            notes=notes,
        )
    if variant in _VARIANT_FROM_NAME:
        kind = _VARIANT_FROM_NAME[variant]
        kernel = _kernel_from(scalars.get("kernel"))
        label_kernel = _kernel_from(scalars.get("label_kernel"))
        train_x = _mat(arrays, "train_x", path)
        eigvals = _vec(arrays, "eigvals", path)
        if kind == "direct":
            coeffs = _mat(arrays, "coeffs", path)
            sigma = None
            right = None
            upsilon = None
        else:
            sigma = _vec(arrays, "sigma", path)
            right = _mat(arrays, "right_vectors", path)
            upsilon = arrays.get("upsilon")
            base = right if upsilon is None else upsilon @ right
            coeffs = base / sigma[None, :]
        return KernelRdaModel(
            variant=kind,
            coeffs=coeffs,
            eigvals=eigvals,
            train_x=train_x,
            kernel=kernel,
            r1=float(scalars.get("r1", 0.0)),
            r2=float(scalars.get("r2", 0.0)),
            label_kernel=label_kernel,
            right_vectors=right,
            sigma=sigma,
            upsilon=upsilon,
            shift=float(scalars.get("shift", 0.0)),
            notes=notes,
        )
    raise DataError(f"{path}: unknown model variant {variant!r}")
