"""Model persistence: a versioned, line-oriented text format.

Layout: a format tag, one ``key: value`` line per scalar (values are JSON),
then ``array <name> <rows> <cols>`` blocks holding row-major numbers written
with shortest round-trip repr, so a save/load cycle is bit-exact. Optional
scalars take a default when absent, so files written before a key existed
still load (a primal file without ``route`` loads as ``"dense"``).
"""

from __future__ import annotations

import json

import numpy as np

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


def _write_scalar(lines: list, key: str, value) -> None:
    lines.append(f"{key}: {json.dumps(value)}")


def _write_array(lines: list, name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    rows, cols = arr.shape
    lines.append(f"array {name} {rows} {cols}")
    for i in range(rows):
        lines.append(" ".join(repr(float(v)) for v in arr[i]))


def _kernel_dict(spec: KernelSpec | None):
    return None if spec is None else spec.to_dict()


def _kernel_from(value) -> KernelSpec | None:
    return None if value is None else KernelSpec.from_dict(value)


def save_model(model, path) -> None:
    lines = [FORMAT_TAG]
    if isinstance(model, RdaModel):
        cfg = model.config
        _write_scalar(lines, "variant", "primal")
        _write_scalar(lines, "r1", cfg.r1)
        _write_scalar(lines, "r2", cfg.r2)
        _write_scalar(lines, "robust", cfg.robust)
        _write_scalar(lines, "valid_eig_threshold", cfg.valid_eig_threshold)
        _write_scalar(lines, "auto_dim_ratio", cfg.auto_dim_ratio)
        _write_scalar(lines, "reg", [cfg.reg.base_scale, cfg.reg.max_scale, cfg.reg.growth])
        _write_scalar(lines, "label_kernel", _kernel_dict(cfg.label_kernel))
        _write_scalar(lines, "shift", model.shift)
        _write_scalar(lines, "notes", list(model.notes))
        _write_scalar(lines, "route", model.route)
        _write_array(lines, "mean", model.mean)
        _write_array(lines, "eigvals", model.eigvals)
        _write_array(lines, "basis", model.basis)
    elif isinstance(model, DualRdaModel):
        _write_scalar(lines, "variant", "dual")
        _write_scalar(lines, "r1", model.r1)
        _write_scalar(lines, "notes", list(model.notes))
        _write_array(lines, "mean", model.mean)
        _write_array(lines, "sigma", model.sigma)
        _write_array(lines, "right_vectors", model.right_vectors)
        _write_array(lines, "factor", model.factor)
    elif isinstance(model, KernelRdaModel):
        _write_scalar(lines, "variant", _VARIANT_NAMES[model.variant])
        _write_scalar(lines, "r1", model.r1)
        _write_scalar(lines, "r2", model.r2)
        _write_scalar(lines, "kernel", _kernel_dict(model.kernel))
        _write_scalar(lines, "label_kernel", _kernel_dict(model.label_kernel))
        _write_scalar(lines, "shift", model.shift)
        _write_scalar(lines, "notes", list(model.notes))
        _write_array(lines, "eigvals", model.eigvals)
        _write_array(lines, "train_x", model.train_x)
        if model.variant == "direct":
            _write_array(lines, "coeffs", model.coeffs)
        else:
            _write_array(lines, "sigma", model.sigma)
            _write_array(lines, "right_vectors", model.right_vectors)
            if model.upsilon is not None:
                _write_array(lines, "upsilon", model.upsilon)
    else:
        raise DataError(f"cannot persist object of type {type(model).__name__}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


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
            except ValueError:
                raise DataError(f"{path}: malformed array header {line!r}") from None
            block = np.empty((rows, cols))
            for r in range(rows):
                if i >= len(lines):
                    raise DataError(f"{path}: truncated array {name!r}")
                values = lines[i].split()
                if len(values) != cols:
                    raise DataError(f"{path}: array {name!r} row {r} has {len(values)} values, expected {cols}")
                block[r] = [float(v) for v in values]
                i += 1
            arrays[name] = block
        elif ": " in line:
            key, raw = line.split(": ", 1)
            try:
                scalars[key] = json.loads(raw)
            except json.JSONDecodeError:
                raise DataError(f"{path}: malformed value for {key!r}") from None
        else:
            raise DataError(f"{path}: unrecognized line {line!r}")
    return scalars, arrays


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
