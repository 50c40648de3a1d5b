"""Model persistence: a versioned, line-oriented text format.

Layout: a format tag, one ``key: value`` line per scalar (values are JSON),
then ``array <name> <rows> <cols>`` blocks holding row-major numbers written
with shortest round-trip repr, so a save/load cycle is bit-exact. Optional
scalars take a default when absent, so files written before a key existed
still load (a primal file without ``route`` loads as ``"dense"``), and the
retired ``valid_eig_threshold``, ``auto_dim_ratio`` and ``reg`` lines are
ignored. A missing required scalar, a scalar of the wrong type or range
(in both layouts r1 and r2 lie in [0, 1], shift is finite and >= 0, and
notes is a list of strings), an array holding NaN or inf, arrays that
disagree in shape, or a kernel model without a kernel it can embed with (a
linear, polynomial, or rbf one with its gamma) does not load.

Primal files with route ``"dual"`` (older dual fits) still load, as do files
of the earlier ``variant: dual`` layout, which held the factor W, its right
singular vectors V and the singular values sigma: the basis W V / sigma is
formed once, at load time.

Kernel-trick files hold the fit's raw pieces (``right_vectors``, ``sigma``,
``upsilon``), folded into coefficients and an offset once, at load time, from
one training Gram (:func:`roweis.kernel_rda.fold_centering`).
:func:`load_primal_model`, for the commands that need a basis in the input
space, checks a kernel file as :func:`load_model` does and refuses it before
that fold.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ._util import float_rows, sym
from .exceptions import ConfigError, DataError
from .kernel_rda import KernelRdaModel, fold_centering
from .kernels import KernelSpec, gram
from .rda import ROUTES, RdaModel, RoweisConfig

FORMAT_TAG = "roweis-model/1"

# The kernel models' variants, as KernelRdaModel.variant and the file name them.
_KERNEL_VARIANTS = ("kernel-direct", "kernel-pca", "kernel-spca")


def _write_array(handle, name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    rows, cols = arr.shape
    handle.write(f"array {name} {rows} {cols}\n")
    handle.writelines(line + "\n" for line in float_rows(arr, " "))


def _kernel_dict(spec: KernelSpec | None):
    return None if spec is None else spec.to_dict()


def _fields(model) -> tuple[list, list]:
    """The model's (key, value) scalars and (name, array) blocks, in file order."""
    if isinstance(model, RdaModel):
        cfg = model.config
        scalars = [
            ("variant", "primal"),
            ("r1", cfg.r1),
            ("r2", cfg.r2),
            ("robust", cfg.robust),
            ("label_kernel", _kernel_dict(cfg.label_kernel)),
            ("shift", model.shift),
            ("notes", list(model.notes)),
            ("route", model.route),
        ]
        arrays = [("mean", model.mean), ("eigvals", model.eigvals), ("basis", model.basis)]
    elif isinstance(model, KernelRdaModel):
        scalars = [
            ("variant", model.variant),
            ("r1", model.r1),
            ("r2", model.r2),
            ("kernel", _kernel_dict(model.kernel)),
            ("label_kernel", _kernel_dict(model.label_kernel)),
            ("shift", model.shift),
            ("notes", list(model.notes)),
        ]
        arrays = [("eigvals", model.eigvals), ("train_x", model.train_x)]
        if model.variant == "kernel-direct":
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


def _mat(arrays: dict, name: str, path) -> np.ndarray:
    if name not in arrays:
        raise DataError(f"{path}: missing array {name!r}")
    return arrays[name]


def _vec(arrays: dict, name: str, path) -> np.ndarray:
    return _mat(arrays, name, path).ravel()


def _agree(path, what: str, size: int, other: str, expected: int) -> None:
    """DataError unless two array dimensions that must match do."""
    if size != expected:
        raise DataError(f"{path}: arrays disagree in shape: {what} {size}, {other} {expected}")


_REQUIRED = object()


def _scalar(scalars: dict, key: str, path, convert, default=_REQUIRED):
    """``convert`` of a scalar, ``default`` when it is absent (no default:
    the scalar is required); a missing required scalar or a value
    ``convert`` refuses raises DataError."""
    if key not in scalars:
        if default is _REQUIRED:
            raise DataError(f"{path}: missing value {key!r}")
        return default
    try:
        return convert(scalars[key])
    except (TypeError, ValueError):
        raise DataError(f"{path}: malformed value for {key!r}: {scalars[key]!r}") from None


def _kernel_spec(value) -> KernelSpec | None:
    """KernelSpec from its JSON object, None from null."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise TypeError
    try:
        return KernelSpec.from_dict(value)
    except ConfigError as exc:
        raise ValueError from exc


def _data_kernel(value) -> KernelSpec:
    """The kernel of a kernel model: one that can embed new points."""
    spec = _kernel_spec(value)
    if spec is None or spec.family == "delta" or (spec.family == "rbf" and spec.gamma is None):
        raise ValueError
    return spec


def _fraction(value) -> float:
    """r1 or r2: a JSON number in [0, 1], not a boolean; other JSON values fail to compare."""
    if isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError
    return float(value)


def _shift(value) -> float:
    """A finite JSON number >= 0, not a boolean; other JSON values fail to compare."""
    if isinstance(value, bool) or not 0.0 <= value <= sys.float_info.max:
        raise ValueError
    return float(value)


def _notes(value) -> tuple:
    """A JSON list of strings, as a tuple."""
    if not isinstance(value, list) or not all(isinstance(note, str) for note in value):
        raise TypeError
    return tuple(value)


def _flag(value) -> bool:
    """A JSON true or false, and nothing else."""
    if not isinstance(value, bool):
        raise TypeError
    return value


def _from_dual_layout(scalars: dict, arrays: dict, path) -> tuple[dict, dict]:
    """The scalars and arrays of an earlier ``variant: dual`` file in the
    primal layout: basis W V / sigma, eigvals sigma^2, r2 = 0, route dual."""
    sigma = _vec(arrays, "sigma", path)
    factor = _mat(arrays, "factor", path)
    right = _mat(arrays, "right_vectors", path)
    if right.shape != (factor.shape[1], sigma.size):
        raise DataError(f"{path}: arrays 'factor', 'right_vectors' and 'sigma' disagree in shape")
    basis = (factor @ right) / sigma[None, :]
    return ({**scalars, "variant": "primal", "r2": 0.0, "route": "dual"},
            {"mean": _vec(arrays, "mean", path), "eigvals": sigma**2, "basis": basis})


def load_model(path):
    return _model(path, *_parse(path))


def load_primal_model(path) -> RdaModel:
    """:func:`load_model` for a command that needs a basis in the input
    space. A kernel file is checked as :func:`load_model` checks it, then
    refused with ConfigError before its trick pieces are folded: the fold
    alone would build the n x n training Gram."""
    scalars, arrays = _parse(path)
    if scalars.get("variant") in _KERNEL_VARIANTS:
        _kernel_fields(path, scalars, arrays)  # a malformed file is a DataError first
        raise ConfigError(
            f"{path}: kernel models have no basis in the input space: the mapped "
            "training data Phi(X) exist only through inner products and are not available"
        )
    return _model(path, scalars, arrays)


def _model(path, scalars: dict, arrays: dict):
    """The model of a parsed file's scalars and arrays."""
    if scalars.get("variant") == "dual":
        scalars, arrays = _from_dual_layout(scalars, arrays, path)
    variant = scalars.get("variant")
    if variant == "primal":
        notes = _scalar(scalars, "notes", path, _notes, ())
        route = scalars.get("route", "dense")
        if route not in ROUTES:
            raise DataError(f"{path}: unknown route {route!r}")
        basis = _mat(arrays, "basis", path)
        mean, eigvals = _vec(arrays, "mean", path), _vec(arrays, "eigvals", path)
        _agree(path, "'mean' entries", mean.size, "'basis' rows", basis.shape[0])
        _agree(path, "'eigvals' entries", eigvals.size, "'basis' columns", basis.shape[1])
        config = RoweisConfig(
            r1=_scalar(scalars, "r1", path, _fraction),
            r2=_scalar(scalars, "r2", path, _fraction),
            p=int(basis.shape[1]),
            label_kernel=_scalar(scalars, "label_kernel", path, _kernel_spec, None),
            robust=_scalar(scalars, "robust", path, _flag, False),
        )
        return RdaModel(
            basis=basis,
            eigvals=eigvals,
            mean=mean,
            config=config,
            shift=_scalar(scalars, "shift", path, _shift, 0.0),
            notes=notes,
            route=route,
        )
    if variant in _KERNEL_VARIANTS:
        fields = _kernel_fields(path, scalars, arrays)
        if fields["variant"] != "kernel-direct":
            train_x = fields["train_x"]
            row_means = sym(gram(fields["kernel"], train_x, train_x)).mean(axis=1)
            fields["coeffs"], fields["offset"] = fold_centering(
                fields["right_vectors"], fields["sigma"], fields["upsilon"], row_means)
        return KernelRdaModel(**fields)
    raise DataError(f"{path}: unknown model variant {variant!r}")


def _kernel_fields(path, scalars: dict, arrays: dict) -> dict:
    """The checked :class:`KernelRdaModel` fields of a kernel file; a trick
    file's raw pieces are not yet folded, so it has no coeffs or offset."""
    variant = scalars["variant"]
    fields = {
        "variant": variant,
        "notes": _scalar(scalars, "notes", path, _notes, ()),
        "kernel": _scalar(scalars, "kernel", path, _data_kernel),
        "label_kernel": _scalar(scalars, "label_kernel", path, _kernel_spec, None),
        "train_x": _mat(arrays, "train_x", path),
        "eigvals": _vec(arrays, "eigvals", path),
    }
    n_train = ("'train_x' columns", fields["train_x"].shape[1])
    if variant == "kernel-direct":
        coeffs = fields["coeffs"] = _mat(arrays, "coeffs", path)
        _agree(path, "'coeffs' rows", coeffs.shape[0], *n_train)
        components = coeffs.shape[1]
    else:
        sigma = fields["sigma"] = _vec(arrays, "sigma", path)
        right = fields["right_vectors"] = _mat(arrays, "right_vectors", path)
        upsilon = fields["upsilon"] = arrays.get("upsilon")
        if upsilon is None:
            _agree(path, "'right_vectors' rows", right.shape[0], *n_train)
        else:
            _agree(path, "'upsilon' rows", upsilon.shape[0], *n_train)
            _agree(path, "'right_vectors' rows", right.shape[0], "'upsilon' columns", upsilon.shape[1])
        _agree(path, "'sigma' entries", sigma.size, "'right_vectors' columns", right.shape[1])
        components = right.shape[1]
    _agree(path, "'eigvals' entries", fields["eigvals"].size, "components", components)
    fields.update(
        r1=_scalar(scalars, "r1", path, _fraction, 0.0),
        r2=_scalar(scalars, "r2", path, _fraction, 0.0),
        shift=_scalar(scalars, "shift", path, _shift, 0.0),
    )
    return fields
