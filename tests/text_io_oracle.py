"""The text I/O of roweis 0.1.0 as it was before the bulk parse, kept as the
oracle of the differential tests in ``test_text_io.py``.

These are copies of ``datasets.load_csv`` and ``save_csv`` (cell-by-cell),
the CLI's ``_float_cells`` with ``csv.writer``, and ``persist._write_array``,
``save_model`` and ``_parse`` (value-by-value). Do not change them to match
the package: the package must match them, byte for byte and bit for bit.
The changes since: ``save_model`` no longer writes the
``valid_eig_threshold``, ``auto_dim_ratio`` and ``reg`` lines, which stopped
being fit settings, and it writes a kernel model's ``variant`` as the model
holds it, since the model takes the file's names.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from roweis.exceptions import DataError
from roweis.kernel_rda import KernelRdaModel
from roweis.rda import RdaModel

FORMAT_TAG = "roweis-model/1"


# ---------------------------------------------------------------- datasets

def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def save_csv(path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Write samples as rows with a header; floats use shortest round-trip repr."""
    x = np.asarray(x)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = [f"f{i + 1}" for i in range(x.shape[0])]
        if y is not None:
            header.append("label")
        writer.writerow(header)
        for j in range(x.shape[1]):
            row = [repr(float(v)) for v in x[:, j]]
            if y is not None:
                value = y[j]
                row.append(str(int(value)) if np.issubdtype(np.asarray(value).dtype, np.integer) else str(value))
            writer.writerow(row)


def _parse_labels(tokens: list[str]) -> np.ndarray:
    try:
        return np.array([int(t) for t in tokens])
    except ValueError:
        pass
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        return np.array(tokens)


def load_csv(path, label_col: int | str | None = None):
    """Read a rows-are-samples CSV.

    The first row is treated as a header when none of its cells parses as a
    number. ``label_col`` selects the label column by name (needs a header)
    or by 0-based index. Missing, non-numeric or non-finite (``nan``,
    ``inf``) feature values and non-finite labels raise DataError with the
    offending 1-based row and column.

    Returns (X, y, feature_names) with X of shape d x n; y is None when no
    label column was requested.
    """
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: file is empty")

    has_header = not any(_is_float(cell) for cell in rows[0])
    header = rows[0] if has_header else None
    data_rows = rows[1:] if has_header else rows
    width = len(rows[0])

    label_idx = None
    if label_col is not None:
        if isinstance(label_col, str) and not label_col.lstrip("-").isdigit():
            if header is None:
                raise DataError(f"{path}: label column {label_col!r} needs a header row")
            if label_col not in header:
                raise DataError(f"{path}: no column named {label_col!r}")
            label_idx = header.index(label_col)
        else:
            label_idx = int(label_col)
            if not -width <= label_idx < width:
                raise DataError(f"{path}: label column index {label_idx} out of range")
            label_idx %= width

    feature_idx = [i for i in range(width) if i != label_idx]
    names = [header[i] for i in feature_idx] if header else [f"f{i + 1}" for i in feature_idx]

    features = np.empty((len(feature_idx), len(data_rows)))
    labels: list[str] = []
    for j, row in enumerate(data_rows):
        row_no = j + 2 if has_header else j + 1
        if len(row) != width:
            raise DataError(f"{path}: row {row_no} has {len(row)} fields, expected {width}")
        for out_i, i in enumerate(feature_idx):
            cell = row[i].strip()
            if cell == "":
                raise DataError(f"{path}: row {row_no} has a missing value in column {i + 1}")
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {row_no} column {i + 1} is not numeric: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {row_no} column {i + 1} is not finite: {cell!r}")
            features[out_i, j] = value
        if label_idx is not None:
            cell = row[label_idx].strip()
            if cell == "":
                raise DataError(f"{path}: row {row_no} has a missing label")
            if _is_float(cell) and not math.isfinite(float(cell)):
                raise DataError(
                    f"{path}: row {row_no} column {label_idx + 1} is not finite: {cell!r}"
                )
            labels.append(cell)

    y = _parse_labels(labels) if label_idx is not None else None
    return features, y, names


# ---------------------------------------------------------------- cli


def float_cells(values) -> list:
    return [repr(float(v)) for v in values]


def write_rows(path, header: list, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path, header: list, values, lead=None) -> None:
    """transform, reconstruct (no lead) and the experiments panels (lead)."""
    values = np.asarray(values)
    rows = []
    for j in range(values.shape[1]):
        rows.append(([] if lead is None else list(lead[j])) + float_cells(values[:, j]))
    write_rows(path, header, rows)


# ---------------------------------------------------------------- persist


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


def _kernel_dict(spec):
    return None if spec is None else spec.to_dict()


def save_model(model, path) -> None:
    lines = [FORMAT_TAG]
    if isinstance(model, RdaModel):
        cfg = model.config
        _write_scalar(lines, "variant", "primal")
        _write_scalar(lines, "r1", cfg.r1)
        _write_scalar(lines, "r2", cfg.r2)
        _write_scalar(lines, "robust", cfg.robust)
        _write_scalar(lines, "label_kernel", _kernel_dict(cfg.label_kernel))
        _write_scalar(lines, "shift", model.shift)
        _write_scalar(lines, "notes", list(model.notes))
        _write_scalar(lines, "route", model.route)
        _write_array(lines, "mean", model.mean)
        _write_array(lines, "eigvals", model.eigvals)
        _write_array(lines, "basis", model.basis)
    elif isinstance(model, KernelRdaModel):
        _write_scalar(lines, "variant", model.variant)
        _write_scalar(lines, "r1", model.config.r1)
        _write_scalar(lines, "r2", model.config.r2)
        _write_scalar(lines, "kernel", _kernel_dict(model.kernel))
        _write_scalar(lines, "label_kernel", _kernel_dict(model.config.label_kernel))
        _write_scalar(lines, "shift", model.shift)
        _write_scalar(lines, "notes", list(model.notes))
        _write_array(lines, "eigvals", model.eigvals)
        _write_array(lines, "train_x", model.train_x)
        if model.variant == "kernel-direct":
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

