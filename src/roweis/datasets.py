"""Synthetic datasets, CSV ingestion, splitting, standardization.

All generators draw from numpy's default 64-bit generator (PCG64) seeded
explicitly, with a documented draw order, so a given (generator, n, seed)
triple is bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import csv_cells, float_rows
from .exceptions import ConfigError, DataError

XOR_MARGIN = 0.05
RING_INNER = 1.0
RING_OUTER = 3.0
RING_NOISE = 0.1


@dataclass(frozen=True)
class Dataset:
    """Column-wise data matrix with labels and a task kind."""

    X: np.ndarray
    y: np.ndarray
    kind: str  # classification | regression
    seed: int

    def __post_init__(self):
        if self.X.ndim != 2:
            raise DataError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[1],):
            raise DataError(
                f"label length {self.y.shape} does not match {self.X.shape[1]} samples"
            )
        if self.kind not in ("classification", "regression"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if not np.all(np.isfinite(self.X)):
            raise DataError("X contains NaN or Inf")

    @property
    def n(self) -> int:
        return int(self.X.shape[1])


def xor_class(x1: float, x2: float) -> int:
    """0 when the coordinates share a sign, 1 otherwise."""
    return int((x1 > 0) != (x2 > 0))


def gen_xor(n: int, seed: int, margin: float = XOR_MARGIN) -> Dataset:
    """Uniform points in [-1, 1]^2 with a band of width ``margin`` around the
    axes excluded; the class is the exclusive-or of the coordinate signs.

    Classes alternate sample by sample, so counts are balanced within one.
    Draw order: quadrant picks, then |x1| values, then |x2| values.
    """
    if n < 4:
        raise ConfigError(f"n must be at least 4, got {n}")
    if not 0.0 <= margin < 1.0:
        raise ConfigError(f"margin must lie in [0, 1), got {margin}")
    rng = np.random.default_rng(seed)
    cls = np.arange(n) % 2
    flip = rng.integers(0, 2, size=n)
    ax = rng.uniform(margin, 1.0, size=n)
    ay = rng.uniform(margin, 1.0, size=n)
    sx = np.where(flip == 0, 1.0, -1.0)
    sy = np.where(cls == 0, sx, -sx)
    x = np.vstack([sx * ax, sy * ay])
    return Dataset(X=x, y=cls.astype(int), kind="classification", seed=int(seed))


def gen_rings(
    n: int,
    seed: int,
    inner: float = RING_INNER,
    outer: float = RING_OUTER,
    noise: float = RING_NOISE,
) -> Dataset:
    """Two concentric rings with Gaussian radial noise and uniform angles.

    Class 0 sits on the inner radius, class 1 on the outer; classes alternate
    sample by sample. Draw order: angles, then radial noise.
    """
    if n < 4:
        raise ConfigError(f"n must be at least 4, got {n}")
    rng = np.random.default_rng(seed)
    cls = np.arange(n) % 2
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radial = rng.standard_normal(n) * noise
    radius = np.where(cls == 0, inner, outer) + radial
    x = np.vstack([radius * np.cos(angles), radius * np.sin(angles)])
    return Dataset(X=x, y=cls.astype(int), kind="classification", seed=int(seed))


def gen_regression_benchmark(bench_id: int, n: int, seed: int, noise_scale: float = 1.0) -> Dataset:
    """Three synthetic regression problems over 4- or 10-dimensional inputs.

    1: standard-normal inputs, y = x1 / (0.5 + (x2 + 1.5)^2) + (1 + x2)^2
       plus 0.5 * standard-normal additive noise.
    2: inputs uniform on [0, 1]^4 with the corner where every coordinate is
       at most 0.7 excluded (rejection sampling), y = sin^2(pi x2 + 1) plus
       0.5 * additive noise; the support is deliberately not elliptical.
    3: 10-dimensional standard-normal inputs with purely multiplicative
       noise, y = 0.5 * x1^2 * eps.

    Draw order: the full input matrix first (benchmark 2 draws rejected
    batches in sequence), then the per-sample noise. ``noise_scale``
    multiplies eps and exists so tests can pin the noiseless surface.
    """
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    if bench_id == 1:
        x = rng.standard_normal((4, n))
        eps = rng.standard_normal(n) * noise_scale
        y = x[0] / (0.5 + (x[1] + 1.5) ** 2) + (1.0 + x[1]) ** 2 + 0.5 * eps
    elif bench_id == 2:
        blocks = []
        need = n
        while need > 0:
            cand = rng.uniform(0.0, 1.0, size=(4, need))
            ok = ~np.all(cand <= 0.7, axis=0)
            blocks.append(cand[:, ok])
            need -= int(ok.sum())
        x = np.hstack(blocks)[:, :n]
        eps = rng.standard_normal(n) * noise_scale
        y = np.sin(np.pi * x[1] + 1.0) ** 2 + 0.5 * eps
    elif bench_id == 3:
        x = rng.standard_normal((10, n))
        eps = rng.standard_normal(n) * noise_scale
        y = 0.5 * x[0] ** 2 * eps
    else:
        raise ConfigError(f"benchmark id must be 1, 2, or 3, got {bench_id}")
    return Dataset(X=x, y=y.astype(float), kind="regression", seed=int(seed))


def train_test_split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seed-reproducible split.

    Classification splits are stratified: each class contributes its floor
    share and leftover slots go to the largest fractional remainders, keeping
    per-class proportions within one sample. A class with fewer than two
    members triggers a warning and a plain non-stratified split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = ds.n
    rng = np.random.default_rng(seed)
    target = int(np.floor(train_fraction * n + 0.5))
    target = min(max(target, 1), n - 1)

    stratify = ds.kind == "classification"
    if stratify:
        ids, inverse = np.unique(ds.y, return_inverse=True)
        counts = np.bincount(inverse)
        if np.any(counts < 2):
            warnings.warn(
                "a class has fewer than 2 members; falling back to a non-stratified split",
                stacklevel=2,
            )
            stratify = False

    if stratify:
        exact = train_fraction * counts
        takes = np.floor(exact).astype(int)
        remainder = target - int(takes.sum())
        if remainder > 0:
            order = np.argsort(-(exact - takes), kind="stable")
            for j in order:
                if remainder == 0:
                    break
                if takes[j] < counts[j]:
                    takes[j] += 1
                    remainder -= 1
        elif remainder < 0:
            order = np.argsort(exact - takes, kind="stable")
            for j in order:
                if remainder == 0:
                    break
                if takes[j] > 0:
                    takes[j] -= 1
                    remainder += 1
        train_idx = []
        for j in range(ids.size):
            members = np.flatnonzero(inverse == j)
            perm = rng.permutation(members)
            train_idx.append(perm[: takes[j]])
        train_idx = np.sort(np.concatenate(train_idx))
    else:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:target])

    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)
    train = Dataset(X=ds.X[:, train_idx], y=ds.y[train_idx], kind=ds.kind, seed=ds.seed)
    test = Dataset(X=ds.X[:, test_idx], y=ds.y[test_idx], kind=ds.kind, seed=ds.seed)
    return train, test


@dataclass(frozen=True)
class StandardizeStats:
    mean: np.ndarray
    scale: np.ndarray


def standardize(x_train, x_test=None):
    """Zero-mean unit-variance per feature, with test data transformed by
    the training statistics. Constant features are centered and left at
    scale 1."""
    x_train = np.asarray(x_train, dtype=float)
    mean = x_train.mean(axis=1)
    std = x_train.std(axis=1)
    scale = np.where(std > 0.0, std, 1.0)
    stats = StandardizeStats(mean=mean, scale=scale)
    out_train = (x_train - mean[:, None]) / scale[:, None]
    if x_test is None:
        return out_train, None, stats
    x_test = np.asarray(x_test, dtype=float)
    out_test = (x_test - mean[:, None]) / scale[:, None]
    return out_train, out_test, stats


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _label_text(value) -> str:
    return str(int(value)) if np.issubdtype(np.asarray(value).dtype, np.integer) else str(value)


def save_csv(path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Write samples as rows with a header; floats use shortest round-trip repr.

    The header and the label cells go through ``csv.writer`` (its quoting and
    its ``\\r\\n`` line end); the feature cells are formatted row by row.
    """
    x = np.asarray(x)
    header = [f"f{i + 1}" for i in range(x.shape[0])]
    rows = float_rows(x.T, ",")
    if y is not None:
        header.append("label")
        # A label cell after the features reads ",<cell>"; with no features
        # it is the whole row, which csv quotes differently when it is empty.
        lead = [""] if x.shape[0] else []
        labels = (csv_cells(lead + [_label_text(y[j])]) for j in range(x.shape[1]))
        rows = (row + label for row, label in zip(rows, labels))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(row + "\r\n" for row in rows)


def _parse_labels(tokens: list[str]) -> np.ndarray:
    try:
        return np.array([int(t) for t in tokens])
    except ValueError:
        pass
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        return np.array(tokens)


# Lines csv.reader turns into an empty row; load_csv skips them.
_BLANK_LINES = ("\n", "\r\n", "\r")


def load_csv(path, label_col: int | str | None = None):
    """Read a rows-are-samples CSV.

    The first row is treated as a header when none of its cells parses as a
    number. ``label_col`` selects the label column by name (needs a header)
    or by 0-based index. Missing, non-numeric or non-finite (``nan``,
    ``inf``) feature values and non-finite labels raise DataError with the
    offending 1-based row and column.

    The data rows are parsed in one bulk call (:func:`_parse_bulk`). When that
    refuses them, the cell-by-cell scan (:func:`_scan_rows`) decides: it
    accepts what the bulk parse does not take (quoted cells, ``1_0``, Unicode
    digits) and names the first bad cell otherwise.

    Returns (X, y, feature_names) with X of shape d x n; y is None when no
    label column was requested.
    """
    try:
        with open(path, newline="") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(lines)
    first = next((row for row in reader if row), None)
    if first is None:
        raise DataError(f"{path}: file is empty")

    has_header = not any(_is_float(cell) for cell in first)
    header = first if has_header else None
    width = len(first)

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

    # reader.line_num counts the lines the first row took, blank lines before it included.
    data_lines = lines[reader.line_num if has_header else reader.line_num - 1:]
    parsed = _parse_bulk(data_lines, width, feature_idx, label_idx)
    if parsed is None:
        data_rows = [row for row in reader if row]
        if not has_header:
            data_rows.insert(0, first)
        parsed = _scan_rows(path, data_rows, has_header, width, feature_idx, label_idx)
    features, labels = parsed
    y = _parse_labels(labels) if label_idx is not None else None
    return features, y, names


def _parse_bulk(lines, width, feature_idx, label_idx):
    """(features, label cells) of the data lines, or None to leave them to the scan.

    Takes only lines csv would split on every comma: no quote character, no
    NUL (csv refuses it on Python 3.10) and no line longer than csv's field
    limit. The feature columns go through one ``np.loadtxt`` call, which reads
    each cell as ``float(cell.strip())`` does, bit for bit, or refuses it.
    Everything the scan would reject (a ragged row, an empty, non-numeric or
    non-finite cell, an empty or non-finite label) returns None.
    """
    rows = [line for line in lines if line not in _BLANK_LINES]
    if not rows or not feature_idx:
        return None
    limit = csv.field_size_limit()
    for line in rows:
        if line.count(",") != width - 1 or '"' in line or "\0" in line or len(line) > limit:
            return None
    try:
        # loadtxt is faster on every column than with usecols, so numeric labels come along.
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        picked = feature_idx
    except ValueError:
        if label_idx is None:
            return None
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, usecols=feature_idx, ndmin=2)
        except ValueError:
            return None
        picked = slice(None)
    # C order, as the scan builds X: reductions over samples must not change.
    features = np.ascontiguousarray(table.T[picked])
    if features.shape != (len(feature_idx), len(rows)) or not np.all(np.isfinite(features)):
        return None
    labels = None
    if label_idx is not None:
        # The label cell is the last field left after cutting off the fields behind it.
        behind = width - 1 - label_idx
        labels = [line.rsplit(",", behind)[0].rpartition(",")[2].strip() for line in rows]
        for cell in labels:
            if cell == "" or (_is_float(cell) and not math.isfinite(float(cell))):
                return None
    return features, labels


def _scan_rows(path, data_rows, has_header, width, feature_idx, label_idx):
    """Cell-by-cell parse of csv rows; the first bad cell raises DataError."""
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
    return features, labels
