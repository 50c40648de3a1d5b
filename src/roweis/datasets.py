"""Synthetic datasets, CSV ingestion and splitting.

All generators draw from numpy's default 64-bit generator (PCG64) seeded
explicitly, with a documented draw order, so a given (generator, n, seed)
triple is bit-reproducible across runs and platforms.

A CSV is read through one session (:func:`csv_session`), which reads its
layout once and then parses its rows block by block, either into X
(:func:`load_csv` is the one-call form) or for a reader that keeps no X,
such as the command line's streamed fit, whose slabs and class statistics
are :func:`roweis.rda.fit_blocks`'. :func:`write_csv` is the one CSV writer
of data files, embeddings, reconstructions and experiment panels.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import as_labels, classes, float_rows
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
        as_labels(self.y, self.X.shape[1])  # NaN or inf in real-valued labels raises DataError

    @property
    def n(self) -> int:
        return int(self.X.shape[1])


def _checked_seed(seed: int) -> int:
    """``seed``, or ConfigError for a negative one, which numpy refuses."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


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
    rng = np.random.default_rng(_checked_seed(seed))
    cls = np.arange(n) % 2
    flip = rng.integers(0, 2, size=n)
    ax = rng.uniform(margin, 1.0, size=n)
    ay = rng.uniform(margin, 1.0, size=n)
    sx = np.where(flip == 0, 1.0, -1.0)
    sy = np.where(cls == 0, sx, -sx)
    x = np.vstack([sx * ax, sy * ay])
    return Dataset(X=x, y=cls.astype(int), kind="classification")


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
    if not (0.0 <= inner < outer < math.inf and 0.0 <= noise < math.inf):
        raise ConfigError(f"need finite 0 <= inner < outer and noise >= 0, got {inner}, {outer}, {noise}")
    rng = np.random.default_rng(_checked_seed(seed))
    cls = np.arange(n) % 2
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radial = rng.standard_normal(n) * noise
    radius = np.where(cls == 0, inner, outer) + radial
    x = np.vstack([radius * np.cos(angles), radius * np.sin(angles)])
    return Dataset(X=x, y=cls.astype(int), kind="classification")


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
    if not 0.0 <= noise_scale < math.inf:
        raise ConfigError(f"noise_scale must be a finite number >= 0, got {noise_scale}")
    rng = np.random.default_rng(_checked_seed(seed))
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
    return Dataset(X=x, y=y.astype(float), kind="regression")


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
    rng = np.random.default_rng(_checked_seed(seed))
    target = int(np.floor(train_fraction * n + 0.5))
    target = min(max(target, 1), n - 1)

    stratify = ds.kind == "classification"
    if stratify:
        ids, inverse = classes(ds.y)
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
        # The floors sum to at most f n, so to at most the target, and to at
        # least f n - #classes; each is at most c_j - 1 (f < 1), also where the
        # target is clamped to n - 1. So 0 <= remainder <= #classes, and every
        # class can take one more.
        remainder = target - int(takes.sum())
        takes[np.argsort(-(exact - takes), kind="stable")[:remainder]] += 1
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
    train = Dataset(X=ds.X[:, train_idx], y=ds.y[train_idx], kind=ds.kind)
    test = Dataset(X=ds.X[:, test_idx], y=ds.y[test_idx], kind=ds.kind)
    return train, test


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _label_text(value) -> str:
    return str(int(value)) if np.issubdtype(np.asarray(value).dtype, np.integer) else str(value)


def save_csv(path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Write samples as rows under the header f1, f2, ... (and ``label``),
    with the labels after the features (:func:`write_csv`)."""
    x = np.asarray(x)
    header = [f"f{i + 1}" for i in range(x.shape[0])]
    cells = None
    if y is not None:
        header.append("label")
        cells = [(_label_text(y[j]),) for j in range(x.shape[1])]
    with open(path, "w", newline="") as handle:
        write_csv(handle, header, x, cells, after=True)


def write_csv(handle, header: list, values, cells=None, after: bool = False) -> None:
    """Write a CSV with one row per column of the 2-D ``values`` to the text
    file ``handle`` (opened with ``newline=""``). Each number is the shortest
    repr that reads back as the same double. ``cells`` optionally holds each
    row's text cells, written before its numbers, or after them with
    ``after``. The header and the text cells go through ``csv.writer`` (its
    quoting, its ``\\r\\n``); the numbers are formatted row by row."""
    values = np.asarray(values)
    rows = float_rows(values.T, ",")
    if cells is not None:
        # An empty cell stands for the numbers, so csv quotes the text as in
        # the whole row; with no numbers the text is the whole row. Cells
        # repeat (a split and a label), so each distinct tuple is quoted once.
        cells = [tuple(row_cells) for row_cells in cells]
        numbers = [""] if values.shape[0] else []
        quoted = {key: _csv_cells([*numbers, *key] if after else [*key, *numbers]) for key in set(cells)}
        rows = (row + quoted[key] if after else quoted[key] + row for key, row in zip(cells, rows))
    csv.writer(handle).writerow(header)
    handle.writelines(row + "\r\n" for row in rows)


def _csv_cells(cells) -> str:
    """One CSV row as ``csv.writer`` writes it (its quoting), without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()[:-2]


# Lines csv.reader turns into an empty row; load_csv skips them.
_BLANK_LINES = ("\n", "\r\n", "\r")

# Characters of text the bulk parse reads per block (``readlines`` hint): large
# enough that the per-block cost vanishes, small enough that the text and the
# table of one block stay small beside X, whether its rows are wide or short.
PARSE_BLOCK = 1 << 18

# Bytes the row count reads per chunk.
COUNT_CHUNK = 1 << 16


def load_csv(path, label_col: int | str | None = None):
    """Read a rows-are-samples CSV: the one-call form of :func:`csv_session`.

    The first row is treated as a header when none of its cells parses as a
    number. ``label_col`` selects the label column by name (needs a header)
    or by 0-based index. Missing, non-numeric or non-finite (``nan``,
    ``inf``) feature values and non-finite labels raise DataError with the
    offending 1-based row and column; so does a row csv cannot read, such as
    one with a field longer than ``csv.field_size_limit()``, and a file that
    is not UTF-8 text.

    Returns (X, y, feature_names) with X of shape d x n; y is None when no
    label column was requested.
    """
    with csv_session(path, label_col) as session:
        return session.collect()


@contextlib.contextmanager
def csv_session(path, label_col):
    """A :class:`CsvSession` of ``path``, open while the context lasts; an
    OSError or a byte that is not UTF-8 on the way raises DataError
    ``cannot read ...``."""
    try:
        with open(path, newline="") as handle:
            yield CsvSession(path, handle, label_col)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


class CsvSession:
    """One open CSV, its layout read once on opening: the rows counted
    (:func:`_count_rows`), and the fields, the header, the label field and
    the feature names fixed by the first row. ``n`` and ``d`` are the shape
    of its X, known before any row is parsed.

    :meth:`blocks` hands out the bulk parse's blocks (:func:`_parse_bulk`)
    to a reader that keeps no X; :meth:`collect` writes them into one
    preallocated X. Where a block refuses, the cell-by-cell scan
    (:func:`_scan_rows`) reads the file again and decides: it accepts what
    the bulk parse does not take (quoted cells, ``1_0``, Unicode digits) and
    names the first bad cell otherwise. Either may follow the other on the
    one handle, so the file is counted once.
    """

    def __init__(self, path, handle, label_col):
        self.path, self.handle = path, handle
        n_rows = _count_rows(handle)
        reader = csv.reader(handle)
        first = next(_csv_rows(path, reader), None)
        if first is None:
            raise DataError(f"{path}: file is empty")

        self.has_header = not any(_is_float(cell) for cell in first)
        header = first if self.has_header else None
        self.width = width = len(first)

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
        self.label_idx = label_idx
        self.feature_idx = [i for i in range(width) if i != label_idx]
        self.names = [header[i] for i in self.feature_idx] if header else [f"f{i + 1}" for i in self.feature_idx]
        self.d = len(self.feature_idx)

        # reader.line_num counts the lines the first row took, blank lines before it included.
        handle.seek(0)
        for _ in range(reader.line_num if self.has_header else reader.line_num - 1):
            n_rows -= handle.readline() not in _BLANK_LINES
        self.n = n_rows
        self.start = handle.tell()

    def blocks(self):
        """The :func:`_parse_bulk` blocks of (features, label cells) from the
        first data line; fewer than ``n`` columns where the bulk parse refuses."""
        self.handle.seek(self.start)
        return _parse_bulk(self.handle, self.n, self.width, self.feature_idx, self.label_idx)

    def collect(self):
        """(X, y, feature_names) of the file; y is None without a label column."""
        labelled = self.label_idx is not None
        # C order, as the scan builds X: reductions over samples must not change.
        features = np.empty((self.d, self.n))
        labels = [] if labelled else None
        done = 0
        for part, cells in self.blocks():
            features[:, done:done + part.shape[1]] = part
            done += part.shape[1]
            if labelled:
                labels += cells
            del part, cells  # one block live at a time
        if done < self.n:
            del features, labels  # before the scan builds its own
            self.handle.seek(0)
            data_rows = list(_csv_rows(self.path, csv.reader(self.handle)))
            if self.has_header:
                del data_rows[0]
            features, labels = _scan_rows(self.path, data_rows, self.has_header, self.width, self.feature_idx,
                                          self.label_idx)
        return features, self.read_labels(labels) if labelled else None, self.names

    @staticmethod
    def read_labels(cells: list[str]) -> np.ndarray:
        """The labels of label cells: ints if every cell reads as one (text
        past 64 bits, as floats would merge ids), else floats if every cell
        does, else the text."""
        try:
            ints = np.array([int(t) for t in cells])
            return ints if ints.dtype.kind not in "fO" else np.array(cells)
        except ValueError:
            pass
        try:
            return np.array([float(t) for t in cells])
        except ValueError:
            return np.array(cells)


def _count_rows(handle):
    """The non-blank lines of the text file ``handle``, which it leaves at its start.

    While the bytes are ASCII, and so UTF-8, counts them ``COUNT_CHUNK`` at a
    time: a non-blank line starts at each byte that is not a line end (CR or
    LF) and follows one or the file's start, whichever of CRLF, CR and LF ends
    its lines. A file with any other byte is decoded in full and counted line by
    line, so a byte that is not UTF-8 raises UnicodeDecodeError before any row
    is read.
    """
    rows = 0
    after_line_end = True  # a line starts at the file's first byte
    while chunk := handle.buffer.read(COUNT_CHUNK):
        if not chunk.isascii():
            handle.seek(0)
            rows = sum(line not in _BLANK_LINES for line in handle)
            break
        codes = np.frombuffer(chunk, np.uint8)
        line_end = (codes == ord("\n")) | (codes == ord("\r"))
        rows += np.count_nonzero(line_end[:-1] > line_end[1:]) + (after_line_end and not line_end[0])
        after_line_end = line_end[-1]
    handle.seek(0)
    return int(rows)


def _csv_rows(path, reader):
    """The non-blank rows of a csv reader; a row csv refuses raises DataError."""
    try:
        yield from (row for row in reader if row)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _loadtxt(rows, usecols):
    """``np.loadtxt`` of the lines ``rows``, or None where it refuses them."""
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None


def _parse_bulk(handle, n_rows, width, feature_idx, label_idx):
    """Yield (features, label cells) for each block of the data lines left in
    ``handle``: a d x k array and a list of k cells (None without a label
    column). Stops early, with no more blocks, where the bulk parse refuses
    one, to leave the file to the scan.

    Reads ``PARSE_BLOCK`` characters of lines at a time. Takes only lines csv
    would split on every comma: no quote character, no NUL (csv refuses it
    on Python 3.10) and no line longer than csv's field limit. Each block's
    feature columns go through ``np.loadtxt``, which reads each cell as
    ``float(cell.strip())`` does, bit for bit, or refuses it; so the block
    size changes no bit. Everything the scan would reject (a ragged row, an
    empty, non-numeric or non-finite cell, an empty or non-finite label)
    refuses, as does a file with no data rows or no feature columns.
    """
    if not n_rows or not feature_idx:
        return
    limit = csv.field_size_limit()
    # loadtxt is faster on every column than with usecols, so numeric labels
    # come along until a block holds one it cannot read.
    usecols = None
    while block := handle.readlines(PARSE_BLOCK):
        rows = [line for line in block if line not in _BLANK_LINES]
        if not rows:
            continue
        for line in rows:
            if line.count(",") != width - 1 or '"' in line or "\0" in line or len(line) > limit:
                return
        table = _loadtxt(rows, usecols)
        if table is None and usecols is None and label_idx is not None:
            usecols = feature_idx
            table = _loadtxt(rows, usecols)
        if table is None:
            return
        part = table.T if usecols else table.T[feature_idx]
        if part.shape != (len(feature_idx), len(rows)) or not np.all(np.isfinite(part)):
            return
        cells = None
        if label_idx is not None:
            # The label cell is the last field left after cutting off the fields behind it.
            behind = width - 1 - label_idx
            cells = [line.rsplit(",", behind)[0].rpartition(",")[2].strip() for line in rows]
            for cell in cells:
                if cell == "" or (_is_float(cell) and not math.isfinite(float(cell))):
                    return
        del block, rows, table
        yield part, cells
        # Let this block go before the next is read: one block is live at a time.
        del part, cells


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
