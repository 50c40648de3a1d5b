"""Property version of the differential text I/O tests.

For random shapes and random float64 values (subnormals, -0.0 and 1e±300
included), the CSV writers and the model-array writer must give the bytes of
the cell-by-cell code kept in ``text_io_oracle``, and the CSV loader and the
model parser must return what it returns, bit for bit, or raise the same
error text. The CSV texts vary the cell format, spacing, quoting, line ends,
blank lines, the header, the label column and one corrupted cell, and the
loader's block size varies from one line to the whole file. Runs only
where ``hypothesis`` is installed; it is a test extra.
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import text_io_oracle as oracle  # noqa: E402
from roweis import datasets, persist  # noqa: E402

from test_text_io import outcome, parse_outcome  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
                     1.7976931348623157e308, 0.1, 1 / 3]),
)
TEXT = st.text(alphabet='ab ,"\n\r\t-1.', max_size=5)
BAD_CELLS = ["", " ", "nan", "inf", "-inf", "abc", "1_0", "\u0661", '"2"', "1e400", "0x1", "1 2"]


@st.composite
def matrices(draw, min_rows=0):
    rows = draw(st.integers(min_rows, 5))
    cols = draw(st.integers(0, 12))
    values = draw(st.lists(FLOATS, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def label_vectors(draw, n):
    kind = draw(st.sampled_from(["none", "int", "float", "text"]))
    if kind == "int":
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=int)
    if kind == "float":
        return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    if kind == "text":
        return np.array(draw(st.lists(TEXT, min_size=n, max_size=n)), dtype=str)
    return None


@PROPERTY_SETTINGS
@given(data=st.data())
def test_save_csv_matches_the_oracle(tmp_path_factory, data):
    x = data.draw(matrices())
    y = data.draw(label_vectors(x.shape[1]))
    tmp = tmp_path_factory.mktemp("save")
    datasets.save_csv(tmp / "new.csv", x, y)
    oracle.save_csv(tmp / "old.csv", x, y)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cli_csv_writer_matches_the_oracle(tmp_path_factory, data):
    values = data.draw(matrices(min_rows=1))
    n = values.shape[1]
    lead = data.draw(st.none() | st.lists(st.lists(TEXT, min_size=1, max_size=2), min_size=n, max_size=n))
    header = [f"e{i + 1}" for i in range(values.shape[0])]
    tmp = tmp_path_factory.mktemp("write")
    with open(tmp / "new.csv", "w", newline="") as handle:
        datasets.write_csv(handle, header, values, lead)
    oracle.write_columns(tmp / "old.csv", header, values, lead)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@PROPERTY_SETTINGS
@given(arrays=st.lists(matrices(), min_size=1, max_size=3), vector=st.booleans())
def test_model_arrays_match_the_oracle(tmp_path_factory, arrays, vector):
    if vector:
        arrays[0] = arrays[0].ravel()
    lines = [oracle.FORMAT_TAG]
    handle = io.StringIO()
    handle.write(oracle.FORMAT_TAG + "\n")
    for i, arr in enumerate(arrays):
        oracle._write_array(lines, f"a{i}", arr)
        persist._write_array(handle, f"a{i}", arr)
    assert handle.getvalue() == "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("model") / "model.txt"
    path.write_text(handle.getvalue())
    parsed = parse_outcome(persist._parse, path)
    assert parsed == parse_outcome(oracle._parse, path)
    assert parsed[0] == "parsed"


def _cell_text(draw, value: float) -> str:
    form = draw(st.sampled_from(["repr", "%.17g", "%.4e", "padded", "tab", "quoted"]))
    if form == "repr":
        return repr(value)
    if form in ("%.17g", "%.4e"):
        return form % value
    if form == "padded":
        return f" {value!r}  "
    if form == "tab":
        return f"\t{value!r}"
    return f'"{value!r}"'


@PROPERTY_SETTINGS
@given(data=st.data())
def test_load_csv_matches_the_oracle(tmp_path_factory, data):
    draw = data.draw
    n = draw(st.integers(0, 8))
    d = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = draw(label_vectors(n))
    label_at = draw(st.integers(0, d)) if labels is not None else None
    # plain: repr cells and unquoted labels, a file the bulk parse takes whole;
    # varied: any cell form; broken: varied plus a bad cell or a ragged row.
    mode = draw(st.sampled_from(["plain", "varied", "broken"]))

    rows = []
    for j, row in enumerate(values.tolist()):
        cells = [repr(v) if mode == "plain" else _cell_text(draw, v) for v in row]
        if labels is not None:
            cell = str(labels[j])
            if mode == "plain" and labels.dtype.kind == "U":
                cell = "x" + "".join(c for c in cell if c not in '",\r\n')
            cells.insert(label_at, cell)
        rows.append(cells)
    if rows and mode == "broken":
        j = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            rows[j][draw(st.integers(0, len(rows[j]) - 1))] = draw(st.sampled_from(BAD_CELLS))
        else:
            del rows[j][-1]

    width = d + (labels is not None)
    names = [f"f{i + 1}" for i in range(width)]
    if labels is not None:
        names[label_at] = "label"
    lines = ([",".join(names)] if draw(st.booleans()) else []) + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")

    label_col = None
    if labels is not None:
        label_col = draw(st.sampled_from([label_at, label_at - width, str(label_at)]
                                         + (["label"] if lines and lines[0] == ",".join(names) else [])))
    path = tmp_path_factory.mktemp("load") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    block = draw(st.one_of(st.integers(1, 64), st.just(datasets.PARSE_BLOCK)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "PARSE_BLOCK", block)
        assert outcome(datasets.load_csv, path, label_col) == outcome(oracle.load_csv, path, label_col)
