"""Differential tests of the text I/O against the cell-by-cell code it replaced.

``text_io_oracle`` keeps the CSV loader, the CSV and model writers and the
model-file parser as they were before the bulk parse. Every writer must give
the oracle's bytes, and every load the oracle's arrays bit for bit (values,
dtype and memory order), its feature names and, for a malformed file, the
same error text, whatever the loader's block size.
"""

import re

import numpy as np
import pytest

import text_io_oracle as oracle
from roweis import _util, cli, datasets, experiments, persist, rda
from roweis.cli import main
from test_kernel_rda import traced_peak


def outcome(load, path, label_col=None):
    """Everything a CSV load returns or raises, in comparable form."""
    try:
        x, y, names = load(path, label_col)
    except Exception as exc:  # the oracle's csv.Error passes through too
        return ("raised", type(exc).__name__, str(exc))
    labels = None if y is None else (y.dtype.str, y.shape, y.tobytes())
    return ("loaded", x.dtype.str, x.shape, x.flags.c_contiguous, x.tobytes(), labels, names)


def assert_same_load(path, label_col=None):
    expected = outcome(oracle.load_csv, path, label_col)
    assert outcome(datasets.load_csv, path, label_col) == expected
    return expected


# ---------------------------------------------------------------- malformed and unusual files

TABLE = {
    "plain": ("f1,f2,label\n1.5,2,0\n3,4.25,1\n", "label"),
    "headerless": ("1.5,2\n3,4\n", None),
    "headerless label by index": ("1.5,2,0\n3,4,1\n", 2),
    "label by negative index": ("f1,f2,label\n1,2,a\n3,4,b\n", -1),
    "label by negative index text": ("f1,f2,label\n1,2,a\n3,4,b\n", "-1"),
    "label first": ("label,f1,f2\n0,1,2\n1,3,4\n", 0),
    "label in the middle": ("f1,label,f2\n1,x,2\n3,y,4\n", "label"),
    "label index out of range": ("f1,f2\n1,2\n", 5),
    "label name without header": ("1,2\n3,4\n", "label"),
    "unknown label name": ("f1,f2\n1,2\n", "nope"),
    "label is the only column": ("label\n1\n2\n", "label"),
    "string labels": ("f1,label\n1,cat\n2,dog\n", "label"),
    "int and float labels": ("f1,label\n1,0\n2,0.5\n", "label"),
    "whole-number float labels": ("f1,label\n1,1.0\n2,2.0\n", "label"),
    "ragged short row": ("f1,f2\n1,2\n3\n", None),
    "ragged long row": ("f1,f2\n1,2\n3,4,5\n", None),
    "ragged long row, string labels": ("f1,f2,label\n1,2,a\n3,4,b,c\n", "label"),
    "ragged short row, string labels": ("f1,f2,label\n1,2,a\n3,4\n", "label"),
    "trailing comma": ("f1,f2\n1,2,\n", None),
    "empty feature cell": ("f1,f2\n1,\n", None),
    "empty label cell": ("f1,label\n1,\n", "label"),
    "blank label cell": ("f1,label\n1,  \n", "label"),
    "whitespace-only line": ("f1,f2\n1,2\n   \n3,4\n", None),
    "whitespace-only line, one column": ("f1\n1\n \n2\n", None),
    "blank lines": ("\n\nf1,f2\n\n1,2\n\n3,4\n\n", None),
    "blank lines only": ("\n\n\n", None),
    "empty file": ("", None),
    "header only": ("f1,f2\n", None),
    "header only with label": ("f1,label\n", "label"),
    "quoted cells": ('f1,f2\n"1.5",2\n3,"4"\n', None),
    "quoted header with comma": ('"f,1",f2\n1,2\n', None),
    "quoted header over two lines": ('"f\n1",f2\n1,2\n', None),
    "quoted label with comma": ('f1,label\n1,"a,b"\n2,c\n', "label"),
    "quote in a label": ('f1,label\n1,a"b\n', "label"),
    "quoted label": ('f1,label\n1,"cat"\n2,dog\n', "label"),
    "crlf line ends": ("f1,f2,label\r\n1,2,0\r\n3,4,1\r\n", "label"),
    "cr line ends": ("f1,f2\r1,2\r3,4\r", None),
    "mixed line ends": ("f1,f2\r\n1,2\n3,4\r5,6", None),
    "crlf blank lines": ("f1,f2\r\n\r\n1,2\r\n\r\n", None),
    "no final line end": ("f1,f2\n1,2\n3,4", None),
    "spaces around cells": ("f1,f2,label\n 1.5 , 2 , 0 \n3,\t4\t,1\n", "label"),
    "unicode spaces around cells": ("f1,f2\n\xa01.5\u2003,2\u3000\n", None),
    "underscore digits": ("f1,f2\n1_0,2\n", None),
    "unicode digits": ("f1,f2\n\u0661,2\n", None),
    "byte order mark": ("\ufefff1,f2\n1,2\n", None),
    "nul in a feature": ("f1,f2\n1\x00,2\n", None),
    "nul in a label": ("f1,label\n1,a\x00\n", "label"),
    "non-numeric feature": ("f1,f2\n1,abc\n", None),
    "hex feature": ("f1,f2\n0x10,2\n", None),
    "feature 1e400": ("f1,f2\n1e400,2\n", None),
    "feature 1e-400": ("f1,f2\n1e-400,2\n", None),
    "subnormal and negative zero": ("f1,f2\n5e-324,-0.0\n", None),
    "later row bad after good rows": ("f1,f2\n" + "1,2\n" * 50 + "3,x\n", None),
    "field over the csv limit": ("f1,label\n1," + "a" * 140000 + "\n", "label"),
}
for token in ("nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"):
    TABLE[f"feature {token}"] = (f"f1,f2,label\n1,2,0\n3,{token},1\n", "label")
    TABLE[f"label {token}"] = (f"f1,f2,label\n1,2,0.5\n3,4,{token}\n", "label")
    TABLE[f"string labels and {token}"] = (f"f1,label\n1,a\n2,{token}\n", "label")


# Rows where the oracle lets csv.Error escape and the loader raises DataError.
CSV_ERRORS = {"field over the csv limit": "line 2: field larger than field limit"}


def assert_table_case(path, case):
    content, label_col = TABLE[case]
    path.write_bytes(content.encode("utf-8"))
    if case in CSV_ERRORS:
        assert outcome(oracle.load_csv, path, label_col)[:2] == ("raised", "Error")
        with pytest.raises(datasets.DataError, match=CSV_ERRORS[case]):
            datasets.load_csv(path, label_col)
    else:
        assert_same_load(path, label_col)


@pytest.mark.parametrize("case", sorted(TABLE))
def test_load_matches_the_oracle(tmp_path, case):
    assert_table_case(tmp_path / "data.csv", case)


def test_error_names_row_and_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,label\n1,2,0\n\n3,inf,1\n")
    assert assert_same_load(path, "label")[2].endswith("row 3 column 2 is not finite: 'inf'")


PLAIN_FILES = {
    "save_csv output": None,
    "string labels, blank lines": "f1,f2,label\n\n1.5, 2 ,cat\n-0.0,1e-300, dog \n\n",
    "label first, no header, cr line ends": "0,1.5,2\r1,3,4\r",
}


def assert_bulk_takes(path, monkeypatch, case):
    """The plain file ``case`` at ``path`` loads as the oracle loads it, without the scan."""

    def refuse(*args):
        raise AssertionError("the scan ran")

    label_col = 0 if case.startswith("label first") else "label"
    if PLAIN_FILES[case] is None:
        rng = np.random.default_rng(0)
        datasets.save_csv(path, rng.standard_normal((4, 30)), np.arange(30) % 3)
    else:
        path.write_bytes(PLAIN_FILES[case].encode("utf-8"))
    expected = outcome(oracle.load_csv, path, label_col)
    assert expected[0] == "loaded"
    monkeypatch.setattr(datasets, "_scan_rows", refuse)
    assert outcome(datasets.load_csv, path, label_col) == expected


@pytest.mark.parametrize("case", sorted(PLAIN_FILES))
def test_bulk_parse_takes_plain_files(tmp_path, monkeypatch, case):
    """Files without quotes or malformed cells never reach the cell-by-cell scan."""
    assert_bulk_takes(tmp_path / "data.csv", monkeypatch, case)


# ---------------------------------------------------------------- block boundaries

# load_csv's block size, in characters of text: one line per block, seven
# lines of four characters ("1,2\n") per block, and the whole file at once.
BLOCKS = {"one line": 1, "seven short lines": 25, "whole file": 1 << 30}


@pytest.fixture(params=sorted(BLOCKS))
def block(request, monkeypatch):
    monkeypatch.setattr(datasets, "PARSE_BLOCK", BLOCKS[request.param])
    return BLOCKS[request.param]


@pytest.mark.parametrize("case", sorted(TABLE))
def test_load_in_blocks_matches_the_oracle(tmp_path, block, case):
    assert_table_case(tmp_path / "data.csv", case)


@pytest.mark.parametrize("case", sorted(PLAIN_FILES))
def test_bulk_parse_takes_plain_files_in_blocks(tmp_path, monkeypatch, block, case):
    assert_bulk_takes(tmp_path / "data.csv", monkeypatch, case)


def many_blocks_text(n: int, tail: str) -> str:
    """A header, ``n`` rows of three features and an integer label, and ``tail`` as the last row."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((n, 3)).tolist()
    rows = [",".join(map(repr, row)) + f",{j % 3}" for j, row in enumerate(values)]
    return "\n".join(["f1,f2,f3,label", *rows, tail]) + "\n"


LAST_ROW_FAULTS = {
    "bad cell": ("1,abc,2,0", "column 2 is not numeric: 'abc'"),
    "ragged row": ("1,2,0", "has 3 fields, expected 4"),
    "quote": ('1,2,"3e400",0', "column 3 is not finite: '3e400'"),
    "nul": ("1,2\x00,3,0", "column 2 is not numeric: '2\\x00'"),
    "non-finite label": ("1,2,3,-inf", "column 4 is not finite: '-inf'"),
}


@pytest.mark.parametrize("fault", sorted(LAST_ROW_FAULTS))
def test_refusal_in_the_last_block_keeps_its_message(tmp_path, monkeypatch, fault):
    tail, message = LAST_ROW_FAULTS[fault]
    monkeypatch.setattr(datasets, "PARSE_BLOCK", 1 << 12)
    text = many_blocks_text(400, tail)
    assert len(text) > 5 * datasets.PARSE_BLOCK
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = assert_same_load(path, "label")
    assert expected[:2] == ("raised", "DataError")
    assert expected[2] == f"{path}: row 402 {message}"


def test_bytes_not_utf8_past_the_first_block_exit_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    text = many_blocks_text(6000, "1,2,3,0").encode("utf-8")
    assert len(text) > datasets.PARSE_BLOCK
    data.write_bytes(text[:-4] + b"\xff,0\n")
    model = tmp_path / "model.txt"
    assert run("fit", "--data", data, "--label-col", "label", "--out", model) == 3
    assert "cannot read" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_load_peaks_near_x(tmp_path):
    """The parse holds X and one block beside it, not the file's text or a copy of X."""
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    datasets.save_csv(path, rng.standard_normal((20, 20000)), np.arange(20000) % 3)
    x_bytes = 20 * 20000 * 8
    assert traced_peak(lambda: datasets.load_csv(path, "label")) <= x_bytes + (1 << 20)


def test_cli_outputs_do_not_depend_on_the_block(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(3)
    labels = np.arange(1000) % 4
    datasets.save_csv(data, rng.standard_normal((40, 1000)) + labels, labels)
    assert data.stat().st_size > 2 * datasets.PARSE_BLOCK
    outputs = ["model.txt", "model.txt.manifest.json", "emb.csv", "emb.csv.manifest.json"]

    def fit_and_transform():
        model, emb = tmp_path / "model.txt", tmp_path / "emb.csv"
        assert run("fit", "--data", data, "--label-col", "label", "--r1", 0.5, "--r2", 0.5,
                   "--out", model) == 0
        assert run("transform", "--model", model, "--data", data, "--label-col", "label",
                   "--out", emb) == 0
        written = {name: (tmp_path / name).read_bytes() for name in outputs}
        for name in outputs:
            (tmp_path / name).unlink()
        return written

    expected = fit_and_transform()
    monkeypatch.setattr(datasets, "PARSE_BLOCK", 1)
    assert fit_and_transform() == expected


# ---------------------------------------------------------------- row count

COUNT_CASES = {
    "blank lines at the start": "\n\n1,2\n3,4\n",
    "blank lines in the middle": "1,2\n\n\n3,4\n",
    "blank lines at the end": "1,2\n3,4\n\n\n",
    "no final line end": "1,2\n3,4",
    "crlf line ends": "1,2\r\n\r\n3,4\r\n",
    "cr line ends": "\r1,2\r\r3,4\r",
    "mixed line ends": "\r\n1,2\r\n3,4\n\r5,6\r\r\n7",
    "whitespace-only lines": "1,2\n \n\t\n\x0b\n\x0c\n",
    "non-ascii utf-8": "f1,f\u00e9\n1,2\n\n3,4\n",
    "non-ascii past the first chunks": "1,2\r\n" * 40 + "\n\u00e9,3\n\n4,5",
    "blank lines only": "\n\r\n\r\n",
    "empty": "",
}
COUNT_CASES.update({f"table: {case}": TABLE[case][0] for case in TABLE})


def text_pass_rows(path) -> int:
    """The rows of ``path`` as load_csv counted them by decoding every line."""
    with open(path, newline="") as handle:
        return sum(line not in ("\n", "\r\n", "\r") for line in handle)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 16])
@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_row_count_matches_the_text_pass(tmp_path, monkeypatch, chunk, case):
    path = tmp_path / "data.csv"
    path.write_bytes(COUNT_CASES[case].encode("utf-8"))
    monkeypatch.setattr(datasets, "COUNT_CHUNK", chunk)
    with open(path, newline="") as handle:
        assert datasets._count_rows(handle) == text_pass_rows(path)
        assert handle.read() == COUNT_CASES[case]  # left at the start


def test_byte_not_utf8_past_the_first_chunk_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"f1,f2\r\n" + b"1,2\r\n" * 40 + b"\xff,3\r\n")
    monkeypatch.setattr(datasets, "COUNT_CHUNK", 16)
    with open(path, newline="") as handle, pytest.raises(UnicodeDecodeError):
        datasets._count_rows(handle)
    with pytest.raises(datasets.DataError, match=f"^cannot read {re.escape(str(path))}: "):
        datasets.load_csv(path)


# ---------------------------------------------------------------- model files

MODEL_TABLE = {
    "truncated array": "roweis-model/1\narray mean 3 2\n1 2\n3 4\n",
    "short row": "roweis-model/1\narray mean 2 2\n1 2\n3\n",
    "long row": "roweis-model/1\narray mean 2 2\n1 2\n3 4 5\n",
    "short row and truncated": "roweis-model/1\narray mean 3 2\n1\n",
    "blank row": "roweis-model/1\narray mean 2 2\n1 2\n\n3 4\n",
    "tabs and spaces": "roweis-model/1\narray mean 2 2\n 1\t2 \n3  4\n",
    "unicode separators": "roweis-model/1\narray mean 1 3\n1\xa02\u20033\n",
    "underscore digits": "roweis-model/1\narray mean 1 2\n1_0 2\n",
    "empty array": "roweis-model/1\narray mean 2 0\n\n\n",
    "scalars around arrays": 'roweis-model/1\nr1: 0.5\narray a 1 1\n2.5\nnotes: []\narray b 1 2\n1 2\n',
}


def parse_outcome(parse, path):
    try:
        scalars, arrays = parse(path)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("parsed", scalars, {k: (v.shape, v.flags.c_contiguous, v.tobytes()) for k, v in arrays.items()})


@pytest.mark.parametrize("case", sorted(MODEL_TABLE))
def test_model_parse_matches_the_oracle(tmp_path, case):
    path = tmp_path / "model.txt"
    path.write_bytes(MODEL_TABLE[case].encode("utf-8"))
    assert parse_outcome(persist._parse, path) == parse_outcome(oracle._parse, path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_model_parse_rejects_non_finite_arrays(tmp_path, token):
    path = tmp_path / "model.txt"
    path.write_text(f"roweis-model/1\narray basis 2 2\n1 2\n3 {token}\n")
    with pytest.raises(persist.DataError, match="array 'basis' holds non-finite values"):
        persist._parse(path)


def test_model_parse_names_a_non_numeric_row(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("roweis-model/1\narray basis 2 2\n1 2\n3 x\n")
    with pytest.raises(persist.DataError, match="array 'basis' row 1 holds a non-numeric value"):
        persist._parse(path)


# ---------------------------------------------------------------- CLI outputs


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    assert run("gen", "xor", "--n", 60, "--seed", 2, "--out", path) == 0
    return path


def test_gen_output_matches_the_oracle(tmp_path, xor_csv):
    expected = tmp_path / "expected.csv"
    ds = datasets.gen_xor(60, 2)
    oracle.save_csv(expected, ds.X, ds.y)
    assert xor_csv.read_bytes() == expected.read_bytes()
    bench = tmp_path / "bench.csv"
    assert run("gen", "bench", "--id", 1, "--n", 40, "--seed", 3, "--out", bench) == 0
    ds = datasets.gen_regression_benchmark(1, 40, 3)
    oracle.save_csv(expected, ds.X, ds.y)
    assert bench.read_bytes() == expected.read_bytes()


FITS = {
    "primal": ("--r1", 0.5, "--r2", 0.5, "--robust"),
    "dual": ("--variant", "dual", "--r1", 0.5),
    "kernel": ("--variant", "kernel", "--r1", 0.5, "--r2", 0.5),
    "kernel-pca": ("--variant", "kernel-pca", "--p", 3),
    "kernel-spca": ("--variant", "kernel-spca"),
}


@pytest.mark.parametrize("variant", sorted(FITS))
def test_model_and_outputs_match_the_oracle(tmp_path, xor_csv, variant):
    model_path = tmp_path / "model.txt"
    assert run("fit", "--data", xor_csv, "--label-col", "label", *FITS[variant],
               "--out", model_path) == 0
    model = persist.load_model(model_path)
    expected = tmp_path / "expected.txt"
    oracle.save_model(model, expected)
    assert model_path.read_bytes() == expected.read_bytes()

    x, _, _ = oracle.load_csv(xor_csv, "label")
    outputs = [("transform", "e", cli._project_any(model, x))]
    if variant in ("primal", "dual"):
        outputs.append(("reconstruct", "f", rda.reconstruct(model, x)))
    for command, prefix, values in outputs:
        out = tmp_path / f"{command}.csv"
        assert run(command, "--model", model_path, "--data", xor_csv, "--label-col", "label",
                   "--out", out) == 0
        oracle.write_columns(expected, [f"{prefix}{i + 1}" for i in range(values.shape[0])], values)
        assert out.read_bytes() == expected.read_bytes()


def test_experiments_outputs_match_the_oracle(tmp_path):
    out_dir = tmp_path / "results"
    assert run("experiments", "--out-dir", out_dir, "--reps", 2, "--n", 60,
               "--panel-n", 40, "--seed", 1) == 0
    expected = tmp_path / "expected.csv"
    cells = experiments.regression_benchmark_table(repetitions=2, n=60, base_seed=1)
    rows = [[c.method, repr(c.r1), str(c.bench_id), repr(c.mean), repr(c.std)]
            for c in cells]
    oracle.write_rows(expected, ["method", "r1", "benchmark", "rmse_mean", "rmse_std"], rows)
    assert (out_dir / "regression_table.csv").read_bytes() == expected.read_bytes()
    table = "\n".join(experiments.benchmark_table_lines(cells)) + "\n"
    assert (out_dir / "regression_table.txt").read_text() == table
    for name in ("xor", "rings"):
        for panel in experiments.embedding_panels(name, n=40, seed=1):
            header = ["split", "label"] + [f"e{i + 1}" for i in range(panel.train_emb.shape[0])]
            lead = ([("train", str(y)) for y in panel.train_y]
                    + [("test", str(y)) for y in panel.test_y])
            oracle.write_columns(expected, header, np.hstack([panel.train_emb, panel.test_emb]), lead)
            path = out_dir / "panels" / f"{name}_r1_{panel.r1:g}_r2_{panel.r2:g}.csv"
            assert path.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------- float rows

def wide_values(rows: int = 100, cols: int = 800) -> np.ndarray:
    """``rows`` x ``cols`` doubles with every kind of cell: tiny, huge, negative zero, subnormal."""
    values = np.random.default_rng(5).standard_normal((rows, cols)) * 10.0 ** np.arange(-6, 6).repeat(70)[:cols]
    values[0, :4] = [-0.0, 5e-324, 1e300, 0.1]
    return values


@pytest.mark.parametrize("chunk", ["one row", "seven rows", "default", "whole matrix"])
def test_float_rows_do_not_depend_on_the_chunk(monkeypatch, chunk):
    values = wide_values()
    cells = {"one row": 800, "seven rows": 7 * 800, "default": _util.FLOAT_CELLS, "whole matrix": 100 * 800}
    monkeypatch.setattr(_util, "FLOAT_CELLS", cells[chunk])
    expected = [",".join(oracle.float_cells(row)) for row in values]
    assert list(_util.float_rows(values, ",")) == expected


def test_a_wide_write_holds_one_chunk_of_floats(tmp_path):
    # 100 rows of 800 cells, as reconstruct writes wide data: 80 000 cells
    # as Python floats at once would trace about 2.6 MB.
    values = wide_values().T
    path = tmp_path / "rec.csv"

    def write():
        with open(path, "w", newline="") as handle:
            datasets.write_csv(handle, [f"f{i + 1}" for i in range(800)], values)

    assert traced_peak(write) < 1 << 20
    expected = tmp_path / "expected.csv"
    oracle.write_columns(expected, [f"f{i + 1}" for i in range(800)], values)
    assert path.read_bytes() == expected.read_bytes()
