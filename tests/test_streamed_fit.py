"""``roweis fit`` from streamed class statistics against ``rda.fit`` of ``load_csv``.

On the "classes" route the primal and dual fits hand the CSV session's
blocks (``datasets.CsvSession.blocks``) to ``rda.fit_blocks``, whose pass
(``scatter.class_moments``) merges each STATS_BLOCK-column slab into the
class statistics, holding neither X
nor a label per row. Wherever that cannot give what
``rda.fit(load_csv(...))`` gives, bit for bit, the command collects X from
the same session (``CsvSession.collect``) and makes that call instead. So
every run here is compared with the same command whose streamed fit is
switched off: exit code, stdout, stderr and every byte written.
"""

import weakref

import numpy as np
import pytest

from roweis import DataError, KernelSpec, cli, datasets, kernel_rda, persist, rda, scatter
from roweis.cli import main

from test_kernel_rda import traced_peak
from test_text_io import TABLE


def outcome(tmp_path, capsys, argv) -> tuple:
    """(exit code, stdout, stderr, written files) of one command, whose
    outputs are then removed. An exception that escapes ``main`` stands for
    the exit code, so one that escapes on either path shows as a difference
    from the other, not as a crash of the comparison."""
    before = set(tmp_path.iterdir())
    try:
        rc = main([str(a) for a in argv])
    except Exception as exc:
        rc = (type(exc).__name__, str(exc))
    captured = capsys.readouterr()
    written = {}
    for path in sorted(set(tmp_path.iterdir()) - before):
        written[path.name] = path.read_bytes()
        path.unlink()
    return rc, captured.out, captured.err, written


@pytest.fixture
def loads(monkeypatch):
    """The calls that collect X from a CSV session, which only the fallback makes."""
    calls = []
    collect = datasets.CsvSession.collect
    monkeypatch.setattr(datasets.CsvSession, "collect", lambda session: calls.append(session) or collect(session))
    return calls


def assert_like_the_library(tmp_path, capsys, monkeypatch, argv, streamed: bool, loads):
    """The command's outcome equals the library fit's; ``streamed`` says
    whether it took the streamed route (X never collected)."""
    got = outcome(tmp_path, capsys, argv)
    assert (len(loads) == 0) == streamed, (len(loads), got[:3])
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_streamed_fit", lambda *args: None)
        want = outcome(tmp_path, capsys, argv)
    assert got == want
    return got


def blob_file(path, n=300, d=5, c=3, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % c) if labels is None else labels
    centers = 2.0 * rng.standard_normal((d, max(c, 1)))
    codes = np.unique(y, return_inverse=True)[1] % centers.shape[1]
    datasets.save_csv(path, centers[:, codes] + rng.standard_normal((d, n)), y)
    return path


FITS = {
    "pca": ("--r1", 0, "--r2", 0),
    "pca, no labels": ("--r1", 0),
    "spca": ("--r1", 1, "--r2", 0),
    "fda": ("--r1", 0, "--r2", 1),
    "double": ("--r1", 1, "--r2", 1),
    "robust": ("--r1", 0.5, "--r2", 0.5, "--robust"),
    "delta given": ("--r1", 0.5, "--r2", 0.25, "--label-kernel", "delta", "--p", 2),
    "dual": ("--variant", "dual", "--r1", 0.5),
    "c d > n": ("--r1", 0.5, "--r2", 0.5),
}
# The blob file's classes, where a fit takes other than 3: c d > n at d = 5, n = 300.
FIT_CLASSES = {"c d > n": 100}


def fit_argv(data, fit, out):
    flags = FITS[fit]
    label = [] if fit == "pca, no labels" else ["--label-col", "label"]
    return ["fit", "--data", data, *label, *flags, "--out", out]


# PARSE_BLOCK in characters: one line per block, about seven of the blob
# file's lines (under 110 characters each), the default and the whole file.
PARSE_BLOCKS = {"one line": 1, "seven lines": 7 * 100, "default": datasets.PARSE_BLOCK, "whole file": 1 << 30}


@pytest.mark.parametrize("stats_block", [7, scatter.STATS_BLOCK], ids=["7-column slabs", "default slabs"])
@pytest.mark.parametrize("block", sorted(PARSE_BLOCKS))
@pytest.mark.parametrize("fit", sorted(FITS))
def test_the_streamed_fit_is_the_library_fit(tmp_path, capsys, monkeypatch, loads, fit, block, stats_block):
    monkeypatch.setattr(datasets, "PARSE_BLOCK", PARSE_BLOCKS[block])
    monkeypatch.setattr(scatter, "STATS_BLOCK", stats_block)
    data = blob_file(tmp_path / "data.csv", c=FIT_CLASSES.get(fit, 3))
    rc, out, _, written = assert_like_the_library(tmp_path, capsys, monkeypatch,
                                                  fit_argv(data, fit, tmp_path / "m.txt"), True, loads)
    assert rc == 0 and 'route: "classes"' in written["m.txt"].decode().splitlines()


@pytest.mark.parametrize("labels", ["strings", "whole floats", "negative ints"])
def test_label_cells_are_read_as_load_csv_reads_them(tmp_path, capsys, monkeypatch, loads, labels):
    n = 200
    y = {"strings": np.array(["cat", "dog", "emu", "ant"])[np.arange(n) % 4],
         "whole floats": (np.arange(n) % 3 - 1.0) * 2.0,
         "negative ints": -(np.arange(n) % 3)}[labels]
    data = blob_file(tmp_path / "data.csv", n=n, labels=y)
    rc, *_ = assert_like_the_library(tmp_path, capsys, monkeypatch, fit_argv(data, "double", tmp_path / "m.txt"),
                                     True, loads)
    assert rc == 0


FALLBACKS = {
    # A quoted cell: the bulk parse refuses the block and the scan reads it.
    "block the bulk parse refuses": ('f1,f2,label\n1,2,0\n"3",4,1\n5,7,0\n2,9,1\n', ("--r1", 0.5)),
    "bad cell": ("f1,f2,label\n1,2,0\n3,x,1\n5,7,0\n", ("--r1", 0.5)),
    "real targets under the rbf label kernel": (None, ("--r1", 0.5)),
    "gram label kernel": (None, ("--r1", 0.5, "--label-kernel", "linear")),
    "one class spelled two ways": ("f1,f2,label\n1,2,1\n3,4,01\n5,7,1\n2,9,2\n4,4,2\n", ("--r1", 0.5)),
    "float class spelled two ways": ("f1,f2,label\n1,2,1.0\n3,4,1.00\n5,7,2.0\n2,9,2\n", ("--r2", 1)),
    "n < d": ("f1,f2,f3,label\n1,2,3,0\n3,4,4,1\n", ("--r1", 0.5)),
    "one sample": ("f1,label\n1,0\n", ("--r1", 0.5)),
    "labels missing": ("f1,f2\n1,2\n3,4\n5,6\n", ("--r1", 0.5)),
    "r2 on real targets": ("f1,label\n1,0.5\n2,1.5\n3,0.5\n", ("--r2", 0.5)),
    "dual at r2 > 0": (None, ("--variant", "dual", "--r2", 0.5)),
    "kernel variant": (None, ("--variant", "kernel", "--r1", 0.5, "--gamma", 0.5)),
    "bad arguments and a bad file": ("f1,label\n1,0\nx,1\n", ("--r1", 2)),
    "bad arguments": (None, ("--r1", 2)),
}


def test_ids_past_64_bits_stay_apart(tmp_path, capsys, monkeypatch, loads):
    # Integer cells that no 64-bit integer holds read as text ids, exactly,
    # so no two classes merge as they did through float64.
    ids = ["12345678901234567890", "12345678901234567891", "7"]
    assert np.unique(datasets.CsvSession.read_labels([ids[0], ids[1], "7", "7"])).size == 3
    positions = np.arange(120) % 3
    data = blob_file(tmp_path / "data.csv", n=120, labels=np.array(ids)[positions])
    rc, _, _, written = assert_like_the_library(tmp_path, capsys, monkeypatch,
                                                fit_argv(data, "double", tmp_path / "m.txt"), True, loads)
    assert rc == 0
    (tmp_path / "m.txt").write_bytes(written["m.txt"])
    x, y, _ = datasets.load_csv(data, label_col="label")
    assert sorted(set(y.tolist())) == sorted(ids)
    # The ids sort as their positions do, so the fit is that of the positions, bit for bit.
    want = rda.fit(x, positions, rda.RoweisConfig(1.0, 1.0))
    got = persist.load_model(tmp_path / "m.txt")
    for name in ("basis", "eigvals", "mean"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_refusal_of_the_statistics_fit_is_the_librarys(tmp_path, capsys, monkeypatch, loads):
    # Streamed to the end, then refused by the solver as the library refuses it.
    data = tmp_path / "data.csv"
    data.write_text("f1,label\n1,0\n1,1\n1,0\n1,1\n")
    rc, _, err, _ = assert_like_the_library(
        tmp_path, capsys, monkeypatch, ["fit", "--data", data, "--label-col", "label", "--out", tmp_path / "m.txt"],
        True, loads)
    assert rc == 4 and "no positive eigenvalues" in err


def test_a_fit_of_many_classes_parses_each_row_once(tmp_path, monkeypatch):
    # 3000 x 4 with 1000 classes (c d > n), one parse block: streamed, not parsed again.
    path = blob_file(tmp_path / "data.csv", n=3000, d=4, c=1000)
    rows = []
    loadtxt = datasets._loadtxt
    monkeypatch.setattr(datasets, "_loadtxt", lambda lines, usecols: rows.append(len(lines)) or loadtxt(lines, usecols))
    out = tmp_path / "m.txt"
    assert main(["fit", "--data", str(path), "--label-col", "label", "--r1", "0.5", "--out", str(out)]) == 0
    assert sum(rows) == 3000
    x, y, _ = datasets.load_csv(path, label_col="label")
    want = rda.fit(x, y, rda.RoweisConfig(0.5))
    got = persist.load_model(out)
    assert got.route == want.route == "classes"
    for name in ("basis", "eigvals", "mean"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_file_of_real_targets_is_parsed_once_and_one_block(tmp_path, monkeypatch):
    # Real targets under the default RBF label kernel need X: the stream
    # gives up on the first block's labels, before the rest is parsed, and
    # the library fit parses the file once.
    rng = np.random.default_rng(2)
    n = 2000
    path = tmp_path / "data.csv"
    datasets.save_csv(path, rng.standard_normal((4, n)), rng.standard_normal(n))
    monkeypatch.setattr(datasets, "PARSE_BLOCK", 100 * 100)  # about 100 of its lines
    rows = []
    loadtxt = datasets._loadtxt
    monkeypatch.setattr(datasets, "_loadtxt", lambda lines, usecols: rows.append(len(lines)) or loadtxt(lines, usecols))
    out = tmp_path / "m.txt"
    assert main(["fit", "--data", str(path), "--label-col", "label", "--r1", "0.5", "--out", str(out)]) == 0
    assert rows[0] < n // 10 and sum(rows) == n + rows[0]
    x, y, _ = datasets.load_csv(path, label_col="label")
    want = rda.fit(x, y, rda.RoweisConfig(0.5))
    assert persist.load_model(out).basis.tobytes() == want.basis.tobytes()


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_each_fallback_is_the_library_fit(tmp_path, capsys, monkeypatch, loads, case):
    text, flags = FALLBACKS[case]
    data = tmp_path / "data.csv"
    if case == "real targets under the rbf label kernel":
        blob_file(data, n=60, labels=np.round(np.linspace(-2.0, 2.0, 60) ** 2, 3))
    elif text is None:
        blob_file(data, n=60)
    else:
        data.write_text(text)
    label = [] if case == "labels missing" else ["--label-col", "label"]
    assert_like_the_library(tmp_path, capsys, monkeypatch,
                            ["fit", "--data", data, *label, *flags, "--out", tmp_path / "m.txt"], False, loads)


@pytest.mark.parametrize("case", sorted(TABLE))
@pytest.mark.parametrize("flags", [("--r1", 0.5, "--r2", 0.5), ("--r1", 0)], ids=["supervised", "pca"])
def test_every_text_io_case_fits_as_the_library_does(tmp_path, capsys, monkeypatch, case, flags):
    content, label_col = TABLE[case]
    data = tmp_path / "data.csv"
    data.write_bytes(content.encode("utf-8"))
    label = [] if label_col is None else ["--label-col", label_col]
    argv = ["fit", "--data", data, *label, *flags, "--out", tmp_path / "m.txt"]
    got = outcome(tmp_path, capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_streamed_fit", lambda *args: None)
        assert got == outcome(tmp_path, capsys, argv)


def test_a_streamed_fit_allocates_less_than_x(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    n, d = 20000, 20
    labels = np.arange(n) % 3
    datasets.save_csv(path, rng.standard_normal((d, n)) + labels, labels)
    out = tmp_path / "m.txt"
    argv = ["fit", "--data", str(path), "--label-col", "label", "--r1", "0.5", "--r2", "0.5", "--out", str(out)]
    assert main(argv) == 0  # imports and caches warm, outside the trace
    assert traced_peak(lambda: main(argv)) < d * n * 8


# ---------------------------------------------------------------- inputs released

COMMANDS = {
    "fit on the span route": ["fit", "--data", "wide.csv", "--label-col", "label", "--r1", 0.5, "--out", "m2.txt"],
    "fit with a label Gram": ["fit", "--data", "tall.csv", "--label-col", "label", "--r1", 0.5,
                              "--label-kernel", "linear", "--out", "m2.txt"],
    "transform": ["transform", "--model", "m.txt", "--data", "tall.csv", "--label-col", "label", "--out", "e.csv"],
    "reconstruct": ["reconstruct", "--model", "m.txt", "--data", "tall.csv", "--label-col", "label",
                    "--out", "r.csv"],
    "sweep": ["sweep", "--data", "tall.csv", "--label-col", "label", "--out", "s.csv"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_the_loaded_arrays_are_dead_when_the_manifest_is_written(tmp_path, monkeypatch, capsys, command):
    blob_file(tmp_path / "tall.csv", n=120, d=4)
    blob_file(tmp_path / "wide.csv", n=12, d=30)
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--data", "tall.csv", "--label-col", "label", "--r1", "0.5", "--out", "m.txt"]) == 0
    refs = []
    collect = datasets.CsvSession.collect

    def tracked(session):
        x, y, names = collect(session)
        refs.extend(weakref.ref(a) for a in (x, y))
        return x, y, names

    manifest = cli._write_manifest

    def checked(*args):
        assert refs and all(ref() is None for ref in refs)
        manifest(*args)

    monkeypatch.setattr(datasets.CsvSession, "collect", tracked)
    monkeypatch.setattr(cli, "_write_manifest", checked)
    assert main([str(a) for a in COMMANDS[command]]) == 0
    assert len(refs) == 2


# ---------------------------------------------------------------- one layout read


COUNTED = {
    "classes": ("tall.csv", ()),
    "label Gram": ("tall.csv", ("--label-kernel", "linear")),
    "span route (n < d)": ("wide.csv", ()),
    "c d > n": ("many.csv", ()),
    "block the bulk parse refuses": ("quoted.csv", ()),
}


@pytest.mark.parametrize("case", sorted(COUNTED))
def test_every_fit_reads_the_layout_once(tmp_path, monkeypatch, capsys, case):
    blob_file(tmp_path / "tall.csv", n=120, d=4)
    blob_file(tmp_path / "wide.csv", n=20, d=40)
    blob_file(tmp_path / "many.csv", n=30, d=4, c=10)
    (tmp_path / "quoted.csv").write_text('f1,f2,label\n1,2,0\n"3",4,1\n5,7,0\n2,9,1\n')
    counts = []
    count_rows = datasets._count_rows
    monkeypatch.setattr(datasets, "_count_rows", lambda handle: counts.append(1) or count_rows(handle))
    data, flags = COUNTED[case]
    argv = ["fit", "--data", tmp_path / data, "--label-col", "label", "--r1", 0.5, *flags, "--out", tmp_path / "m.txt"]
    assert main([str(a) for a in argv]) == 0
    assert len(counts) == 1


# ---------------------------------------------------------------- no feature columns

LABEL_ONLY = "label\n0\n1\n0\n1\n"


@pytest.mark.parametrize("flags", [("--r1", 0.5, "--r2", 0.5), ("--r1", 0.5)], ids=["r2 > 0", "r2 = 0"])
def test_a_file_with_no_feature_columns_is_a_data_error(tmp_path, capsys, flags):
    data = tmp_path / "data.csv"
    data.write_text(LABEL_ONLY)
    argv = ["fit", "--data", data, "--label-col", "label", *flags, "--out", tmp_path / "m.txt"]
    assert main([str(a) for a in argv]) == cli.EXIT_DATA
    assert "X has no features" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


FEATURELESS_FITS = {
    "fit": lambda x, y: rda.fit(x, y, rda.RoweisConfig(0.5, 0.5)),
    "fit_direct": lambda x, y: kernel_rda.fit_direct(x, y, rda.RoweisConfig(0.5, 0.5), KernelSpec("rbf", gamma=1.0)),
    "fit_kernel_pca": lambda x, y: kernel_rda.fit_kernel_pca(x, KernelSpec("rbf")),
}


@pytest.mark.parametrize("fit", sorted(FEATURELESS_FITS))
def test_the_library_refuses_a_featureless_x(fit):
    with pytest.raises(DataError, match="X has no features"):
        FEATURELESS_FITS[fit](np.zeros((0, 4)), np.array([0, 1, 0, 1]))
