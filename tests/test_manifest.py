"""The manifest's input digests, and that computing them loads no OpenSSL.

Every manifest records the SHA-256 of each input file. The CLI takes it from
CPython's built-in SHA-256 (``_sha2``, or ``_sha256`` before Python 3.12)
and imports ``hashlib`` only where neither exists, because ``hashlib`` maps
OpenSSL (``_hashlib``), 3.5 MB of max RSS in a process that has imported
numpy: so fit, transform and reconstruct never load it, and importing
``roweis.cli`` or asking for ``--version`` loads neither module. Importing
``roweis.cli`` loads a pinned set of the package's modules, and none of
``persist``, ``experiments`` and ``evaluate``, which the commands that use
them import. Run as the program, ``main`` freezes the collector's objects
(``gc.freeze``) to shorten the exit; called with ``argv``, it does not.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roweis import cli, datasets
from roweis.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# _sha256 reads files in chunks of this many bytes.
READ_CHUNK = 1 << 16


def run(*argv) -> int:
    return main([str(a) for a in argv])


def probe(code: str, *argv) -> str:
    """The stdout of ``code`` run in a fresh interpreter with ``argv`` as its arguments."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest(out) -> dict:
    return json.loads(Path(f"{out}.manifest.json").read_text())


# ---------------------------------------------------------------- when OpenSSL loads

HASH_MODULES = "print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))"


def test_cli_import_loads_no_hashlib():
    assert probe("import sys, roweis.cli; " + HASH_MODULES) == "[]"


# What ``import roweis.cli`` loads of the package: every command pays for it
# before it parses its arguments, so a module added here is start-up time.
CLI_IMPORTS = ["roweis", "roweis._util", "roweis.cli", "roweis.datasets", "roweis.dual", "roweis.exceptions",
               "roweis.kernel_rda", "roweis.kernels", "roweis.linalg", "roweis.rda", "roweis.scatter"]


def test_cli_import_loads_exactly_its_modules():
    code = ("import json, sys, roweis.cli; print(json.dumps(["
            "sorted(m for m in sys.modules if m.split('.')[0] == 'roweis'),"
            "sorted(m for m in ('roweis.persist', 'roweis.experiments', 'roweis.evaluate', 'hashlib')"
            " if m in sys.modules)]))")
    loaded, lazy = json.loads(probe(code))
    assert loaded == CLI_IMPORTS
    assert lazy == []


def test_version_loads_no_hashlib():
    code = ("import contextlib, io, sys; from roweis.cli import main\n"
            "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['--version'])\n" + HASH_MODULES)
    assert probe(code) == "[]"


def test_fit_transform_and_reconstruct_never_load_openssl(tmp_path):
    # Written here, not by `roweis gen`: numpy.random itself imports _hashlib.
    blobs, rings = tmp_path / "blobs.csv", tmp_path / "rings.csv"
    labels = np.arange(120) % 3
    datasets.save_csv(blobs, np.random.default_rng(2).standard_normal((4, 120)) + labels, labels)
    data = datasets.gen_rings(60, seed=2)
    datasets.save_csv(rings, data.X, data.y)
    primal, collected, kernel = (tmp_path / name for name in ("primal.txt", "collected.txt", "kernel.txt"))
    emb, rec = tmp_path / "emb.csv", tmp_path / "rec.csv"
    commands = [
        ["fit", "--data", blobs, "--label-col", "label", "--r1", 0.5, "--r2", 0.5, "--out", primal],
        ["fit", "--data", blobs, "--label-col", "label", "--r1", 0.5, "--label-kernel", "linear",
         "--out", collected],
        ["fit", "--data", rings, "--label-col", "label", "--variant", "kernel", "--r1", 0.5, "--r2", 0.5,
         "--out", kernel],
        ["transform", "--model", kernel, "--data", rings, "--label-col", "label", "--out", emb],
        ["reconstruct", "--model", primal, "--data", blobs, "--label-col", "label", "--out", rec],
    ]
    # Per command: its exit code, whether it collected X (only the first,
    # streamed fit does not), and which of hashlib and _hashlib it loaded.
    code = ("import json, sys; from roweis import cli, datasets\n"
            "collect = datasets.CsvSession.collect\n"
            "calls = []\n"
            "datasets.CsvSession.collect = lambda session: calls.append(1) or collect(session)\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    calls.clear()\n"
            "    rc = cli.main(argv)\n"
            "    seen.append([rc, bool(calls), sorted(m for m in sys.modules if m in ('hashlib', '_hashlib'))])\n"
            "print(json.dumps(seen))")
    out = probe(code, json.dumps([[str(a) for a in argv] for argv in commands]))
    assert json.loads(out.splitlines()[-1]) == [[0, False, []]] + [[0, True, []]] * 4
    for path, inputs in ((primal, [blobs]), (collected, [blobs]), (kernel, [rings]), (emb, [kernel, rings]),
                         (rec, [primal, blobs])):
        assert manifest(path)["inputs"] == {str(p): sha256(p) for p in inputs}


def test_each_fallback_gives_the_same_digest(large_csv):
    # A module set to None in sys.modules fails to import, as one this
    # CPython lacks: blocking _sha2 and then _sha256 walks down the chain.
    code = ("import sys\n"
            "for name in sys.argv[2:]:\n"
            "    sys.modules[name] = None\n"
            "from roweis import cli\n"
            "print(cli._sha256(sys.argv[1]), '_hashlib' in sys.modules)")
    want = sha256(large_csv)
    outs = [probe(code, large_csv, *blocked) for blocked in ([], ["_sha2"], ["_sha2", "_sha256"])]
    digests, openssl = zip(*(out.splitlines()[-1].split() for out in outs))
    assert digests == (want, want, want)
    # Only the last fallback, hashlib, loads OpenSSL.
    assert openssl == ("False", "False", "True")


# ---------------------------------------------------------------- the collector

def test_main_with_argv_leaves_the_collector_as_it_was(tmp_path, capsys):
    before = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["--version"])
    data = tmp_path / "blobs.csv"
    labels = np.arange(30) % 2
    datasets.save_csv(data, np.random.default_rng(1).standard_normal((3, 30)) + labels, labels)
    assert run("fit", "--data", data, "--label-col", "label", "--out", tmp_path / "model.txt") == 0
    assert gc.get_freeze_count() == before


def test_the_program_freezes_its_import_time_objects():
    code = ("import gc, sys; from roweis.cli import main\n"
            "sys.argv = ['roweis', '--version']\n"
            "before = gc.get_freeze_count()\n"
            "try:\n"
            "    main()\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(before, gc.get_freeze_count() > 0)")
    assert probe(code).splitlines()[-1] == "0 True"


# ---------------------------------------------------------------- digests

@pytest.mark.parametrize("size", [1, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1, 3 * READ_CHUNK + 5])
def test_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert cli._sha256(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_of_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    # The SHA-256 of no bytes.
    assert cli._sha256(str(path)) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_digest_of_a_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(cli.DataError, match="cannot read"):
        cli._sha256(str(tmp_path / "missing.csv"))


@pytest.fixture
def large_csv(tmp_path):
    """A labelled CSV several read chunks long."""
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(5)
    labels = np.arange(1500) % 3
    datasets.save_csv(path, rng.standard_normal((6, 1500)) + labels, labels)
    assert path.stat().st_size > 2 * READ_CHUNK
    return path


def test_every_manifest_hashes_its_inputs(tmp_path, large_csv):
    model, emb, rec, sweep = (tmp_path / name for name in ("model.txt", "emb.csv", "rec.csv", "sweep.csv"))
    assert run("fit", "--data", large_csv, "--label-col", "label", "--r1", 0.5, "--out", model) == 0
    assert run("transform", "--model", model, "--data", large_csv, "--label-col", "label", "--out", emb) == 0
    assert run("reconstruct", "--model", model, "--data", large_csv, "--label-col", "label",
               "--out", rec) == 0
    assert run("sweep", "--data", large_csv, "--label-col", "label", "--grid", 2, "--seed", 1,
               "--out", sweep) == 0
    data = {str(large_csv): sha256(large_csv)}
    both = {str(model): sha256(model), **data}
    assert [manifest(out)["inputs"] for out in (model, emb, rec, sweep)] == [data, both, both, data]

