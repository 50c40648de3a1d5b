"""The manifest's input digests, and when computing them loads OpenSSL.

Every manifest records the SHA-256 of each input file. ``hashlib`` maps
OpenSSL (``_hashlib``, about 3.6 MB resident), so the CLI imports it only to
write the manifest, after a fit's buffers are freed: importing ``roweis.cli``
or asking for ``--version`` loads neither module. Importing ``roweis.cli``
loads a pinned set of the package's modules, and none of ``persist``,
``experiments`` and ``evaluate``, which the commands that use them import.
"""

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


def test_fit_loads_hashlib_only_to_write_the_manifest(tmp_path):
    # Written here, not by `roweis gen`: numpy.random itself imports _hashlib.
    data = tmp_path / "rings.csv"
    rings = datasets.gen_rings(60, seed=2)
    datasets.save_csv(data, rings.X, rings.y)
    model = tmp_path / "model.txt"
    code = ("import sys; from roweis import cli\n"
            "seen = []\n"
            "write = cli._write_manifest\n"
            "def recording(*args):\n"
            "    seen.append('_hashlib' in sys.modules)\n"
            "    write(*args)\n"
            "    seen.append('_hashlib' in sys.modules)\n"
            "cli._write_manifest = recording\n"
            "print(cli.main(sys.argv[1:]), seen)")
    out = probe(code, "fit", "--data", data, "--label-col", "label", "--variant", "kernel",
                "--r1", 0.5, "--r2", 0.5, "--out", model)
    assert out.splitlines()[-1] == "0 [False, True]"
    assert manifest(model)["inputs"] == {str(data): sha256(data)}


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

