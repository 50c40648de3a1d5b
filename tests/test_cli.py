import csv
import json

import numpy as np
import pytest

from roweis import kernels, persist, rda
from roweis.cli import main
from roweis.datasets import gen_rings, load_csv, train_test_split
from roweis.evaluate import knn_classify
from roweis.kernel_rda import fit_direct
from roweis.kernel_rda import project as project_kernel


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    assert run("gen", "xor", "--n", 120, "--seed", 7, "--out", path) == 0
    return path


class TestGen:
    def test_xor_csv_shape_and_classes(self, xor_csv):
        rows = xor_csv.read_text().splitlines()
        assert rows[0] == "f1,f2,label"
        assert len(rows) == 121
        labels = {row.rsplit(",", 1)[1] for row in rows[1:]}
        assert labels == {"0", "1"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "xor", "--n", 80, "--seed", 3, "--out", a)
        run("gen", "xor", "--n", 80, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written_with_hash(self, xor_csv):
        manifest = json.loads((xor_csv.parent / "xor.csv.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(xor_csv)]
        assert manifest["version"]

    def test_bench_has_four_features(self, tmp_path):
        path = tmp_path / "b2.csv"
        assert run("gen", "bench", "--id", 2, "--n", 100, "--seed", 1, "--out", path) == 0
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,f3,f4,label"
        assert len(path.read_text().splitlines()) == 101

    def test_bench_without_id_is_config_error(self, tmp_path):
        assert run("gen", "bench", "--n", 10, "--out", tmp_path / "x.csv") == 2

    def test_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROWEIS_SEED", "99")
        out = tmp_path / "env.csv"
        # Parser defaults are bound at construction; build a fresh one.
        assert run("gen", "xor", "--n", 40, "--out", out) == 0
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["seed"] == 99


class TestFit:
    def test_fit_pca_writes_model_and_spectrum(self, tmp_path, xor_csv, capsys):
        model_path = tmp_path / "model.txt"
        code = run(
            "fit", "--data", xor_csv, "--label-col", "label",
            "--r1", 0, "--r2", 0, "--p", 2, "--out", model_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvalue" in out
        model = persist.load_model(model_path)
        assert model.n_components == 2

    def test_dual_requires_zero_r2(self, tmp_path, xor_csv, capsys):
        code = run(
            "fit", "--data", xor_csv, "--label-col", "label",
            "--variant", "dual", "--r2", 0.5, "--out", tmp_path / "m.txt",
        )
        assert code == 2
        assert "r2=0" in capsys.readouterr().err

    def test_kernel_fit(self, tmp_path, xor_csv):
        model_path = tmp_path / "kernel.txt"
        code = run(
            "fit", "--data", xor_csv, "--label-col", "label",
            "--variant", "kernel", "--kernel", "rbf", "--r1", 1, "--r2", 1,
            "--out", model_path,
        )
        assert code == 0
        model = persist.load_model(model_path)
        assert model.variant == "direct"

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.txt") == 3

    def test_non_finite_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\nnan,1.0,1\n2.0,inf,0\n0.5,0.5,1\n")
        code = run("fit", "--data", path, "--label-col", "label", "--r1", 1, "--r2", 0,
                   "--out", tmp_path / "m.txt")
        assert code == 3
        assert "row 3 column 1 is not finite" in capsys.readouterr().err

    def test_degenerate_data_is_numerical_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("f1,f2\n" + "1.0,2.0\n" * 6)
        code = run("fit", "--data", path, "--variant", "kernel-pca", "--kernel", "rbf",
                   "--out", tmp_path / "m.txt")
        assert code == 4


class TestTransformReconstruct:
    def test_transform_matches_library_projection(self, tmp_path, xor_csv):
        model_path = tmp_path / "model.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--r1", 0, "--r2", 0,
            "--p", 2, "--out", model_path)
        emb_path = tmp_path / "emb.csv"
        assert run(
            "transform", "--model", model_path, "--data", xor_csv,
            "--label-col", "label", "--out", emb_path,
        ) == 0
        x, _, _ = load_csv(xor_csv, label_col="label")
        model = persist.load_model(model_path)
        expected = rda.project(model, x)
        got, _, names = load_csv(emb_path)
        assert names == ["e1", "e2"]
        np.testing.assert_array_equal(got, expected)

    def test_transform_empty_csv_keeps_header(self, tmp_path, xor_csv):
        model_path = tmp_path / "model.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--r1", 0, "--r2", 0,
            "--p", 1, "--out", model_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("f1,f2\n")
        out = tmp_path / "emb.csv"
        assert run("transform", "--model", model_path, "--data", empty, "--out", out) == 0
        assert out.read_text() == "e1\r\n" or out.read_text() == "e1\n"

    def test_reconstruct_round_trip(self, tmp_path, xor_csv):
        model_path = tmp_path / "model.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--r1", 0, "--r2", 0,
            "--p", 2, "--out", model_path)
        rec_path = tmp_path / "rec.csv"
        assert run(
            "reconstruct", "--model", model_path, "--data", xor_csv,
            "--label-col", "label", "--out", rec_path,
        ) == 0
        x, _, _ = load_csv(xor_csv, label_col="label")
        got, _, _ = load_csv(rec_path)
        np.testing.assert_allclose(got, x, atol=1e-9)  # p = d, lossless

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    def test_missing_model_file_is_data_error(self, tmp_path, xor_csv, capsys, command):
        missing = tmp_path / "nope.txt"
        code = run(command, "--model", missing, "--data", xor_csv, "--label-col", "label",
                   "--out", tmp_path / "out.csv")
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    def test_unreadable_model_file_is_data_error(self, tmp_path, xor_csv, command):
        # A directory cannot be opened as a file, whatever the permissions.
        code = run(command, "--model", tmp_path, "--data", xor_csv, "--label-col", "label",
                   "--out", tmp_path / "out.csv")
        assert code == 3

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    def test_binary_model_file_is_data_error(self, tmp_path, xor_csv, command):
        model = tmp_path / "model.bin"
        model.write_bytes(b"\xff\xfe\x00binary")
        code = run(command, "--model", model, "--data", xor_csv, "--label-col", "label",
                   "--out", tmp_path / "out.csv")
        assert code == 3

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    def test_non_finite_model_array_is_data_error(self, tmp_path, xor_csv, capsys, command):
        model_path = tmp_path / "model.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--r1", 0, "--r2", 0,
            "--p", 2, "--out", model_path)
        lines = model_path.read_text().splitlines()
        row = lines.index("array mean 1 2") + 1
        lines[row] = "nan " + lines[row].split()[1]
        model_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = run(command, "--model", model_path, "--data", xor_csv, "--label-col", "label",
                   "--out", out)
        assert code == 3
        assert "array 'mean' holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_refuses_kernel_models(self, tmp_path, xor_csv, capsys):
        model_path = tmp_path / "kernel.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--variant", "kernel",
            "--r1", 1, "--r2", 0, "--out", model_path)
        code = run("reconstruct", "--model", model_path, "--data", xor_csv,
                   "--label-col", "label", "--out", tmp_path / "r.csv")
        assert code == 2
        assert "not available" in capsys.readouterr().err


class TestSweep:
    def test_grid_rows_and_supervision_column(self, tmp_path):
        data = tmp_path / "rings.csv"
        run("gen", "rings", "--n", 80, "--seed", 5, "--out", data)
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--data", data, "--label-col", "label", "--variant", "kernel",
            "--grid", 3, "--seed", 5, "--out", out,
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9
        for row in rows:
            assert float(row["s"]) == (float(row["r1"]) + float(row["r2"])) / 2.0
            assert row["metric"] == "error-rate"

    def test_corner_matches_dedicated_fit(self, tmp_path):
        data = tmp_path / "rings.csv"
        run("gen", "rings", "--n", 80, "--seed", 5, "--out", data)
        out = tmp_path / "sweep.csv"
        run("sweep", "--data", data, "--label-col", "label", "--variant", "kernel",
            "--grid", 2, "--seed", 5, "--out", out)
        with open(out) as handle:
            rows = {(row["r1"], row["r2"]): float(row["value"]) for row in csv.DictReader(handle)}

        ds = gen_rings(80, 5)
        train, test = train_test_split(ds, 0.7, 5)
        kern = kernels.resolve_gamma(kernels.KernelSpec("rbf"), train.X)
        model = fit_direct(train.X, train.y, rda.RoweisConfig(1.0, 1.0, p=2), kern)
        err = knn_classify(
            project_kernel(model, train.X), train.y, project_kernel(model, test.X), test.y
        ).value
        assert rows[("1.0", "1.0")] == err

    def test_grid_too_small_rejected(self, tmp_path, xor_csv):
        assert run("sweep", "--data", xor_csv, "--label-col", "label", "--grid", 1,
                   "--out", tmp_path / "s.csv") == 2


class TestExperiments:
    def test_small_bundle(self, tmp_path):
        out_dir = tmp_path / "results"
        code = run("experiments", "--out-dir", out_dir, "--reps", 2, "--n", 60,
                   "--panel-n", 40, "--seed", 1)
        assert code == 0
        table = (out_dir / "regression_table.csv").read_text().splitlines()
        assert table[0] == "method,r1,benchmark,rmse_mean,rmse_std"
        assert len(table) == 1 + 18
        panels = sorted((out_dir / "panels").glob("*.csv"))
        assert len(panels) == 18
        header = panels[0].read_text().splitlines()[0]
        assert header.startswith("split,label,e1")
        assert (out_dir / "regression_table.txt").exists()

    def test_unwritable_text_table_is_data_error(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        (out_dir / "regression_table.txt").mkdir(parents=True)
        code = run("experiments", "--out-dir", out_dir, "--reps", 2, "--n", 60,
                   "--panel-n", 40, "--seed", 1)
        assert code == 3
        assert "cannot write" in capsys.readouterr().err
