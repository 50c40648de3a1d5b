import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import roweis
from roweis import kernels, persist, rda
from roweis.cli import main
from roweis.datasets import gen_rings, load_csv, save_csv, train_test_split
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


def test_python_dash_m_runs_the_cli():
    src = str(Path(roweis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "roweis", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"roweis {roweis.__version__}"


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

    @pytest.mark.parametrize("argv", [
        ("bench", "--id", 1, "--noise-scale", "inf"), ("bench", "--id", 2, "--noise-scale", "nan"),
        ("rings", "--noise", "nan"), ("rings", "--noise", "inf"), ("rings", "--inner", "nan"),
        ("rings", "--outer", "inf"), ("rings", "--inner", 3, "--outer", 1),
    ], ids=["bench inf noise", "bench nan noise", "rings nan noise", "rings inf noise", "rings nan inner",
            "rings inf outer", "rings swapped radii"])
    def test_bad_generator_flag_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "data.csv"
        assert run("gen", *argv, "--n", 20, "--out", out) == 2
        assert "X contains" not in capsys.readouterr().err
        assert not out.exists()

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

    def test_unparsable_seed_env_is_config_error(self, tmp_path, xor_csv, monkeypatch, capsys):
        monkeypatch.setenv("ROWEIS_SEED", "abc")
        for argv in [
            ("gen", "xor", "--n", 40, "--out", tmp_path / "g.csv"),
            ("sweep", "--data", xor_csv, "--label-col", "label", "--out", tmp_path / "s.csv"),
            ("experiments", "--reps", 1, "--n", 30, "--panel-n", 20, "--out-dir", tmp_path / "ex"),
        ]:
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert "ROWEIS_SEED" in err and "'abc'" in err
        assert not any(p.name.startswith(("g.csv", "s.csv", "ex")) for p in tmp_path.iterdir())

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run("gen", "xor", "--n", 20, "--seed", -1, "--out", out) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROWEIS_SEED", "-1")
        assert run("gen", "xor", "--n", 20, "--out", tmp_path / "g.csv") == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_unparsable_seed_env_spares_seeded_and_seedless_commands(self, tmp_path, xor_csv, monkeypatch):
        monkeypatch.setenv("ROWEIS_SEED", "abc")
        out = tmp_path / "g.csv"
        assert run("gen", "xor", "--n", 40, "--seed", 5, "--out", out) == 0
        assert json.loads((tmp_path / "g.csv.manifest.json").read_text())["seed"] == 5
        assert run("sweep", "--data", xor_csv, "--label-col", "label", "--grid", 2, "--seed", 1,
                   "--out", tmp_path / "s.csv") == 0
        model = tmp_path / "m.txt"
        assert run("fit", "--data", xor_csv, "--label-col", "label", "--p", 2, "--out", model) == 0
        assert run("transform", "--model", model, "--data", xor_csv, "--label-col", "label",
                   "--out", tmp_path / "e.csv") == 0


class TestFit:
    @pytest.mark.parametrize("variant", ["dual", "kernel", "kernel-pca", "kernel-spca"])
    def test_robust_is_refused_by_other_variants(self, tmp_path, xor_csv, capsys, variant):
        # Only the primal fit repairs its constraint; the flag must not be
        # dropped while the manifest records it.
        out = tmp_path / "m.txt"
        code = run("fit", "--data", xor_csv, "--label-col", "label", "--variant", variant,
                   "--robust", "--out", out)
        assert code == 2
        assert "--robust" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "m.txt.manifest.json").exists()

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
        assert model.variant == "kernel-direct"

    @pytest.mark.parametrize("variant", ["primal", "kernel", "kernel-spca"])
    def test_label_kernel_flags_reach_the_model_and_the_manifest(self, tmp_path, xor_csv, variant):
        model_path = tmp_path / "model.txt"
        assert run("fit", "--data", xor_csv, "--label-col", "label", "--variant", variant, "--r1", 1,
                   "--label-kernel", "rbf", "--label-gamma", 0.5, "--out", model_path) == 0
        spec = kernels.KernelSpec("rbf", gamma=0.5)
        model = persist.load_model(model_path)
        assert (model.config.label_kernel if variant == "primal" else model.label_kernel) == spec
        manifest = json.loads((tmp_path / "model.txt.manifest.json").read_text())
        assert manifest["config"]["label_kernel"] == spec.to_dict()

    @pytest.mark.parametrize("variant", ["primal", "kernel-spca"])
    @pytest.mark.parametrize("gamma", [["--label-gamma", 0.5], []], ids=["given", "median heuristic"])
    def test_rbf_label_kernel_on_string_labels_is_config_error(self, tmp_path, capsys, variant, gamma):
        path = tmp_path / "s.csv"
        path.write_text("f1,f2,label\n0.1,0.2,a\n0.5,0.1,b\n0.9,0.7,c\n0.3,0.8,a\n0.6,0.4,b\n0.2,0.9,c\n")
        code = run("fit", "--data", path, "--label-col", "label", "--variant", variant, "--r1", 1,
                   "--label-kernel", "rbf", *gamma, "--out", tmp_path / "m.txt")
        assert code == 2
        assert "the rbf label kernel needs numeric labels" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.txt") == 3

    def test_non_finite_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\nnan,1.0,1\n2.0,inf,0\n0.5,0.5,1\n")
        code = run("fit", "--data", path, "--label-col", "label", "--r1", 1, "--r2", 0,
                   "--out", tmp_path / "m.txt")
        assert code == 3
        assert "row 3 column 1 is not finite" in capsys.readouterr().err

    def test_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("f1,label\n1,a\n2," + "b" * 140000 + "\n")
        code = run("fit", "--data", path, "--label-col", "label", "--out", tmp_path / "m.txt")
        assert code == 3
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_degenerate_data_is_numerical_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("f1,f2\n" + "1.0,2.0\n" * 6)
        code = run("fit", "--data", path, "--variant", "kernel-pca", "--kernel", "rbf",
                   "--out", tmp_path / "m.txt")
        assert code == 4


def _longer_mean(lines: list) -> list:
    """A primal model file whose mean has one entry more than the data."""
    at = lines.index("array mean 1 2")
    return lines[:at] + ["array mean 1 3", lines[at + 1] + " 0.0"] + lines[at + 2:]


def _shorter_coeffs(lines: list) -> list:
    """A kernel-direct model file with the last row of coeffs dropped."""
    at = next(i for i, line in enumerate(lines) if line.startswith("array coeffs "))
    _, name, rows, cols = lines[at].split()
    rows = int(rows)
    return lines[:at] + [f"array {name} {rows - 1} {cols}"] + lines[at + 1:at + rows] + lines[at + 1 + rows:]


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

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    @pytest.mark.parametrize("edit, message", [
        (lambda line: None if line.startswith("r1: ") else line, "missing value 'r1'"),
        (lambda line: 'robust: "no"' if line.startswith("robust: ") else line,
         "malformed value for 'robust'"),
        (lambda line: "r1: 2.0" if line.startswith("r1: ") else line, "malformed value for 'r1'"),
        (lambda line: "shift: NaN" if line.startswith("shift: ") else line, "malformed value for 'shift'"),
    ], ids=["missing r1", "malformed robust", "r1 out of range", "nan shift"])
    def test_malformed_model_scalar_is_data_error(self, tmp_path, xor_csv, capsys, command, edit, message):
        model_path = tmp_path / "model.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--r1", 0, "--r2", 0,
            "--p", 2, "--out", model_path)
        lines = [edit(line) for line in model_path.read_text().splitlines()]
        model_path.write_text("\n".join(line for line in lines if line is not None) + "\n")
        code = run(command, "--model", model_path, "--data", xor_csv, "--label-col", "label",
                   "--out", tmp_path / "out.csv")
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transform", "reconstruct"])
    @pytest.mark.parametrize("fit_args, edit, message", [
        (("--r1", 0), lambda lines: [
            'label_kernel: "rbf"' if line.startswith("label_kernel: ") else line for line in lines],
         "malformed value for 'label_kernel'"),
        (("--r1", 0), _longer_mean, "arrays disagree in shape: 'mean' entries 3, 'basis' rows 2"),
        (("--variant", "kernel-pca"), lambda lines: [
            line for line in lines if not line.startswith("kernel: ")], "missing value 'kernel'"),
        (("--variant", "kernel-pca"), lambda lines: [
            'kernel: {"family": "rbf"}' if line.startswith("kernel: ") else line for line in lines],
         "malformed value for 'kernel'"),
        (("--variant", "kernel", "--r1", 1), _shorter_coeffs,
         "arrays disagree in shape: 'coeffs' rows 119, 'train_x' columns 120"),
    ], ids=["label kernel string", "long mean", "no kernel", "rbf without gamma", "short coeffs"])
    def test_inconsistent_model_file_is_data_error(self, tmp_path, xor_csv, capsys, command,
                                                   fit_args, edit, message):
        model_path = tmp_path / "model.txt"
        assert run("fit", "--data", xor_csv, "--label-col", "label", *fit_args, "--p", 2,
                   "--out", model_path) == 0
        model_path.write_text("\n".join(edit(model_path.read_text().splitlines())) + "\n")
        out = tmp_path / "out.csv"
        code = run(command, "--model", model_path, "--data", xor_csv, "--label-col", "label",
                   "--out", out)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape, route", [("xor", "classes"), ("wide", "span")])
    def test_dual_fit_is_saved_in_the_primal_layout(self, tmp_path, xor_csv, shape, route):
        # A dual fit is the primal fit at r2 = 0: XOR (d = 2) takes the d x d
        # solve from class statistics, 30 features and 10 samples the span of
        # the centered data.
        data = xor_csv
        if shape == "wide":
            data = tmp_path / "wide.csv"
            rng = np.random.default_rng(3)
            save_csv(data, rng.standard_normal((30, 10)), np.arange(10) % 2)
        model_path = tmp_path / "dual.txt"
        assert run("fit", "--data", data, "--label-col", "label", "--variant", "dual",
                   "--r1", 0.5, "--p", 12, "--out", model_path) == 0
        lines = model_path.read_text().splitlines()
        assert 'variant: "primal"' in lines and f'route: "{route}"' in lines
        assert not any(line.startswith(("array factor", "array sigma")) for line in lines)
        rec_path = tmp_path / "rec.csv"
        assert run("reconstruct", "--model", model_path, "--data", data,
                   "--label-col", "label", "--out", rec_path) == 0
        x, _, _ = load_csv(data, label_col="label")
        got, _, _ = load_csv(rec_path)
        # Every valid component is kept (d on XOR, n - 1 on the wide data),
        # so the training points reconstruct losslessly.
        np.testing.assert_allclose(got, x, atol=1e-9)

    def test_reconstruct_refuses_kernel_models(self, tmp_path, xor_csv, capsys):
        model_path = tmp_path / "kernel.txt"
        run("fit", "--data", xor_csv, "--label-col", "label", "--variant", "kernel",
            "--r1", 1, "--r2", 0, "--out", model_path)
        code = run("reconstruct", "--model", model_path, "--data", xor_csv,
                   "--label-col", "label", "--out", tmp_path / "r.csv")
        assert code == 2
        assert "not available" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["kernel-pca", "kernel-spca"])
    def test_reconstruct_refuses_trick_files_before_their_training_gram(self, tmp_path, capsys, variant):
        # The refusal comes from the file's variant, before loading would
        # fold the trick fit's centering from the n x n training Gram.
        n = 400
        data, model_path = tmp_path / "rings.csv", tmp_path / "model.txt"
        assert run("gen", "rings", "--n", n, "--seed", 1, "--out", data) == 0
        assert run("fit", "--data", data, "--label-col", "label", "--variant", variant,
                   "--out", model_path) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = run("reconstruct", "--model", model_path, "--data", data, "--label-col", "label",
                       "--out", tmp_path / "r.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "not available" in capsys.readouterr().err
        assert peak < n * n * 8
        assert not (tmp_path / "r.csv").exists()


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
        )
        assert rows[("1.0", "1.0")] == err

    @pytest.mark.parametrize("variant", ["primal", "kernel"])
    def test_real_targets_sweep_r1_at_r2_zero(self, tmp_path, capsys, variant):
        # Real targets have no within-class scatter: r2 stays 0, and the run
        # says so instead of failing at the first r2 > 0 point.
        data = tmp_path / "bench.csv"
        assert run("gen", "bench", "--id", 2, "--n", 50, "--seed", 3, "--out", data) == 0
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--data", data, "--label-col", "label", "--variant", variant,
                   "--grid", 4, "--seed", 3, "--out", out) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["r1"]) for row in rows] == list(np.linspace(0.0, 1.0, 4))
        assert all(row["r2"] == "0.0" and row["metric"] == "rmse" for row in rows)
        assert "r2 = 0 only" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["r2_values"] == [0.0]

    def test_class_label_manifest_has_no_r2_values(self, tmp_path, xor_csv):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--data", xor_csv, "--label-col", "label", "--grid", 2,
                   "--out", out) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert "r2_values" not in manifest["config"]

    def test_manifest_records_the_label_kernel(self, tmp_path):
        # A sweep's scores depend on the label kernel, so its manifest
        # records it as fit's does: the requested kernel, or null.
        data = tmp_path / "bench.csv"
        assert run("gen", "bench", "--id", 3, "--n", 40, "--seed", 3, "--out", data) == 0
        manifests = []
        for flags in ([], ["--label-kernel", "rbf", "--label-gamma", 0.5],
                      ["--label-kernel", "rbf", "--label-gamma", 2.0]):
            out = tmp_path / f"sweep{len(manifests)}.csv"
            assert run("sweep", "--data", data, "--label-col", "label", "--grid", 2, "--seed", 3,
                       *flags, "--out", out) == 0
            manifests.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text()))
        assert [m["config"]["label_kernel"] for m in manifests] == [
            None, {"family": "rbf", "gamma": 0.5}, {"family": "rbf", "gamma": 2.0}]
        first, second = ({k: v for k, v in m.items() if k != "outputs"} for m in manifests[1:])
        assert first != second

    def test_negative_seed_is_config_error(self, tmp_path, xor_csv, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", xor_csv, "--label-col", "label", "--seed", -1, "--out", out) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert run("experiments", "--out-dir", out_dir, "--reps", 1, "--n", 30,
                   "--panel-n", 20, "--seed", -3) == 2
        assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not (out_dir / "regression_table.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--reps", 0), ("--seed", -3), ("--n", 0), ("--panel-n", 2)])
    def test_refused_run_creates_no_directory(self, tmp_path, flag, value):
        argv = {"--reps": 1, "--n": 30, "--panel-n": 20, "--seed": 1, flag: value}
        out_dir = tmp_path / "results"
        assert run("experiments", "--out-dir", out_dir, *[str(x) for kv in argv.items() for x in kv]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("reps", [0, -2])
    def test_no_repetitions_is_config_error(self, tmp_path, capsys, reps):
        out_dir = tmp_path / "results"
        assert run("experiments", "--out-dir", out_dir, "--reps", reps, "--n", 30,
                   "--panel-n", 20, "--seed", 1) == 2
        assert f"repetitions must be at least 1, got {reps}" in capsys.readouterr().err
        assert not (out_dir / "regression_table.csv").exists()
