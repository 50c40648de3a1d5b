import json
from pathlib import Path

import numpy as np
import pytest

from roweis import kernels
from roweis.dual import fit_dual
from roweis.exceptions import DataError
from roweis.kernel_rda import fit_direct, fit_kernel_pca, fit_kernel_spca
from roweis.kernel_rda import project as project_kernel
from roweis.persist import FORMAT_TAG, load_model, save_model
from roweis.rda import RdaModel, RoweisConfig, fit, project, reconstruct

import oracle
from conftest import labeled_blobs


@pytest.fixture
def data(rng):
    return labeled_blobs(rng, d=3, n=14, c=2)


class TestRoundTrips:
    def test_primal(self, tmp_path, data, rng):
        x, labels = data
        model = fit(x, labels, RoweisConfig(0.4, 0.6, p=2, robust=True))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.basis, model.basis)
        assert np.array_equal(loaded.mean, model.mean)
        assert loaded.shift == model.shift
        assert loaded.config.r1 == model.config.r1
        assert loaded.config.robust is True
        assert loaded.config.label_kernel == model.config.label_kernel
        probe = rng.standard_normal((3, 5))
        assert np.array_equal(project(loaded, probe), project(model, probe))

    @pytest.mark.parametrize("r1, r2, label_kernel", [
        (np.float32(0.5), np.float64(0.25), None),
        (1, 0, kernels.KernelSpec("polynomial", degree=np.int64(3), offset=np.float32(0.5))),
        (np.float16(0.5), 0.0, kernels.KernelSpec("rbf", gamma=np.float32(0.75))),
    ], ids=["numpy floats", "ints", "numpy kernel"])
    def test_every_accepted_scalar_reads_back(self, tmp_path, data, r1, r2, label_kernel):
        x, labels = data
        model = fit(x, labels, RoweisConfig(r1, r2, p=1, label_kernel=label_kernel))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert [type(v) for v in (loaded.config.r1, loaded.config.r2)] == [float, float]

    def test_dual(self, tmp_path, data, rng):
        x, labels = data
        model = fit_dual(x, labels, 1.0)
        path = tmp_path / "dual.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert 'variant: "primal"' in lines and 'route: "classes"' in lines
        loaded = load_model(path)
        probe = rng.standard_normal((3, 4))
        assert np.array_equal(project(loaded, probe), project(model, probe))
        assert loaded.config.r1 == 1.0
        assert loaded.route == "classes"

    def test_kernel_direct(self, tmp_path, data, rng):
        x, labels = data
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        model = fit_direct(x, labels, RoweisConfig(1.0, 1.0), kern)
        path = tmp_path / "direct.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kernel == model.kernel
        assert loaded.label_kernel == model.label_kernel
        probe = rng.standard_normal((3, 4))
        assert np.array_equal(project_kernel(loaded, probe), project_kernel(model, probe))

    def test_kernel_pca(self, tmp_path, data, rng):
        x, _ = data
        model = fit_kernel_pca(x, kernels.KernelSpec("rbf", gamma=0.8))
        path = tmp_path / "kpca.txt"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.standard_normal((3, 4))
        assert np.array_equal(project_kernel(loaded, probe), project_kernel(model, probe))

    def test_kernel_spca(self, tmp_path, data, rng):
        x, labels = data
        model = fit_kernel_spca(
            x, labels, kernels.KernelSpec("rbf", gamma=0.8), kernels.KernelSpec("delta")
        )
        path = tmp_path / "kspca.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.upsilon is not None
        probe = rng.standard_normal((3, 4))
        assert np.array_equal(project_kernel(loaded, probe), project_kernel(model, probe))


class TestRoute:
    def test_span_route_round_trip(self, tmp_path, rng):
        x, labels = labeled_blobs(rng, d=20, n=8, c=2)
        model = fit(x, labels, RoweisConfig(0.5, 0.5, p=2))
        assert model.route == "span"
        path = tmp_path / "m.txt"
        save_model(model, path)
        assert 'route: "span"' in path.read_text().splitlines()
        loaded = load_model(path)
        assert loaded.route == "span"
        assert np.array_equal(loaded.basis, model.basis)

    @pytest.mark.parametrize("label_kernel", [None, kernels.KernelSpec("linear")], ids=["delta", "label Gram"])
    def test_classes_route_round_trip(self, tmp_path, data, label_kernel):
        # Every d <= n fit is fitted from the class statistics of X.
        x, labels = data
        model = fit(x, labels, RoweisConfig(0.5, 0.5, p=2, label_kernel=label_kernel))
        path = tmp_path / "m.txt"
        save_model(model, path)
        assert model.route == load_model(path).route == "classes"

    def test_a_dense_route_file_still_loads(self, tmp_path, data, rng):
        # Older fits with a label Gram on d <= n recorded route "dense".
        x, labels = data
        model = fit(x, labels, RoweisConfig(0.5, 0.5, p=2, label_kernel=kernels.KernelSpec("linear")))
        path = tmp_path / "m.txt"
        save_model(model, path)
        path.write_text(path.read_text().replace('route: "classes"', 'route: "dense"'))
        loaded = load_model(path)
        assert loaded.route == "dense" and loaded.config == model.config
        probe = rng.standard_normal((3, 4))
        assert np.array_equal(project(loaded, probe), project(model, probe))

    def test_file_without_route_loads_as_dense(self, tmp_path, rng):
        x, labels = labeled_blobs(rng, d=20, n=8, c=2)
        path = tmp_path / "m.txt"
        save_model(fit(x, labels, RoweisConfig(0.5, 0.5, p=2)), path)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("route: ")]
        path.write_text("\n".join(lines) + "\n")
        assert load_model(path).route == "dense"

    def test_unknown_route_rejected(self, tmp_path, data):
        x, labels = data
        path = tmp_path / "m.txt"
        save_model(fit(x, labels, RoweisConfig(0.0, 0.0, p=1)), path)
        path.write_text(path.read_text().replace('route: "classes"', 'route: "sideways"'))
        with pytest.raises(DataError):
            load_model(path)


class TestFormat:
    def test_format_tag_written(self, tmp_path, data):
        x, labels = data
        save_model(fit(x, labels, RoweisConfig(0.0, 0.0, p=1)), tmp_path / "m.txt")
        first_line = (tmp_path / "m.txt").read_text().splitlines()[0]
        assert first_line == FORMAT_TAG

    def test_unrecognized_file_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_array_rejected(self, tmp_path, data):
        x, labels = data
        path = tmp_path / "m.txt"
        save_model(fit(x, labels, RoweisConfig(0.0, 0.0, p=1)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]))
        with pytest.raises(DataError):
            load_model(path)


DATA = Path(__file__).parent / "data"


class TestDualLayout:
    """Files of the earlier ``variant: dual`` layout (W, V and sigma) load as
    primal models; the expected outputs were written by the code of that layout."""

    def test_loads_as_a_dual_route_primal_model(self):
        model = load_model(DATA / "dual_model_v1.txt")
        assert isinstance(model, RdaModel)
        assert model.route == "dual"
        assert (model.config.r1, model.config.r2, model.n_components) == (0.5, 0.0, 4)
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("apply", [project, reconstruct], ids=["project", "reconstruct"])
    def test_outputs_match_the_earlier_code(self, apply):
        model = load_model(DATA / "dual_model_v1.txt")
        expected = json.loads((DATA / "dual_model_v1_expected.json").read_text())
        probe = np.array(expected["probe"]).T
        want = np.array(expected[apply.__name__]).T
        got = apply(model, probe)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_resaved_in_the_primal_layout(self, tmp_path):
        model = load_model(DATA / "dual_model_v1.txt")
        path = tmp_path / "m.txt"
        save_model(model, path)
        assert 'variant: "primal"' in path.read_text().splitlines()
        loaded = load_model(path)
        assert loaded.route == "dual"
        assert np.array_equal(loaded.basis, model.basis)

    def test_shape_mismatch_is_a_data_error(self, tmp_path):
        text = (DATA / "dual_model_v1.txt").read_text()
        path = tmp_path / "m.txt"
        path.write_text(text.replace("array sigma 1 4", "array sigma 1 3").replace(
            "4.125184559007413 2.1275199458579057 1.1968664078608795 0.5626455969145288",
            "4.125184559007413 2.1275199458579057 1.1968664078608795"))
        with pytest.raises(DataError, match="disagree in shape"):
            load_model(path)


class TestComponentsBelowTheCut:
    """Files written before the one component rule may hold components it no
    longer returns (eigenvalues at or below 1e-9 of the largest). They load
    as written, nothing is re-selected, and they embed bit for bit as the
    model that was saved."""

    @staticmethod
    def assert_kept(model, tmp_path, probe, embed):
        assert model.eigvals[-1] <= 1e-9 * model.eigvals[0]
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_components == model.n_components
        assert loaded.eigvals.tobytes() == model.eigvals.tobytes()
        assert embed(loaded, probe).tobytes() == embed(model, probe).tobytes()

    def test_dual(self, tmp_path, rng):
        # Centered data with singular values 1, 1e-2 and 1e-6 (eigenvalues
        # down to 1e-12 of the largest) and d > n: the route of the W'W solve.
        left = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        right = np.linalg.qr(np.hstack([np.ones((6, 1)), rng.standard_normal((6, 3))]))[0][:, 1:]
        x = (left * [1.0, 1e-2, 1e-6]) @ right.T + 5.0
        model = oracle.fit_dual(x)
        assert model.n_components == 3 and fit_dual(x, p=3).n_components == 2
        self.assert_kept(model, tmp_path, rng.standard_normal((12, 4)), project)
        self.assert_kept(model, tmp_path, rng.standard_normal((12, 4)), reconstruct)

    @pytest.mark.parametrize("spca", [False, True], ids=["kernel-pca", "kernel-spca"])
    def test_trick(self, tmp_path, rng, spca):
        # A wide RBF kernel on 2-d points: its spectrum decays below 1e-9 of
        # the largest before the old 1e-6 cut on sigma.
        x = rng.standard_normal((2, 30))
        kern = kernels.KernelSpec("rbf", gamma=0.05)
        if spca:
            targets = x[0] + 0.1 * rng.standard_normal(30)
            model = oracle.fit_kernel_spca(x, targets, kern)
            assert fit_kernel_spca(x, targets, kern, p=30).n_components < model.n_components
        else:
            model = oracle.fit_kernel_pca(x, kern)
            assert fit_kernel_pca(x, kern, p=30).n_components < model.n_components
        self.assert_kept(model, tmp_path, rng.standard_normal((2, 7)), project_kernel)


def _primal_file(tmp_path, data, replace):
    x, labels = data
    path = tmp_path / "m.txt"
    save_model(fit(x, labels, RoweisConfig(0.5, 0.5, p=2)), path)
    lines = [replace(line) for line in path.read_text().splitlines()]
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")
    return path


class TestMalformedScalars:
    @pytest.mark.parametrize("key", ["r1", "r2"])
    def test_missing_required_scalar(self, tmp_path, data, key):
        path = _primal_file(tmp_path, data, lambda line: None if line.startswith(f"{key}: ") else line)
        with pytest.raises(DataError, match=f"missing value '{key}'"):
            load_model(path)

    def test_missing_r1_in_the_dual_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        lines = (DATA / "dual_model_v1.txt").read_text().splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("r1: ")) + "\n")
        with pytest.raises(DataError, match="missing value 'r1'"):
            load_model(path)

    @pytest.mark.parametrize("value", ['["a", 0.01, 10.0]', "[1e-08, 0.01]", '"abc"', "5", "null"])
    def test_retired_reg_values_are_ignored(self, tmp_path, data, value):
        # reg stopped being a fit setting; an old file's line loads whatever it holds.
        path = _primal_file(tmp_path, data, lambda line: f"{line}\nreg: {value}" if line.startswith("robust: ") else line)
        assert f"reg: {value}" in path.read_text().splitlines()
        assert load_model(path).config == RoweisConfig(0.5, 0.5, p=2, label_kernel=kernels.KernelSpec("delta"))

    @pytest.mark.parametrize("raw", ['"no"', '"false"', "0", "1", "null", "[]"])
    def test_robust_must_be_a_json_boolean(self, tmp_path, data, raw):
        path = _primal_file(tmp_path, data, lambda line: f"robust: {raw}" if line.startswith("robust: ") else line)
        with pytest.raises(DataError, match="malformed value for 'robust'"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("r1", '"half"'), ("shift", "[]"), ("notes", "3")])
    def test_wrong_type(self, tmp_path, data, key, value):
        path = _primal_file(tmp_path, data, lambda line: f"{key}: {value}" if line.startswith(f"{key}: ") else line)
        with pytest.raises(DataError, match=f"malformed value for '{key}'"):
            load_model(path)

    # Both layouts check their scalars alike: r1 and r2 are JSON numbers in
    # [0, 1], shift a finite number >= 0, notes a list of strings.
    @pytest.mark.parametrize("layout", ["primal", "kernel-direct", "kernel-pca", "kernel-spca"])
    @pytest.mark.parametrize("key, raw", [
        ("r1", "2.0"), ("r1", "-3.0"), ("r1", "true"), ("r1", "NaN"), ("r1", "null"),
        ("r2", "NaN"), ("r2", "1.5"), ("r2", "false"), ("r2", '"0.5"'),
        ("shift", "NaN"), ("shift", "Infinity"), ("shift", "-1e-300"), ("shift", "true"), ("shift", "1e400"),
        pytest.param("shift", "1" + "0" * 400, id="shift-400-digit-integer"),
        ("notes", '"ab"'), ("notes", "[1]"), ("notes", "null"), ("notes", '{"a": "b"}'),
    ])
    def test_out_of_type_or_range_in_every_layout(self, tmp_path, data, layout, key, raw):
        path = _saved(tmp_path, data, layout)
        _set_scalar(path, key, raw)
        with pytest.raises(DataError, match=f"malformed value for '{key}'"):
            load_model(path)

    @pytest.mark.parametrize("layout", ["primal", "kernel-direct", "kernel-pca", "kernel-spca"])
    def test_edges_of_the_ranges_load(self, tmp_path, data, layout):
        path = _saved(tmp_path, data, layout)
        for key, raw in (("r1", "1"), ("r2", "0"), ("shift", "0"), ("notes", '["a", ""]')):
            _set_scalar(path, key, raw)
        model = load_model(path)
        r1, r2 = (model.config.r1, model.config.r2) if layout == "primal" else (model.r1, model.r2)
        assert (r1, r2, model.shift, model.notes) == (1.0, 0.0, 0.0, ("a", ""))
        assert all(type(value) is float for value in (r1, r2, model.shift))

    @pytest.mark.parametrize("layout", ["kernel-direct", "kernel-pca", "kernel-spca"])
    def test_kernel_files_default_an_absent_r1_and_r2_to_zero(self, tmp_path, data, layout):
        path = _saved(tmp_path, data, layout)
        _set_scalar(path, "r1", None)
        _set_scalar(path, "r2", None)
        model = load_model(path)
        assert (model.r1, model.r2) == (0.0, 0.0)


# The lines primal files carried while these were fit settings: their
# defaults, and other values.
RETIRED_LINES = {
    "defaults": ["valid_eig_threshold: 1e-09", "auto_dim_ratio: 0.01", "reg: [1e-08, 0.01, 10.0]"],
    "others": ["valid_eig_threshold: 0.5", "auto_dim_ratio: 0.9", "reg: [1e-06, 1.0, 2.0]"],
}


class TestRobustAndRetiredKeys:
    @pytest.mark.parametrize("raw, want", [("true", True), ("false", False), (None, False)],
                             ids=["true", "false", "absent"])
    def test_robust_flag(self, tmp_path, data, raw, want):
        edit = (lambda line: None) if raw is None else (lambda line: f"robust: {raw}")
        path = _primal_file(tmp_path, data, lambda line: edit(line) if line.startswith("robust: ") else line)
        assert load_model(path).config.robust is want

    def test_saved_files_omit_the_retired_keys(self, tmp_path, data):
        x, labels = data
        path = tmp_path / "m.txt"
        save_model(fit(x, labels, RoweisConfig(0.5, 0.5, p=2, robust=True)), path)
        keys = [line.split(": ")[0] for line in path.read_text().splitlines() if ": " in line]
        assert keys == ["variant", "r1", "r2", "robust", "label_kernel", "shift", "notes", "route"]

    @pytest.mark.parametrize("retired", sorted(RETIRED_LINES))
    def test_old_files_load_and_project_bit_identically(self, tmp_path, data, rng, retired):
        x, labels = data
        model = fit(x, labels, RoweisConfig(0.4, 0.6, p=2, robust=True))
        path = tmp_path / "m.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        at = lines.index("robust: true") + 1
        path.write_text("\n".join(lines[:at] + RETIRED_LINES[retired] + lines[at:]) + "\n")
        loaded = load_model(path)
        assert loaded.config == model.config
        assert (loaded.shift, loaded.notes, loaded.route) == (model.shift, model.notes, model.route)
        probe = rng.standard_normal((3, 5))
        for apply in (project, reconstruct):
            assert apply(loaded, probe).tobytes() == apply(model, probe).tobytes()


# One saved model per layout, fitted on 3 x 14 data with two classes and p = 2.
SAVED = {
    "primal": lambda x, y: fit(x, y, RoweisConfig(0.5, 0.5, p=2)),
    "kernel-direct": lambda x, y: fit_direct(x, y, RoweisConfig(0.5, 0.5, p=2), kernels.KernelSpec("rbf", gamma=0.5)),
    "kernel-pca": lambda x, y: fit_kernel_pca(x, kernels.KernelSpec("rbf", gamma=0.5), p=2),
    "kernel-spca": lambda x, y: fit_kernel_spca(x, y, kernels.KernelSpec("polynomial"), p=2),
}


def _saved(tmp_path, data, layout) -> Path:
    path = tmp_path / f"{layout}.txt"
    save_model(SAVED[layout](*data), path)
    return path


def _set_scalar(path: Path, key: str, raw: str | None) -> None:
    """Replace the ``key`` line by ``key: raw``, or drop it for raw=None."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
    lines[i:i + 1] = [] if raw is None else [f"{key}: {raw}"]
    path.write_text("\n".join(lines) + "\n")


def _set_array(path: Path, name: str, change) -> None:
    """Rewrite array ``name`` as ``change`` of its current value."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith(f"array {name} "))
    rows = int(lines[head].split()[2])
    arr = change(np.array([[float(v) for v in line.split()] for line in lines[head + 1:head + 1 + rows]]))
    block = [f"array {name} {arr.shape[0]} {arr.shape[1]}"] + [" ".join(map(repr, r)) for r in arr.tolist()]
    lines[head:head + 1 + rows] = block
    path.write_text("\n".join(lines) + "\n")


class TestKernelScalars:
    @pytest.mark.parametrize("layout, key, raw, message", [
        ("primal", "label_kernel", '"rbf"', "malformed value for 'label_kernel'"),
        ("primal", "label_kernel", '{"family": "rbf", "gamma": -1.0}', "malformed value for 'label_kernel'"),
        ("kernel-spca", "label_kernel", "[1, 2]", "malformed value for 'label_kernel'"),
        ("kernel-pca", "kernel", None, "missing value 'kernel'"),
        ("kernel-pca", "kernel", "null", "malformed value for 'kernel'"),
        ("kernel-pca", "kernel", '"rbf"', "malformed value for 'kernel'"),
        ("kernel-direct", "kernel", '{"family": "rbf"}', "malformed value for 'kernel'"),
        ("kernel-direct", "kernel", '{"family": "delta"}', "malformed value for 'kernel'"),
        ("kernel-spca", "kernel", '{"family": "polynomial", "degree": "two"}', "malformed value for 'kernel'"),
        ("kernel-spca", "kernel", '{"family": "polynomial", "degree": 2.5}', "malformed value for 'kernel'"),
        ("kernel-spca", "kernel", '{"family": "polynomial", "degree": true}', "malformed value for 'kernel'"),
        ("kernel-spca", "kernel", '{"family": "polynomial", "degree": "3"}', "malformed value for 'kernel'"),
        ("kernel-direct", "kernel", '{"family": "rbf", "gamma": true}', "malformed value for 'kernel'"),
        ("primal", "label_kernel", '{"family": "polynomial", "offset": "1"}', "malformed value for 'label_kernel'"),
    ], ids=["label kernel string", "negative label gamma", "label kernel list", "no kernel", "null kernel",
            "kernel string", "rbf without gamma", "delta data kernel", "non-integer degree", "fractional degree",
            "boolean degree", "string degree", "boolean gamma", "string offset"])
    def test_unusable_kernel_is_a_data_error(self, tmp_path, data, layout, key, raw, message):
        path = _saved(tmp_path, data, layout)
        _set_scalar(path, key, raw)
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_unresolved_rbf_label_kernel_of_an_r1_0_fit_loads(self, tmp_path, data):
        x, labels = data
        path = tmp_path / "m.txt"
        save_model(fit(x, labels, RoweisConfig(0.0, 0.5, label_kernel=kernels.KernelSpec("rbf"))), path)
        assert load_model(path).config.label_kernel == kernels.KernelSpec("rbf")


class TestArrayShapes:
    @pytest.mark.parametrize("layout, name, change, message", [
        ("primal", "mean", lambda a: np.hstack([a, [[0.0]]]), "'mean' entries 4, 'basis' rows 3"),
        ("primal", "mean", lambda a: a[:, :1], "'mean' entries 1, 'basis' rows 3"),
        ("primal", "eigvals", lambda a: a[:, :1], "'eigvals' entries 1, 'basis' columns 2"),
        ("kernel-direct", "coeffs", lambda a: a[:-1], "'coeffs' rows 13, 'train_x' columns 14"),
        ("kernel-direct", "eigvals", lambda a: a[:, :1], "'eigvals' entries 1, components 2"),
        ("kernel-pca", "right_vectors", lambda a: a[:-1], "'right_vectors' rows 13, 'train_x' columns 14"),
        ("kernel-pca", "sigma", lambda a: a[:, :1], "'sigma' entries 1, 'right_vectors' columns 2"),
        ("kernel-spca", "upsilon", lambda a: a[:-1], "'upsilon' rows 13, 'train_x' columns 14"),
        ("kernel-spca", "right_vectors", lambda a: np.vstack([a, a[:1]]), "'right_vectors' rows 3, 'upsilon' columns 2"),
    ], ids=["primal long mean", "primal mean of one", "primal short eigvals", "direct short coeffs",
            "direct short eigvals", "pca short right vectors", "pca short sigma", "spca short upsilon",
            "spca long right vectors"])
    def test_disagreeing_arrays_are_a_data_error(self, tmp_path, data, layout, name, change, message):
        path = _saved(tmp_path, data, layout)
        _set_array(path, name, change)
        with pytest.raises(DataError, match=f"arrays disagree in shape: {message}"):
            load_model(path)

    @pytest.mark.parametrize("layout", sorted(SAVED))
    def test_rewritten_but_unchanged_files_load(self, tmp_path, data, layout):
        path = _saved(tmp_path, data, layout)
        before = path.read_text()
        _set_array(path, "eigvals", lambda a: a)
        assert path.read_text() == before
        assert load_model(path).eigvals.size >= 1
