"""Property version of the settings checks of ``persist``: a model file holds
exactly the fit settings ``RoweisConfig`` accepts.

A primal or kernel model file, with its r1 or r2 line (and a primal file
with its robust line) set to any JSON value, loads exactly when
``RoweisConfig`` accepts that value for that setting, and then holds the
value ``RoweisConfig`` holds, type included; otherwise it is a DataError
naming the key. And every fit of settings ``RoweisConfig`` accepts
(primal, dual, kernel direct, kernel PCA and kernel SPCA; label and data
kernels with values in the parameters their family ignores) comes back
from ``save_model``/``load_model`` with an equal config and kernel.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis import fit_dual  # noqa: E402
from roweis.exceptions import ConfigError, DataError  # noqa: E402
from roweis.kernel_rda import fit_direct, fit_kernel_pca, fit_kernel_spca  # noqa: E402
from roweis.persist import load_model, save_model  # noqa: E402
from roweis.rda import RoweisConfig, fit  # noqa: E402

from conftest import labeled_blobs  # noqa: E402
from test_kernels_properties import kernel_specs  # noqa: E402
from test_persist import SAVED, _set_scalar  # noqa: E402

DATA = labeled_blobs(np.random.default_rng(0), d=3, n=14, c=2)

# The settings each layout's file holds.
SETTINGS = [(layout, key) for layout in sorted(SAVED) for key in ("r1", "r2")] + [("primal", "robust")]

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.floats(0.0, 1.0)
           | st.sampled_from([0, 1, -0.0, 1.0 + 2**-52, -(2**-1074), 10**400]) | st.text(max_size=4))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2)
                           | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """layout -> (the text of a saved model file, a path to edit it at)."""
    directory = tmp_path_factory.mktemp("layouts")
    out = {}
    for layout, fit_layout in SAVED.items():
        path = directory / f"{layout}.txt"
        save_model(fit_layout(*DATA), path)
        out[layout] = path.read_text(), directory / f"{layout}-edited.txt"
    return out


@settings(max_examples=150, deadline=None)
@given(setting=st.sampled_from(SETTINGS), value=JSON_VALUES)
def test_a_file_holds_a_setting_exactly_when_roweis_config_does(saved, setting, value):
    layout, key = setting
    text, path = saved[layout]
    path.write_text(text)
    raw = json.dumps(value)
    _set_scalar(path, key, raw)
    try:
        want = getattr(RoweisConfig(**{key: json.loads(raw)}), key)
    except ConfigError:
        with pytest.raises(DataError, match=f"malformed value for '{key}'"):
            load_model(path)
        return
    model = load_model(path)
    got = getattr(model.config, key)
    assert type(got) is type(want) and got == want


# Each fit kind of a config and a data kernel, from the parts it reads.
FITS = {
    "primal": lambda config, kernel: fit(*DATA, config),
    "dual": lambda config, kernel: fit_dual(*DATA, config.r1, p=config.p, label_kernel=config.label_kernel),
    "kernel-direct": lambda config, kernel: fit_direct(*DATA, replace(config, robust=False), kernel),
    "kernel-pca": lambda config, kernel: fit_kernel_pca(DATA[0], kernel, p=config.p),
    "kernel-spca": lambda config, kernel: fit_kernel_spca(*DATA, kernel, config.label_kernel, p=config.p),
}

# Kernels of moderate values, PSD on DATA's class ids 0 and 1 (a polynomial offset >= 0).
MODERATE = {"gammas": st.none() | st.floats(0.1, 2.0), "degrees": st.integers(1, 3), "offsets": st.floats(0.0, 2.0)}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(FITS)),
       r1=st.floats(0.0, 1.0) | st.sampled_from([0, 1]), r2=st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
       p=st.none() | st.integers(1, 3) | st.sampled_from([np.int64(2), 2.0]), robust=st.booleans(),
       label_kernel=st.none() | kernel_specs(**MODERATE),
       kernel=kernel_specs(("linear", "rbf", "polynomial"), **MODERATE))
def test_every_accepted_setting_survives_a_model_file(saved, kind, r1, r2, p, robust, label_kernel, kernel):
    model = FITS[kind](RoweisConfig(r1, r2, p, label_kernel, robust), kernel)
    path = saved["primal"][1]
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert getattr(loaded, "kernel", None) == getattr(model, "kernel", None)
