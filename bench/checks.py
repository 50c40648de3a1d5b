"""Output checks for the benchmark, written against plain numpy.

Nothing here imports the program. Each check reads the files a command left
behind, recomputes what they should hold from the generated inputs, and
returns a list of problems (empty when the output is right) together with a
small fingerprint of the output for the reference comparison.

* Fitted models: the objective and constraint matrices are rebuilt densely
  and the model must solve the generalized eigenproblem: the constraint
  residual ``max|U'(B + shift I)U - I|`` stays within ``ORTHO_TOL``, the
  eigen-equation residual within ``RESIDUAL_TOL``, and the stored spectrum
  is the top of the full spectrum computed here.
* Embeddings and reconstructions: recomputed from the model file and the
  input, within ``APPLY_TOL`` relative to their largest entry.
* Sweep and experiments outputs: shape and range checks here; their values
  are compared with the reference recorded at the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

ORTHO_TOL = 1e-8
RESIDUAL_TOL = 1e-7
SPECTRUM_TOL = 1e-7
APPLY_TOL = 1e-8
# Leading eigenvalue mass kept by the program's robust constraint repair.
SPECTRUM_MASS = 0.98
# Leading eigenvalues, and leading components x samples of each embedding,
# kept in the reference fingerprint.
FINGERPRINT_COLUMNS = 5

# Reference tolerances: dimensions exact; spectra, embedding rows (after sign
# alignment) and experiments RMSE relative to their largest magnitude; sweep
# error rates absolute (0.01 is about two test points of the 240-point split).
REFERENCE_TOL = {"dims": 0, "spectrum": 1e-6, "embedding": 1e-6, "rmse": 1e-6, "error_rate": 0.01}


def sha256(path) -> str | None:
    """Hex digest of a file's bytes; None when the file is missing."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def read_model(path: str) -> tuple[dict, dict]:
    """Parse the text model format: scalar ``key: json`` lines and array blocks."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    scalars, arrays = {}, {}
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("array "):
            _, name, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            block = np.array([[float(v) for v in lines[i + r].split()] for r in range(rows)]).reshape(rows, cols)
            arrays[name] = block
            i += rows
        elif ": " in line:
            key, raw = line.split(": ", 1)
            scalars[key] = json.loads(raw)
    return scalars, arrays


def read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Features (d x n) and integer labels of a generated input file."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1].T.copy(), table[:, -1].astype(int)


def read_matrix(path: str) -> np.ndarray:
    """A header-plus-rows numeric CSV written by the program, as columns x rows."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T.copy()


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-300)
    return float(np.max(np.abs(a - b))) / scale if a.size else 0.0


def _indicator(y: np.ndarray) -> np.ndarray:
    classes = np.unique(y)
    return (y[:, None] == classes[None, :]).astype(float)


def _within_scatter(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0], x.shape[0]))
    for c in np.unique(y):
        block = x[:, y == c]
        block = block - block.mean(axis=1, keepdims=True)
        out += block @ block.T
    return out


def _robustify(s: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(0.5 * (s + s.T))
    values, vectors = np.clip(values[::-1], 0.0, None), vectors[:, ::-1]
    ratios = np.cumsum(values) / values.sum()
    head = int(np.searchsorted(ratios, SPECTRUM_MASS) + 1)
    if head < values.size:
        values[head:] = values[head:].mean()
    return (vectors * values) @ vectors.T


def _objective(xc: np.ndarray, y: np.ndarray, r1: float) -> np.ndarray:
    """Xc (r1 K_y + (1 - r1) I) Xc' for the delta label kernel K_y = E E'."""
    xe = xc @ _indicator(y)
    return r1 * (xe @ xe.T) + (1.0 - r1) * (xc @ xc.T)


def _top_spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of (A, B), largest first, through Cholesky of B."""
    chol = np.linalg.cholesky(b)
    c = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    return np.linalg.eigvalsh(0.5 * (c + c.T))[::-1]


def _eigen_problems(a, b, vectors, values, top) -> list:
    """Constraint, eigen-equation and spectrum checks of a generalized solution."""
    problems = []
    p = values.size
    ortho = float(np.max(np.abs(vectors.T @ b @ vectors - np.eye(p))))
    if ortho > ORTHO_TOL:
        problems.append(f"constraint residual {ortho:.2e} > {ORTHO_TOL:.0e}")
    lhs, rhs = a @ vectors, (b @ vectors) * values
    resid = float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(lhs))), 1e-300)
    if resid > RESIDUAL_TOL:
        problems.append(f"eigen-equation residual {resid:.2e} > {RESIDUAL_TOL:.0e}")
    spec = float(np.max(np.abs(values - top[:p]))) / max(abs(float(top[0])), 1e-300)
    if spec > SPECTRUM_TOL:
        problems.append(f"stored spectrum is not the top of the spectrum (gap {spec:.2e})")
    return problems


def _rbf(gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :] - 2.0 * (a.T @ b)
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def _double_center(k: np.ndarray) -> np.ndarray:
    return k - k.mean(axis=1, keepdims=True) - k.mean(axis=0, keepdims=True) + k.mean()


def check_model(path: str, x: np.ndarray, y: np.ndarray) -> tuple[list, dict]:
    """Check a fitted model against the dense problem rebuilt from (x, y)."""
    scalars, arrays = read_model(path)
    variant = scalars["variant"]
    mean = x.mean(axis=1)
    xc = x - mean[:, None]
    d, n = x.shape
    if variant == "primal":
        r1, r2 = float(scalars["r1"]), float(scalars["r2"])
        a = _objective(xc, y, r1)
        b = r2 * _within_scatter(x, y) + (1.0 - r2) * np.eye(d)
        if scalars["robust"]:
            b = _robustify(b)
        b = b + float(scalars["shift"]) * np.eye(d)
        values = arrays["eigvals"].ravel()
        problems = _eigen_problems(a, b, arrays["basis"], values, _top_spectrum(a, b))
    elif variant == "dual":
        a = _objective(xc, y, float(scalars["r1"]))
        sigma = arrays["sigma"].ravel()
        basis = arrays["factor"] @ arrays["right_vectors"] / sigma[None, :]
        values = sigma**2
        problems = _eigen_problems(a, np.eye(d), basis, values, np.linalg.eigvalsh(a)[::-1])
    else:
        train = arrays["train_x"]
        if train.shape != x.shape or np.any(train != x):
            return [f"{variant}: stored training matrix differs from the input"], {}
        k = _rbf(float(scalars["kernel"]["gamma"]), x, x)
        values = arrays["eigvals"].ravel()
        if variant == "kernel-direct":
            r1, r2 = float(scalars["r1"]), float(scalars["r2"])
            e = _indicator(y)
            p_mat = r1 * (e @ e.T) + (1.0 - r1) * np.eye(n)
            a = k @ _double_center(p_mat) @ k
            within = np.zeros_like(k)
            for c in np.unique(y):
                block = k[:, y == c]
                block = block - block.mean(axis=1, keepdims=True)
                within += block @ block.T
            b = r2 * within + (1.0 - r2) * k + float(scalars["shift"]) * np.eye(n)
            problems = _eigen_problems(a, b, arrays["coeffs"], values, _top_spectrum(a, b))
        else:
            kc = _double_center(k)
            right = arrays["right_vectors"]
            problems = []
            if variant == "kernel-spca":
                upsilon = arrays["upsilon"]
                e = _indicator(y)
                gap = float(np.max(np.abs(upsilon @ upsilon.T - e @ e.T)))
                if gap > ORTHO_TOL:
                    problems.append(f"label factor misses K_y by {gap:.2e}")
                kc = upsilon.T @ kc @ upsilon
            sigma = arrays["sigma"].ravel()
            if _rel_gap(sigma**2, values) > SPECTRUM_TOL:
                problems.append("eigvals differ from sigma^2")
            problems += _eigen_problems(kc, np.eye(kc.shape[0]), right, values, np.linalg.eigvalsh(kc)[::-1])
    return [f"{path}: {p}" for p in problems], {"dims": [values.size], "spectrum": values[:FINGERPRINT_COLUMNS].tolist()}


def embed(model_path: str, x_new: np.ndarray, reconstruct: bool = False) -> np.ndarray:
    """Recompute transform (or reconstruct) output, components x samples."""
    scalars, arrays = read_model(model_path)
    variant = scalars["variant"]
    if variant in ("primal", "dual"):
        mean = arrays["mean"].ravel()
        if variant == "primal":
            basis = arrays["basis"]
        else:
            basis = arrays["factor"] @ arrays["right_vectors"] / arrays["sigma"].ravel()[None, :]
        emb = basis.T @ (x_new - mean[:, None])
        return basis @ emb + mean[:, None] if reconstruct else emb
    train = arrays["train_x"]
    gamma = float(scalars["kernel"]["gamma"])
    k_new = _rbf(gamma, train, x_new)
    if variant == "kernel-direct":
        return arrays["coeffs"].T @ k_new
    k_train = _rbf(gamma, train, train)
    k_new = k_new - k_new.mean(axis=0, keepdims=True) - k_train.mean(axis=1, keepdims=True) + k_train.mean()
    coeffs = arrays["right_vectors"]
    if "upsilon" in arrays:
        coeffs = arrays["upsilon"] @ coeffs
    return (coeffs / arrays["sigma"].ravel()[None, :]).T @ k_new


def check_apply(out_path: str, model_path: str, x_new: np.ndarray, reconstruct: bool) -> tuple[list, dict]:
    got = read_matrix(out_path)
    want = embed(model_path, x_new, reconstruct)
    if got.shape != want.shape:
        return [f"{out_path}: shape {got.shape}, expected {want.shape}"], {}
    gap = _rel_gap(got, want)
    problems = [f"{out_path}: differs from the recomputed output by {gap:.2e}"] if gap > APPLY_TOL else []
    return problems, {"dims": list(got.shape), "rows": got[:FINGERPRINT_COLUMNS, :FINGERPRINT_COLUMNS].tolist()}


def check_sweep(path: str) -> tuple[list, dict]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    grid = [(float(r["r1"]), float(r["r2"])) for r in rows]
    if grid != [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]:
        problems.append(f"{path}: unexpected grid {grid}")
    values = [float(r["value"]) for r in rows]
    if any(r["metric"] != "error-rate" for r in rows) or not all(0.0 <= v <= 1.0 for v in values):
        problems.append(f"{path}: error rates missing or out of [0, 1]")
    return problems, {"error_rate": values}


def check_experiments(table_path: str, panel_paths: list, panel_n: int) -> tuple[list, dict]:
    with open(table_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    rmse = [float(r["rmse_mean"]) for r in rows] + [float(r["rmse_std"]) for r in rows]
    if len(rows) != 18 or not all(np.isfinite(rmse)) or min(rmse) < 0.0:
        problems.append(f"{table_path}: expected 18 finite, non-negative cells")
    panels = []
    for path in panel_paths:
        with open(path, newline="") as handle:
            body = list(csv.reader(handle))[1:]
        if len(body) != panel_n or {r[0] for r in body} != {"train", "test"}:
            problems.append(f"{path}: expected {panel_n} train and test rows")
            continue
        emb = np.array([[float(v) for v in r[2:]] for r in body]).T
        if not np.all(np.isfinite(emb)):
            problems.append(f"{path}: non-finite embedding")
        panels.append(emb[:FINGERPRINT_COLUMNS, :FINGERPRINT_COLUMNS].tolist())
    return problems, {"rmse": rmse, "rows": panels}


def _sign_aligned_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    signs = np.where(np.sum(got * want, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    return _rel_gap(got * signs, want) if got.size else 0.0


def _matrices(rows) -> list:
    """An apply fingerprint holds one matrix, an experiments fingerprint a list."""
    return rows if rows and isinstance(rows[0][0], list) else [rows]


def compare_reference(got: dict, want: dict) -> list:
    """Problems where a fingerprint leaves the reference tolerances."""
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        if key == "rows":
            refs, gots = _matrices(ref), _matrices(got[key])
            if len(refs) != len(gots):
                gap = float("inf")
            else:
                gap = max((_sign_aligned_gap(g, r) for g, r in zip(gots, refs)), default=0.0)
            tol = REFERENCE_TOL["embedding"]
        else:
            a, b = np.asarray(got[key], dtype=float), np.asarray(ref, dtype=float)
            if a.shape != b.shape:
                gap = float("inf")
            elif key in ("dims", "error_rate"):
                gap = float(np.max(np.abs(a - b))) if a.size else 0.0
            else:
                gap = _rel_gap(a, b)
            tol = REFERENCE_TOL[key]
        if gap > tol:
            problems.append(f"{key} differs from the reference by {gap:.2e} (tolerance {tol:.0e})")
    return problems


def round_fingerprint(fp):
    """Keep 10 significant digits so the reference file stays small."""
    if isinstance(fp, dict):
        return {k: round_fingerprint(v) for k, v in fp.items()}
    if isinstance(fp, list):
        return [round_fingerprint(v) for v in fp]
    return float(f"{fp:.10g}")
