import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def align_rows(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Flip signs of other's rows so each correlates positively with reference."""
    out = other.copy()
    for i in range(min(reference.shape[0], out.shape[0])):
        if float(reference[i] @ out[i]) < 0.0:
            out[i] = -out[i]
    return out


def align_columns(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Flip signs of other's columns so each correlates positively with reference."""
    out = other.copy()
    for j in range(min(reference.shape[1], out.shape[1])):
        if float(reference[:, j] @ out[:, j]) < 0.0:
            out[:, j] = -out[:, j]
    return out


def random_psd(rng: np.random.Generator, m: int, rank: int | None = None) -> np.ndarray:
    rank = rank if rank is not None else m
    g = rng.standard_normal((m, rank))
    return g @ g.T


def labeled_blobs(rng: np.random.Generator, d: int, n: int, c: int, spread: float = 3.0):
    """Random Gaussian classes with distinct means; returns (X, labels)."""
    centers = rng.standard_normal((d, c)) * spread
    labels = np.arange(n) % c
    x = centers[:, labels] + rng.standard_normal((d, n))
    return x, labels


def with_complement(block: np.ndarray, value: float, count: int) -> np.ndarray:
    """The block-diagonal matrix diag(block, value * I_count)."""
    m = block.shape[0]
    full = value * np.eye(m + count)
    full[:m, :m] = block
    return full
