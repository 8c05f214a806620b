import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from dqubit.linalg import expm


def lossy_generators(n, count, norm, seed):
    """Stack of -iH - K/2 generators (H Hermitian, K >= 0) scaled to a max-row-sum norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    h = x + x.conj().transpose(0, 2, 1)
    y = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    k = y @ y.conj().transpose(0, 2, 1)
    a = -1j * h - 0.5 * k
    return a * (norm / np.abs(a).sum(axis=2).max(axis=1))[:, None, None]


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 10.0])
def test_stack_matches_scipy(n, norm):
    a = lossy_generators(n, 8, norm, seed=n)
    ref = np.array([scipy_expm(m) for m in a])
    got = expm(a)
    assert got.shape == a.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_mixed_norms_share_one_scaling():
    # one squaring count serves the whole stack, set by its largest member
    a = np.concatenate([lossy_generators(6, 4, 1e-3, seed=1), lossy_generators(6, 4, 10.0, seed=2)])
    ref = np.array([scipy_expm(m) for m in a])
    assert np.abs(expm(a) - ref).max() <= 1e-12


def test_single_matrix():
    a = lossy_generators(3, 1, 2.0, seed=3)[0]
    got = expm(a)
    assert got.shape == (3, 3)
    assert np.abs(got - scipy_expm(a)).max() <= 1e-12


def test_zero_is_identity():
    assert np.array_equal(expm(np.zeros((2, 4, 4))), np.broadcast_to(np.eye(4), (2, 4, 4)))
