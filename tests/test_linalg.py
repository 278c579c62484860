import numpy as np
import pytest

from photonsieve import linalg
from photonsieve.errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSubunitary,
    NotSymmetric,
)


def rand_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def rand_symmetric(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.T) / 2


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(7)
    m = rand_hermitian(rng, 6)
    w, v = linalg.hermitian_eig(m)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_nonfinite():
    with pytest.raises(NonFinite):
        linalg.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_power_integer_and_half():
    rng = np.random.default_rng(3)
    m = rand_hermitian(rng, 5)
    pd = m @ m.conj().T + 0.5 * np.eye(5)
    half = linalg.hermitian_power(pd, 0.5)
    assert np.allclose(half @ half, pd, atol=1e-10)
    inv = linalg.hermitian_power(pd, -1)
    assert np.allclose(inv @ pd, np.eye(5), atol=1e-10)
    sq = linalg.hermitian_power(m, 2)
    assert np.allclose(sq, m @ m, atol=1e-10)


def test_hermitian_power_fractional_needs_pd():
    m = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        linalg.hermitian_power(m, 0.5)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_takagi_reconstructs(n):
    rng = np.random.default_rng(n)
    s = rand_symmetric(rng, n)
    f, sig = linalg.takagi(s)
    assert np.allclose(f @ np.diag(sig) @ f.T, s, atol=1e-10)
    assert np.allclose(f.conj().T @ f, np.eye(n), atol=1e-10)
    assert np.all(sig >= 0)
    assert np.all(np.diff(sig) <= 1e-12)


def test_takagi_rank_deficient():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    s = u @ u.T  # rank 2 symmetric
    f, sig = linalg.takagi(s)
    assert np.allclose(f @ np.diag(sig) @ f.T, s, atol=1e-10)
    assert np.allclose(f.conj().T @ f, np.eye(5), atol=1e-10)
    assert np.sum(sig > 1e-8) == 2


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        linalg.takagi(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_require_subunitary_threshold():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    q, _ = np.linalg.qr(h)
    linalg.require_subunitary((1 + 5e-11) * q)
    with pytest.raises(NotSubunitary, match="singular value above 1"):
        linalg.require_subunitary((1 + 1e-9) * q)


def test_xmat():
    x = linalg.xmat(3)
    assert np.allclose(x @ x, np.eye(6))
    assert np.allclose(x[:3, 3:], np.eye(3))
