"""Dense complex linear algebra used by every other module.

Matrices are plain numpy arrays of complex doubles. Structure checks use an
absolute entrywise tolerance (default 1e-10) and raise instead of silently
symmetrizing, so callers always know what they are holding.
"""

import numpy as np
import scipy.linalg

from .errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSubunitary,
    NotSymmetric,
)

STRUCTURE_TOL = 1e-10
_PD_FLOOR = 1e-12


def _square(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    return m


def require_finite(arr, what="array"):
    if not np.all(np.isfinite(np.asarray(arr))):
        raise NonFinite(f"{what} contains NaN or Inf")
    return arr


def require_subunitary(t):
    """Raise unless no singular value of ``t`` exceeds 1 (+1e-10)."""
    if np.max(np.linalg.svd(t, compute_uv=False)) > 1 + 1e-10:
        raise NotSubunitary("transmission has a singular value above 1")


def hermitian_eig(m, tol=STRUCTURE_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    m = V diag(w) V†.
    """
    m = _square(m)
    require_finite(m, "matrix")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w, v


def hermitian_power(m, p, tol=STRUCTURE_TOL):
    """Matrix power m^p through the eigendecomposition.

    Integer non-negative p works for any Hermitian m; fractional or negative
    p requires positive definiteness.
    """
    w, v = hermitian_eig(m, tol=tol)
    fractional = (p != int(p)) or p < 0
    if fractional and np.min(w) <= _PD_FLOOR:
        raise NotPositiveDefinite(
            f"matrix power {p} needs min eigenvalue > {_PD_FLOOR}, got {np.min(w):.3e}"
        )
    return (v * np.power(w.astype(complex), p)) @ v.conj().T


def takagi(s, tol=STRUCTURE_TOL):
    """Factor a complex symmetric matrix as s = F diag(sigma) F^T.

    F is unitary, sigma non-negative and descending. Works on rank-deficient
    input: the kernel columns of F are completed to an orthonormal basis.
    """
    s = _square(s)
    require_finite(s, "matrix")
    if np.max(np.abs(s - s.T)) > tol:
        raise NotSymmetric("matrix is not complex symmetric within tolerance")
    n = s.shape[0]
    # Real doubled form: eigenpairs (sig, (x, y)) satisfy s @ conj(x+iy) = sig (x+iy),
    # so the positive part of the spectrum hands us the Takagi columns directly.
    re, im = s.real, s.imag
    doubled = np.block([[re, im], [im, -re]])
    vals, vecs = np.linalg.eigh(doubled)
    order = np.argsort(vals[n:])[::-1] + n  # positive half, descending
    sigma = vals[order]
    factors = (vecs[:n, order] + 1j * vecs[n:, order]).astype(complex)
    sigma = np.where(sigma < 0, 0.0, sigma)

    # The sigma=0 eigenspace of the doubled form pairs with itself, so those
    # columns are not automatically orthonormal; rebuild them from the
    # orthogonal complement of the nonzero columns.
    cut = max(tol, tol * (sigma[0] if n else 1.0))
    nz = sigma > cut
    if not np.all(nz):
        kept = factors[:, nz]
        if kept.shape[1]:
            comp = scipy.linalg.null_space(kept.conj().T)
        else:
            comp = np.eye(n, dtype=complex)
        factors = np.hstack([kept, comp[:, : n - kept.shape[1]]])
        sigma = np.concatenate([sigma[nz], np.zeros(n - kept.shape[1])])
    return factors, sigma


def xmat(m):
    """The 2m x 2m block swap [[0, I], [I, 0]]."""
    x = np.zeros((2 * m, 2 * m), dtype=complex)
    x[:m, m:] = np.eye(m)
    x[m:, :m] = np.eye(m)
    return x
