"""Reference implementations that the tests build states with or compare
against; the package itself needs none of them.

Each keeps the input checks it had as public API, so the validation cases
that exercise them still run.
"""

import numpy as np

from photonsieve.errors import (DomainError, LayoutMismatch, LengthMismatch,
                                NumericFailure)
from photonsieve.gaussian import GaussianState
from photonsieve.heralding import DensityMatrix
from photonsieve.linalg import require_finite, require_modes


class SingularResolvent(NumericFailure):
    """``moment_mgf`` at exponents where the series diverges."""


def xmat(m):
    """The 2m x 2m block swap [[0, I], [I, 0]]."""
    x = np.zeros((2 * m, 2 * m), dtype=complex)
    x[:m, m:] = np.eye(m)
    x[m:, :m] = np.eye(m)
    return x


def thermal_state(nbar, layout):
    """Product of thermal states with the given mean photon numbers."""
    nbar = np.asarray(nbar, dtype=float)
    t = layout.total
    if len(nbar) != t:
        raise LengthMismatch(f"need {t} occupation numbers, got {len(nbar)}")
    if np.any(nbar < 0):
        raise DomainError("thermal occupation must be non-negative")
    cov = np.diag(np.concatenate([nbar + 1.0, nbar + 1.0])).astype(complex)
    return GaussianState(cov, np.zeros(2 * t, dtype=complex), layout)


def moment_mgf(state, t):
    """Moment generating function E[exp(sum t_i n_i)] of the photon counts,
    from the normally ordered covariance in closed form."""
    t = require_finite(np.asarray(t, dtype=float), "exponents")
    nm = state.layout.total
    if len(t) != nm:
        raise LayoutMismatch(f"need {nm} exponents, got {len(t)}")
    gdiag = np.concatenate([np.expm1(t), np.expm1(t)])
    mat = np.eye(2 * nm) - gdiag[:, None] * (state.husimi_cov
                                             - np.eye(2 * nm))
    if np.linalg.cond(mat) > 1e12:
        raise SingularResolvent("moment generating function diverges here")
    z = state.means
    quad = z.conj() @ np.linalg.solve(mat, gdiag * z)
    det = np.linalg.det(mat)
    return (np.exp(quad / 2) / np.sqrt(det)).real


def partial_trace(dm, drop):
    """Fock-basis partial trace of a ``DensityMatrix`` over the dropped
    modes."""
    drop = sorted(require_modes(drop, dm.modes))
    if not drop:
        return dm
    g, c1 = dm.modes, dm.cutoff + 1
    tensor = dm.entries.reshape((c1,) * (2 * g))
    for off, i in enumerate(drop):   # the ket axis i - off, its bra partner
        tensor = np.trace(tensor, axis1=i - off, axis2=i + g - 2 * off)
    keep = g - len(drop)
    return DensityMatrix(keep, dm.cutoff, tensor.reshape(c1 ** keep, -1))
