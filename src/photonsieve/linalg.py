"""Dense complex linear algebra used by every other module.

Matrices are plain numpy arrays of complex doubles. Structure checks use an
absolute entrywise tolerance (default 1e-10) and raise instead of silently
symmetrizing, so callers always know what they are holding.
"""

import numpy as np

from .errors import NonFinite, NotSubunitary

STRUCTURE_TOL = 1e-10


def require_finite(arr, what="array"):
    if not np.all(np.isfinite(np.asarray(arr))):
        raise NonFinite(f"{what} contains NaN or Inf")
    return arr


def require_subunitary(t):
    """Raise unless ``t`` is finite and no singular value of it exceeds 1
    (+1e-10): the one check of every transmission matrix."""
    require_finite(t, "transmission")
    if np.max(np.linalg.svd(t, compute_uv=False)) > 1 + 1e-10:
        raise NotSubunitary("transmission has a singular value above 1")


def xmat(m):
    """The 2m x 2m block swap [[0, I], [I, 0]]."""
    x = np.zeros((2 * m, 2 * m), dtype=complex)
    x[:m, m:] = np.eye(m)
    x[m:, :m] = np.eye(m)
    return x
