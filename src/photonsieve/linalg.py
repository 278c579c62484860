"""Dense complex linear algebra and the input checks of every other module.

Matrices are plain numpy arrays of complex doubles. Structure checks use an
absolute entrywise tolerance (default 1e-10) and raise instead of silently
symmetrizing, so callers always know what they are holding. Every photon
count, total, cutoff, order and sample count a caller passes goes through
``require_counts``, and every mode list through ``require_modes``.
"""

import operator

import numpy as np

from .errors import DomainError, IndexOutOfRange, NonFinite, NotSubunitary

STRUCTURE_TOL = 1e-10
_BOOLS = (bool, np.bool_)   # ints to Python, but no count and no index


def require_finite(arr, what="array"):
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} contains NaN or Inf")
    return arr


def require_subunitary(t):
    """Raise unless ``t`` is finite and no singular value of it exceeds 1
    (+1e-10): the one check of every transmission matrix."""
    require_finite(t, "transmission")
    if np.max(np.linalg.svd(t, compute_uv=False)) > 1 + 1e-10:
        raise NotSubunitary("transmission has a singular value above 1")


def require_counts(values, what="counts"):
    """``values`` as a tuple of ints, or a ``DomainError`` for an entry that
    is negative, a boolean or not a whole number: 2.0 becomes 2, 1.5 and
    True raise."""
    values = tuple(values)
    try:
        counts = tuple(map(int, values))
        if all(c == v and c >= 0 and not isinstance(v, _BOOLS)
               for c, v in zip(counts, values)):
            return counts
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be non-negative integers, "
                      f"got {list(values)}")


def require_modes(modes, nmodes):
    """``modes`` as a list of distinct integer indices below ``nmodes``, or
    an ``IndexOutOfRange``; a boolean is no index."""
    modes = list(modes)
    try:
        idx = [operator.index(i) for i in modes]
        if (len(set(idx)) == len(idx) and all(0 <= i < nmodes for i in idx)
                and not any(isinstance(i, _BOOLS) for i in modes)):
            return idx
    except TypeError:
        pass
    raise IndexOutOfRange(f"modes {modes} must be distinct indices "
                          f"below {nmodes}")


def xmat(m):
    """The 2m x 2m block swap [[0, I], [I, 0]]."""
    x = np.zeros((2 * m, 2 * m), dtype=complex)
    x[:m, m:] = np.eye(m)
    x[m:, :m] = np.eye(m)
    return x


def swap_halves(m):
    """``xmat(len(m) // 2) @ m`` without the product: the two halves of the
    rows of ``m`` (a vector or a matrix) swapped."""
    t = len(m) // 2
    return np.concatenate([m[t:], m[:t]])
