"""Gaussian states and their adjacency parametrization.

States live in the ladder-operator ordering (a_1..a_T, a_1^†..a_T^†) with the
Husimi covariance convention: vacuum has covariance I. The adjacency
representation (A, gamma, vacuum probability) is what the Hafnian kernels
consume.

A covariance is Hermitian (to 1e-10), so every check factorizes it once and
reads one triangle: a state is positive definite and obeys the uncertainty
bound when two Cholesky factors exist, and the adjacency conversion reads
its condition number and log-determinant off one ``eigvalsh``.

The constructors and channels share their array code: the squeezed (or
impure-source) covariance, the channel W Sigma W† + I - W W† and the
displaced means are plain arrays, so a circuit of several steps (the
command line's ``build_state``) composes them and checks one
``GaussianState`` at the end, not one per step.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IndexOutOfRange,
    LayoutMismatch,
    LengthMismatch,
    NotHermitian,
    NotPositiveDefinite,
    NotSymmetric,
    SingularCovariance,
)
from .linalg import (STRUCTURE_TOL, require_counts, require_finite,
                     require_modes, require_subunitary, swap_halves)

_COND_LIMIT = 1e12
_UNCERTAINTY_SLACK = 1e-9


@dataclass(frozen=True)
class ModeLayout:
    """M external modes, each carrying K co-propagating internal modes.

    Internal modes of external k occupy the contiguous indices
    k*K .. (k+1)*K - 1.
    """

    externals: int
    internals_per_external: int = 1

    def __post_init__(self):
        counts = (self.externals, self.internals_per_external)
        # only numbers are compared: require_counts names any other value
        if any(isinstance(c, numbers.Real) and c < 1 for c in counts):
            raise LayoutMismatch("layout needs positive mode counts")
        m, k = require_counts(counts, "mode counts")
        object.__setattr__(self, "externals", m)
        object.__setattr__(self, "internals_per_external", k)

    @property
    def total(self):
        return self.externals * self.internals_per_external

    def internal_indices(self, external):
        k = self.internals_per_external
        if not 0 <= external < self.externals:
            raise IndexOutOfRange(f"external mode {external} out of range")
        return list(range(external * k, (external + 1) * k))


def _require_cholesky(mat, message):
    """Raise ``NotPositiveDefinite(message)`` unless ``mat`` has a Cholesky
    factor."""
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(message) from None


@dataclass(frozen=True)
class GaussianState:
    """Husimi covariance and ladder-operator means over a mode layout."""

    husimi_cov: np.ndarray
    means: np.ndarray
    layout: ModeLayout

    def __post_init__(self):
        cov = np.asarray(self.husimi_cov, dtype=complex)
        z = np.asarray(self.means, dtype=complex)
        t = self.layout.total
        if cov.shape != (2 * t, 2 * t) or z.shape != (2 * t,):
            raise LayoutMismatch(
                f"covariance/means shapes {cov.shape}/{z.shape} do not match "
                f"{t} modes"
            )
        require_finite(cov, "covariance")
        require_finite(z, "means")
        if np.max(np.abs(cov - cov.conj().T)) > STRUCTURE_TOL:
            raise NotHermitian("Husimi covariance is not Hermitian")
        _require_cholesky(cov, "Husimi covariance is not positive definite")
        # physicality: cov + (Z - I)/2, the normal-ordered covariance plus
        # the commutator term, is PSD down to -1e-9
        shift = np.repeat([_UNCERTAINTY_SLACK, _UNCERTAINTY_SLACK - 1], t)
        _require_cholesky(cov + np.diag(shift),
                          "state violates the uncertainty bound")
        if np.max(np.abs(z[t:] - z[:t].conj())) > STRUCTURE_TOL:
            raise LayoutMismatch("means halves are not conjugate")
        object.__setattr__(self, "husimi_cov", cov)
        object.__setattr__(self, "means", z)


@dataclass(frozen=True)
class AdjacencyRep:
    """Adjacency matrix A, loop vector gamma, and cached vacuum probability.
    ``a`` and ``gamma`` are kept as read-only copies, so the probability
    routines can keep what they prepare from them on the representation
    (``distributions._state_record``)."""

    a: np.ndarray
    gamma: np.ndarray
    vacuum_prob: complex
    layout: ModeLayout
    _record: tuple = field(default=None, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=complex)
        g = np.array(self.gamma, dtype=complex)
        t = self.layout.total
        if a.shape != (2 * t, 2 * t) or g.shape != (2 * t,):
            raise LayoutMismatch("adjacency shapes do not match layout")
        if np.max(np.abs(a - a.T)) > STRUCTURE_TOL:
            raise NotSymmetric("adjacency matrix is not symmetric")
        a.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "gamma", g)

    def __reduce__(self):
        # pickled and copied through the constructor: the prepared model
        # is a closure, and the arrays come back read-only
        return AdjacencyRep, (self.a, self.gamma, self.vacuum_prob,
                              self.layout)


# ---------------------------------------------------------------------------
# constructors and channels
# ---------------------------------------------------------------------------

def squeezed_cov(xi, t):
    """The Husimi covariance of ``t`` single-mode squeezed vacua, one
    parameter per mode."""
    xi = np.asarray(xi, dtype=complex)
    require_finite(xi, "squeeze parameters")
    if len(xi) != t:
        raise LengthMismatch(f"need {t} squeeze parameters, got {len(xi)}")
    r = np.abs(xi)
    phase = np.divide(xi, r, out=np.ones_like(xi), where=r > 0)
    c, s = np.cosh(r), np.sinh(r)
    k = np.arange(t)
    cov = np.eye(2 * t, dtype=complex)
    cov[k, k] = cov[t + k, t + k] = c * c
    cov[k, t + k] = phase * s * c
    cov[t + k, k] = phase.conj() * s * c
    return cov


def from_squeezing(xi, layout):
    """Product of single-mode squeezed vacua, one parameter per mode."""
    t = layout.total
    return GaussianState(squeezed_cov(xi, t), np.zeros(2 * t, dtype=complex),
                         layout)


def displaced_means(means, alphas):
    """``means`` shifted by (alpha, alpha*), one finite alpha per mode."""
    alphas = np.asarray(alphas, dtype=complex)
    require_finite(alphas, "displacements")
    t = len(means) // 2
    if len(alphas) != t:
        raise LengthMismatch(f"need {t} displacements, got {len(alphas)}")
    return means + np.concatenate([alphas, alphas.conj()])


def displace(state, alphas):
    """Shift the means by (alpha, alpha*); covariance unchanged."""
    return GaussianState(state.husimi_cov,
                         displaced_means(state.means, alphas), state.layout)


def channel_arrays(cov, means, t):
    """Sigma' = W Sigma W† + (I - W W†) and means' = W means, with
    W = conj(t) (+) t on the doubled space, for a ``t`` that its caller has
    checked for subunitarity."""
    n = len(t)
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    w[:n, :n] = t.conj()
    w[n:, n:] = t
    return (w @ cov @ w.conj().T + np.eye(2 * n) - w @ w.conj().T,
            w @ means)


def apply_channel(state, t):
    """Pass the state through a subunitary transmission matrix.

    Lost light is replaced by vacuum: Sigma' = W Sigma W† + (I - W W†),
    means' = W means, with W = conj(t) (+) t on the doubled space.
    """
    t = np.asarray(t, dtype=complex)
    n = state.layout.total
    if t.shape != (n, n):
        raise LayoutMismatch(f"transmission must be {n}x{n}, got {t.shape}")
    require_subunitary(t)
    return GaussianState(*channel_arrays(state.husimi_cov, state.means, t),
                         state.layout)


# ---------------------------------------------------------------------------
# adjacency representation
# ---------------------------------------------------------------------------

def adjacency_from_cov(cov, means, layout):
    """A = X(I - Sigma^-1), gamma = X Sigma^-1 means, and Pr(vacuum).

    ``cov`` must be Hermitian; its spectrum, read from one triangle, gives
    both the conditioning check (largest over smallest eigenvalue at most
    1e12) and log det Sigma.
    """
    cov = np.asarray(cov, dtype=complex)
    means = np.asarray(means, dtype=complex)
    lam = np.linalg.eigvalsh(cov)
    if lam[0] <= 0:
        raise NotPositiveDefinite("Husimi covariance is not positive definite")
    if lam[-1] > _COND_LIMIT * lam[0]:
        raise SingularCovariance("Husimi covariance is numerically singular")
    inv = np.linalg.inv(cov)
    a = swap_halves(np.eye(len(cov)) - inv)
    a = (a + a.T) / 2  # remove roundoff asymmetry
    gamma = swap_halves(inv @ means)
    quad = means.conj() @ inv @ means
    vac = np.exp(-quad / 2 - np.sum(np.log(lam)) / 2)
    return AdjacencyRep(a, gamma, complex(vac), layout)


def to_adjacency(state):
    """Adjacency representation of a Gaussian state."""
    return adjacency_from_cov(state.husimi_cov, state.means, state.layout)


def _keep_set(keep, nmodes):
    """``keep`` as a non-empty list of distinct mode indices below
    ``nmodes``, or an ``IndexOutOfRange``."""
    keep = require_modes(keep, nmodes)
    if not keep:
        raise IndexOutOfRange("keep set must be non-empty")
    return keep


def marginal_rep(rep, keep):
    """Partial trace at the Gaussian level: reduce the covariance,
    re-derive; it sums over all outcomes of the excluded modes exactly."""
    t = rep.layout.total
    keep = _keep_set(keep, t)
    cov = np.linalg.inv(np.eye(2 * t) - swap_halves(rep.a))
    means = cov @ swap_halves(rep.gamma)
    idx = keep + [t + i for i in keep]
    return adjacency_from_cov(
        cov[np.ix_(idx, idx)], means[idx], ModeLayout(len(keep), 1)
    )


def marginal_state(state, keep):
    """Partial trace of a Gaussian state: submatrix of covariance and means."""
    t = state.layout.total
    keep = _keep_set(keep, t)
    idx = keep + [t + i for i in keep]
    return GaussianState(
        state.husimi_cov[np.ix_(idx, idx)],
        state.means[idx],
        ModeLayout(len(keep), 1),
    )


# ---------------------------------------------------------------------------
# spectral impurity machinery
# ---------------------------------------------------------------------------

def impure_squeezing(xi, p, layout):
    """The per-mode squeeze parameters of ``impure_source``: the dominant
    xi_k on each first internal mode and its parasite xi'_k on the second."""
    xi = np.asarray(xi, dtype=float)
    if not 0 < p <= 1:
        raise DomainError(f"purity must be in (0, 1], got {p}")
    if np.any(xi < 0):
        raise DomainError("squeeze magnitudes must be non-negative")
    if layout.internals_per_external != 2:
        raise LayoutMismatch("impure source needs two internal modes per external")
    if len(xi) != layout.externals:
        raise LengthMismatch("one squeeze magnitude per external mode")
    xi_p = np.arctanh(np.sqrt((1 - p) / p) * np.tanh(xi))
    full = np.zeros(layout.total)
    full[0::2] = xi
    full[1::2] = xi_p
    return full


def impure_source(xi, p, layout):
    """Squeezed sources with spectral purity p, two internal modes each.

    Each external mode carries a dominant squeezer xi_k on its first internal
    mode and a parasite xi'_k with tanh^2(xi') = ((1-p)/p) tanh^2(xi) on its
    second.
    """
    return from_squeezing(impure_squeezing(xi, p, layout), layout)
