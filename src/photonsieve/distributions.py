"""Photon-number statistics of Gaussian states.

Probabilities (fine, coarse, total, external-detector), the rank-two fast
path for fully distinguishable internal modes, and moments/cumulants of the
photon-number vector.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .errors import (
    DomainError,
    LayoutMismatch,
    PartitionMismatch,
    ProbabilityOutOfRange,
    RankViolation,
    SingularResolvent,
    TooLarge,
)
from .gaussian import marginal_rep, reduce_modes
# lhaf_sieve and blocked_lhaf are not called here: the benchmark tracer
# rebinds them here
from .hafnian import (
    block_expansion,
    blocked_lhaf,
    certified,
    f_coefficients,
    f_n,
    factorial_product,
    from_log_series,
    g_coefficients,
    gaussian_model,
    grid_coefficients,
    lhaf_sieve,
    partition_expansion,
)
from .linalg import require_counts, require_finite, swap_halves

_DEFAULT_TAIL = 1e-7
# the largest support an automatic cutoff extends to
_AUTO_CUTOFF_CAP = 1024
# rounding slack allowed outside [0, 1] before a probability is an error
_PROB_SLACK = 1e-9


@dataclass(frozen=True)
class CoarsePattern:
    """Detector grouping (blocks of mode indices) with per-block counts."""

    blocks: tuple
    counts: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(b) for b in self.blocks)
        )
        object.__setattr__(self, "counts", require_counts(self.counts))
        if len(self.blocks) != len(self.counts):
            raise PartitionMismatch("one count per block required")


@dataclass(frozen=True)
class Distribution:
    """Probabilities over an explicit support with the truncation deficit."""

    support: tuple
    probabilities: np.ndarray
    deficit: float

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs = np.where((probs < 0) & (probs > -1e-12), 0.0, probs)
        object.__setattr__(self, "probabilities", probs)


def _real(value):
    value = complex(value)
    if abs(value.imag) > 1e-9 * (1 + abs(value)):
        raise DomainError(
            f"value has non-negligible imaginary part {value.imag:.3e}"
        )
    return value.real


def _real_prob(value):
    """A real probability; a value outside [-1e-9, 1 + 1e-9] is a numeric
    failure, never a result."""
    value = _real(value)
    if not -_PROB_SLACK <= value <= 1 + _PROB_SLACK:
        raise ProbabilityOutOfRange(f"probability {value!r} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def _state_record(rep, blocks):
    """The sieve record of ``rep`` over the detector ``blocks`` (None: one
    block per mode): its ``gaussian_model``, the checked partition
    expansion and the vacuum prefactor; a state's coefficients are real.
    ``rep`` keeps the record of the partition it read last.  A partition
    that fails ``partition_expansion`` raises on every call and is never
    kept."""
    kept = rep._record   # read once: one assignment replaces it whole
    if kept is not None and kept[0] == blocks:
        return kept[1]
    t = rep.layout.total
    expand = partition_expansion(
        [(j,) for j in range(t)] if blocks is None else blocks, t)
    rec = (gaussian_model(rep.a, rep.gamma), expand, rep.vacuum_prob)
    object.__setattr__(rep, "_record", (blocks, rec))
    return rec


def _read_prob(model, expand, prefactor, counts, groups=None, real=False):
    """The one reader of every one-row probability: ``prefactor`` times
    the row ``counts`` (a tuple) of ``model``, certified as by
    ``sieve_reduce``, over prod k!, range-checked once; the other
    arguments are those of ``grid_coefficients``."""
    value = certified(model, expand, counts, groups=groups, real=real)
    return _real_prob(prefactor * value / factorial_product(counts))


def prob_fine(rep, n):
    """Probability of the exact per-mode photon pattern n."""
    n = require_counts(n, "pattern")
    if len(n) != rep.layout.total:
        raise PartitionMismatch(
            f"pattern length {len(n)} != mode count {rep.layout.total}")
    return _read_prob(*_state_record(rep, None), n, real=True)


def prob_total(rep, subset, n_total):
    """Probability of n_total photons in the subset and vacuum elsewhere."""
    (n_total,) = require_counts([n_total], "total")
    sub = reduce_modes(rep, subset)
    val = rep.vacuum_prob * f_n(sub.a, sub.gamma, n_total)
    return _real_prob(val)


def total_distribution(rep, subset=None, cutoff=None, tail=_DEFAULT_TAIL):
    """Distribution of the total photon number in the subset, with vacuum
    on every other mode.

    Entry n is Pr(n photons in the subset and none elsewhere), as in
    ``prob_total``, so the entries sum to the vacuum probability of the
    other modes' marginal (1 when the subset holds every mode); the deficit
    is measured against that sum.  With no explicit cutoff the support is
    doubled until the deficit drops below ``tail``; a deficit still at or
    above it at a cutoff of 1024 is ``TooLarge``.
    """
    nmax = 16 if cutoff is None else require_counts([cutoff], "cutoff")[0]
    t = rep.layout.total
    subset = list(range(t)) if subset is None else list(subset)
    sub = reduce_modes(rep, subset)
    rest = [i for i in range(t) if i not in subset]
    mass = marginal_rep(rep, rest).vacuum_prob.real if rest else 1.0
    while True:
        g = g_coefficients(sub.a, sub.gamma, nmax=nmax)
        coeffs = f_coefficients(g)
        probs = np.array([_real_prob(rep.vacuum_prob * c) for c in coeffs])
        deficit = mass - probs.sum()
        if cutoff is not None or deficit < tail:
            break
        if nmax >= _AUTO_CUTOFF_CAP:
            raise TooLarge(
                f"the deficit is still {deficit:.3g} at the automatic "
                f"cutoff cap {_AUTO_CUTOFF_CAP}, above the tail {tail:.3g}; "
                "give an explicit cutoff")
        nmax *= 2
    return Distribution(tuple(range(nmax + 1)), probs, deficit)


def prob_coarse(rep, cp):
    """Probability of the coarse-grained counts over detector blocks."""
    return _read_prob(*_state_record(rep, cp.blocks), cp.counts, real=True)


def prob_external(rep, n):
    """Pattern probability at external detectors, internal modes unresolved."""
    lay = rep.layout
    n = require_counts(n, "pattern")
    if len(n) != lay.externals:
        raise LayoutMismatch(
            f"need {lay.externals} external counts, got {len(n)}"
        )
    blocks = [tuple(lay.internal_indices(k)) for k in range(lay.externals)]
    return prob_coarse(rep, CoarsePattern(blocks, n))


# ---------------------------------------------------------------------------
# fully distinguishable internal modes
# ---------------------------------------------------------------------------

def extract_distinguishable_blocks(rep):
    """Split X A into per-internal-mode blocks over the external modes.

    Requires the adjacency to carry no coupling between distinct internal
    modes, and a zero loop vector (no displacement); each returned block is
    a Hermitian 2M x 2M matrix.
    """
    if np.any(rep.gamma):
        raise LayoutMismatch("displaced states have no distinguishable "
                             "fast path")
    lay = rep.layout
    m, k = lay.externals, lay.internals_per_external
    # X A over (half, external, internal) x (half, external, internal)
    xa = swap_halves(rep.a).reshape(2, m, k, 2, m, k)
    # entries between distinct internal modes must vanish
    if np.max(np.abs(xa), where=~np.eye(k, dtype=bool)[:, None, None, :],
              initial=0.0) > 1e-10:
        raise LayoutMismatch("internal modes are coupled; blocks do not split")
    # the blocks: the diagonal over the two internal axes, internal first
    r = np.arange(k)
    return list(xa[:, :, r, :, :, r].reshape(k, 2 * m, 2 * m))


def prob_external_distinguishable(blocks, n):
    """External pattern probability when internal modes never interfere.

    ``blocks`` are the Hermitian per-internal-mode pieces of X A over the
    external modes; each must have rank at most two.  With one sieve
    variable z_i per external mode, D(z) B_l then has at most two nonzero
    eigenvalues, so tr((D(z) B_l)^k) is a power sum p_k of two numbers.
    They follow from e1 = z . d_l and e2 = (e1^2 - z^T C_l z) / 2 by the
    recurrence p_k = e1 p_(k-1) - e2 p_(k-2), with no matrix powers, and
    the log series sum_l p_k / (2k) goes through the same grid, circle
    dilations and read-out as every other probability.  A displaced state
    has a loop term that this series leaves out;
    ``extract_distinguishable_blocks`` rejects it.
    """
    n = require_counts(n, "pattern")
    m = len(n)
    if any(np.shape(b) != (2 * m, 2 * m) for b in blocks):
        raise LayoutMismatch("each block must be 2M x 2M")
    b = np.array(blocks, dtype=complex).reshape(-1, 2 * m, 2 * m)
    bt = b.transpose(0, 2, 1)
    if np.max(np.abs(b - bt.conj()), initial=0.0) > 1e-10:
        raise RankViolation("blocks must be Hermitian")
    # B is Hermitian: its singular values are the |eigenvalues|, and
    # det(I - B) = prod(1 - eigenvalue)
    eig = np.linalg.eigvalsh(b)
    sv = np.sort(np.abs(eig))
    if sv.shape[1] > 2 and np.any(sv[:, -3] > 1e-8
                                  * np.maximum(sv[:, -1], 1e-300)):
        raise RankViolation("block has rank above two")
    vac = np.prod(np.sqrt(np.prod(1 - eig, axis=1)))
    d = np.diagonal(b, axis1=1, axis2=2)
    diag = d[:, :m] + d[:, m:]
    bb = b * bt
    cross = bb[:, :m, :m] + bb[:, m:, m:] + bb[:, m:, :m] + bb[:, :m, m:]
    model = from_log_series(partial(_rank_two_series, diag, cross))
    return _read_prob(model, np.eye(m), vac, n, real=True)


def _rank_two_series(diag, cross, nmax, z):
    """g_1..g_nmax at the rows of ``z`` for blocks of rank at most two,
    from d_l = ``diag[l]`` and C_l = ``cross[l]``."""
    e1 = z @ diag.T                                            # (G, K)
    e2 = (e1 ** 2 - np.einsum("gi,lij,gj->gl", z, cross, z)) / 2
    p = np.empty((nmax + 1,) + e1.shape, dtype=complex)       # p_0..p_nmax
    p[0], p[1:2] = 2.0, e1                  # p_1 is absent when nmax = 0
    for k in range(2, nmax + 1):
        np.multiply(e1, p[k - 1], out=p[k])
        p[k] -= e2 * p[k - 2]
    return p[1:].sum(axis=2).T / (2 * np.arange(1, nmax + 1))


# ---------------------------------------------------------------------------
# moments and cumulants
# ---------------------------------------------------------------------------

def _normal_cov(state):
    return state.husimi_cov - np.eye(2 * state.layout.total)


def moment_mgf(state, t):
    """Moment generating function E[exp(sum t_i n_i)] of the photon counts."""
    t = require_finite(np.asarray(t, dtype=float), "exponents")
    nm = state.layout.total
    if len(t) != nm:
        raise LayoutMismatch(f"need {nm} exponents, got {len(t)}")
    gdiag = np.concatenate([np.expm1(t), np.expm1(t)])
    mat = np.eye(2 * nm) - gdiag[:, None] * _normal_cov(state)
    if np.linalg.cond(mat) > 1e12:
        raise SingularResolvent("moment generating function diverges here")
    z = state.means
    quad = z.conj() @ np.linalg.solve(mat, gdiag * z)
    det = np.linalg.det(mat)
    return (np.exp(quad / 2) / np.sqrt(det)).real


def _moment_generator(state, blocks):
    """(X Sigma_N, X z, expansion of the validated ``blocks``): with mode i
    scaled by w_i, this (A, gamma) generates E[prod_i (1 + w_i)^n_i]."""
    nm = state.layout.total
    blocks = [tuple(b) for b in blocks]
    return (swap_halves(_normal_cov(state)), swap_halves(state.means),
            block_expansion(blocks, nm))


def coarse_moment(state, blocks):
    """Expectation of the product of block photon totals, one per block.

    It is the multilinear coefficient of f_p, p = len(blocks), in one sieve
    variable per block, read off the sieve grid."""
    a, gamma, expand = _moment_generator(state, blocks)
    if not len(expand):
        return 1.0
    values, _ = grid_coefficients(gaussian_model(a, gamma), expand,
                                  ((1,) * len(expand),), real=True)
    return _real(values[0])


def coarse_cumulant(state, blocks):
    """Joint cumulant of the block photon totals, one per block.

    It is the multilinear coefficient of g_p, p = len(blocks): g_p is
    homogeneous of degree p, so the fold over the 2^p sign points w = +-1
    leaves only that coefficient."""
    a, gamma, expand = _moment_generator(state, blocks)
    p = len(expand)
    if not p:
        return 0.0
    signs = np.array(list(product((1.0, -1.0), repeat=p)))
    g = g_coefficients(a, gamma, p, signs @ expand)
    return _real(signs.prod(axis=1) @ g[:, -1] / 2 ** p)


def _stirling2(p):
    """Set-partition counts S(p, k) for k = 0..p."""
    row = [1]
    for i in range(1, p + 1):
        nxt = [0] * (i + 1)
        for k in range(1, i + 1):
            nxt[k] = row[k - 1] + (k * row[k] if k < len(row) else 0)
        row = nxt
    return row


def block_cumulant(state, block, p):
    """p-th cumulant of the photon total in one block of modes."""
    (p,) = require_counts([p], "cumulant order")
    if p < 1:
        raise DomainError("cumulant order must be at least 1")
    a, gamma, expand = _moment_generator(state, [block])
    g = g_coefficients(a, gamma, p, expand[0])
    s2 = _stirling2(p)
    total = sum(
        s2[k] * math.factorial(k) * g[k - 1] for k in range(1, p + 1)
    )
    return _real(total)
