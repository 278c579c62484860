"""Photon-number statistics of Gaussian states.

Probabilities (fine, coarse, total, external-detector), the rank-two fast
path for fully distinguishable internal modes, and moments/cumulants of the
photon-number vector.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    LayoutMismatch,
    PartitionMismatch,
    ProbabilityOutOfRange,
    RankViolation,
    TooLarge,
)
from .gaussian import _keep_set, marginal_rep
# lhaf_sieve, blocked_lhaf, f_n, g_coefficients and f_coefficients are not
# called here: the benchmark tracer rebinds them here
from .hafnian import (
    Sieve,
    block_expansion,
    blocked_lhaf,
    f_coefficients,
    f_n,
    factorial_product,
    from_log_series,
    g_coefficients,
    gaussian_model,
    gaussian_series,
    lhaf_sieve,
    log_series_model,
    partition_expansion,
    sieve_reduce,
)
from .linalg import require_counts, swap_halves

_TAIL = 1e-7   # an automatic cutoff doubles until the deficit is below it
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
    """Probabilities over an explicit support with the truncation deficit,
    each clamped at 0 (``_real_prob`` rejects one below -1e-9)."""

    support: tuple
    probabilities: np.ndarray
    deficit: float

    def __post_init__(self):
        object.__setattr__(self, "probabilities", np.clip(
            np.asarray(self.probabilities, dtype=float), 0, None))
        object.__setattr__(self, "deficit", max(self.deficit, 0.0))


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
    """The ``Sieve`` of ``rep`` over the detector ``blocks`` (None: one
    block per mode): its ``gaussian_model`` and the checked partition
    expansion; a state's coefficients are real.  ``rep`` keeps the record
    of the partition it read last.  A partition that fails
    ``partition_expansion`` raises on every call and is never kept."""
    kept = rep._record   # read once: one assignment replaces it whole
    if kept is not None and kept[0] == blocks:
        return kept[1]
    t = rep.layout.total
    expand = partition_expansion(
        [(j,) for j in range(t)] if blocks is None else blocks, t)
    rec = Sieve(gaussian_model(rep.a, rep.gamma), expand, real=True)
    object.__setattr__(rep, "_record", (blocks, rec))
    return rec


def _read_prob(sieve, prefactor, counts):
    """A one-row probability: ``prefactor`` times the row ``counts`` (a
    tuple) that ``sieve_reduce`` reads of ``sieve``, over prod k!,
    range-checked."""
    value = sieve_reduce(sieve, (counts,))[0]
    return _real_prob(prefactor * value / factorial_product(counts))


def prob_fine(rep, n):
    """Probability of the exact per-mode photon pattern n."""
    n = require_counts(n, "pattern")
    return _read_prob(_state_record(rep, None), rep.vacuum_prob, n)


def _subset_totals(rep, subset):
    """Totals over ``subset`` (distinct modes, non-empty; None: every mode)
    with vacuum elsewhere: a function of nmax giving f_0..f_nmax of the
    kept per-mode record at one point, z = 1 on the subset and 0 (vacuum)
    elsewhere, with no fold and no k! scale; and the other modes."""
    t = rep.layout.total
    z = np.zeros((1, t), dtype=complex)
    z[0, _keep_set(range(t) if subset is None else subset, t)] = 1.0
    model = _state_record(rep, None).model
    return (lambda nmax: np.concatenate(model(range(nmax + 1), z)),
            np.flatnonzero(z[0] == 0).tolist())


def prob_total(rep, subset, n_total):
    """Probability of n_total photons in the subset and vacuum elsewhere."""
    (n_total,) = require_counts([n_total], "total")
    totals, _ = _subset_totals(rep, subset)
    return _real_prob(rep.vacuum_prob * totals(n_total)[-1])


def total_distribution(rep, subset=None, cutoff=None):
    """Distribution of the total photon number in the subset, with vacuum
    on every other mode.

    Entry n is Pr(n photons in the subset and none elsewhere), as in
    ``prob_total``, so the entries sum to the vacuum probability of the
    other modes' marginal (1 when the subset holds every mode); the deficit
    is measured against that sum.  With no explicit cutoff the support is
    doubled until the deficit drops below 1e-7; a deficit still at or
    above it at a cutoff of 1024 is ``TooLarge``.
    """
    nmax = 16 if cutoff is None else require_counts([cutoff], "cutoff")[0]
    totals, rest = _subset_totals(rep, subset)
    mass = marginal_rep(rep, rest).vacuum_prob.real if rest else 1.0
    while True:
        probs = np.array([_real_prob(rep.vacuum_prob * c)
                          for c in totals(nmax)])
        deficit = mass - probs.sum()
        if cutoff is not None or deficit < _TAIL:
            break
        if nmax >= _AUTO_CUTOFF_CAP:
            raise TooLarge(
                f"the deficit is still {deficit:.3g} at the automatic "
                f"cutoff cap {_AUTO_CUTOFF_CAP}, above the tail {_TAIL:.3g}; "
                "give an explicit cutoff")
        nmax *= 2
    return Distribution(tuple(range(nmax + 1)), probs, deficit)


def prob_coarse(rep, cp):
    """Probability of the coarse-grained counts over detector blocks."""
    return _read_prob(_state_record(rep, cp.blocks), rep.vacuum_prob,
                      cp.counts)


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
    # X A (the reversed half axis swaps the halves) with one row per pair
    # of internal modes: (internal, internal) x (half, external, half,
    # external); rows 0, k + 1, 2 (k + 1), ... are the blocks
    xa = rep.a.reshape(2, m, k, 2, m, k)[::-1].transpose(
        2, 5, 0, 1, 3, 4).reshape(k * k, 4 * m * m)
    # entries between distinct internal modes must vanish
    coupling = np.abs(xa)
    coupling[::k + 1] = 0.0
    if coupling.max() > 1e-10:
        raise LayoutMismatch("internal modes are coupled; blocks do not split")
    return list(xa[::k + 1].reshape(k, 2 * m, 2 * m))


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
    # C_l: the sum of the four M x M quadrants of B_l * B_l^T
    cross = (b * bt).reshape(-1, 2, m, 2, m).sum(axis=(1, 3))
    model = from_log_series(partial(_rank_two_series, diag, cross))
    return _read_prob(Sieve(model, np.eye(m), real=True), vac, n)


def _rank_two_series(diag, cross, nmax, z):
    """g_1..g_nmax at the rows of ``z`` for blocks of rank at most two,
    from d_l = ``diag[l]`` and C_l = ``cross[l]``; block-major: each power
    sum is a (K, G) row of blocks by points, written in place."""
    e1 = diag @ z.T                                            # (K, G)
    e2 = (e1 * e1 - np.einsum("gi,lij,gj->lg", z, cross, z)) / 2
    p = np.empty((nmax + 1,) + e1.shape, dtype=complex)       # p_0..p_nmax
    p[0], p[1:2] = 2.0, e1                  # p_1 is absent when nmax = 0
    rows = list(p)
    for k in range(2, nmax + 1):
        row = rows[k]
        np.multiply(e1, rows[k - 1], out=row)
        row -= e2 * rows[k - 2]
    return p[1:].sum(axis=1).T / (2 * np.arange(1, nmax + 1))


# ---------------------------------------------------------------------------
# moments and cumulants
# ---------------------------------------------------------------------------

def _moment_record(state, blocks, model):
    """The real ``Sieve`` of (X Sigma_N, X z), one variable per validated
    block, of ``model`` (``from_log_series`` or ``log_series_model``): with
    mode i scaled by w_i, f generates E[prod_i (1 + w_i)^n_i]."""
    nm = state.layout.total
    series = gaussian_series(swap_halves(state.husimi_cov - np.eye(2 * nm)),
                             swap_halves(state.means))
    return Sieve(model(series), block_expansion(blocks, nm), real=True)


def _multilinear(state, blocks, model):
    """The multilinear coefficient of ``model``'s function, one sieve
    variable per block, read by ``sieve_reduce``."""
    sieve = _moment_record(state, blocks, model)
    return _real(sieve_reduce(sieve, ((1,) * len(sieve.expand),))[0])


def coarse_moment(state, blocks):
    """Expectation of the product of block photon totals, one per block.

    It is the multilinear coefficient of f_p, p = len(blocks), in one sieve
    variable per block, read by ``sieve_reduce``."""
    return _multilinear(state, blocks, from_log_series)


def coarse_cumulant(state, blocks):
    """Joint cumulant of the block photon totals, one per block.

    It is the multilinear coefficient of g_p, p = len(blocks), in one sieve
    variable per block, read by ``sieve_reduce``."""
    return _multilinear(state, blocks, log_series_model)


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
    """p-th cumulant of the photon total in one block of modes: the sum of
    S(p, k) k! g_k, the factorial cumulants that ``sieve_reduce`` reads;
    a p! beyond doubles is ``TooLarge``."""
    (p,) = require_counts([p], "cumulant order")
    if p < 1:
        raise DomainError("cumulant order must be at least 1")
    sieve = _moment_record(state, [block], log_series_model)
    kappa = sieve_reduce(sieve, tuple((k,) for k in range(1, p + 1)))
    return _real(sum(s * c for s, c in zip(_stirling2(p)[1:], kappa)))
