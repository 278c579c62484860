"""Photon-number statistics of Gaussian states.

Probabilities (fine, coarse, total, external-detector), the rank-two fast
path for fully distinguishable internal modes, and moments/cumulants of the
photon-number vector.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DomainError,
    LayoutMismatch,
    PartitionMismatch,
    RankViolation,
    SingularResolvent,
)
from .gaussian import reduce_modes
from .hafnian import (
    block_expansion,
    blocked_lhaf,
    check_partition,
    f_coefficients,
    f_n,
    g_coefficients,
    grid_coefficients,
    lhaf_sieve,
)
from .linalg import xmat

_DEFAULT_TAIL = 1e-7


@dataclass(frozen=True)
class CoarsePattern:
    """Detector grouping (blocks of mode indices) with per-block counts."""

    blocks: tuple
    counts: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(b) for b in self.blocks)
        )
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.blocks) != len(self.counts):
            raise PartitionMismatch("one count per block required")
        if any(c < 0 for c in self.counts):
            raise DomainError("counts must be non-negative")


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


def _real_prob(value):
    value = complex(value)
    if abs(value.imag) > 1e-9 * (1 + abs(value)):
        raise DomainError(
            f"probability has non-negligible imaginary part {value.imag:.3e}"
        )
    return value.real


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def prob_fine(rep, n):
    """Probability of the exact per-mode photon pattern n."""
    n = [int(k) for k in n]
    val = rep.vacuum_prob * lhaf_sieve(rep.a, rep.gamma, n)
    val /= np.prod([math.factorial(k) for k in n])
    return _real_prob(val)


def prob_total(rep, subset, n_total):
    """Probability of n_total photons in the subset and vacuum elsewhere."""
    sub = reduce_modes(rep, subset)
    val = rep.vacuum_prob * f_n(sub.a, sub.gamma, int(n_total))
    return _real_prob(val)


def total_distribution(rep, subset=None, cutoff=None, tail=_DEFAULT_TAIL):
    """Distribution of the total photon number in the subset.

    With no explicit cutoff the support is extended until the missing
    probability mass drops below ``tail``.
    """
    t = rep.layout.total
    subset = list(range(t)) if subset is None else list(subset)
    sub = reduce_modes(rep, subset)
    nmax = cutoff if cutoff is not None else 16
    while True:
        g = g_coefficients(sub.a, sub.gamma, nmax=nmax)
        coeffs = f_coefficients(g)
        probs = np.array([_real_prob(rep.vacuum_prob * c) for c in coeffs])
        deficit = 1.0 - probs.sum()
        if cutoff is not None or deficit < tail or nmax > 512:
            break
        nmax *= 2
    return Distribution(tuple(range(nmax + 1)), probs, deficit)


def prob_coarse(rep, cp):
    """Probability of the coarse-grained counts over detector blocks."""
    val = rep.vacuum_prob * blocked_lhaf(rep.a, rep.gamma, cp.blocks, cp.counts)
    val /= np.prod([math.factorial(c) for c in cp.counts])
    return _real_prob(val)


def prob_external(rep, n):
    """Pattern probability at external detectors, internal modes unresolved."""
    lay = rep.layout
    n = [int(k) for k in n]
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
    modes; each returned block is a Hermitian 2M x 2M matrix.
    """
    lay = rep.layout
    m, k = lay.externals, lay.internals_per_external
    t = lay.total
    xa = xmat(t) @ rep.a
    blocks = []
    # entries outside every extracted block must vanish
    mask = np.zeros((2 * t, 2 * t), dtype=bool)
    for l in range(k):
        idx = [i * k + l for i in range(m)]
        idx += [t + i for i in idx]
        blocks.append(xa[np.ix_(idx, idx)])
        mask[np.ix_(idx, idx)] = True
    if np.max(np.abs(np.where(mask, 0, xa))) > 1e-10:
        raise LayoutMismatch("internal modes are coupled; blocks do not split")
    return blocks


def prob_external_distinguishable(blocks, n):
    """External pattern probability when internal modes never interfere.

    ``blocks`` are the Hermitian per-internal-mode pieces of X A over the
    external modes; each must have rank at most two. Runs the
    inclusion-exclusion sum over sub-multisets, batched over the whole
    multiplicity grid: each grid point only needs the two eigenvalues per
    block (trace and Frobenius norm), never a matrix factorization.
    """
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    n = [int(x) for x in n]
    m = len(n)
    nphot = sum(n)
    nblk = len(blocks)
    vac = 1.0
    diag = np.zeros((nblk, m))
    cross = np.zeros((nblk, m, m))
    for l, b in enumerate(blocks):
        if b.shape != (2 * m, 2 * m):
            raise LayoutMismatch("each block must be 2M x 2M")
        if np.max(np.abs(b - b.conj().T)) > 1e-10:
            raise RankViolation("blocks must be Hermitian")
        sv = np.linalg.svd(b, compute_uv=False)
        if len(sv) > 2 and sv[2] > 1e-8 * max(sv[0], 1e-300):
            raise RankViolation("block has rank above two")
        vac *= np.sqrt(np.linalg.det(np.eye(2 * m) - b).real)
        diag[l] = (np.diagonal(b)[:m] + np.diagonal(b)[m:]).real
        ab = np.abs(b) ** 2
        cross[l] = ab[:m, :m] + ab[m:, m:] + ab[m:, :m] + ab[:m, m:]
    if nphot == 0:
        return vac

    active = [k for k in range(m) if n[k] > 0]
    axes = [np.arange(n[k] + 1) for k in active]
    grid = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, len(active))
    npts = grid.shape[0]
    mult = np.zeros((npts, m))
    mult[:, active] = grid

    # sign (-1)^(N - |mult|) and the product of binomial coefficients
    weight = (-1.0) ** (nphot - grid.sum(axis=1))
    for col, k in enumerate(active):
        combs = np.array([math.comb(n[k], j) for j in range(n[k] + 1)])
        weight = weight * combs[grid[:, col]]

    # both eigenvalues of every rank-two block, from trace and 2-norm
    tr = mult @ diag.T                                   # (G, K)
    fr2 = np.einsum("gi,lij,gj->gl", mult, cross, mult)  # (G, K)
    disc = np.sqrt(np.maximum(2 * fr2 - tr ** 2, 0.0))
    lam = np.concatenate([(tr + disc) / 2, (tr - disc) / 2], axis=1)

    g = np.empty((npts, nphot))
    pw = np.ones_like(lam)
    for j in range(1, nphot + 1):
        pw = pw * lam
        g[:, j - 1] = pw.sum(axis=1) / (2 * j)
    total = np.dot(weight, f_coefficients(g)[:, nphot])
    total *= vac / np.prod([math.factorial(k) for k in n])
    return _real_prob(total)


# ---------------------------------------------------------------------------
# moments and cumulants
# ---------------------------------------------------------------------------

def _normal_cov(state):
    return state.husimi_cov - np.eye(2 * state.layout.total)


def moment_mgf(state, t):
    """Moment generating function E[exp(sum t_i n_i)] of the photon counts."""
    t = np.asarray(t, dtype=float)
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
    check_partition(blocks, nm)
    x = xmat(nm)
    return x @ _normal_cov(state), x @ state.means, block_expansion(blocks, nm)


def coarse_moment(state, blocks):
    """Expectation of the product of block photon totals, one per block.

    It is the multilinear coefficient of f_p, p = len(blocks), in one sieve
    variable per block, read off the sieve grid."""
    a, gamma, expand = _moment_generator(state, blocks)
    if not len(expand):
        return 1.0
    values, _ = grid_coefficients(a, gamma, expand, [[1] * len(expand)])
    return _real_prob(values[0])


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
    return _real_prob(signs.prod(axis=1) @ g[:, -1] / 2 ** p)


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
    if p < 1:
        raise DomainError("cumulant order must be at least 1")
    a, gamma, expand = _moment_generator(state, [block])
    g = g_coefficients(a, gamma, p, expand[0])
    s2 = _stirling2(p)
    total = sum(
        s2[k] * math.factorial(k) * g[k - 1] for k in range(1, p + 1)
    )
    return _real_prob(total)
