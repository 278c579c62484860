"""Loop-Hafnian kernels.

Eight layers, from slow-and-certain to fast:

* ``lhaf_oracle``        exact enumeration of single-pair matchings with
                         loops, exponential, guarded to 14 rows;
* ``power_trace_series`` the one matrix-power loop: tr(P^k) / k and a loop
                         term, about 2 sqrt(N) products per point from baby
                         and giant steps, for the first powers P = D(z) XA
                         that ``g_coefficients`` forms;
* ``g_coefficients``     the power-trace log series g_1..g_N, batched over
                         diagonal scalings D(z) of XA;
* ``f_coefficients``     batched exp series turning log-series coefficients
                         g_k into the Taylor coefficients f_0..f_N;
                         ``from_log_series`` makes a log series a model,
                         and ``gaussian_model`` that of an (A, gamma);
* ``grid_coefficients``  the sieve engine: f on one roots-of-unity grid
                         with one pinned variable per homogeneous group,
                         the one of the smallest count, then one
                         matrix-vector product per grid axis reads out each
                         count pattern from f_N of its total N, with its
                         rounding bound; the model, which gives f_N at the
                         grid points for the totals N the rows read, is an
                         argument (a Gaussian log series through
                         ``f_coefficients``, or the Fock product form of
                         ``fock_channel``).  What depends only on the count
                         rows, groups and ``real`` is planned once
                         (``_grid_plan``), the unit points and conjugate
                         pairs once per grid shape (``_unit_grid``,
                         ``_conj_pairs``); a model with real coefficients
                         runs on one point per pair and folds its weighted
                         representatives;
* ``sieve_reduce``       the one fold-and-certify routine: rows of count
                         patterns from one unit-circle grid, each row that
                         drowns in cancellation folded again on its own
                         grid on dilated circles (``certified``);
* ``lhaf_sieve``         one pattern through ``sieve_reduce``, equal to
                         the oracle on the repeated matrix;
* ``blocked_lhaf``       the grouped-detector generalization, one sieve
                         variable per block.

Every one-row probability calls neither of the last two: it reads its
row through ``certified`` (``distributions._read_prob``).

Moments and cumulants of photon counts are multilinear coefficients read
off the same grid and log series.
"""

import cmath
import math
from functools import lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, NonFinite, OddDimension, PartitionMismatch,
                     TooLarge)
from .linalg import require_counts, require_finite

_ORACLE_LIMIT = 14


def factorial_product(counts):
    """prod k! over ``counts`` as a float, formed exactly in Python ints:
    a NumPy int64 product wraps once it passes 2**63; beyond the double
    range it is ``TooLarge``."""
    try:
        return float(math.prod(math.factorial(int(k)) for k in counts))
    except OverflowError:
        raise TooLarge(f"prod k! of the counts {list(counts)} exceeds the "
                       "double range") from None


# ---------------------------------------------------------------------------
# combinatorial oracle
# ---------------------------------------------------------------------------

def lhaf_oracle(a, gamma=None):
    """Loop Hafnian by explicit enumeration of matchings with loops.

    The diagonal of ``a`` is ignored; loop weights come from ``gamma``.
    Without ``gamma`` the dimension must be even (plain Hafnian). Guarded to
    14 rows.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    if d > _ORACLE_LIMIT:
        raise TooLarge(f"oracle limited to {_ORACLE_LIMIT} rows, got {d}")
    if gamma is None:
        if d % 2:
            raise OddDimension("plain Hafnian needs an even dimension")
        g = np.zeros(d, dtype=complex)
    else:
        g = np.asarray(gamma, dtype=complex)

    def rec(idx):
        if not idx:
            return 1.0 + 0.0j
        i = idx[0]
        rest = idx[1:]
        total = g[i] * rec(rest)
        for pos, j in enumerate(rest):
            total += a[i, j] * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(tuple(range(d)))


def repeat_pattern(a, gamma, n, m=None):
    """Repeated matrix A_{n (+) m} and loop vector, for oracle cross-checks.

    ``n`` indexes the first half of ``a``'s modes, ``m`` the second; with
    ``m`` omitted the diagonal repetition n (+) n is built.
    """
    a = np.asarray(a, dtype=complex)
    n = list(n)
    if m is None:
        m = n
    nmodes = a.shape[0] // 2
    idx = [k for k in range(nmodes) for _ in range(n[k])]
    idx += [nmodes + k for k in range(nmodes) for _ in range(list(m)[k])]
    rep = a[np.ix_(idx, idx)]
    if gamma is None:
        return rep, None
    return rep, np.asarray(gamma, dtype=complex)[idx]


# ---------------------------------------------------------------------------
# exp series
# ---------------------------------------------------------------------------

def f_coefficients(g):
    """Coefficients f_0..f_N of exp(sum_k g_k eta^k), along the last axis.

    Leading axes of ``g`` are a batch.  Differentiating f = exp(sum g_k
    eta^k) gives the Newton recurrence f_n = (1/n) sum_k k g_k f_(n-k),
    N steps of one batched row-by-column ``matmul`` each.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    c = np.zeros(g.shape[:-1] + (n + 1,), dtype=np.result_type(g, float))
    c[..., 0] = 1.0
    kg = (g * np.arange(1, n + 1))[..., None, :]
    column = c[..., None]
    dot = np.empty(g.shape[:-1] + (1, 1), dtype=c.dtype)
    for i in range(1, n + 1):
        np.matmul(kg[..., :i], column[..., i - 1::-1, :], out=dot)
        np.divide(dot[..., 0, 0], i, out=c[..., i])
    return c


def from_log_series(series):
    """The sieve model of a log series: ``series(nmax, z)`` gives
    g_1..g_nmax at the rows of ``z``, and the model gives f_n at them for
    each n of ``totals`` (ascending), columns of one ``f_coefficients``
    block."""
    def model(totals, z):
        f = f_coefficients(series(totals[-1], z))
        return [f[:, n] for n in totals]
    return model


# memory budget (bytes) for one batch chunk of ``power_trace_series``: its
# b baby-step powers plus the giant step, its transpose and the next giant
# step, b + 3 stacks of (chunk, d, d); a chunk of a few hundred points
# already amortizes the per-call overhead.  The Fock product form chunks
# its one (chunk, d, d) stack of B(y) by it too
_CHUNK_BYTES = 1 << 22


def power_trace_series(first, dim, nmax, npts, loop=None):
    """g_k = tr(P^k) / k, k = 1..nmax, the log series of 1 / det(I - P), at
    ``npts`` points; ``first(lo, hi, out)`` writes the first powers P of
    points lo..hi-1 into ``out`` (hi - lo, dim, dim).  With ``loop`` =
    (l, r), r of shape (npts, dim), g_k gains the term l^T P^(k-1) r.
    Baby steps and giant steps (Paterson and Stockmeyer, SIAM J. Comput.
    2, 1973): with b = ceil(sqrt(nmax)), the baby steps P..P^b give their
    own traces, and each giant step R = P^(qb) gives tr(P^(qb+j)) =
    sum_(il) P^j[i, l] R[l, i] for j = 1..b as one batched matrix-vector
    product, and l^T P^(qb+j-1) r = (l^T R) P^(j-1) r: about 2 sqrt(nmax)
    matrix products per point instead of nmax - 1.  The points run in
    chunks that share one baby-step buffer, sized to _CHUNK_BYTES, in
    which the first powers are formed.
    """
    out = np.empty((npts, nmax), dtype=complex)
    if nmax == 0:
        return out
    b = math.isqrt(nmax - 1) + 1
    chunk = max(1, min(npts, _CHUNK_BYTES // (16 * dim ** 2 * (b + 3))))
    buf = np.empty((b, chunk, dim, dim), dtype=complex)
    ks = np.arange(1, nmax + 1)
    for lo in range(0, npts, chunk):
        n = min(chunk, npts - lo)
        powers = buf[:, :n]   # P^(j+1) at j, each a contiguous stack
        first(lo, lo + n, powers[0])
        for j in range(1, b):
            np.matmul(powers[j - 1], powers[0], out=powers[j])
        rows = out[lo:lo + n]
        np.einsum("hgii->gh", powers, out=rows[:, :b])
        flat = powers.reshape(b, n, dim * dim).transpose(1, 0, 2)
        if loop is not None:   # stored times k, as the traces are
            left, right = loop[0], loop[1][lo:lo + n]
            vecs = np.empty((n, b, dim), dtype=complex)   # P^j r, j < b
            vecs[:, 0] = right
            vecs[:, 1:] = (powers[:b - 1]
                           @ right[:, :, None])[..., 0].transpose(1, 0, 2)
            rows[:, :b] += ks[:b] * (vecs @ left)
        giant = powers[b - 1]
        for k0 in range(b, nmax, b):
            if k0 > b:
                giant = giant @ powers[b - 1]
            m = min(b, nmax - k0)
            flipped = giant.transpose(0, 2, 1).reshape(n, dim * dim, 1)
            rows[:, k0:k0 + m] = (flat[:, :m] @ flipped)[:, :, 0]
            if loop is not None:
                rows[:, k0:k0 + m] += ks[k0:k0 + m] * (
                    vecs[:, :m] @ (left @ giant)[:, :, None])[:, :, 0]
        rows /= ks
    return out


def g_coefficients(a, gamma=None, nmax=1, scale=None):
    """Log-series coefficients g_1..g_nmax of the generating function.

    g_k = tr([XA]^k) / (2k) + gamma^T [XA]^(k-1) X gamma / 2, with every XA
    and X gamma replaced by their D(scale)-scaled versions when ``scale`` is
    given (one scale entry per mode, applied to both halves).  Leading axes
    of ``scale`` are a batch: the result has shape scale.shape[:-1] +
    (nmax,); traces and loop term come from ``power_trace_series``.
    """
    nmodes = np.shape(a)[0] // 2
    scale = np.ones(nmodes) if scale is None else np.asarray(scale)
    g = _gaussian_series(a, gamma)(
        nmax, scale.reshape(-1, nmodes).astype(complex))
    return g.reshape(scale.shape[:-1] + (nmax,))


def _gaussian_series(a, gamma):
    """``series(nmax, z)``: g_1..g_nmax of ``g_coefficients`` at the
    complex rows of ``z``, with XA as swapped halves and the loop pair
    (gamma, X gamma), or none when gamma is zero, prepared once."""
    a = np.asarray(a, dtype=complex)
    nmodes = a.shape[0] // 2
    xa = np.concatenate([a[nmodes:], a[:nmodes]])
    xgamma = None
    if gamma is not None and np.any(gamma):
        gamma = np.asarray(gamma, dtype=complex)
        xgamma = np.concatenate([gamma[nmodes:], gamma[:nmodes]])

    def series(nmax, z):
        d = np.concatenate([z, z], axis=1)                      # (G, 2M)
        loop = None if xgamma is None else (gamma, d * xgamma)

        def first(lo, hi, out):
            np.multiply(d[lo:hi, :, None], xa, out=out)
        g = power_trace_series(first, 2 * nmodes, nmax, len(d), loop)
        g /= 2
        require_finite(g, "g coefficients")
        return g
    return series


def gaussian_model(a, gamma=None):
    """The sieve model of the Gaussian generating function of ``a`` and
    ``gamma``: the log series of ``g_coefficients`` through
    ``f_coefficients``, its XA and loop pair prepared once, so that a
    model read by many grids forms only its scaled points."""
    return from_log_series(_gaussian_series(a, gamma))


def f_n(a, gamma=None, n=0):
    """N-th Taylor coefficient of the generating function q."""
    if n == 0:
        return 1.0 + 0.0j
    return f_coefficients(g_coefficients(a, gamma, nmax=n))[-1]


# ---------------------------------------------------------------------------
# roots-of-unity sieve
# ---------------------------------------------------------------------------

def grid_coefficients(model, expand, targets, radii=None, groups=None,
                      real=False):
    """Blocked loop Hafnians of many count patterns from one sieve grid.

    ``model(totals, scale)`` returns, for each total N of ``totals``
    (ascending), f_N at every row of ``scale`` (one entry per mode): the
    part of the generating function of degree N in the first group
    (``from_log_series`` gives it for a log series, and
    ``gaussian_model`` for that of an adjacency matrix and loop vector).
    ``expand`` maps variable columns to mode columns, and each row of
    ``targets`` is a count pattern over the variables.  Variable j runs
    over L_j points r_j exp(2 pi i m / L_j), L_j = 1 + its largest count
    k_j (a variable whose counts are all zero is pinned at zero).
    ``groups`` partitions the variables into homogeneous groups (default:
    one group of all): f_N has degree N in each group, as 1 / det(I - X
    B(y)) has in x and in y.  A pattern k with every k_j < L_j aliases
    with no other pattern of the same group totals, so f_N (N the total of
    the first group) folded with the conj phases exp(-2 pi i m k_j / L_j),
    one matrix-vector product per axis, yields pattern k exactly.

    Homogeneity also pins one variable e per group at r_e: a pattern of
    the same totals then aliases onto k only through a variable of e's
    group with L_j <= k_e.  The pin is the live variable of the smallest
    largest count in its group, so every other L_j = k_j + 1 already
    exceeds k_e, and no pin leaves fewer points: pinning e' instead needs
    L_e >= k_e' + 1, so its grid has at least (k_e' + 1) prod_(j != e, e')
    (k_j + 1) = prod_(j != e) (k_j + 1) points.

    Everything but the radii and the model depends only on the count
    rows, the groups and ``real``: it is planned once by ``_grid_plan``,
    on unit points over the live and pinned variables shared per shape by
    ``_unit_grid``; a call then forms its points as one product with those
    rows of ``expand``, evaluates the model and folds.  Rows given as a
    tuple of count tuples, and groups as a tuple of tuples, are the plan's
    key as they stand; any other form is converted first.

    ``real`` declares real Taylor coefficients of every f_N the model
    gives, as a Gaussian probability or moment has.  The pins and radii
    are real, so point m and its partner -m mod L_j carry conjugate
    values, f_N(conj z) = conj f_N(z), and conjugate terms of the fold:
    the model runs on one point of each pair (``_conj_pairs``), and the
    fold is the real part of their sum, each weighted 2, or 1 for a point
    that is its own conjugate; the mass is weighted alike.  Complex
    coefficients, as of an off-diagonal herald class or the Fock product
    form, need every point.

    Returns (values, masses) over the rows of ``targets``: value =
    prod k_j! [z^k] f_N, and mass = prod(k_j! / (L_j r_j^k_j)) times
    sum_m |f_N(z_m)| over the grid (L_e = 1), the absolute fold mass,
    whose product with the machine epsilon bounds the rounding error.
    """
    rows = _count_rows(targets, expand.shape[0])
    if groups is not None and type(groups) is not tuple:
        groups = tuple(map(tuple, groups))
    plan = _grid_plan(rows, groups, real)
    points = plan.points
    if radii is not None:
        radii = np.asarray(radii, float)
        points = points * radii[plan.vars]
    columns = model(plan.totals, points @ expand.take(plan.vars, 0))
    weights = plan.weights
    sums = [np.abs(column).sum() if weights is None
            else weights @ np.abs(column) for column in columns]
    values = np.empty(len(rows), dtype=complex)
    masses = np.empty(len(rows))
    for row, (col, scale, fold) in enumerate(plan.reads):
        if weights is None:   # one conj phase vector per live axis
            value = columns[col]
            for phase in fold:
                value = value.reshape(-1, len(phase)) @ phase
            values[row] = value[0] * scale
        else:                 # the weighted conj phases of the reps
            values[row] = (fold @ columns[col]).real * scale
        masses[row] = sums[col] * scale
    if radii is not None:
        dilation = np.prod(radii ** np.array(rows), axis=1)
        values /= dilation
        masses /= dilation
    return values, masses


class _GridPlan(NamedTuple):
    """What ``grid_coefficients`` needs of its count rows, groups and
    ``real``.  ``reads`` holds, per row, (the position of its total in
    ``totals``, prod k_j! / prod L_j, its fold): on a full grid the conj
    unit phases of its live axes, last axis first; on a half grid the
    weighted conj phases at the representatives."""
    vars: np.ndarray     # the live variables in axis order, then the pins
    points: np.ndarray   # the unit points over ``vars`` (``_unit_grid``)
    shape: tuple         # L_j over the live variables
    totals: tuple        # the distinct totals the rows read, ascending
    weights: np.ndarray  # half grid: 2 or 1 per representative; else None
    reads: tuple


def _count_rows(targets, nvar):
    """``targets`` as the key of its plan: a tuple of count tuples of
    ``nvar`` ints each.  Such a tuple is its own key, and is kept."""
    if type(targets) is tuple and all(type(k) is tuple and len(k) == nvar
                                      for k in targets):
        return targets
    return tuple(map(tuple, np.asarray(targets, dtype=int)
                     .reshape(-1, nvar).tolist()))


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=1024)
def _grid_plan(rows, groups, real=False):
    """The ``_GridPlan`` of the count ``rows`` (tuples), the ``groups``
    (tuples or None) and ``real``.  Of the size of the grid it holds only
    a half grid's weighted phases per row; a full grid's rows share their
    phases through ``_phases``.  A prod k! beyond doubles is ``TooLarge``."""
    targets = np.array(rows, dtype=int)
    nvar = targets.shape[1]
    kmax = targets.max(axis=0).tolist()
    groups = (range(nvar),) if groups is None else groups
    pinned = [min((j for j in g if kmax[j]), key=kmax.__getitem__)
              for g in groups if any(kmax[j] for j in g)]
    live = [j for j in range(nvar) if kmax[j] and j not in pinned]
    shape = tuple(kmax[j] + 1 for j in live)
    scale = [factorial_product(k) / math.prod(shape) for k in rows]
    totals = targets[:, list(groups[0])].sum(axis=1).tolist()
    distinct = sorted(set(totals))
    phases = [[_phases(size, k) for size, k in zip(shape, counts)]
              for counts in targets[:, live].tolist()]
    half = _conj_pairs(shape) if real else None
    if half is None:
        weights, folds = None, [tuple(p[::-1]) for p in phases]
    else:
        weights = half.weights
        folds = [_frozen(weights * reduce(np.multiply.outer, p).ravel()
                         [half.reps]) for p in phases]
    return _GridPlan(_frozen(np.array(live + pinned, dtype=np.intp)),
                     _unit_grid(shape, len(pinned), half is not None),
                     shape, tuple(distinct), weights,
                     tuple(zip(map(distinct.index, totals), scale, folds)))


@lru_cache(maxsize=256)
def _phases(size, k):
    """exp(-2 pi i m k / L) for m = 0..L-1, L = ``size``."""
    return _frozen(np.exp(-2j * np.pi * (np.arange(size) * k % size) / size))


@lru_cache(maxsize=128)
def _unit_grid(shape, pins=0, half=False):
    """exp(2 pi i m_j / L_j) at every point m of a grid of ``shape`` (L_j),
    one row per point in C order, one column per axis, then ``pins``
    columns of ones; with ``half``, only the rows of the representatives
    of ``_conj_pairs``."""
    axes = [np.exp(2j * np.pi * np.arange(size) / size) for size in shape]
    grid = np.array(np.meshgrid(*axes, indexing="ij"), dtype=complex)
    grid = grid.reshape(len(shape), math.prod(shape)).T
    grid = np.concatenate([grid, np.ones((len(grid), pins))], axis=1)
    return _frozen(grid[_conj_pairs(shape).reps] if half else grid)


class _ConjPairs(NamedTuple):
    """One point of each conjugate pair of a grid shape, in C order."""
    reps: np.ndarray      # the grid indices of the representatives
    weights: np.ndarray   # 2 where the partner is another point, else 1


@lru_cache(maxsize=128)
def _conj_pairs(shape):
    """The representatives of a grid of ``shape``, the lower C index of
    each pair m, -m mod L_j, with their weights in a half grid's fold; None
    when no axis exceeds 2 points, where every point is its own conjugate."""
    if max(shape, default=0) <= 2:
        return None
    index = np.arange(math.prod(shape)).reshape(shape)
    partner = index[np.ix_(*(-np.arange(size) % size for size in shape))]
    index, partner = index.ravel(), partner.ravel()
    reps = np.flatnonzero(index <= partner)
    return _ConjPairs(_frozen(reps),
                      _frozen(np.where(index[reps] < partner[reps], 2.0, 1.0)))


# circle dilations of the fold: unit circles first, then radii
# d**(k_j/k_max) for a row whose fold is still dominated by cancellation;
# and the fraction of the absolute fold mass a result must exceed to count
# as sound
_DILATIONS = (1.0, 4.0, 16.0)
_CANCEL_GUARD = 1e-3
_EPS = float(np.finfo(float).eps)


def fold_is_sound(value, mass, abs_tol=None):
    """Whether a fold result clearly exceeds its rounding bound eps * mass,
    or the bound is below the absolute tolerance ``abs_tol``."""
    if not (cmath.isfinite(value) and math.isfinite(mass)):
        return False
    if abs(value) >= _CANCEL_GUARD * mass:
        return True
    return abs_tol is not None and _EPS * mass <= abs_tol


def certified(model, expand, k, fold=None, abs_tol=None, groups=None,
              real=False):
    """The value of the count row ``k`` (a tuple), as ``sieve_reduce``
    certifies it, from its unit-circle ``fold`` (value, mass), or folded
    here when None; the re-folds keep their results here, apart from any
    grid's.  A value that is not finite is ``NonFinite``."""
    if fold is None:
        (value,), (mass,) = grid_coefficients(model, expand, (k,),
                                              groups=groups, real=real)
    else:
        value, mass = fold
    if len(set(k) - {0}) > 1:
        for boost in _DILATIONS[1:]:
            if fold_is_sound(value, mass, abs_tol):
                break
            counts = np.array(k)
            (cand,), (cmass,) = grid_coefficients(
                model, expand, (k,), boost ** (counts / counts.max()),
                groups, real)
            if cmass < mass:
                value, mass = cand, cmass
    if not cmath.isfinite(value):
        raise NonFinite("sieve accumulation overflowed")
    return value


def sieve_reduce(model, targets, expand, abs_tol=None, groups=None,
                 real=False):
    """The rows of ``targets`` (count patterns over the variables) of the
    generating function ``model``, folded and certified; ``expand`` maps
    variable columns to mode columns, ``abs_tol`` is None or one absolute
    tolerance (or None) per row, and ``model``, ``groups`` and ``real``
    (for every grid, re-folds included) are as in ``grid_coefficients``.

    Every row is read off one grid on unit circles.  The absolute fold mass
    bounds the rounding error of the fold, so it doubles as a condition
    estimate.  A row that is not sound there (``fold_is_sound`` under its
    own tolerance) and whose nonzero counts differ is folded again on its
    own smallest grid, on circles of radius d**(k_j/k_max) for each further
    dilation d, until it is sound; the fold with the smallest mass wins
    (``certified``).  Every dilation evaluates the same exact quantity,
    because the target coefficient is homogeneous.  Unit circles come
    first because the herald class grids need them: on the cutoff-26
    herald pipeline, radii 4**(k_j/k_max) left all 27 diagonal elements
    unsound and unit circles none.  A negative count is a ``DomainError``.
    """
    rows = _count_rows(targets, expand.shape[0])
    if any(c < 0 for k in rows for c in k):
        raise DomainError("counts must be non-negative")
    tols = [None] * len(rows) if abs_tol is None else list(abs_tol)
    values, masses = grid_coefficients(model, expand, rows, groups=groups,
                                       real=real)
    return np.array([certified(model, expand, k, fold, tol, groups, real)
                     for k, fold, tol in zip(rows, zip(values, masses), tols)],
                    dtype=complex)


def lhaf_sieve(a, gamma, pattern, real=False):
    """Loop Hafnian of the repeated matrix A_{n (+) n} via the sieve;
    ``real`` as in ``blocked_lhaf``."""
    nmodes = np.shape(a)[0] // 2
    if len(pattern) != nmodes:
        raise PartitionMismatch(
            f"pattern length {len(pattern)} != mode count {nmodes}"
        )
    return blocked_lhaf(a, gamma, [(j,) for j in range(nmodes)], pattern,
                        real)


# ---------------------------------------------------------------------------
# blocked loop Hafnian
# ---------------------------------------------------------------------------

def compatible_patterns(blocks, b, nmodes):
    """All fine patterns whose block sums equal the coarse counts b."""
    def splits(indices, count):
        if len(indices) == 1:
            yield {indices[0]: count}
            return
        for first in range(count + 1):
            for rest in splits(indices[1:], count - first):
                yield {indices[0]: first, **rest}

    per_block = [list(splits(list(blk), cnt)) for blk, cnt in zip(blocks, b)]
    for combo in product(*per_block):
        fine = [0] * nmodes
        for assignment in combo:
            for i, c in assignment.items():
                fine[i] = c
        yield tuple(fine)


def blocked_lhaf(a, gamma, blocks, b, real=False):
    """Blocked loop Hafnian: one sieve variable per block.  ``real``, as
    in ``grid_coefficients``, holds for the adjacency of a physical state,
    not for an arbitrary complex matrix."""
    expand = partition_expansion(blocks, np.shape(a)[0] // 2)
    b = require_counts(b)
    if len(b) != len(blocks):
        raise PartitionMismatch("one count per block required")
    return sieve_reduce(gaussian_model(a, gamma), (b,), expand,
                        real=real)[0]


def block_expansion(blocks, nmodes):
    """Matrix mapping one sieve variable per block to the modes it covers,
    read-only and shared by every call with the same blocks.

    It is the one partition check: the blocks must be non-empty, disjoint
    and within range(nmodes).  Callers that need every mode covered use
    ``partition_expansion``."""
    return _block_expansion(tuple(map(tuple, blocks)), nmodes)


def partition_expansion(blocks, nmodes):
    """``block_expansion`` of blocks that must also cover every mode."""
    return _partition_expansion(tuple(map(tuple, blocks)), nmodes)


# lru_cache keeps no exceptions: malformed blocks raise on every call
@lru_cache(maxsize=256)
def _block_expansion(blocks, nmodes):
    expand = np.zeros((len(blocks), nmodes), dtype=complex)
    for row, blk in enumerate(blocks):
        if not len(blk):
            raise PartitionMismatch("empty block")
        for i in blk:
            if not 0 <= i < nmodes:
                raise PartitionMismatch(f"block index {i} out of range")
            if expand[:, i].any():
                raise PartitionMismatch(f"index {i} appears in two blocks")
            expand[row, i] = 1.0
    return _frozen(expand)


@lru_cache(maxsize=256)
def _partition_expansion(blocks, nmodes):
    expand = _block_expansion(blocks, nmodes)
    if not expand.any(axis=0).all():
        raise PartitionMismatch("partition does not cover all modes")
    return expand


def blocked_lhaf_combinatorial(a, gamma, blocks, b, use_oracle=False):
    """Defining sum over all compatible fine patterns; the slow cross-check."""
    a = np.asarray(a, dtype=complex)
    nmodes = a.shape[0] // 2
    partition_expansion(blocks, nmodes)
    facts = factorial_product(b)
    total = 0.0 + 0.0j
    for fine in compatible_patterns(blocks, b, nmodes):
        if use_oracle:
            rep, rg = repeat_pattern(a, gamma, fine)
            term = lhaf_oracle(rep, rg if gamma is not None else None)
        else:
            term = lhaf_sieve(a, gamma, fine)
        total += term / factorial_product(fine)
    return facts * total
