"""Fock states through lossy linear circuits.

MacMahon master theorem: with one variable per input port (x) and per
output port (y), the Schur complement of the 2M x 2M K = [[I - T^dag T,
T^dag], [T, 0]] gives det(I - diag(x, y) K) = det(I - X B(y)), B(y) =
y_env (I - T^dag T) + sum_j y_j W_j, W_j = T^dag E_j T, E_j the projector
onto output block j and y_env marking lost photons.  So 1 / det(I - X
B(y)) = sum Pr(b | p) x^p y^b y_env^(|p| - |b|).  The theorem's other
side (P. A. MacMahon, Combinatory Analysis, 1915) has the same x^p
coefficient: F(x, y) = prod_i ((B(y) x)_i)^p_i over the occupied inputs,
the multiplicity form behind Glynn's permanent formula (D. G. Glynn, Eur.
J. Combin. 31, 2010).  F has degree |p| in x and again in (y, y_env), so
the sieve pins one variable of each group, and F is its own part of
degree |p| in x, the one column the sieve reads: a grid point costs one
B(y), one matrix-vector product and the powers, with no matrix powers and
no exp series.  F's other coefficients are complex, so its grids take
every point.  If the photons of port i share the internal state c_i, B
becomes S o B with the Gram matrix S_il = <c_i|c_l> (Tichy, PRA 91,
022316, 2015; Shchesnovich, PRA 91, 013844, 2015).  ``fock_herald`` reads
its elements off the same form (``_fock_series``); K itself is formed only
by the permanent oracle that cross-checks both.

``fock_coarse_prob`` prepares this form once per input and output
partition and keeps it on the input: F with its W terms, the identity
expand, the groups [inputs] [outputs + y_env], the input counts of the
occupied ports and |p|.  Every output pattern over that partition then
forms only its count row and folds it.  The input keeps one such record,
for the partition it read last.  The input holds read-only copies of T
and S, so what it prepared cannot go stale.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .distributions import _read_prob
from .errors import (DomainError, NotPositiveDefinite, PartitionMismatch,
                     TooLarge)
# blocked_lhaf is not called here: the benchmark tracer rebinds it here
from .hafnian import (_CHUNK_BYTES, blocked_lhaf, compatible_patterns,
                      factorial_product, partition_expansion)
from .heralding import herald_density, kept_modes
from .linalg import STRUCTURE_TOL, require_counts, require_subunitary

_PERM_LIMIT = 16


@dataclass(frozen=True)
class FockInput:
    """Photon counts per input port, the circuit transmission matrix and
    the Gram matrix S_il = <c_i|c_l> of the ports' internal states (all
    ones by default: indistinguishable photons).  ``t`` and ``gram`` are
    kept as read-only copies."""

    p: tuple
    t: np.ndarray
    gram: np.ndarray = None
    _record: tuple = field(default=None, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        t = np.array(self.t, dtype=complex)
        p = require_counts(self.p, "photon counts")
        if t.ndim != 2 or t.shape[0] != t.shape[1] or len(p) != t.shape[0]:
            raise PartitionMismatch("one photon count per circuit port")
        require_subunitary(t)
        s = np.ones(t.shape, complex) if self.gram is None else _gram(
            self.gram, len(p))
        t.flags.writeable = s.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gram", s)

    def __reduce__(self):
        # pickled and copied through the constructor: the prepared series
        # are closures, and the arrays come back read-only
        return FockInput, (self.p, self.t, self.gram)


def _gram(s, m):
    """``s`` as an M x M Gram matrix: finite, with a unit diagonal,
    Hermitian and positive semidefinite, or a validation error."""
    s = np.array(s, dtype=complex)
    if s.shape != (m, m) or not np.isfinite(s).all() or np.abs(
            np.diagonal(s) - 1).max() > STRUCTURE_TOL:
        raise DomainError(f"Gram matrix must be finite, {m} x {m}, with a "
                          "unit diagonal")
    if (np.abs(s - s.conj().T).max() > STRUCTURE_TOL
            or np.linalg.eigvalsh(s).min() < -STRUCTURE_TOL):
        raise NotPositiveDefinite("Gram matrix must be Hermitian and "
                                  "positive semidefinite")
    return s


def _fock_series(t, gram, w, p):
    """F(x, y) = prod_i ((S o B(y)) x)_i^p_i (module docstring) as a sieve
    model, for the occupied input columns ``t`` of T, their block ``gram``
    of S, the output terms ``w`` and the input counts ``p``, with the loss
    term last: a grid row holds x, the y_j, then y_env.  Every row read
    has the x total |p|, and F is its own part of that degree: the model
    gives f_|p| = F alone, formed chunk by chunk."""
    d = t.shape[1]
    w = np.concatenate([w, [np.eye(d) - t.conj().T @ t]])
    w = (w * gram).reshape(len(w), d * d)
    chunk = max(1, _CHUNK_BYTES // (16 * d * d or 1))

    def model(totals, z):
        f = np.empty(len(z), dtype=complex)
        for lo in range(0, len(z), chunk):
            x, y = z[lo:lo + chunk, :d], z[lo:lo + chunk, d:]
            v = ((y @ w).reshape(len(y), d, d) @ x[:, :, None])[:, :, 0]
            f[lo:lo + chunk] = math.prod(vi ** k for vi, k in zip(v.T, p))
        return [f]
    return model


def _coarse_record(fi, blocks):
    """The model of ``fi`` with one y per output block of ``blocks``, with
    the identity expand, the groups, the counts of the occupied inputs and
    |p|.  ``fi`` keeps the record of the partition it read last, so a run
    of outputs over one partition prepares it once.  A partition that
    fails ``partition_expansion`` raises here on every call and is never
    kept."""
    kept = fi._record   # read once: one assignment replaces it whole
    if kept is not None and kept[0] == blocks:
        return kept[1]
    proj = partition_expansion(blocks, len(fi.p)).real   # E_j by row
    occ = [i for i, k in enumerate(fi.p) if k]
    t, d = fi.t[:, occ], len(occ)
    prefix = tuple(fi.p[i] for i in occ)
    model = _fock_series(t, fi.gram[np.ix_(occ, occ)],
                         np.einsum("ai,ja,al->jil", t.conj(), proj, t), prefix)
    nvar = d + len(blocks) + 1
    rec = (model, np.eye(nvar), (tuple(range(d)), tuple(range(d, nvar))),
           prefix, sum(fi.p))
    object.__setattr__(fi, "_record", (blocks, rec))
    return rec


def fock_coarse_prob(fi, cp):
    """Probability of coarse output counts b for Fock input p through t: the
    coefficient of x^p y^b y_env^(|p| - |b|) in prod_i ((S o B(y)) x)_i^p_i
    with one y per output block, read off one full sieve grid (module
    docstring).  The input keeps the model, expand and groups of the
    output partition it read last (``_coarse_record``), so a call over
    that partition forms only its count row and folds it."""
    model, expand, groups, prefix, nin = _coarse_record(fi, cp.blocks)
    nout = sum(cp.counts)
    if nout > nin or nin == 0:
        return float(nout == 0)  # a lossy circuit cannot create photons
    return _read_prob(model, expand, 1.0, prefix + cp.counts + (nin - nout,),
                      groups)


def perm_oracle(mat):
    """Permanent by Ryser's formula with Gray-code subset updates."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > _PERM_LIMIT:
        raise TooLarge(f"permanent limited to {_PERM_LIMIT} rows, got {n}")
    sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    sign = -1.0 if n % 2 else 1.0
    gray = 0
    for k in range(1, 2 ** n):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        sums += mat[:, bit] if gray >> bit & 1 else -mat[:, bit]
        parity = -1.0 if bin(gray).count("1") % 2 else 1.0
        total += parity * np.prod(sums)
    return sign * total


def fock_perm_oracle(fi, cp):
    """Coarse output probability through a sum of permanents (exponential)."""
    if not (fi.gram == 1).all():
        raise DomainError("the permanent oracle takes no Gram matrix")
    m = len(fi.p)
    nin = sum(fi.p)
    base = np.block([
        [np.eye(m) - fi.t.conj().T @ fi.t, fi.t.conj().T],
        [fi.t, np.zeros((m, m))],
    ])
    total = 0.0
    for fine in compatible_patterns([list(b) for b in cp.blocks],
                                    list(cp.counts), m):
        if nin + sum(fine) > _PERM_LIMIT:
            raise TooLarge("permanent oracle needs N + |b| <= 16")
        idx = [k for k in range(m) for _ in range(fi.p[k])]
        idx += [m + k for k in range(m) for _ in range(fine[k])]
        sub = base[np.ix_(idx, idx)]
        weight = factorial_product(fi.p) * factorial_product(fine)
        total += perm_oracle(sub).real / weight
    return float(total)


def fock_herald(fi, spec):
    """Heralded state on the kept output ports of a Fock-fed circuit.

    Herald modes and trace_out in ``spec`` index the output ports.  The
    element <v|rho|u> is per(K[R, C]) / (p! h! sqrt(u! v!)), with rows
    R = (p on the inputs, h on the herald ports, v on the kept ports) and
    columns C = (p, h, u).  On each kept port the common part min(u, v)
    stays on the port; each surplus row of a kept port r pairs with a
    surplus column of a port c.  The Schur complement of K on these rows
    and columns is B(y) of the module docstring, with one y W per herald
    block of nonzero count, per kept port and per distinct pair (W =
    T^dag e_c e_r^T T), read at y_env^e, e = |p| - |h| - |u|, off the
    product form F of that B(y).  Elements that share their pairs form one
    class on one full sieve grid.  Traced ports get zero rows of T, so
    their photons join the loss term exactly.  A lossy circuit conserves
    or loses photons, so an element with |u| != |v|, or with more than the
    unheralded photons, is exactly zero.
    """
    if not (fi.gram == 1).all():
        raise DomainError("Fock heralds take no Gram matrix")
    m = len(fi.p)
    kept = kept_modes(spec, m)
    hblocks, hcounts = spec.measurement
    occ = [i for i in range(m) if fi.p[i]]
    t, d, p = fi.t[:, occ], len(occ), [fi.p[i] for i in occ]
    t[list(spec.trace_out)] = 0.0
    # herald blocks of zero count drop out: their y would be pinned at zero
    blocks = [b for b, c in zip(hblocks, hcounts) if c] + [(k,) for k in kept]
    diag = [t[list(b)].conj().T @ t[list(b)] for b in blocks]
    counts = p + [c for c in hcounts if c]
    budget = sum(fi.p) - sum(hcounts)

    def embed(u, v):
        if sum(u) != sum(v) or sum(u) > budget:
            return None
        rows = [k for k, a, b in zip(kept, u, v) for _ in range(b - a)]
        cols = [k for k, a, b in zip(kept, u, v) for _ in range(a - b)]
        pairs = Counter(zip(rows, cols))
        lost = budget - sum(u)
        return (tuple(pairs), [min(a, b) for a, b in zip(u, v)]
                + list(pairs.values()) + [lost], math.factorial(lost))

    def build(pairs):
        w = diag + [np.outer(t[c].conj(), t[r]) for r, c in pairs]
        nvar = d + len(w) + 1
        return (_fock_series(t, 1.0, np.reshape(w, (len(w), d, d)), p),
                np.eye(nvar), (tuple(range(d)), tuple(range(d, nvar))),
                False)

    return herald_density(len(kept), spec.cutoff, counts, embed, build)
