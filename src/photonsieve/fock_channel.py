"""Fock states through lossy linear circuits.

Output probabilities follow the MacMahon master theorem.  With one variable
per input port (x) and per output port (y), D = diag(x, y) and the 2M x 2M
K = [[I - T^dag T, T^dag], [T, 0]], a Schur complement gives det(I - D K) =
det(I - X(I - T^dag T) - X T^dag Y T), so 1/det(I - D K) = sum Pr(b | p)
x^p y^b, with log series g_k = tr([D K]^k) / k.  Heralded density matrix
elements are permanents of K with different row and column multisets;
``fock_herald`` turns each into a coefficient of the same determinant of a
submatrix of K.  A permanent-based oracle cross-checks both.
"""

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import _real_prob
from .errors import PartitionMismatch, TooLarge
# blocked_lhaf is not called here: the benchmark tracer rebinds it here
from .hafnian import (block_expansion, blocked_lhaf, compatible_patterns,
                      factorial_product, partition_expansion,
                      power_trace_series, sieve_reduce)
from .heralding import herald_density, kept_modes
from .linalg import require_subunitary

_PERM_LIMIT = 16


@dataclass(frozen=True)
class FockInput:
    """Photon counts per input port and the circuit transmission matrix."""

    p: tuple
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        p = tuple(int(x) for x in self.p)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or len(p) != t.shape[0]:
            raise PartitionMismatch("one photon count per circuit port")
        if any(x < 0 for x in p):
            raise PartitionMismatch("photon counts must be non-negative")
        require_subunitary(t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)


def _master_matrix(t):
    """The 2M x 2M K = [[I - T^dag T, T^dag], [T, 0]] of the module
    docstring: rows and columns 0..M-1 are the input ports, M..2M-1 the
    output ports."""
    m = t.shape[0]
    return np.block([[np.eye(m) - t.conj().T @ t, t.conj().T],
                     [t, np.zeros((m, m))]])


def fock_coarse_prob(fi, cp):
    """Probability of coarse output counts b for Fock input p through t: the
    coefficient of x^p y^b in 1/det(I - D K) with one y per output block,
    read off the sieve grid of the 2M x 2M matrix K (module docstring)."""
    m = len(fi.p)
    blocks = [(k,) for k in range(m)]
    blocks += [tuple(m + i for i in blk) for blk in cp.blocks]
    expand = partition_expansion(blocks, 2 * m)
    if sum(cp.counts) > sum(fi.p):
        return 0.0  # a passive lossy circuit cannot create photons
    counts = list(fi.p) + list(cp.counts)
    val = sieve_reduce(partial(power_trace_series, _master_matrix(fi.t)),
                       [counts], expand)[0]
    return _real_prob(val / factorial_product(counts))


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
        if gray >> bit & 1:
            sums += mat[:, bit]
        else:
            sums -= mat[:, bit]
        parity = -1.0 if bin(gray).count("1") % 2 else 1.0
        total += parity * np.prod(sums)
    return sign * total


def fock_perm_oracle(fi, cp):
    """Coarse output probability through a sum of permanents (exponential)."""
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
    stays on the port; each surplus row of one kept port pairs with a
    surplus column of another, and each distinct pair is one new index.
    With K' = K restricted to those rows and columns, the permanent is a
    master-theorem coefficient of 1 / det(I - D K'), and elements that
    share their pairs form one class on one sieve grid.  Traced ports get
    zero rows of T, so their photons join the loss term exactly.  A lossy
    circuit conserves or loses photons, so an element with |u| != |v|, or
    with more than the unheralded photons, is exactly zero.
    """
    m = len(fi.p)
    kept = kept_modes(spec, m)
    t = fi.t.copy()
    t[list(spec.trace_out)] = 0.0
    mat = _master_matrix(t)
    hblocks, hcounts = spec.measurement
    # variables of zero count drop out of the permanent and of K'; input
    # port 0 stays, so that K' is never empty
    inputs = [i for i in range(m) if fi.p[i] or i == 0]
    fixed = [(i,) for i in inputs]
    fixed += [tuple(m + i for i in b) for b, c in zip(hblocks, hcounts) if c]
    counts = [fi.p[i] for i in inputs] + [c for c in hcounts if c]
    ports = [i for b in fixed for i in b]
    blocks = [tuple(ports.index(i) for i in b) for b in fixed]
    ports += [m + k for k in kept]
    budget = sum(fi.p) - sum(hcounts)

    def embed(u, v):
        if sum(u) != sum(v) or sum(u) > budget:
            return None
        rows = [k for k, a, b in zip(kept, u, v) for _ in range(b - a)]
        cols = [k for k, a, b in zip(kept, u, v) for _ in range(a - b)]
        pairs = Counter(zip(rows, cols))
        return (tuple(pairs),
                [min(a, b) for a, b in zip(u, v)] + list(pairs.values()))

    def build(pairs):
        ridx = ports + [m + r for r, _ in pairs]
        cidx = ports + [m + c for _, c in pairs]
        singles = [(k,) for k in range(len(ports) - len(kept), len(ridx))]
        return (partial(power_trace_series, mat[np.ix_(ridx, cidx)]),
                block_expansion(blocks + singles, len(ridx)))

    return herald_density(len(kept), spec.cutoff, counts, embed, build)
