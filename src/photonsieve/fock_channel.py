"""Fock states through lossy linear circuits.

Output probabilities follow the MacMahon master theorem.  With one variable
per input port (x) and per output port (y), D = diag(x, y) and the 2M x 2M
K = [[I - T^dag T, T^dag], [T, 0]], a Schur complement gives det(I - D K) =
det(I - X(I - T^dag T) - X T^dag Y T), so 1/det(I - D K) = sum Pr(b | p)
x^p y^b, with log series g_k = tr([D K]^k) / k.  Heralded states need
separate ket and bra variables for their off-diagonal elements, which this
determinant lacks; they use the doubled 4M x 4M matrix ``build_a_phi``.  A
permanent-based oracle cross-checks both.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import _real_prob
from .errors import PartitionMismatch, TooLarge
from .gaussian import AdjacencyRep, ModeLayout
# blocked_lhaf is not called here: the benchmark tracer rebinds it here
from .hafnian import (blocked_lhaf, compatible_patterns, factorial_product,
                      partition_expansion, power_trace_series, sieve_reduce)
from .heralding import herald_density, partial_trace
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


def build_a_phi(t):
    """Symmetric 4M x 4M matrix encoding the loss channel of ``t``.

    Modes 0..M-1 are the input ports, M..2M-1 the output ports, each doubled
    into ket and bra halves.
    """
    t = np.asarray(t, dtype=complex)
    m = t.shape[0]
    require_subunitary(t)
    eye = np.eye(m)
    z = np.zeros((m, m))
    a = np.block([
        [z, t.conj().T, eye - t.conj().T @ t, z],
        [t.conj(), z, z, z],
        [eye - t.T @ t.conj(), z, z, t.T],
        [z, z, t, z],
    ])
    return a


def _channel_rep(fi):
    m = len(fi.p)
    a = build_a_phi(fi.t)
    return AdjacencyRep(a, np.zeros(4 * m, dtype=complex), 1.0,
                        ModeLayout(2 * m, 1))


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
    t = fi.t
    k = np.block([[np.eye(m) - t.conj().T @ t, t.conj().T],
                  [t, np.zeros((m, m))]])
    counts = list(fi.p) + list(cp.counts)
    val = sieve_reduce(partial(power_trace_series, k), [counts], expand)[0]
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
    """Heralded state on the unmeasured output ports of a Fock-fed circuit.

    Herald modes and trace_out in ``spec`` index the output ports; traced
    ports are removed by a Fock-basis partial trace after assembly.  A
    lossy circuit conserves or loses photons, so only elements whose ket
    and bra each hold at most the unheralded photons are nonzero.
    """
    m = len(fi.p)
    hblocks, hcounts = spec.measurement
    blocks = [(k,) for k in range(m)]
    blocks += [tuple(m + i for i in b) for b in hblocks]
    kept_ports = [i for i in range(m) if i not in spec.herald_modes]
    dm = herald_density(_channel_rep(fi), blocks, list(fi.p) + list(hcounts),
                        [m + i for i in kept_ports], spec.cutoff,
                        budget=sum(fi.p) - sum(hcounts))
    if spec.trace_out:
        drop = [kept_ports.index(i) for i in spec.trace_out]
        dm = partial_trace(dm, drop)
    return dm
