"""Fock matrix elements of Gaussian states and heralded density matrices.

Off-diagonal elements <m|rho|n> need the loop Hafnian of a rectangular
repetition A_{n (+) m}. The embedding construction turns that into a square
repetition of a larger matrix so the roots-of-unity grid applies.
``herald_density`` assembles a heralded density matrix for Gaussian states
(``herald_grouped``) and Fock inputs (``fock_channel.fock_herald``) alike:
an embedder maps each element to its class, counts and norm, or to an
exact zero by a selection rule; each class is one ``sieve_reduce`` call
(a unit-circle grid, plus dilated re-folds of the elements left unsound).
Gaussian heralds marginalize traced modes at the Gaussian level first.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    LengthMismatch,
    NotNormalized,
    PartitionMismatch,
    TooLarge,
    ZeroProbability,
)
from .gaussian import marginal_rep
# lhaf_sieve and blocked_lhaf are not called here: the benchmark tracer
# rebinds them here
from .hafnian import (
    Sieve,
    block_expansion,
    blocked_lhaf,
    factorial_product,
    gaussian_model,
    lhaf_sieve,
    sieve_reduce,
)
from .linalg import require_counts, require_finite, require_modes

PAD = "pad"
_HERALD_DIM_LIMIT = 4096   # (cutoff + 1)^kept: a 256 MiB density matrix


@dataclass(frozen=True)
class HeraldSpec:
    """What is measured, what is kept, what is discarded.

    ``measurement`` is either a fine pattern (sequence of counts, one per
    herald mode) or a pair (blocks, counts) grouping the herald modes; it is
    stored as the pair, blocks as tuples of mode indices.  ``trace_out``
    modes are discarded; ``cutoff`` bounds the Fock index of every remaining
    mode.
    """

    herald_modes: tuple
    measurement: object
    cutoff: int
    trace_out: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "herald_modes", tuple(self.herald_modes))
        object.__setattr__(self, "trace_out", tuple(self.trace_out))
        (cutoff,) = require_counts([self.cutoff], "cutoff")
        object.__setattr__(self, "cutoff", cutoff)
        if set(self.herald_modes) & set(self.trace_out):
            raise PartitionMismatch("herald and traced modes must be disjoint")
        m = self.measurement
        if isinstance(m, (tuple, list)) and len(m) == 2 \
                and not np.isscalar(m[0]):
            blocks, counts = m
        else:
            blocks, counts = [(h,) for h in self.herald_modes], m
        try:
            blocks = tuple(map(tuple, blocks))
        except TypeError:
            raise PartitionMismatch("blocks must be index lists") from None
        counts = require_counts(counts)
        if sorted(i for b in blocks for i in b) != sorted(self.herald_modes):
            raise PartitionMismatch("measurement blocks must cover herald modes")
        if len(blocks) != len(counts):
            raise PartitionMismatch("one count per herald block")
        object.__setattr__(self, "measurement", (blocks, counts))


@dataclass(frozen=True)
class DensityMatrix:
    """Fock-basis density matrix over ``modes`` modes, truncated at cutoff.

    Row/column indices are row-major multi-indices over the per-mode photon
    numbers; ``trace`` of an unnormalized herald output is the (truncated)
    herald probability.
    """

    modes: int
    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        d = (self.cutoff + 1) ** self.modes
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (d, d):
            raise LengthMismatch(f"entries must be {d}x{d}")
        object.__setattr__(self, "entries", entries)

    @property
    def trace(self):
        return complex(np.trace(self.entries))

    def normalized(self):
        """The state divided by its trace; a herald outcome of probability
        zero has no state, and raises."""
        trace = self.trace.real
        if not trace > 0:
            raise ZeroProbability(
                f"cannot normalize a density matrix of trace {trace:.3e}"
            )
        return DensityMatrix(self.modes, self.cutoff, self.entries / trace)


# ---------------------------------------------------------------------------
# embedding construction
# ---------------------------------------------------------------------------

def _embedded_matrix(a, gamma, tags):
    """(a', gamma') of a tag list: a tagged half copies its source row and
    loop weight, a padding half is a zero row with loop weight one."""
    nmodes = len(gamma) // 2
    pad = np.array([tag is PAD for tag in tags])
    idx = [0 if tag is PAD else tag[1] + nmodes * (tag[0] == "bra")
           for tag in tags]
    ap = np.asarray(a, dtype=complex)[np.ix_(idx, idx)]
    gp = np.asarray(gamma, dtype=complex)[idx]
    ap[pad, :] = 0.0
    ap[:, pad] = 0.0
    ap[pad, pad] = 1.0
    gp[pad] = 1.0
    return ap, gp


def _merged_modes(n, m):
    """(tags, t) of the embedding of the (ket n, bra m) pair: the source tag
    of every mode half of the embedded matrix, in order, and its counts.

    The common part min(n, m) stays on the source modes.  A source with d
    surplus copies yields one new mode of count d // 2 (its ket and bra
    halves both carry the source row, so the repetition is entry-identical
    to d // 2 zipped one-photon modes); odd leftovers are zipped across
    sources, with a final padding half if their number is odd.
    """
    tbar = [min(a, b) for a, b in zip(n, m)]
    new_modes = []
    leftovers = []
    for k, (a, b) in enumerate(zip(n, m)):
        d = a - b
        tag = ("ket", k) if d > 0 else ("bra", k)
        d = abs(d)
        if d >= 2:
            new_modes.append((tag, tag, d // 2))
        if d % 2:
            leftovers.append(tag)
    for i in range(0, len(leftovers) - 1, 2):
        new_modes.append((leftovers[i], leftovers[i + 1], 1))
    if len(leftovers) % 2:
        new_modes.append((leftovers[-1], PAD, 1))
    tags = [("ket", k) for k in range(len(n))] + [nm[0] for nm in new_modes]
    tags += [("bra", k) for k in range(len(n))] + [nm[1] for nm in new_modes]
    return tuple(tags), tuple(tbar) + tuple(nm[2] for nm in new_modes)


# ---------------------------------------------------------------------------
# heralded density matrices
# ---------------------------------------------------------------------------

def kept_modes(spec, nmodes):
    """The modes of ``range(nmodes)`` that ``spec`` neither heralds nor
    traces out: the one check of a herald spec against its source, run
    before anything sized by the herald is built.  The indices of the
    measurement blocks, which cover the herald modes, stand for them; an
    empty block is a ``PartitionMismatch`` (``block_expansion``), and a
    dimension (cutoff + 1)^kept above 4096 or herald counts whose prod k!
    is past doubles (``factorial_product``) are ``TooLarge``."""
    named = [i for b in spec.measurement[0] for i in b] + list(spec.trace_out)
    named = require_modes(named, nmodes)
    block_expansion(spec.measurement[0], nmodes)
    factorial_product(spec.measurement[1])
    kept = [i for i in range(nmodes) if i not in named]
    dim = (spec.cutoff + 1) ** len(kept)
    if dim > _HERALD_DIM_LIMIT:
        raise TooLarge(f"herald dimension {dim} exceeds {_HERALD_DIM_LIMIT}")
    return kept


def _herald_parts(rep, spec):
    """Marginalize traced modes and renumber; returns (rep', blocks, counts,
    kept') in the reduced indexing."""
    t = rep.layout.total
    blocks, counts = spec.measurement
    kept = kept_modes(spec, t)
    if kept and spec.cutoff > 170:   # sqrt(171!) is past the double range
        raise TooLarge(f"a Gaussian herald's cutoff {spec.cutoff} exceeds "
                       "170")
    survivors = [i for i in range(t) if i not in spec.trace_out]
    renum = {old: new for new, old in enumerate(survivors)}
    sub = marginal_rep(rep, survivors) if len(survivors) < t else rep
    blocks = [tuple(renum[i] for i in b) for b in blocks]
    kept = [renum[i] for i in kept]
    return sub, blocks, list(counts), kept


def herald_density(nkept, cutoff, counts, embed, build, vacuum=1.0):
    """Unnormalized heralded density matrix over ``nkept`` modes; entry
    [i, j] is <v|rho|u>, ket u = patterns[j] and bra v = patterns[i].

    ``counts`` is the herald outcome, one count per herald variable.
    ``embed(u, v)`` maps an element to (class key, counts of the element's
    own sieve variables, norm factor), or to None when a selection rule
    makes it exactly zero, and ``build(key)`` maps a class to its
    ``Sieve``, the herald variables first.  Elements of one class are one
    generating function read out at different count patterns: one
    ``sieve_reduce`` call per class.  An element is ``vacuum`` times its
    sieve value over prod(counts!) sqrt(u! v!) and its norm factor (the
    e! of e lost photons for a Fock input, 1 for a Gaussian state).  The
    diagonal comes first: the trace sets the scale of the state, and
    off-diagonal elements only need absolute accuracy 1e-9 * trace.
    """
    patterns = list(product(range(cutoff + 1), repeat=nkept))
    dim = len(patterns)
    entries = np.zeros((dim, dim), dtype=complex)
    hfact = factorial_product(counts)

    def fill(pairs, abs_tol):
        classes = {}
        for i, j in pairs:
            element = embed(patterns[j], patterns[i])
            if element is not None:
                key, own, norm = element
                norm *= hfact * math.sqrt(factorial_product(patterns[i])
                                          * factorial_product(patterns[j]))
                classes.setdefault(key, []).append(
                    (i, j, (*counts, *own), norm))
        for key, members in classes.items():
            tols = [None if abs_tol is None else abs_tol * norm / abs(vacuum)
                    for *_, norm in members]
            values = sieve_reduce(build(key),
                                  tuple(ks for _, _, ks, _ in members), tols)
            for (i, j, _, norm), value in zip(members, values):
                val = complex(vacuum * value / norm)
                if j == i:
                    entries[i, i] = val.real  # a probability, up to rounding
                else:
                    entries[i, j] = val
                    entries[j, i] = np.conj(val)

    fill([(i, i) for i in range(dim)], None)
    tol = 1e-9 * abs(np.trace(entries).real)
    fill([(i, j) for i in range(dim) for j in range(i + 1, dim)],
         tol if tol > 0 else None)
    return DensityMatrix(nkept, cutoff, entries)


def herald_grouped(rep, spec):
    """Unnormalized heralded state for a grouped (or fine) herald outcome.

    An element's class is the source map of its embedding
    (``_merged_modes``), which fixes a' and gamma'.  With a zero loop
    vector, an element of odd |u| + |v| is a loop Hafnian of odd size and
    so exactly zero.  After the herald blocks, every embedded mode outside
    them is one sieve variable of its own.  The diagonal class, the one
    that embeds no new mode, generates joint probabilities: real
    coefficients.
    """
    sub, blocks, counts, kept = _herald_parts(rep, spec)
    nmodes = sub.layout.total
    in_herald = {i for b in blocks for i in b}
    zero_loops = not np.any(sub.gamma)

    def embed(u, v):
        if zero_loops and (sum(u) + sum(v)) % 2:
            return None
        ket, bra = [0] * nmodes, [0] * nmodes
        for k, a, b in zip(kept, u, v):
            ket[k], bra[k] = a, b
        tags, t = _merged_modes(ket, bra)
        return tags, [c for k, c in enumerate(t) if k not in in_herald], 1

    def build(tags):
        mprime = len(tags) // 2
        singles = [(k,) for k in range(mprime) if k not in in_herald]
        return Sieve(gaussian_model(*_embedded_matrix(sub.a, sub.gamma, tags)),
                     block_expansion(blocks + singles, mprime),
                     real=mprime == nmodes)

    return herald_density(len(kept), spec.cutoff, counts, embed, build,
                          sub.vacuum_prob)


def fidelity(dm, target):
    """sqrt(<psi|rho|psi>) between a normalized dm and a pure target."""
    target = require_finite(np.asarray(target, dtype=complex).reshape(-1),
                            "target state")
    if target.shape[0] != dm.entries.shape[0]:
        raise LengthMismatch("target length must match the dm dimension")
    if abs(dm.trace.real - 1) > 1e-9:
        raise NotNormalized("density matrix must be normalized")
    if abs(np.linalg.norm(target) - 1) > 1e-9:
        raise NotNormalized("target state must be normalized")
    overlap = (target.conj() @ dm.entries @ target).real
    return math.sqrt(max(overlap, 0.0))
