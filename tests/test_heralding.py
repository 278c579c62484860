import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsieve import distributions as dist
from photonsieve import fock_channel, gaussian, hafnian, heralding
from photonsieve.cli import haar_unitary
from photonsieve.errors import (
    DomainError,
    IndexOutOfRange,
    LengthMismatch,
    NonFinite,
    NotNormalized,
    PartitionMismatch,
    TooLarge,
    ZeroProbability,
)

from references import partial_trace

L1 = gaussian.ModeLayout(1)
L2 = gaussian.ModeLayout(2)


def rand_rep(rng, nmodes, with_gamma=True):
    a = rng.normal(size=(2 * nmodes, 2 * nmodes)) \
        + 1j * rng.normal(size=(2 * nmodes, 2 * nmodes))
    a = (a + a.T) / 2
    g = np.zeros(2 * nmodes, dtype=complex)
    if with_gamma:
        g = rng.normal(size=2 * nmodes) + 1j * rng.normal(size=2 * nmodes)
    return gaussian.AdjacencyRep(a, g, 1.0, gaussian.ModeLayout(nmodes))


def tmsv(r, eta_herald=1.0):
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = gaussian.apply_channel(gaussian.from_squeezing([r, -r], L2), bs)
    if eta_herald < 1.0:
        s = gaussian.apply_channel(s, np.diag([1.0, np.sqrt(eta_herald)]))
    return gaussian.to_adjacency(s)


def embedding(rep, n, m):
    """(a', gamma', t, source tags) of the square-repetition embedding of
    the (ket n, bra m) repetition of ``rep``."""
    tags, t = heralding._merged_modes(n, m)
    return (*heralding._embedded_matrix(rep.a, rep.gamma, tags), t, tags)


def embedded_lhaf(ap, gp, t):
    rep_mat, rep_g = hafnian.repeat_pattern(ap, gp, t)
    return hafnian.lhaf_oracle(rep_mat, rep_g)


def direct_lhaf(rep, n, m):
    rep_mat, rep_g = hafnian.repeat_pattern(rep.a, rep.gamma, n, m)
    return hafnian.lhaf_oracle(rep_mat, rep_g)


# -- embedding ----------------------------------------------------------------

def test_embedding_diagonal_case():
    rng = np.random.default_rng(0)
    rep = rand_rep(rng, 3)
    ap, gp, t, _ = embedding(rep, [1, 0, 2], [1, 0, 2])
    assert np.allclose(ap, rep.a)
    assert np.allclose(gp, rep.gamma)
    assert t == (1, 0, 2)


def test_embedding_worked_example_shape():
    rng = np.random.default_rng(1)
    rep = rand_rep(rng, 2)
    ap, gp, t, _ = embedding(rep, [0, 2], [1, 1])
    assert len(t) == 3
    assert t == (0, 1, 1)
    assert np.isclose(embedded_lhaf(ap, gp, t),
                      direct_lhaf(rep, [0, 2], [1, 1]), rtol=1e-9)


def test_embedding_odd_total_padding():
    rng = np.random.default_rng(2)
    rep = rand_rep(rng, 3)
    n, m = [1, 0, 2], [0, 1, 1]  # total 5 photons: padding half required
    ap, gp, t, tags = embedding(rep, n, m)
    assert heralding.PAD in tags
    assert np.isclose(embedded_lhaf(ap, gp, t), direct_lhaf(rep, n, m),
                      rtol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_embedding_contract_random(seed):
    rng = np.random.default_rng(100 + seed)
    nmodes = rng.integers(1, 4)
    rep = rand_rep(rng, nmodes)
    while True:
        n = rng.integers(0, 3, size=nmodes)
        m = rng.integers(0, 3, size=nmodes)
        if n.sum() + m.sum() <= 8:
            break
    want = direct_lhaf(rep, list(n), list(m))
    got = embedded_lhaf(*embedding(rep, list(n), list(m))[:3])
    assert np.isclose(got, want, rtol=1e-9, atol=1e-9)


def test_merged_embedding_is_compact():
    rng = np.random.default_rng(3)
    rep = rand_rep(rng, 1)
    ap, gp, t, _ = embedding(rep, [6], [0])
    assert t == (0, 3)  # one merged mode instead of three
    assert np.isclose(embedded_lhaf(ap, gp, t), direct_lhaf(rep, [6], [0]),
                      rtol=1e-9)


# -- fock elements ------------------------------------------------------------

def fock_index(dm, pattern):
    """Row of the Fock pattern in ``dm``: row-major over cutoff + 1 photon
    numbers per mode."""
    return np.ravel_multi_index(pattern, (dm.cutoff + 1,) * dm.modes)


def fock_element(rep, m, n, cutoff=2):
    """<m|rho|n>, read off the state over every mode of ``rep``: a herald
    with no herald modes."""
    dm = heralding.herald_grouped(rep, heralding.HeraldSpec((), (), cutoff))
    return dm.entries[fock_index(dm, m), fock_index(dm, n)]


def test_fock_element_vacuum_and_diagonal():
    rep = tmsv(0.6)
    assert np.isclose(fock_element(rep, [0, 0], [0, 0]), rep.vacuum_prob)
    for pat in ([1, 1], [2, 2], [0, 1]):
        assert np.isclose(fock_element(rep, pat, pat).real,
                          dist.prob_fine(rep, pat), atol=1e-10)


def test_fock_element_coherent():
    alpha = 0.7 - 0.4j
    s = gaussian.displace(gaussian.from_squeezing([0.0], L1), [alpha])
    rep = gaussian.to_adjacency(s)
    for m in range(3):
        for n in range(3):
            # <m|rho|n> = <m|alpha><alpha|n>
            want = (np.exp(-abs(alpha) ** 2) * alpha ** m
                    * np.conj(alpha) ** n
                    / math.sqrt(math.factorial(n) * math.factorial(m)))
            got = fock_element(rep, [m], [n])
            assert np.isclose(got, want, atol=1e-12)


def test_fock_element_tmsv_magnitudes():
    r = 0.5
    rep = tmsv(r)
    got = fock_element(rep, [1, 1], [2, 2])
    assert np.isclose(abs(got), np.tanh(r) ** 3 / np.cosh(r) ** 2, atol=1e-10)
    assert abs(fock_element(rep, [1, 0], [1, 1])) < 1e-12


def test_fock_element_hermiticity():
    rep = tmsv(0.4, eta_herald=0.8)
    a = fock_element(rep, [2, 1], [1, 2])
    b = fock_element(rep, [1, 2], [2, 1])
    assert np.isclose(a, np.conj(b), atol=1e-10)


# -- heralding ----------------------------------------------------------------

def test_herald_vacuum_trivial():
    rep = gaussian.to_adjacency(gaussian.from_squeezing([0.0, 0.0], L2))
    spec = heralding.HeraldSpec(herald_modes=[0], measurement=[0], cutoff=2)
    dm = heralding.herald_grouped(rep, spec)
    assert np.isclose(dm.trace, 1.0, atol=1e-12)
    assert np.isclose(dm.entries[0, 0], 1.0, atol=1e-12)
    assert np.max(np.abs(dm.entries.flatten()[1:])) < 1e-12


def test_herald_tmsv_collapse():
    r = 0.65
    rep = tmsv(r)
    for n in range(3):
        spec = heralding.HeraldSpec(herald_modes=[1], measurement=[n],
                                    cutoff=4)
        dm = heralding.herald_grouped(rep, spec)
        idx = fock_index(dm, [n])
        assert np.isclose(dm.entries[idx, idx].real,
                          np.tanh(r) ** (2 * n) / np.cosh(r) ** 2,
                          atol=1e-10)
        off = dm.entries.copy()
        off[idx, idx] = 0
        assert np.max(np.abs(off)) < 1e-10


def test_herald_fine_matches_fock_elements():
    rep = tmsv(0.5, eta_herald=0.7)
    spec = heralding.HeraldSpec(herald_modes=[1], measurement=[1], cutoff=3)
    dm = heralding.herald_grouped(rep, spec)
    for u in range(4):
        for v in range(4):
            want = fock_element(rep, [v, 1], [u, 1], cutoff=3)
            assert np.isclose(dm.entries[fock_index(dm, [v]),
                                         fock_index(dm, [u])],
                              want, atol=1e-10)
    # lossy herald arm: support leaks above the heralded photon number
    assert dm.entries[fock_index(dm, [2]), fock_index(dm, [2])].real > 1e-6


def test_herald_grouped_singletons_equal_fine():
    rep = gaussian.to_adjacency(gaussian.apply_channel(
        gaussian.from_squeezing([0.6, -0.4, 0.5], gaussian.ModeLayout(3)),
        0.9 * haar_unitary(3, 7)))
    fine = heralding.herald_grouped(
        rep, heralding.HeraldSpec([0, 1], [1, 1], cutoff=2))
    grouped = heralding.herald_grouped(
        rep, heralding.HeraldSpec([0, 1], ([(0,), (1,)], (1, 1)), cutoff=2))
    assert np.allclose(fine.entries, grouped.entries, atol=1e-10)


def test_herald_grouped_equals_fine_sum():
    rep = gaussian.to_adjacency(gaussian.apply_channel(
        gaussian.from_squeezing([0.6, -0.4, 0.5], gaussian.ModeLayout(3)),
        0.85 * haar_unitary(3, 8)))
    total = 2
    grouped = heralding.herald_grouped(
        rep, heralding.HeraldSpec([0, 1], ([(0, 1)], (total,)), cutoff=2))
    acc = np.zeros_like(grouped.entries)
    for k in range(total + 1):
        fine = heralding.herald_grouped(
            rep, heralding.HeraldSpec([0, 1], [k, total - k], cutoff=2))
        acc += fine.entries
    assert np.allclose(grouped.entries, acc, atol=1e-9)


def test_herald_trace_is_coarse_probability():
    rep = gaussian.to_adjacency(gaussian.apply_channel(
        gaussian.from_squeezing([0.5, -0.5], L2),
        0.8 * haar_unitary(2, 9)))
    spec = heralding.HeraldSpec([0], [2], cutoff=14)
    dm = heralding.herald_grouped(rep, spec)
    # trace over a generous cutoff approaches the marginal herald probability
    marg = gaussian.marginal_state(
        gaussian.GaussianState(
            np.linalg.inv(np.eye(4) - np.kron(np.array([[0, 1], [1, 0]]),
                                              np.eye(2)) @ rep.a),
            np.zeros(4), L2), [0])
    p2 = dist.prob_fine(gaussian.to_adjacency(marg), [2])
    assert np.isclose(dm.trace.real, p2, atol=1e-8)


def test_trace_out_equals_assembled_partial_trace():
    rng = np.random.default_rng(10)
    # weak squeezing keeps the traced mode's tail above the cutoff below
    # the comparison tolerance (the direct path traces exactly, the
    # reference truncates the traced mode at the cutoff)
    rep = gaussian.to_adjacency(gaussian.apply_channel(
        gaussian.from_squeezing([0.3, -0.25, 0.2], gaussian.ModeLayout(3)),
        0.9 * haar_unitary(3, rng)))
    cutoff = 6
    spec_direct = heralding.HeraldSpec([0], [1], cutoff=cutoff,
                                       trace_out=[2])
    direct = heralding.herald_grouped(rep, spec_direct)
    spec_full = heralding.HeraldSpec([0], [1], cutoff=cutoff)
    full = heralding.herald_grouped(rep, spec_full)
    traced = partial_trace(full, [1])
    assert np.allclose(direct.entries, traced.entries, atol=1e-6)


def test_partial_trace_tmsv_thermal():
    r = 0.6
    rep = tmsv(r)
    spec = heralding.HeraldSpec(herald_modes=[], measurement=[], cutoff=6)
    dm = heralding.herald_grouped(rep, spec)
    red = partial_trace(dm, [1])
    for n in range(5):
        assert np.isclose(red.entries[n, n].real,
                          np.tanh(r) ** (2 * n) / np.cosh(r) ** 2,
                          atol=1e-10)
    same = partial_trace(dm, [])
    assert np.allclose(same.entries, dm.entries)


def test_fidelity():
    psi = np.zeros(4)
    psi[2] = 1.0
    dm = heralding.DensityMatrix(1, 3, np.outer(psi, psi))
    assert np.isclose(heralding.fidelity(dm, psi), 1.0)
    phi = np.zeros(4)
    phi[1] = 1.0
    assert np.isclose(heralding.fidelity(dm, phi), 0.0)
    with pytest.raises(NotNormalized):
        heralding.fidelity(heralding.DensityMatrix(1, 3, 2 * np.outer(psi, psi)),
                           psi)
    with pytest.raises(NotNormalized):
        heralding.fidelity(dm, 2 * psi)
    with pytest.raises(LengthMismatch):
        heralding.fidelity(dm, np.ones(3))
    with pytest.raises(NonFinite):
        heralding.fidelity(dm, [np.nan, 0, 0, 0])


_REP3 = gaussian.to_adjacency(gaussian.from_squeezing(
    [0.5, 0.3, 0.2], gaussian.ModeLayout(3)))
_FOCK3 = fock_channel.FockInput((1, 1, 1), np.sqrt(0.9) * haar_unitary(3, 3))


@pytest.mark.parametrize("call, error", [
    (lambda: heralding.HeraldSpec([0], [1], cutoff=1, trace_out=[0]),
     PartitionMismatch),
    (lambda: heralding.DensityMatrix(1, 1, np.eye(3)), LengthMismatch),
    (lambda: partial_trace(
        heralding.DensityMatrix(2, 1, np.eye(4)), [2]), IndexOutOfRange),
    (lambda: partial_trace(
        heralding.DensityMatrix(2, 1, np.eye(4)), [1, 1]), IndexOutOfRange),
    (lambda: heralding.HeraldSpec([0], [2.9], cutoff=3), DomainError),
    (lambda: heralding.HeraldSpec([0], [1], cutoff=2.5), DomainError),
    (lambda: heralding.kept_modes(
        heralding.HeraldSpec([0], ([[0.0]], [1]), cutoff=1), 2),
     IndexOutOfRange),
    (lambda: heralding.herald_grouped(_REP3, heralding.HeraldSpec(
        [0], ([(0,), ()], (1, 1)), cutoff=1)), PartitionMismatch),
    (lambda: heralding.herald_grouped(_REP3, heralding.HeraldSpec(
        [0], ([(0,), ()], (1, 0)), cutoff=1)), PartitionMismatch),
    (lambda: fock_channel.fock_herald(_FOCK3, heralding.HeraldSpec(
        [0], ([(0,), ()], (1, 1)), cutoff=1)), PartitionMismatch),
    (lambda: fock_channel.fock_herald(_FOCK3, heralding.HeraldSpec(
        [0], ([(0,), ()], (1, 0)), cutoff=1)), PartitionMismatch),
    (lambda: fock_channel.fock_herald(fock_channel.FockInput(
        (1, 0, 0), np.eye(3)), heralding.HeraldSpec(
        [0], ([(0,), ()], (1, 1)), cutoff=1)), PartitionMismatch),
    (lambda: heralding.HeraldSpec([0, 1], [[0, 1], [2]], 3),
     PartitionMismatch),
], ids=["herald-traced-overlap", "entries-shape",
        "trace-mode", "trace-repeat", "herald-fraction", "cutoff-fraction",
        "block-index-type", "grouped-empty-block", "grouped-empty-block-0",
        "fock-empty-block", "fock-empty-block-0",
        "fock-empty-block-no-element", "blocks-no-sequences"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()


# -- shared-grid assembly -----------------------------------------------------

def random_herald(seed, displaced, grouped, kept):
    """A lossy squeezed (optionally displaced) state with a herald on the
    first modes and ``kept`` supported modes after them."""
    rng = np.random.default_rng(seed)
    nherald = 2 if grouped else 1
    nmodes = nherald + kept
    lay = gaussian.ModeLayout(nmodes)
    s = gaussian.apply_channel(
        gaussian.from_squeezing(rng.uniform(0.2, 0.6, nmodes), lay),
        0.9 * haar_unitary(nmodes, rng))
    if displaced:
        s = gaussian.displace(
            s, 0.3 * (rng.normal(size=nmodes) + 1j * rng.normal(size=nmodes)))
    herald = list(range(nherald))
    if grouped:
        measurement = ([tuple(herald)], (int(rng.integers(1, 3)),))
    else:
        measurement = [int(rng.integers(0, 3))]
    return gaussian.to_adjacency(s), herald, measurement


def embedded_element(rep, blocks, counts, kept, u, v):
    """<v|rho|u> over the ``kept`` modes, ket u and bra v, for the herald
    outcome ``counts`` over ``blocks``: the blocked loop Hafnian of its own
    embedding (``embedding``) on its own sieve grid, with no
    tolerance relaxation."""
    n = [0] * rep.layout.total
    m = [0] * rep.layout.total
    for k, a, b in zip(kept, u, v):
        n[k], m[k] = a, b
    ap, gp, t, _ = embedding(rep, n, m)
    in_herald = {i for b in blocks for i in b}
    singles = [k for k in range(len(t)) if k not in in_herald]
    val = hafnian.blocked_lhaf(
        ap, gp, [tuple(b) for b in blocks] + [(k,) for k in singles],
        list(counts) + [t[k] for k in singles])
    norm = hafnian.factorial_product(counts) * math.sqrt(
        hafnian.factorial_product(u) * hafnian.factorial_product(v))
    return rep.vacuum_prob * val / norm


def per_element_oracle(rep, spec):
    """The density matrix element by element, each from
    ``embedded_element``."""
    sub, blocks, counts, kept = heralding._herald_parts(rep, spec)
    patterns = list(itertools.product(range(spec.cutoff + 1),
                                      repeat=len(kept)))
    dim = len(patterns)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(i, dim):
            out[i, j] = embedded_element(
                sub, blocks, counts, kept, patterns[j], patterns[i])
            out[j, i] = np.conj(out[i, j])
    return out


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), displaced=st.booleans(),
       grouped=st.booleans(), kept=st.integers(1, 2))
def test_shared_grid_matches_per_element_oracle(seed, displaced, grouped,
                                                kept):
    rep, herald, measurement = random_herald(seed, displaced, grouped, kept)
    spec = heralding.HeraldSpec(herald, measurement, cutoff=5 - kept)
    dm = heralding.herald_grouped(rep, spec)
    want = per_element_oracle(rep, spec)
    scale = abs(np.trace(want).real)
    assert np.max(np.abs(dm.entries - want)) <= 1e-12 * scale
    assert np.array_equal(dm.entries, dm.entries.conj().T)
    assert np.linalg.eigvalsh(dm.entries).min() >= -1e-12 * scale


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), grouped=st.booleans(),
       kept=st.integers(1, 2))
def test_odd_parity_elements_are_exact_zeros(seed, grouped, kept):
    rep, herald, measurement = random_herald(seed, False, grouped, kept)
    spec = heralding.HeraldSpec(herald, measurement, cutoff=5 - kept)
    dm = heralding.herald_grouped(rep, spec)
    photons = np.array([sum(p) for p in itertools.product(
        range(spec.cutoff + 1), repeat=kept)])
    odd = (photons[:, None] + photons[None, :]) % 2 == 1
    assert np.all(dm.entries[odd] == 0.0)
    assert np.all(dm.entries[~odd] != 0.0)


def test_displaced_odd_elements_are_not_zeroed():
    rep, herald, measurement = random_herald(3, True, False, 1)
    dm = heralding.herald_grouped(
        rep, heralding.HeraldSpec(herald, measurement, cutoff=3))
    assert abs(dm.entries[0, 1]) > 1e-6


def test_zero_probability_herald_does_not_normalize():
    rep = gaussian.to_adjacency(gaussian.from_squeezing([0.0, 0.0], L2))
    dm = heralding.herald_grouped(
        rep, heralding.HeraldSpec(herald_modes=[0], measurement=[1],
                                  cutoff=2))
    assert dm.trace == 0
    with pytest.raises(ZeroProbability):
        dm.normalized()


@pytest.mark.parametrize("herald, trace_out", [
    ([0], [7]), ([0], [-1]), ([0], [2, 2]), ([3], []), ([-1], []),
    ([0, 0], []),
])
def test_herald_mode_out_of_range_raises(herald, trace_out):
    rep, _, _ = random_herald(7, False, False, 2)
    spec = heralding.HeraldSpec(herald, [0] * len(herald), cutoff=1,
                                trace_out=trace_out)
    with pytest.raises(IndexOutOfRange):
        heralding.herald_grouped(rep, spec)


def test_herald_dimension_is_bounded():
    """A herald whose density matrix could not be allocated, 1001^2 rows
    for two kept modes at cutoff 1000, is ``TooLarge`` before any pattern
    is built; so is one row past 4096 on one kept mode, and a Gaussian
    herald with a kept mode past Fock index 170, whose sqrt(171!) is past
    doubles, and a herald count of 172, whose 172! is: its 3721 x 3721
    entries (about 222 MB) are never allocated.  A Fock herald at cutoff
    200, whose elements past the photon budget are exact zeros, and a
    Gaussian herald with no kept mode at cutoff 500 still return their
    states."""
    rep = gaussian.to_adjacency(gaussian.from_squeezing(
        [0.3, 0.2, 0.1], gaussian.ModeLayout(3)))
    with mock.patch.object(heralding, "product",
                           side_effect=AssertionError("patterns built")):
        for spec in (heralding.HeraldSpec([0], [1], cutoff=1000),
                     heralding.HeraldSpec([0], [1], cutoff=4096,
                                          trace_out=[2])):
            with pytest.raises(TooLarge):
                heralding.herald_grouped(rep, spec)
        with pytest.raises(TooLarge, match="cutoff 171"):
            heralding.herald_grouped(rep, heralding.HeraldSpec(
                [0], [1], cutoff=171, trace_out=[2]))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="172"):
                heralding.herald_grouped(rep, heralding.HeraldSpec(
                    [0], [172], cutoff=60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
    fi = fock_channel.FockInput((1, 1, 0), 0.9 * haar_unitary(3, 7))
    dm = fock_channel.fock_herald(fi, heralding.HeraldSpec([0, 1], [1, 0],
                                                           cutoff=200))
    assert dm.entries.shape == (201, 201)
    assert dm.trace.real > 0 and not dm.entries[2:].any()
    dm = heralding.herald_grouped(rep, heralding.HeraldSpec(
        [0], [2], cutoff=500, trace_out=[1, 2]))
    assert dm.entries.shape == (1, 1) and dm.trace.real > 0


def test_herald_spec_normalizes_measurement():
    fine = heralding.HeraldSpec([2, 0], [1, 3], cutoff=1)
    assert fine.measurement == (((2,), (0,)), (1, 3))
    grouped = heralding.HeraldSpec([0, 2], ([[0, 2]], [4]), cutoff=1)
    assert grouped.measurement == (((0, 2),), (4,))
    listed = heralding.HeraldSpec([0, 1], [[(0, 1)], [2]], cutoff=1)
    assert listed.measurement == (((0, 1),), (2,))
    with pytest.raises(PartitionMismatch):
        heralding.HeraldSpec([0, 1], ([(0,)], (1,)), cutoff=1)
    with pytest.raises(PartitionMismatch):
        heralding.HeraldSpec([0, 1], [1], cutoff=1)
    for negative in ([-1], ([(0,)], (-1,))):
        with pytest.raises(DomainError):
            heralding.HeraldSpec([0], negative, cutoff=2)
