import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonsieve import fock_channel as fc
from photonsieve import hafnian, heralding
from photonsieve.cli import haar_unitary
from photonsieve.distributions import CoarsePattern
from photonsieve.errors import NotSubunitary, PartitionMismatch, TooLarge
from photonsieve.heralding import HeraldSpec
from test_heralding import embedded_element

BS = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def fine_cp(b):
    return CoarsePattern([[k] for k in range(len(b))], list(b))


# -- construction -------------------------------------------------------------

def test_build_a_phi_structure():
    t = 0.9 * BS
    a = fc.build_a_phi(t)
    assert a.shape == (8, 8)
    assert np.allclose(a, a.T)
    assert np.allclose(a[:2, 2:4], t.conj().T)
    assert np.allclose(a[:2, 4:6], np.eye(2) - t.conj().T @ t)


def test_input_validation():
    with pytest.raises(NotSubunitary):
        fc.FockInput((1, 0), 1.1 * np.eye(2))
    with pytest.raises(PartitionMismatch):
        fc.FockInput((1,), np.eye(2))
    with pytest.raises(PartitionMismatch):
        fc.FockInput((-1, 0), np.eye(2))


# -- coarse probabilities -----------------------------------------------------

def test_identity_circuit_passthrough():
    fi = fc.FockInput((2, 1), np.eye(2))
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([2, 1])), 1.0)
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([1, 2])), 0.0,
                      atol=1e-12)
    assert fc.fock_coarse_prob(fi, fine_cp([2, 2])) == 0.0


def test_balanced_splitter_single_photon():
    fi = fc.FockInput((1, 0), BS)
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([1, 0])), 0.5)
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([0, 1])), 0.5)


def test_two_photon_interference():
    fi = fc.FockInput((1, 1), BS)
    assert abs(fc.fock_coarse_prob(fi, fine_cp([1, 1]))) < 1e-12
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([2, 0])), 0.5)
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([0, 2])), 0.5)


def test_lossy_single_mode():
    eta = 0.72
    fi = fc.FockInput((1,), np.array([[np.sqrt(eta)]]))
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([0])), 1 - eta)
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp([1])), eta)
    fi2 = fc.FockInput((2,), np.array([[np.sqrt(eta)]]))
    for k in range(3):
        want = math.comb(2, k) * eta ** k * (1 - eta) ** (2 - k)
        assert np.isclose(fc.fock_coarse_prob(fi2, fine_cp([k])), want)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.sampled_from([2, 3]),
       n=st.integers(16, 20), lost=st.integers(0, 3))
def test_single_port_fock_input_is_multinomial(seed, m, n, lost):
    """|n> in port 0 sends each photon to output j with probability
    |t_j0|^2, or loses it, independently.  Every count is at most 20 and the
    product of the factorials exceeds 2**63, where an int64 product
    wraps."""
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.6, 1.0)) * haar_unitary(m, rng)
    weights = np.abs(t[:, 0]) ** 2
    b = [int(x) for x in rng.multinomial(n - lost, weights / weights.sum())]
    assume(math.prod(math.factorial(k) for k in [n] + b) > 2 ** 63)
    want = (math.factorial(n) / math.factorial(lost)
            * (1 - weights.sum()) ** lost)
    for k, w in zip(b, weights):
        want *= w ** k / math.factorial(k)
    p = (n,) + (0,) * (m - 1)
    got = fc.fock_coarse_prob(fc.FockInput(p, t), fine_cp(b))
    assert np.isclose(got, want, rtol=1e-9, atol=0)


def test_unitary_normalization():
    rng = np.random.default_rng(21)
    u = haar_unitary(3, rng)
    fi = fc.FockInput((1, 2, 0), u)
    n = sum(fi.p)
    cp = CoarsePattern([[0, 1, 2]], [n])
    assert np.isclose(fc.fock_coarse_prob(fi, cp), 1.0, atol=1e-10)
    cp_less = CoarsePattern([[0, 1, 2]], [n - 1])
    assert abs(fc.fock_coarse_prob(fi, cp_less)) < 1e-12


def test_lossy_total_normalization():
    rng = np.random.default_rng(22)
    t = 0.8 * haar_unitary(2, rng)
    fi = fc.FockInput((1, 1), t)
    total = sum(fc.fock_coarse_prob(fi, CoarsePattern([[0, 1]], [n]))
                for n in range(3))
    assert np.isclose(total, 1.0, atol=1e-10)


def test_output_permutation_covariance():
    rng = np.random.default_rng(23)
    t = 0.9 * haar_unitary(3, rng)
    perm = np.zeros((3, 3))
    for i, j in enumerate([2, 0, 1]):
        perm[i, j] = 1.0
    fi = fc.FockInput((1, 1, 0), t)
    fi_p = fc.FockInput((1, 1, 0), perm @ t)
    b = [0, 2, 0]
    assert np.isclose(fc.fock_coarse_prob(fi, fine_cp(b)),
                      fc.fock_coarse_prob(fi_p, fine_cp(perm @ b)),
                      rtol=1e-10)


# -- permanent oracle ---------------------------------------------------------

def test_perm_oracle_small():
    assert np.isclose(fc.perm_oracle([[3.0]]), 3.0)
    assert np.isclose(fc.perm_oracle([[1, 2], [3, 4]]), 1 * 4 + 2 * 3)
    assert np.isclose(fc.perm_oracle(np.ones((4, 4))), math.factorial(4))
    with pytest.raises(TooLarge):
        fc.perm_oracle(np.ones((17, 17)))


@pytest.mark.parametrize("seed", range(5))
def test_cross_oracle_random(seed):
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(2, 4))
    t = rng.uniform(0.6, 0.95) * haar_unitary(m, rng)
    p = tuple(int(x) for x in rng.integers(0, 3, size=m))
    if sum(p) == 0:
        p = (1,) + p[1:]
    fi = fc.FockInput(p, t)
    blocks = [[0], list(range(1, m))] if m > 1 else [[0]]
    for total in range(sum(p) + 1):
        for b0 in range(total + 1):
            counts = [b0, total - b0] if m > 1 else [b0]
            if m == 1 and b0 != total:
                continue
            cp = CoarsePattern(blocks, counts)
            assert np.isclose(fc.fock_coarse_prob(fi, cp),
                              fc.fock_perm_oracle(fi, cp),
                              rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [1, 2]],   # overlapping output blocks
    [[0], [1]],         # output port 2 uncovered
    [[0, 1], [2, 3]],   # output port 3 does not exist
    [[0, 1, 2], []],    # empty block
])
def test_malformed_output_blocks_raise(blocks):
    fi = fc.FockInput((1, 1, 0), 0.9 * haar_unitary(3,
                                                    np.random.default_rng(5)))
    with pytest.raises(PartitionMismatch):
        fc.fock_coarse_prob(fi, CoarsePattern(blocks, [1, 0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       photons=st.integers(0, 14), unitary=st.booleans())
def test_master_theorem_matches_doubled_adjacency(seed, m, photons, unitary):
    """The 2M x 2M master-theorem series gives the blocked loop Hafnian of
    the 4M x 4M ket/bra adjacency, on random sub-unitary circuits, input
    ports left empty and coarse output blocks.  Input plus output photons
    may exceed the permanent oracle's 16 rows."""
    rng = np.random.default_rng(seed)
    s = np.ones(m) if unitary else np.sqrt(rng.uniform(0.3, 1.0, m))
    t = haar_unitary(m, rng) @ np.diag(s) @ haar_unitary(m, rng)
    occupied = rng.random(m) < 0.7
    occupied[rng.integers(m)] = True
    w = rng.dirichlet(np.ones(m)) * occupied
    p = [int(x) for x in rng.multinomial(photons, w / w.sum())]
    nb = int(rng.integers(1, m + 1))
    labels = rng.permutation(np.concatenate([np.arange(nb),
                                             rng.integers(0, nb, m - nb)]))
    blocks = [[int(i) for i in np.flatnonzero(labels == j)]
              for j in range(nb)]
    b = [int(x) for x in rng.multinomial(rng.integers(0, photons + 1),
                                         np.ones(nb) / nb)]
    counts = p + b
    assume(math.prod(k + 1 for k in counts) <= 3000)  # grid size
    got = fc.fock_coarse_prob(fc.FockInput(p, t), CoarsePattern(blocks, b))
    doubled = [(k,) for k in range(m)] + [tuple(m + i for i in blk)
                                          for blk in blocks]
    want = hafnian.blocked_lhaf(fc.build_a_phi(t), None, doubled, counts)
    assert abs(got - want / hafnian.factorial_product(counts)) <= 1e-11


# -- heralded states ----------------------------------------------------------

def test_herald_splitter_vacuum_outcome():
    # |1,0> on a balanced splitter, heralding vacuum on port 1 leaves
    # the photon on port 0 with probability one half
    fi = fc.FockInput((1, 0), BS)
    dm = fc.fock_herald(fi, HeraldSpec([1], [0], cutoff=2))
    assert np.isclose(dm.trace.real, 0.5, atol=1e-10)
    assert np.isclose(dm.entries[1, 1].real, 0.5, atol=1e-10)
    off = dm.entries.copy()
    off[1, 1] = 0
    assert np.max(np.abs(off)) < 1e-10


def test_herald_more_than_input_is_zero():
    fi = fc.FockInput((1, 0), BS)
    dm = fc.fock_herald(fi, HeraldSpec([1], [2], cutoff=2))
    assert np.max(np.abs(dm.entries)) == 0.0


def test_herald_outcomes_sum_to_marginal():
    rng = np.random.default_rng(31)
    t = 0.85 * haar_unitary(2, rng)
    fi = fc.FockInput((1, 1), t)
    cutoff = 2
    full = fc.fock_herald(fi, HeraldSpec([], [], cutoff=cutoff))
    marg = heralding.partial_trace(full, [1])
    acc = np.zeros_like(marg.entries)
    for k in range(cutoff + 1):
        acc += fc.fock_herald(fi, HeraldSpec([1], [k], cutoff=cutoff)).entries
    assert np.allclose(acc, marg.entries, atol=1e-10)


def test_herald_diagonal_matches_coarse_prob():
    rng = np.random.default_rng(32)
    t = 0.9 * haar_unitary(2, rng)
    fi = fc.FockInput((2, 0), t)
    dm = fc.fock_herald(fi, HeraldSpec([1], [1], cutoff=2))
    for n in range(3):
        want = fc.fock_coarse_prob(fi, fine_cp([n, 1]))
        assert np.isclose(dm.entries[n, n].real, want, atol=1e-10)


def test_herald_grouped_equals_fine_sum():
    rng = np.random.default_rng(33)
    t = 0.9 * haar_unitary(3, rng)
    fi = fc.FockInput((1, 1, 0), t)
    total = 1
    grouped = fc.fock_herald(
        fi, HeraldSpec([0, 1], ([(0, 1)], (total,)), cutoff=2))
    acc = np.zeros_like(grouped.entries)
    for k in range(total + 1):
        fine = fc.fock_herald(
            fi, HeraldSpec([0, 1], [k, total - k], cutoff=2))
        acc += fine.entries
    assert np.allclose(grouped.entries, acc, atol=1e-10)


def test_herald_trace_out():
    rng = np.random.default_rng(34)
    t = 0.8 * haar_unitary(3, rng)
    fi = fc.FockInput((1, 1, 0), t)
    direct = fc.fock_herald(
        fi, HeraldSpec([0], [1], cutoff=2, trace_out=[2]))
    full = fc.fock_herald(fi, HeraldSpec([0], [1], cutoff=2))
    traced = heralding.partial_trace(full, [1])
    assert np.allclose(direct.entries, traced.entries, atol=1e-10)


def test_herald_hermitian_with_complex_circuit():
    rng = np.random.default_rng(35)
    t = 0.85 * haar_unitary(2, rng)
    fi = fc.FockInput((2, 1), t)
    dm = fc.fock_herald(fi, HeraldSpec([1], [1], cutoff=2))
    assert np.allclose(dm.entries, dm.entries.conj().T)
    evals = np.linalg.eigvalsh(dm.entries)
    assert evals.min() > -1e-10


def random_fock_herald(seed):
    rng = np.random.default_rng(seed)
    t = 0.9 * haar_unitary(3, rng)
    fi = fc.FockInput(tuple(int(x) for x in rng.integers(0, 3, 3)), t)
    spec = HeraldSpec([0], [int(rng.integers(0, 2))], cutoff=2)
    return fi, spec


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_herald_odd_parity_elements_are_exact_zeros(seed):
    fi, spec = random_fock_herald(seed)
    dm = fc.fock_herald(fi, spec)
    photons = np.array([sum(p) for p in itertools.product(range(3),
                                                          repeat=2)])
    odd = (photons[:, None] + photons[None, :]) % 2 == 1
    assert np.all(dm.entries[odd] == 0.0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_herald_matches_per_element_oracle(seed):
    fi, spec = random_fock_herald(seed)
    dm = fc.fock_herald(fi, spec)
    rep = fc._channel_rep(fi)
    blocks = [(0,), (1,), (2,), (3,)]
    counts = list(fi.p) + list(spec.measurement[1])
    budget = sum(fi.p) - sum(spec.measurement[1])
    patterns = list(itertools.product(range(3), repeat=2))
    want = np.zeros_like(dm.entries)
    for i, v in enumerate(patterns):
        for j, u in enumerate(patterns):
            if max(sum(u), sum(v)) <= budget:
                want[i, j] = embedded_element(rep, blocks, counts, [4, 5],
                                              u, v)
    assert np.max(np.abs(dm.entries - want)) <= 1e-12 * max(
        abs(np.trace(want).real), 1e-300)
