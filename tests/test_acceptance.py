"""End-to-end acceptance checks: oracle equivalences, analytic values,
published fidelity targets, cross-module consistency, and performance
orderings."""

import itertools
import math
import time

import numpy as np
import pytest

from photonsieve import distributions as dist
from photonsieve import fock_channel as fc
from photonsieve import gaussian, hafnian, heralding, phasespace
from photonsieve.cli import haar_unitary
from photonsieve.distributions import CoarsePattern
from photonsieve.heralding import HeraldSpec


def rand_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.T) / 2


def close(a, b, rtol=1e-9, atol=1e-9):
    return np.isclose(a, b, rtol=rtol, atol=atol)


# 1. sieve vs enumeration oracle for plain loop Hafnians -----------------------

def test_lhaf_sieve_matches_enumeration_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(1, 5))  # doubled dimension 2m <= 8
        a = rand_symmetric(rng, 2 * m)
        g = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
        got = hafnian.lhaf_sieve(a, g, [1] * m)
        want = hafnian.lhaf_oracle(a, g)
        assert close(got, want)
    assert time.perf_counter() - t0 < 10.0


# 2. blocked sieve vs combinatorial fine-pattern sum ---------------------------

def test_blocked_lhaf_matches_combinatorial_sum():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    cases = 0
    while cases < 50:
        m = int(rng.integers(1, 5))
        a = rand_symmetric(rng, 2 * m)
        g = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
        perm = list(rng.permutation(m))
        nblocks = int(rng.integers(1, m + 1))
        cuts = sorted(rng.choice(range(1, m), size=nblocks - 1,
                                 replace=False)) if nblocks > 1 else []
        blocks, start = [], 0
        for cut in list(cuts) + [m]:
            blocks.append(tuple(perm[start:cut]))
            start = cut
        counts = [int(c) for c in rng.integers(0, 3, size=len(blocks))]
        if sum(counts) > 6:
            continue
        got = hafnian.blocked_lhaf(a, g, blocks, counts)
        want = hafnian.blocked_lhaf_combinatorial(a, g, blocks, counts)
        assert close(got, want)
        cases += 1
    assert time.perf_counter() - t0 < 30.0


# 3. closed-form single- and two-mode distributions ----------------------------

def test_analytic_state_distributions():
    l1, l2 = gaussian.ModeLayout(1), gaussian.ModeLayout(2)
    r = 0.9
    sq = gaussian.to_adjacency(gaussian.from_squeezing([r], l1))
    th, ch = math.tanh(r), math.cosh(r)
    for n in range(21):
        if n % 2:
            want = 0.0
        else:
            k = n // 2
            want = math.comb(2 * k, k) * (th / 2) ** (2 * k) / ch
        assert abs(dist.prob_fine(sq, [n]) - want) < 1e-9

    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    tmsv = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing([r, -r], l2), bs))
    for n in range(11):
        assert abs(dist.prob_fine(tmsv, [n, n])
                   - th ** (2 * n) / ch ** 2) < 1e-9
        if n:
            assert abs(dist.prob_fine(tmsv, [n, n - 1])) < 1e-9

    alpha = 1.1 - 0.3j
    coh = gaussian.to_adjacency(
        gaussian.displace(gaussian.from_squeezing([0.0], l1), [alpha]))
    lam = abs(alpha) ** 2
    for n in range(21):
        want = math.exp(-lam) * lam ** n / math.factorial(n)
        assert abs(dist.prob_fine(coh, [n]) - want) < 1e-9

    nbar = 1.4
    cov = np.diag([nbar + 1.0, nbar + 1.0]).astype(complex)
    thermal = gaussian.to_adjacency(
        gaussian.GaussianState(cov, np.zeros(2), l1))
    for n in range(21):
        want = nbar ** n / (nbar + 1) ** (n + 1)
        assert abs(dist.prob_fine(thermal, [n]) - want) < 1e-9


# 4. total distribution of a product state is a convolution --------------------

def test_total_distribution_convolution_four_modes():
    rng = np.random.default_rng(1004)
    xi = [0.5, 0.35, 0.6, 0.45]
    lay = gaussian.ModeLayout(4)
    u = haar_unitary(4, rng)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing(xi, lay), u))
    nmax = 24
    conv = np.array([1.0])
    for r in xi:
        one = gaussian.to_adjacency(
            gaussian.from_squeezing([r], gaussian.ModeLayout(1)))
        single = [dist.prob_total(one, [0], n) for n in range(nmax + 1)]
        conv = np.convolve(conv, single)[: nmax + 1]
    mine = [dist.prob_total(rep, [0, 1, 2, 3], n) for n in range(nmax + 1)]
    assert np.max(np.abs(np.array(mine) - conv)) < 1e-9


# 5. Fock-state generation fidelities with impurity and loss -------------------

def impure_fock_fidelity(n, purity, eta, cutoff=15):
    lay = gaussian.ModeLayout(2, 2)
    s = gaussian.impure_source([1.1, 1.1], purity, lay)
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(s, np.sqrt(eta) * np.kron(u, np.eye(2))))
    spec = HeraldSpec([0, 1], ([(0, 1)], (n,)), cutoff=cutoff, trace_out=[3])
    dm = heralding.herald_grouped(rep, spec).normalized()
    return math.sqrt(max(dm.entries[n, n].real, 0.0))


def test_fock_generation_fidelity_values():
    t0 = time.perf_counter()
    for n, want in zip((1, 2, 3), (0.90, 0.84, 0.79)):
        assert abs(impure_fock_fidelity(n, 1.0, 0.9) - want) < 0.01
    for n, want in zip((1, 2, 3), (0.949, 0.943, 0.943)):
        assert abs(impure_fock_fidelity(n, 0.9, 1.0) - want) < 0.002
    for n, want in zip((1, 2, 3), (0.714, 0.616, 0.560)):
        assert abs(impure_fock_fidelity(n, 0.7, 0.8) - want) < 0.002
    # lossless closed form: the squared fidelity is the chance that all n
    # heralded photons came from the dominant spectral mode, a geometric sum
    for purity in (0.7, 0.9):
        ratio = (1 - purity) / purity
        for n in (1, 2, 3):
            want = math.sqrt(1.0 / sum(ratio ** j for j in range(n + 1)))
            assert abs(impure_fock_fidelity(n, purity, 1.0) - want) < 1e-6
    assert time.perf_counter() - t0 < 120.0


# 6. rectangular-to-square embedding contract ----------------------------------

def test_embedding_contract_random_instances():
    rng = np.random.default_rng(1006)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = rand_symmetric(rng, 2 * m)
        g = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
        rep = gaussian.AdjacencyRep(a, g, 1.0, gaussian.ModeLayout(m))
        while True:
            n = rng.integers(0, 4, size=m)
            mm = rng.integers(0, 4, size=m)
            if n.sum() + mm.sum() <= 8:
                break
        rmat, rg = hafnian.repeat_pattern(a, g, list(n), list(mm))
        want = hafnian.lhaf_oracle(rmat, rg)
        tags, t = heralding._merged_modes(list(n), list(mm))
        emat, eg = hafnian.repeat_pattern(
            *heralding._embedded_matrix(rep.a, rep.gamma, tags), t)
        assert close(hafnian.lhaf_oracle(emat, eg), want)


# 7. Fock-channel blocked Hafnian vs permanent-sum oracle ----------------------

def test_fock_channel_cross_oracle():
    rng = np.random.default_rng(1007)
    cases = 0
    while cases < 100:
        m = int(rng.integers(2, 4))
        t = rng.uniform(0.5, 0.95) * haar_unitary(m, rng)
        p = tuple(int(x) for x in rng.integers(0, 3, size=m))
        nblocks = int(rng.integers(1, m + 1))
        assign = rng.integers(0, nblocks, size=m)
        blocks = [[k for k in range(m) if assign[k] == j]
                  for j in range(nblocks)]
        blocks = [b for b in blocks if b]
        counts = [int(c) for c in rng.integers(0, 3, size=len(blocks))]
        if sum(p) + sum(counts) > 12 or sum(p) == 0:
            continue
        fi = fc.FockInput(p, t)
        cp = CoarsePattern(blocks, counts)
        assert close(fc.fock_coarse_prob(fi, cp), fc.fock_perm_oracle(fi, cp),
                     atol=1e-12)
        cases += 1
    # two-photon interference dip on a balanced splitter
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    dip = fc.fock_coarse_prob(fc.FockInput((1, 1), bs),
                              CoarsePattern([[0], [1]], [1, 1]))
    assert abs(dip) < 1e-12


# 8. distinguishable-squeezer fast path ----------------------------------------

def distinguishable_rep(rng, m, k, eta=0.85):
    lay = gaussian.ModeLayout(m, k)
    xi = np.zeros(m * k)
    for ext in range(m):
        xi[ext * k + ext % k] = 0.4 + 0.05 * ext
    s = gaussian.from_squeezing(xi, lay)
    t = np.sqrt(eta) * np.kron(haar_unitary(m, rng), np.eye(k))
    return gaussian.to_adjacency(gaussian.apply_channel(s, t))


def test_distinguishable_fast_path_matches_general():
    rng = np.random.default_rng(1008)
    for m, k, n in [(2, 2, [1, 1]), (3, 3, [2, 1, 0]), (4, 4, [1, 0, 2, 1]),
                    (2, 4, [2, 2])]:
        rep = distinguishable_rep(rng, m, k)
        blocks = dist.extract_distinguishable_blocks(rep)
        got = dist.prob_external_distinguishable(blocks, n)
        want = dist.prob_external(rep, n)
        assert close(got, want)


def test_distinguishable_fast_path_is_faster():
    rng = np.random.default_rng(1009)
    rep = distinguishable_rep(rng, 4, 4)
    n = [2, 2, 2, 2]
    blocks = dist.extract_distinguishable_blocks(rep)
    # warm up both paths, then time best-of-three
    dist.prob_external_distinguishable(blocks, n)
    dist.prob_external(rep, n)
    fast = min(_timed(lambda: dist.prob_external_distinguishable(blocks, n))
               for _ in range(3))
    general = min(_timed(lambda: dist.prob_external(rep, n))
                  for _ in range(3))
    assert general / fast >= 2.0


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# 9. phase-space estimates agree with the exact distribution -------------------

def test_phase_space_agreement_and_determinism():
    rng = np.random.default_rng(1010)
    m = 4
    xi = (0.45, 0.5, 0.4, 0.55)
    t = 0.75 * haar_unitary(m, rng)
    lay = gaussian.ModeLayout(m)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing(list(xi), lay), t))
    exact = np.array([dist.prob_total(rep, list(range(m)), n)
                      for n in range(12)])
    nv = tuple(int(n) for n in np.nonzero(exact >= 1e-4)[0])
    run = phasespace.PPRun(xi, t, 10 ** 5, 2024, nv)
    est, err = phasespace.pp_estimate(run)
    est2, err2 = phasespace.pp_estimate(run)
    assert np.array_equal(est, est2) and np.array_equal(err, err2)
    for value, sigma, n in zip(est, err, nv):
        assert abs(value - exact[n]) < 4 * max(sigma, 1e-12)


# 10. moments and cumulants vs brute-force expectations ------------------------

def test_moments_match_truncated_expectations():
    rng = np.random.default_rng(1011)
    lay = gaussian.ModeLayout(3)
    s = gaussian.from_squeezing([0.2, 0.15, 0.1], lay)
    s = gaussian.apply_channel(s, 0.9 * haar_unitary(3, rng))
    s = gaussian.displace(s, [0.1, -0.1j, 0.05])
    rep = gaussian.to_adjacency(s)
    cutoff = 9
    patterns = list(itertools.product(range(cutoff + 1), repeat=3))
    probs = np.array([dist.prob_fine(rep, pat) for pat in patterns])
    assert 1.0 - probs.sum() < 1e-9  # tail is negligible at this cutoff
    totals = {
        "b1": np.array([p[0] + p[1] for p in patterns]),
        "b2": np.array([p[2] for p in patterns]),
    }
    mean1 = float(probs @ totals["b1"])
    mean2 = float(probs @ totals["b2"])
    var1 = float(probs @ totals["b1"] ** 2) - mean1 ** 2
    cov12 = float(probs @ (totals["b1"] * totals["b2"])) - mean1 * mean2
    assert abs(dist.coarse_moment(s, [[0, 1]]) - mean1) < 1e-6
    assert abs(dist.coarse_moment(s, [[2]]) - mean2) < 1e-6
    assert abs(dist.block_cumulant(s, [0, 1], 2) - var1) < 1e-6
    assert abs(dist.coarse_cumulant(s, [[0, 1], [2]]) - cov12) < 1e-6


# 11. performance orderings ----------------------------------------------------

def test_sieve_outperforms_combinatorial_blocked_sum():
    rng = np.random.default_rng(1012)
    lay = gaussian.ModeLayout(2, 2)
    s = gaussian.impure_source([0.8, 0.8], 0.9, lay)
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(s, 0.95 * np.kron(u, np.eye(2))))
    # the blocked evaluation behind one high-cutoff herald matrix element
    blocks = [(0, 1), (2,), (3,)]
    counts = [6, 11, 11]
    hafnian.blocked_lhaf(rep.a, rep.gamma, blocks, counts)
    sieve = min(_timed(lambda: hafnian.blocked_lhaf(
        rep.a, rep.gamma, blocks, counts)) for _ in range(3))
    comb = _timed(lambda: hafnian.blocked_lhaf_combinatorial(
        rep.a, rep.gamma, blocks, counts))
    assert comb / sieve >= 10.0


def test_exact_total_distribution_sixteen_modes_under_five_seconds():
    rng = np.random.default_rng(1013)
    m = 16
    lay = gaussian.ModeLayout(m)
    t = np.sqrt(0.36) * haar_unitary(m, rng)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing([0.89] * m, lay), t))
    t0 = time.perf_counter()
    probs = [dist.prob_total(rep, list(range(m)), n) for n in range(28)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert sum(probs) > 0.99
    assert all(p >= -1e-12 for p in probs)


# 12. high-cutoff herald pipeline with internal modes --------------------------

def test_three_external_two_internal_herald_pipeline():
    rng = np.random.default_rng(1014)
    lay = gaussian.ModeLayout(3, 2)
    s = gaussian.impure_source([1.0, 1.0, 1.0], 0.9, lay)
    t = np.sqrt(0.95) * np.kron(haar_unitary(3, rng), np.eye(2))
    rep = gaussian.to_adjacency(gaussian.apply_channel(s, t))
    spec = HeraldSpec(
        herald_modes=[0, 1, 2, 3],
        measurement=([(0, 1), (2, 3)], (5, 7)),
        cutoff=26,
        trace_out=[5],
    )
    t0 = time.perf_counter()
    dm = heralding.herald_grouped(rep, spec).normalized()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert np.allclose(dm.entries, dm.entries.conj().T, atol=1e-9)
    evals = np.linalg.eigvalsh(dm.entries)
    assert evals.min() >= -1e-7
    assert np.isclose(np.trace(dm.entries).real, 1.0, atol=1e-9)
