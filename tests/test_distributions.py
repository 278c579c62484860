import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsieve import distributions as dist
from photonsieve import gaussian, hafnian
from photonsieve.cli import haar_unitary
from photonsieve.errors import (
    DomainError,
    IndexOutOfRange,
    LayoutMismatch,
    NonFinite,
    NumericFailure,
    PartitionMismatch,
    ProbabilityOutOfRange,
    RankViolation,
    SingularResolvent,
    TooLarge,
)
from photonsieve.linalg import xmat

L1 = gaussian.ModeLayout(1)
L2 = gaussian.ModeLayout(2)


def tmsv(r):
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return gaussian.apply_channel(gaussian.from_squeezing([r, -r], L2), bs)


# -- prob_fine ----------------------------------------------------------------

def test_prob_fine_vacuum():
    rep = gaussian.to_adjacency(gaussian.from_squeezing([0.0], L1))
    assert np.isclose(dist.prob_fine(rep, [0]), 1.0)


def test_prob_fine_tmsv_pairing():
    r = 0.5
    rep = gaussian.to_adjacency(tmsv(r))
    th, ch = np.tanh(r), np.cosh(r)
    for k in range(3):
        assert np.isclose(dist.prob_fine(rep, [k, k]),
                          th ** (2 * k) / ch ** 2, atol=1e-12)
    assert abs(dist.prob_fine(rep, [1, 2])) < 1e-12


def test_prob_fine_coherent_poisson():
    alpha = 0.9
    s = gaussian.displace(gaussian.from_squeezing([0.0], L1), [alpha])
    rep = gaussian.to_adjacency(s)
    lam = abs(alpha) ** 2
    for k in range(5):
        assert np.isclose(dist.prob_fine(rep, [k]),
                          math.exp(-lam) * lam ** k / math.factorial(k),
                          atol=1e-12)


# -- totals -------------------------------------------------------------------

def test_prob_total_poisson_and_parity():
    alpha = 0.7 + 0.2j
    s = gaussian.displace(gaussian.from_squeezing([0.0], L1), [alpha])
    rep = gaussian.to_adjacency(s)
    lam = abs(alpha) ** 2
    for n in range(6):
        assert np.isclose(dist.prob_total(rep, [0], n),
                          math.exp(-lam) * lam ** n / math.factorial(n),
                          atol=1e-12)
    srep = gaussian.to_adjacency(gaussian.from_squeezing([0.8], L1))
    assert abs(dist.prob_total(srep, [0], 3)) < 1e-12


def test_total_distribution_auto_cutoff():
    rep = gaussian.to_adjacency(gaussian.from_squeezing([0.6], L1))
    d = dist.total_distribution(rep)
    assert d.deficit < 1e-7
    assert np.all(d.probabilities >= 0)
    assert np.isclose(d.probabilities[0], 1 / np.cosh(0.6), atol=1e-12)


def test_total_distribution_raises_above_its_tail():
    """Without a cutoff the support doubles up to 1024 photons; a deficit
    still at or above the tail there is an error, never a result."""
    rep = gaussian.to_adjacency(gaussian.from_squeezing([2.0], L1))
    d = dist.total_distribution(rep)
    assert len(d.support) == 513 and 0 <= d.deficit < 1e-7
    rep = gaussian.to_adjacency(gaussian.from_squeezing([3.0], L1))
    with pytest.raises(TooLarge, match="1024.*cutoff"):
        dist.total_distribution(rep)
    assert len(dist.total_distribution(rep, cutoff=2048).support) == 2049


def test_total_distribution_on_a_subset_stops():
    # Vacuum on mode 1 is part of every entry, so the entries sum to
    # Pr(vacuum on mode 1) = 0.79, and 1 - sum never falls below the tail.
    bs = np.sqrt(0.9) * np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing([0.8, 0.6], L2), bs))
    d = dist.total_distribution(rep, [0])
    assert len(d.support) <= 64
    assert 0 <= d.deficit < 1e-7
    want = [dist.prob_total(rep, [0], n) for n in d.support]
    assert np.allclose(d.probabilities, want, rtol=1e-12, atol=1e-15)


def test_total_distribution_matches_convolution():
    # product state through a unitary: total distribution is the convolution
    # of the per-mode distributions of the inputs
    rng = np.random.default_rng(3)
    xi = [0.4, 0.7]
    u = haar_unitary(2, rng)
    s = gaussian.apply_channel(gaussian.from_squeezing(xi, L2), u)
    rep = gaussian.to_adjacency(s)
    nmax = 12
    single = []
    for r in xi:
        rr = gaussian.to_adjacency(gaussian.from_squeezing([r], L1))
        single.append([dist.prob_total(rr, [0], n) for n in range(nmax + 1)])
    conv = np.convolve(single[0], single[1])[: nmax + 1]
    mine = [dist.prob_total(rep, [0, 1], n) for n in range(nmax + 1)]
    assert np.allclose(mine, conv, atol=1e-9)


# -- coarse -------------------------------------------------------------------

def lossy_three_mode_rep(seed=11):
    rng = np.random.default_rng(seed)
    lay = gaussian.ModeLayout(3)
    s = gaussian.from_squeezing([0.5, -0.3, 0.4], lay)
    s = gaussian.apply_channel(s, 0.85 * haar_unitary(3, rng))
    s = gaussian.displace(s, [0.2, -0.1j, 0.05])
    return gaussian.to_adjacency(s)


def test_prob_coarse_consistency():
    rep = lossy_three_mode_rep()
    # singleton blocks -> fine
    cp = dist.CoarsePattern([[0], [1], [2]], [1, 0, 2])
    assert np.isclose(dist.prob_coarse(rep, cp),
                      dist.prob_fine(rep, [1, 0, 2]), atol=1e-12)
    # one block -> total
    cp1 = dist.CoarsePattern([[0, 1, 2]], [3])
    assert np.isclose(dist.prob_coarse(rep, cp1),
                      dist.prob_total(rep, [0, 1, 2], 3), atol=1e-12)


def test_prob_coarse_fine_sum():
    rep = lossy_three_mode_rep()
    cp = dist.CoarsePattern([[0, 1], [2]], [2, 1])
    want = sum(dist.prob_fine(rep, [a, 2 - a, 1]) for a in range(3))
    assert np.isclose(dist.prob_coarse(rep, cp), want, rtol=1e-9)


def test_prob_coarse_refinement_of_total():
    rep = lossy_three_mode_rep()
    n = 3
    total = dist.prob_total(rep, [0, 1, 2], n)
    acc = 0.0
    for b0 in range(n + 1):
        cp = dist.CoarsePattern([[0, 1], [2]], [b0, n - b0])
        acc += dist.prob_coarse(rep, cp)
    assert np.isclose(acc, total, rtol=1e-9)


def test_counts_beyond_the_double_range_are_too_large():
    """A row whose prod k! exceeds the double range is ``TooLarge`` before
    its model sees a point; 170! still fits."""
    assert math.isfinite(hafnian.factorial_product((170,)))
    with pytest.raises(TooLarge):
        hafnian.factorial_product((171,))
    with pytest.raises(TooLarge):
        dist.prob_fine(gaussian.to_adjacency(
            gaussian.from_squeezing([0.3], L1)), [200])
    with pytest.raises(TooLarge):
        dist.prob_fine(gaussian.to_adjacency(
            gaussian.from_squeezing([0.3, 0.2], L2)), [100, 100])
    seen = []

    def model(totals, z):
        seen.append(len(z))
        return [np.ones(len(z))] * len(totals)
    with pytest.raises(TooLarge):
        hafnian.grid_coefficients(model, np.eye(2), [(100, 100)])
    assert not seen


# -- the prepared record of a state ---------------------------------------------

def kernel_prob(rep, blocks, counts):
    """A probability through ``blocked_lhaf``, with no record."""
    value = hafnian.blocked_lhaf(rep.a, rep.gamma, blocks, counts, real=True)
    return dist._real_prob(rep.vacuum_prob * value
                           / hafnian.factorial_product(counts))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       displaced=st.booleans())
def test_record_reads_equal_kernel_reads(seed, m, displaced):
    """Fine and coarse reads of one state, interleaved over its partitions
    (one of them also with its blocks reversed), are bitwise equal to
    ``blocked_lhaf`` reads, displaced and undisplaced."""
    rng = np.random.default_rng(seed)
    s = gaussian.from_squeezing(rng.uniform(0.1, 0.6, m),
                                gaussian.ModeLayout(m))
    s = gaussian.apply_channel(s, rng.uniform(0.6, 0.95)
                               * haar_unitary(m, rng))
    if displaced:
        s = gaussian.displace(s, 0.3 * (rng.normal(size=m)
                                        + 1j * rng.normal(size=m)))
    rep = gaussian.to_adjacency(s)
    partitions = [None]   # fine
    for _ in range(2):
        labels = rng.integers(0, m, m)
        partitions.append([tuple(int(i) for i in np.flatnonzero(labels == j))
                           for j in np.unique(labels)])
    partitions.append(partitions[1][::-1])
    for _ in range(12):
        blocks = partitions[rng.integers(len(partitions))]
        nblocks = m if blocks is None else len(blocks)
        counts = [int(k) for k in rng.integers(0, 4, nblocks)]
        if blocks is None:
            got = dist.prob_fine(rep, counts)
            want = kernel_prob(rep, [(j,) for j in range(m)], counts)
        else:
            got = dist.prob_coarse(rep, dist.CoarsePattern(blocks, counts))
            want = kernel_prob(rep, blocks, counts)
        assert got == want


def test_one_model_per_state_and_partition(monkeypatch):
    """All 343 fine patterns up to 6 per mode of one state read one
    prepared model; a state keeps only the partition it read last, so a
    coarse read, and then the fine partition again, each prepare anew."""
    s = gaussian.from_squeezing([0.2, 0.15, 0.1], gaussian.ModeLayout(3))
    s = gaussian.apply_channel(s, 0.9 * haar_unitary(3, 1))
    rep = gaussian.to_adjacency(gaussian.displace(s, [0.1, -0.1j, 0.05]))
    built = []

    def spy(a, gamma):
        built.append(1)
        return hafnian.gaussian_model(a, gamma)
    monkeypatch.setattr(dist, "gaussian_model", spy)
    total = sum(dist.prob_fine(rep, n)
                for n in itertools.product(range(7), repeat=3))
    assert len(built) == 1
    cp = dist.CoarsePattern([[0, 1], [2]], [1, 1])
    assert dist.prob_coarse(rep, cp) == kernel_prob(rep, cp.blocks, cp.counts)
    assert len(built) == 2
    dist.prob_fine(rep, [1, 1, 1])
    assert len(built) == 3
    mass = dist.total_distribution(rep, cutoff=18).probabilities.sum()
    assert 0.99 < total <= mass + 1e-12


def test_malformed_blocks_are_never_kept(monkeypatch):
    """A partition that fails its check raises on every read, also after a
    valid one, and leaves the record of the valid partition in place."""
    rep = lossy_three_mode_rep()
    good = dist.prob_fine(rep, [1, 0, 1])
    built = []

    def spy(a, gamma):
        built.append(1)
        return hafnian.gaussian_model(a, gamma)
    monkeypatch.setattr(dist, "gaussian_model", spy)
    for _ in range(2):
        with pytest.raises(PartitionMismatch):
            dist.prob_coarse(rep, dist.CoarsePattern([[0, 1]], [1]))
        assert dist.prob_fine(rep, [1, 0, 1]) == good
    assert not built


# -- external detectors -------------------------------------------------------

def two_internal_state(seed=5, eta=0.9):
    """Two distinguishable squeezers per external mode, 2 externals."""
    rng = np.random.default_rng(seed)
    lay = gaussian.ModeLayout(2, 2)
    s = gaussian.from_squeezing([0.5, 0.3, -0.4, 0.6], lay)
    u = haar_unitary(2, rng)
    t = np.sqrt(eta) * np.kron(u, np.eye(2))  # internal modes do not mix
    return gaussian.apply_channel(s, t)


def test_prob_external_k1_is_fine():
    rep = lossy_three_mode_rep()
    assert np.isclose(dist.prob_external(rep, [1, 0, 2]),
                      dist.prob_fine(rep, [1, 0, 2]), atol=1e-12)


def test_prob_external_vs_internal_brute_force():
    rep = gaussian.to_adjacency(two_internal_state())
    n = [2, 1]
    want = 0.0
    for a in range(n[0] + 1):
        for b in range(n[1] + 1):
            want += dist.prob_fine(rep, [a, n[0] - a, b, n[1] - b])
    assert np.isclose(dist.prob_external(rep, n), want, rtol=1e-9)


def distinguishable_state(seed=5, eta=0.9):
    """Each external mode feeds its squeezer into its own spectral mode."""
    rng = np.random.default_rng(seed)
    lay = gaussian.ModeLayout(2, 2)
    s = gaussian.from_squeezing([0.5, 0.0, 0.0, 0.6], lay)
    u = haar_unitary(2, rng)
    t = np.sqrt(eta) * np.kron(u, np.eye(2))
    return gaussian.apply_channel(s, t)


def test_prob_external_distinguishable_matches_general():
    rep = gaussian.to_adjacency(distinguishable_state())
    blocks = dist.extract_distinguishable_blocks(rep)
    for n in ([0, 0], [1, 1], [2, 1], [2, 2]):
        assert np.isclose(
            dist.prob_external_distinguishable(blocks, n),
            dist.prob_external(rep, n),
            rtol=1e-9, atol=1e-12,
        )


def test_prob_external_distinguishable_k1():
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing([0.7], L1),
                               np.array([[0.9]]))
    )
    blocks = dist.extract_distinguishable_blocks(rep)
    for n in range(4):
        assert np.isclose(dist.prob_external_distinguishable(blocks, [n]),
                          dist.prob_fine(rep, [n]), rtol=1e-9, atol=1e-12)


def test_distinguishable_rank_guard():
    # two squeezers sharing one spectral mode make that block rank four
    rep = gaussian.to_adjacency(two_internal_state())
    blocks = dist.extract_distinguishable_blocks(rep)
    with pytest.raises(RankViolation):
        dist.prob_external_distinguishable(blocks, [2, 1])


def test_distinguishable_blocks_reject_displacement():
    s = gaussian.displace(distinguishable_state(), [0.2, 0.0, 0.0, 0.1j])
    with pytest.raises(LayoutMismatch):
        dist.extract_distinguishable_blocks(gaussian.to_adjacency(s))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(1, 4), k=st.integers(1, 4))
def test_distinguishable_blocks_match_per_internal_mode_indexing(seed, m, k):
    """Random squeezers on an (M, K) layout, each internal mode through its
    own sub-unitary: the blocks equal the rows and columns of X A of one
    internal mode each, and a 1e-9 coupling between two internal modes is
    rejected."""
    rng = np.random.default_rng(seed)
    lay = gaussian.ModeLayout(m, k)
    t = lay.total
    xi = rng.uniform(0, 1, t) * np.exp(2j * np.pi * rng.random(t))
    trans = sum(np.kron(rng.uniform(0.5, 1) * haar_unitary(m, rng),
                        np.diag(np.eye(k)[l])) for l in range(k))
    s = gaussian.apply_channel(gaussian.from_squeezing(xi, lay), trans)
    rep = gaussian.to_adjacency(s)
    xa = xmat(t) @ rep.a
    want = []
    for l in range(k):
        idx = [i * k + l for i in range(m)]
        idx += [t + i for i in idx]
        want.append(xa[np.ix_(idx, idx)])
    got = dist.extract_distinguishable_blocks(rep)
    assert len(got) == k
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    if k == 1:
        return
    l1, l2 = rng.choice(k, 2, replace=False)
    p = rng.integers(2) * t + rng.integers(m) * k + l1
    q = rng.integers(2) * t + rng.integers(m) * k + l2
    a = rep.a.copy()
    a[p, q] += 1e-9
    a[q, p] += 1e-9
    coupled = gaussian.AdjacencyRep(a, rep.gamma, rep.vacuum_prob, lay)
    with pytest.raises(LayoutMismatch):
        dist.extract_distinguishable_blocks(coupled)


def single_squeezer_state(rng, m, ports, r, eta):
    """Internal mode l holds one squeezer r[l] at external port ports[l];
    returns (adjacency, Haar unitary of the externals)."""
    k = len(ports)
    xi = np.zeros(m * k)
    xi[np.asarray(ports) * k + np.arange(k)] = r
    u = haar_unitary(m, rng)
    t = np.sqrt(eta) * np.kron(u, np.eye(k))
    s = gaussian.from_squeezing(xi, gaussian.ModeLayout(m, k))
    return gaussian.to_adjacency(gaussian.apply_channel(s, t)), u


def thinned_squeezer(r, p, nmax):
    """Count distribution of squeezed vacuum r whose photons each go to
    detector j with probability p[j], or are lost.

    With G(s) = sech r (1 - tanh^2 r s^2)^(-1/2) the photon-number
    generating function, the counts have generating function
    G(a + sum_j p_j x_j), a = 1 - sum p, so P(c) = multinomial(c) prod
    p_j^c_j [h^|c|] G(a + h).  F(h) = (alpha + beta h + gamma h^2)^(-1/2)
    has the positive recurrence used below, so floats keep it exact to a
    few ulps."""
    tau2 = math.tanh(r) ** 2
    a = 1.0 - sum(p)
    alpha, beta, gamma = 1 - tau2 * a * a, -2 * tau2 * a, -tau2
    f = [alpha ** -0.5, -0.5 * beta * alpha ** -1.5]
    for c in range(1, nmax):
        f.append(-((c + 0.5) * beta * f[c] + c * gamma * f[c - 1])
                 / ((c + 1) * alpha))

    def prob(c):
        val = f[sum(c)] / math.cosh(r) * math.factorial(sum(c))
        for cj, pj in zip(c, p):
            val *= pj ** cj / math.factorial(cj)
        return val
    return prob


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6),
       n=st.lists(st.integers(13, 20), min_size=2, max_size=2))
def test_single_squeezer_external_probability_is_thinning(seed, n):
    """Two single-squeezer internal modes: the external pattern is the
    convolution of two thinned squeezer distributions.  Every count is at
    most 20 and prod n_j! > 2**63, where an int64 product wraps."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(1.4, 1.8, 2)
    eta = rng.uniform(0.8, 1.0)
    rep, u = single_squeezer_state(rng, 2, [0, 1], r, eta)
    parts = [thinned_squeezer(r[l], eta * np.abs(u[:, l]) ** 2, sum(n))
             for l in range(2)]
    want = sum(parts[0]((c0, c1)) * parts[1]((n[0] - c0, n[1] - c1))
               for c0 in range(n[0] + 1) for c1 in range(n[1] + 1))
    blocks = dist.extract_distinguishable_blocks(rep)
    assert np.isclose(dist.prob_external(rep, n), want, rtol=1e-10, atol=0)
    assert np.isclose(dist.prob_external_distinguishable(blocks, n), want,
                      rtol=1e-10, atol=0)


# largest total per external-mode count m: the general sieve, the oracle
# here, takes up to (N/m + 1)^(m - 1) grid points, each with N powers of a
# 2m^2 x 2m^2 matrix
_FAST_PATH_TOTAL = {2: 52, 3: 36, 4: 24}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.sampled_from([2, 3, 4]),
       dark=st.booleans())
def test_distinguishable_fast_path_matches_general_sieve(seed, m, dark):
    """Random m x m single-squeezer states: the rank-two series and the
    general sieve agree to 1e-11 relative at totals up to 52.

    The squeezing puts the mean total photon number near the drawn total,
    and the counts follow the detectors' mean shares, with the weakest
    detector dark when ``dark``.  Far-tail patterns are left out on
    purpose: there the shared fold loses relative accuracy on both paths
    alike (8e-6 on each against the exact value at a 4 x 4 pattern of
    probability 1.2e-19), which is a matter of circle radii, not of the
    series compared here."""
    rng = np.random.default_rng(seed)
    total = int(rng.integers(0, _FAST_PATH_TOTAL[m] + 1))
    eta = rng.uniform(0.5, 1.0)
    r = (np.arcsinh(np.sqrt(max(total, 1) / (m * eta)))
         * rng.uniform(0.8, 1.2, m) * rng.choice([-1, 1], m))
    ports = rng.integers(0, m, m)
    rep, u = single_squeezer_state(rng, m, ports, r, eta)
    shares = (np.abs(u[:, ports]) ** 2 * np.sinh(r) ** 2).sum(axis=1)
    if dark:
        shares[np.argmin(shares)] = 0.0
    n = [int(x) for x in rng.multinomial(total, shares / shares.sum())]
    blocks = dist.extract_distinguishable_blocks(rep)
    assert np.isclose(dist.prob_external_distinguishable(blocks, n),
                      dist.prob_external(rep, n), rtol=1e-11, atol=0)


def test_probability_outside_unit_interval_is_numeric_failure():
    assert dist._real_prob(-1e-12) == -1e-12
    assert dist._real_prob(1.0 + 1e-12) == 1.0 + 1e-12
    for bad in (-1e-6, 1.5, 331.2):
        with pytest.raises(ProbabilityOutOfRange):
            dist._real_prob(bad)
    assert issubclass(ProbabilityOutOfRange, NumericFailure)


# -- moments ------------------------------------------------------------------

def test_mgf_values():
    assert np.isclose(
        dist.moment_mgf(gaussian.from_squeezing([0.0, 0.0], L2), [0.0, 0.0]),
        1.0,
    )
    nbar, t = 0.7, 0.3
    th = gaussian.thermal_state([nbar], L1)
    assert np.isclose(dist.moment_mgf(th, [t]),
                      1 / (1 - nbar * np.expm1(t)), atol=1e-12)
    alpha = 0.6 - 0.1j
    coh = gaussian.displace(gaussian.from_squeezing([0.0], L1), [alpha])
    assert np.isclose(dist.moment_mgf(coh, [t]),
                      np.exp(abs(alpha) ** 2 * np.expm1(t)), atol=1e-12)


def test_coarse_moment_values():
    vac = gaussian.from_squeezing([0.0, 0.0], L2)
    assert np.isclose(dist.coarse_moment(vac, [[0, 1]]), 0.0, atol=1e-12)
    r = 0.8
    sq = gaussian.from_squeezing([r], L1)
    assert np.isclose(dist.coarse_moment(sq, [[0]]), np.sinh(r) ** 2,
                      atol=1e-10)


def test_coarse_moment_matches_mgf_derivative():
    s = two_internal_state(seed=9, eta=0.8)
    s = gaussian.displace(s, [0.3, 0.0, -0.2j, 0.1])
    blocks = [[0, 1], [2, 3]]
    h = 1e-5
    vals = {}
    for i, j in itertools.product([0, 1], repeat=2):
        t = np.zeros(4)
        for b, sgn in zip(blocks, (i, j)):
            for idx in b:
                t[idx] = h * (1 if sgn else -1)
        vals[(i, j)] = dist.moment_mgf(s, t)
    numeric = (vals[(1, 1)] - vals[(1, 0)] - vals[(0, 1)] + vals[(0, 0)]) \
        / (2 * h) ** 2
    assert np.isclose(dist.coarse_moment(s, blocks), numeric, atol=1e-6)


def test_block_cumulant_thermal_variance():
    nbar = 0.9
    th = gaussian.thermal_state([nbar], L1)
    assert np.isclose(dist.block_cumulant(th, [0], 1), nbar, atol=1e-12)
    assert np.isclose(dist.block_cumulant(th, [0], 2), nbar + nbar ** 2,
                      atol=1e-12)


def test_coarse_cumulant_covariance():
    # joint cumulant of two blocks equals Cov(n_B1, n_B2), checked by MGF
    s = two_internal_state(seed=2, eta=0.75)
    blocks = [[0, 1], [2, 3]]
    mom = dist.coarse_moment(s, blocks)
    m1 = dist.coarse_moment(s, [blocks[0]])
    m2 = dist.coarse_moment(s, [blocks[1]])
    assert np.isclose(dist.coarse_cumulant(s, blocks), mom - m1 * m2,
                      atol=1e-9)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), nmodes=st.integers(3, 4),
       extra_block=st.booleans())
def test_coarse_cumulant_matches_moment_cumulant_sum(seed, nmodes,
                                                     extra_block):
    """kappa(N_1..N_p) = sum over set partitions pi of the p blocks of
    (-1)^(|pi|-1) (|pi|-1)! prod_{S in pi} E[prod_{j in S} N_j]."""
    rng = np.random.default_rng(seed)
    layout = gaussian.ModeLayout(nmodes)
    s = gaussian.from_squeezing(rng.uniform(-0.8, 0.8, nmodes), layout)
    s = gaussian.apply_channel(s, rng.uniform(0.5, 0.95)
                               * haar_unitary(nmodes, rng))
    s = gaussian.displace(s, rng.normal(size=nmodes) * 0.5
                          + 0.5j * rng.normal(size=nmodes))
    nblocks = min(3 + extra_block, nmodes)
    cuts = np.sort(rng.choice(np.arange(1, nmodes), nblocks - 1,
                              replace=False))
    blocks = [b.tolist() for b in np.split(rng.permutation(nmodes), cuts)]
    want = 0.0
    for part in set_partitions(list(range(nblocks))):
        term = (-1.0) ** (len(part) - 1) * math.factorial(len(part) - 1)
        for sub in part:
            term *= dist.coarse_moment(s, [blocks[j] for j in sub])
        want += term
    assert np.isclose(dist.coarse_cumulant(s, blocks), want, rtol=1e-9,
                      atol=1e-9)


def test_empty_block_list_moment_and_cumulant():
    s = gaussian.displace(tmsv(0.4), [0.3, -0.2j])
    assert dist.coarse_moment(s, []) == 1.0
    assert dist.coarse_cumulant(s, []) == 0.0


def test_partition_validation():
    s = gaussian.from_squeezing([0.0, 0.0], L2)
    with pytest.raises(PartitionMismatch):
        dist.coarse_moment(s, [[0], [0]])
    with pytest.raises(LayoutMismatch):
        dist.prob_external(gaussian.to_adjacency(s), [1])


def coupled_internal_state():
    """Two spectral modes per external mode, mixed by the circuit."""
    s = gaussian.from_squeezing([0.5, 0.0, 0.0, 0.6],
                                gaussian.ModeLayout(2, 2))
    return gaussian.apply_channel(s, 0.9 * haar_unitary(4, 3))


@pytest.mark.parametrize("call, error", [
    (lambda: dist.CoarsePattern([[0], [1]], [1]), PartitionMismatch),
    (lambda: dist.CoarsePattern([[0]], [-1]), DomainError),
    (lambda: dist.prob_fine(gaussian.AdjacencyRep(
        np.zeros((2, 2)), np.zeros(2), 1j, L1), [0]), DomainError),
    (lambda: dist.extract_distinguishable_blocks(
        gaussian.to_adjacency(coupled_internal_state())), LayoutMismatch),
    (lambda: dist.prob_external_distinguishable([np.eye(4)], [1, 1, 1]),
     LayoutMismatch),
    (lambda: dist.prob_external_distinguishable(
        [np.triu(np.ones((4, 4))) / 8], [1, 1]), RankViolation),
    (lambda: dist.moment_mgf(tmsv(0.4), [0.1]), LayoutMismatch),
    # a thermal mode with nbar = 1 has E[e^{tn}] = 1 / (2 - e^t)
    (lambda: dist.moment_mgf(gaussian.thermal_state([1.0], L1),
                             [math.log(2)]), SingularResolvent),
    (lambda: dist.block_cumulant(tmsv(0.4), [0], 0), DomainError),
    (lambda: dist.moment_mgf(tmsv(0.4), [np.nan, 0.1]), NonFinite),
    # a fractional count is an error, never truncated
    (lambda: dist.CoarsePattern([[0]], [1.5]), DomainError),
    (lambda: dist.prob_fine(gaussian.to_adjacency(tmsv(0.4)), [1.5, 0]),
     DomainError),
    (lambda: dist.prob_external(gaussian.to_adjacency(tmsv(0.4)), [0.5, 0]),
     DomainError),
    (lambda: dist.prob_external_distinguishable(
        dist.extract_distinguishable_blocks(gaussian.to_adjacency(tmsv(0.4))),
        [1.5, 0]), DomainError),
    (lambda: dist.prob_total(gaussian.to_adjacency(tmsv(0.4)), [0], 1.5),
     DomainError),
    (lambda: dist.total_distribution(gaussian.to_adjacency(tmsv(0.4)),
                                     cutoff=2.5), DomainError),
    (lambda: dist.block_cumulant(tmsv(0.4), [0], 2.7), DomainError),
    # a repeated mode is an error, never counted twice
    (lambda: dist.prob_total(gaussian.to_adjacency(tmsv(0.4)), [0, 0], 1),
     IndexOutOfRange),
    (lambda: dist.total_distribution(gaussian.to_adjacency(tmsv(0.4)),
                                     [0, 0], cutoff=4), IndexOutOfRange),
], ids=["pattern-length", "pattern-count", "complex-value",
        "coupled-internals", "block-shape", "non-hermitian-block",
        "mgf-length", "mgf-diverges", "cumulant-order", "mgf-nan",
        "pattern-fraction", "fine-fraction", "external-fraction",
        "distinguishable-fraction", "total-fraction", "cutoff-fraction",
        "order-fraction", "total-repeat", "distribution-repeat"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda rep, blocks: dist.prob_fine(rep, [-2, 0]),
    lambda rep, blocks: dist.prob_fine(rep, [-1, 1]),
    lambda rep, blocks: hafnian.lhaf_sieve(rep.a, rep.gamma, [1, -1]),
    lambda rep, blocks: hafnian.blocked_lhaf(rep.a, rep.gamma, [(0, 1)],
                                             [-2]),
    lambda rep, blocks: dist.prob_external_distinguishable(blocks, [-1, 1]),
    lambda rep, blocks: dist.total_distribution(rep, cutoff=-1),
    lambda rep, blocks: dist.prob_total(rep, [0, 1], -1),
], ids=["fine", "fine-factorial", "lhaf-sieve", "blocked-lhaf",
        "distinguishable", "total-distribution", "prob-total"])
def test_negative_counts_are_domain_errors(call):
    rep = gaussian.to_adjacency(tmsv(0.5))
    blocks = dist.extract_distinguishable_blocks(
        gaussian.to_adjacency(distinguishable_state()))
    with pytest.raises(DomainError):
        call(rep, blocks)
