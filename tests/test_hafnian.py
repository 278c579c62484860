import contextlib
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
from photonsieve.distributions import CoarsePattern
from photonsieve.errors import (DomainError, OddDimension, PartitionMismatch,
                                TooLarge)

from references import xmat


def rand_symmetric(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.T) / 2


def rand_gamma(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# -- oracle -------------------------------------------------------------------

def test_oracle_two_by_two():
    a = np.array([[0.0, 2.5], [2.5, 0.0]], dtype=complex)
    g = np.array([3.0, 4.0], dtype=complex)
    assert np.isclose(hafnian.lhaf_oracle(a, g), 2.5 + 12.0)


def test_oracle_k4_matchings():
    a = np.ones((4, 4), dtype=complex)
    assert np.isclose(hafnian.lhaf_oracle(a, np.zeros(4)), 3.0)


def test_oracle_involutions():
    # with unit loops the oracle counts involutions on 4 elements = 10
    a = np.ones((4, 4), dtype=complex)
    assert np.isclose(hafnian.lhaf_oracle(a, np.ones(4)), 10.0)


def test_oracle_odd_dimension_rules():
    a = np.zeros((3, 3), dtype=complex)
    with pytest.raises(OddDimension):
        hafnian.lhaf_oracle(a, None)
    # with loops: odd dimension fine; for zero couplings answer is prod(gamma)
    assert np.isclose(hafnian.lhaf_oracle(a, np.array([2.0, 3.0, 5.0])), 30.0)


def test_oracle_guard():
    with pytest.raises(TooLarge):
        hafnian.lhaf_oracle(np.zeros((16, 16)), np.zeros(16))


def test_oracle_direct_sum_multiplicative():
    rng = np.random.default_rng(0)
    a = rand_symmetric(rng, 4)
    b = rand_symmetric(rng, 2)
    full = np.zeros((6, 6), dtype=complex)
    full[:4, :4] = a
    full[4:, 4:] = b
    lhs = hafnian.lhaf_oracle(full, np.zeros(6))
    rhs = hafnian.lhaf_oracle(a, np.zeros(4)) * hafnian.lhaf_oracle(b, np.zeros(2))
    assert np.isclose(lhs, rhs, atol=1e-12)


# -- partition DP -------------------------------------------------------------

def partitions_of(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def f_partition_oracle(g):
    n = len(g)
    total = 0.0 + 0.0j
    for lam in partitions_of(n):
        mult = {}
        term = 1.0 + 0.0j
        for a in lam:
            term *= g[a - 1]
            mult[a] = mult.get(a, 0) + 1
        for c in mult.values():
            term /= math.factorial(c)
        total += term
    return total


def test_f_from_g_small_cases():
    g = np.array([2.0 + 1j, -0.5], dtype=complex)
    assert np.isclose(hafnian.f_coefficients(g)[-1], g[1] + g[0] ** 2 / 2)
    assert np.isclose(hafnian.f_coefficients(np.zeros(0, complex))[-1], 1.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_f_from_g_matches_partition_enumeration(n):
    rng = np.random.default_rng(n)
    g = rand_gamma(rng, n)
    assert np.isclose(hafnian.f_coefficients(g)[-1], f_partition_oracle(g),
                      rtol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), batch=st.integers(1, 4),
       n=st.integers(0, 8))
def test_f_coefficients_batched_matches_partition_enumeration(seed, batch, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(batch, n)) + 1j * rng.normal(size=(batch, n))
    c = hafnian.f_coefficients(g)
    assert c.shape == (batch, n + 1)
    for row, coeffs in zip(g, c):
        for k in range(n + 1):
            assert np.isclose(coeffs[k], f_partition_oracle(row[:k]),
                              rtol=1e-12, atol=1e-12)


def test_f_coefficients_keeps_real_input_real():
    c = hafnian.f_coefficients(np.array([[0.5, 0.25]]))
    assert c.dtype == float
    assert np.allclose(c, [[1.0, 0.5, 0.375]])


def test_g_coefficients_traces_and_scale():
    rng = np.random.default_rng(5)
    a = rand_symmetric(rng, 6)
    g = hafnian.g_coefficients(a, None, nmax=5)
    xa = xmat(3) @ a
    tr = [np.trace(np.linalg.matrix_power(xa, k)) for k in range(1, 6)]
    assert np.allclose(g, tr / (2 * np.arange(1, 6)), atol=1e-10)

    gam = rand_gamma(rng, 6)
    g1 = hafnian.g_coefficients(a, gam, nmax=5)
    g2 = hafnian.gaussian_series(a, gam)(5, np.ones((1, 3)))[0]
    assert np.allclose(g1, g2, atol=1e-12)

    assert np.allclose(
        hafnian.g_coefficients(np.zeros((4, 4)), np.zeros(4), nmax=4), 0.0
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), with_gamma=st.booleans(),
       nmodes=st.integers(1, 3), nmax=st.integers(1, 5),
       one_per_chunk=st.booleans())
def test_g_coefficients_batched_scale_matches_rows(seed, with_gamma, nmodes,
                                                   nmax, one_per_chunk):
    """A (2, 3, M) batch of scales, as the 6 rows of one ``gaussian_series``
    call, equals one call per row, also when every batch entry is a chunk
    of its own."""
    rng = np.random.default_rng(seed)
    a = rand_symmetric(rng, 2 * nmodes)
    gam = rand_gamma(rng, 2 * nmodes) if with_gamma else None
    scale = rand_gamma(rng, (2, 3, nmodes))
    budget = 1 if one_per_chunk else hafnian._CHUNK_BYTES
    series = hafnian.gaussian_series(a, gam)
    with mock.patch.object(hafnian, "_CHUNK_BYTES", budget):
        g = series(nmax, scale.reshape(6, nmodes)).reshape(2, 3, nmax)
    assert g.shape == (2, 3, nmax)
    for i, j in itertools.product(range(2), range(3)):
        want = series(nmax, scale[i, j][None])[0]
        assert np.allclose(g[i, j], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 18),
       pinned=st.booleans(), per_chunk=st.sampled_from([None, 1, 2]))
def test_power_trace_series_matches_matrix_powers(seed, dim, pinned,
                                                  per_chunk):
    """Every nmax from 0 to 40, so every remainder mod b and the perfect
    squares up to 36, against tr((D M)^k) / k from k - 1 plain products;
    with rows of pinned (zero) scale entries, and with chunks of one point
    or of two points, which leaves a partial last chunk of the five."""
    rng = np.random.default_rng(seed)
    mat = rand_gamma(rng, (dim, dim)) / np.sqrt(2 * dim)
    scale = rng.uniform(0.5, 1.2, (5, dim)) * np.exp(
        2j * np.pi * rng.random((5, dim)))
    if pinned:
        scale[rng.random((5, dim)) < 0.3] = 0.0
        scale[3] = 0.0
    def first(lo, hi, out):
        np.multiply(scale[lo:hi, :, None], mat, out=out)

    want = np.empty((5, 40), dtype=complex)
    for row, z in enumerate(scale):
        power = np.eye(dim)
        for k in range(1, 41):
            power = power @ (z[:, None] * mat)
            want[row, k - 1] = np.trace(power) / k
    for nmax in range(41):
        budget = hafnian._CHUNK_BYTES
        if per_chunk is not None:
            b = math.isqrt(max(nmax - 1, 0)) + 1
            budget = per_chunk * 16 * dim ** 2 * (b + 3)
        with mock.patch.object(hafnian, "_CHUNK_BYTES", budget):
            g = hafnian.power_trace_series(first, dim, nmax, 5)
        assert g.shape == (5, nmax)
        for row in range(5):
            ref = want[row, :nmax]
            tol = 1e-12 * np.abs(ref).max(initial=0.0)
            assert np.abs(g[row] - ref).max(initial=0.0) <= tol


@pytest.mark.parametrize("dim, nmax, npts, limit", [
    # one chunk's buffers plus the output, with 25% to spare
    (12, 22, 2000, 1.25 * (hafnian._CHUNK_BYTES + 2000 * 22 * 16)),
    # one point, 1024 traces: storing all 1024 powers would take 16 MB
    (32, 1024, 1, 2 * 2 ** 20),
])
def test_power_trace_series_memory_is_bounded(dim, nmax, npts, limit):
    rng = np.random.default_rng(7)
    mat = rand_gamma(rng, (dim, dim))
    mat *= 0.9 / np.linalg.norm(mat, 2)
    scale = np.exp(2j * np.pi * rng.random((npts, dim)))

    def first(lo, hi, out):
        np.multiply(scale[lo:hi, :, None], mat, out=out)

    tracemalloc.start()
    try:
        hafnian.power_trace_series(first, dim, nmax, npts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


# -- lhaf via sieve -----------------------------------------------------------

def sieve_vs_oracle(rng, nmodes, pattern, with_gamma=True, rtol=1e-9):
    a = rand_symmetric(rng, 2 * nmodes)
    gam = rand_gamma(rng, 2 * nmodes) if with_gamma else np.zeros(2 * nmodes)
    rep, rg = hafnian.repeat_pattern(a, gam, pattern)
    want = hafnian.lhaf_oracle(rep, rg)
    got = hafnian.lhaf_sieve(a, gam, pattern)
    assert np.isclose(got, want, rtol=rtol, atol=1e-12)


def test_lhaf_sieve_simple_patterns():
    rng = np.random.default_rng(42)
    sieve_vs_oracle(rng, 2, [1, 1])
    sieve_vs_oracle(rng, 2, [2, 1])
    sieve_vs_oracle(rng, 3, [2, 0, 2])
    sieve_vs_oracle(rng, 2, [3, 2], with_gamma=False)


def test_lhaf_sieve_zero_pattern():
    rng = np.random.default_rng(1)
    a = rand_symmetric(rng, 4)
    assert hafnian.lhaf_sieve(a, rand_gamma(rng, 4), [0, 0]) == 1.0


def test_lhaf_sieve_scaling_law():
    rng = np.random.default_rng(9)
    nmodes = 3
    a = rand_symmetric(rng, 2 * nmodes)
    gam = rand_gamma(rng, 2 * nmodes)
    c = rand_gamma(rng, 2 * nmodes)
    scaled_a = c[:, None] * a * c[None, :]
    scaled_g = c * gam
    pattern = [1, 1, 1]
    lhs = hafnian.lhaf_sieve(scaled_a, scaled_g, pattern)
    rhs = np.prod(c) * hafnian.lhaf_sieve(a, gam, pattern)
    assert np.isclose(lhs, rhs, rtol=1e-9)


def test_lhaf_sieve_permutation_invariance():
    rng = np.random.default_rng(10)
    nmodes = 3
    a = rand_symmetric(rng, 2 * nmodes)
    gam = rand_gamma(rng, 2 * nmodes)
    pattern = [2, 1, 3]
    perm = [2, 0, 1]
    full = perm + [nmodes + p for p in perm]
    ap = a[np.ix_(full, full)]
    gp = gam[full]
    pp = [pattern[p] for p in perm]
    assert np.isclose(
        hafnian.lhaf_sieve(ap, gp, pp),
        hafnian.lhaf_sieve(a, gam, pattern),
        rtol=1e-9,
    )


def test_lhaf_sieve_node_independence():
    rng = np.random.default_rng(12)
    a = rand_symmetric(rng, 6)
    gam = rand_gamma(rng, 6)
    pattern = [2, 1, 2]
    default = hafnian.lhaf_sieve(a, gam, pattern)  # unit circles first
    expand = hafnian.block_expansion([(0,), (1,), (2,)], 3)
    model = hafnian.gaussian_model(a, gam)
    for radii in ([4.0, 2.0, 4.0], [0.5, 2.0, 1.3]):
        values, _ = hafnian.grid_coefficients(hafnian.Sieve(model, expand),
                                              [pattern], radii)
        assert np.isclose(default, values[0], rtol=1e-8)


def eig_f(a, gam, n, z):
    """f_n at the point z from one eigendecomposition of D(z) X A: g_k is
    sum(lam^k) / (2k) plus the loop term gamma^T V lam^(k-1) V^-1 D X gamma
    / 2."""
    x = xmat(len(z))
    d = np.concatenate([z, z])
    lam, v = np.linalg.eig(d[:, None] * (x @ a))
    right = np.linalg.solve(v, d * (x @ gam))
    left = gam @ v
    g = [(lam ** k).sum() / (2 * k) + (left * lam ** (k - 1)) @ right / 2
         for k in range(1, n + 1)]
    return hafnian.f_coefficients(np.array(g))[-1]


def roots_of_unity_fold(evaluate, pattern):
    """prod_j k_j! [z^k] evaluate(z), k = ``pattern`` (all counts > 0),
    folded over the (k_j + 1)-th roots of unity in each variable j, one
    point at a time."""
    weight = np.prod([math.factorial(k) / (k + 1) for k in pattern])
    total = 0.0 + 0.0j
    for m in itertools.product(*(range(k + 1) for k in pattern)):
        phases = 2 * np.pi * np.array(m) / (np.array(pattern) + 1)
        total += (weight * np.exp(-1j * np.dot(pattern, phases))
                  * evaluate(np.exp(1j * phases)))
    return total


def test_lhaf_sieve_eig_path_matches():
    """The matrix-power grid engine against a pointwise roots-of-unity fold
    over an eigenvalue evaluation of f_N."""
    rng = np.random.default_rng(13)
    a = rand_symmetric(rng, 6)
    gam = rand_gamma(rng, 6)
    pattern = [2, 2, 2]
    want = roots_of_unity_fold(lambda z: eig_f(a, gam, 6, z), pattern)
    assert np.isclose(hafnian.lhaf_sieve(a, gam, pattern), want, rtol=1e-8)


# -- shared grid --------------------------------------------------------------

@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), with_gamma=st.booleans(),
       sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_grid_coefficients_match_per_pattern_sieve(seed, with_gamma, sizes):
    """Every pattern the grid resolves equals its own smallest-grid sieve,
    and its fold mass bounds its magnitude."""
    rng = np.random.default_rng(seed)
    nmodes = len(sizes) + 1
    a = rand_symmetric(rng, 2 * nmodes) / nmodes
    gam = rand_gamma(rng, 2 * nmodes) if with_gamma else None
    # the first variable covers two modes, as a detector block does
    blocks = [(0, 1)] + [(j,) for j in range(2, nmodes)]
    expand = hafnian.block_expansion(blocks, nmodes)
    targets = list(itertools.product(*(range(s) for s in sizes)))
    radii = rng.uniform(0.5, 2.0, len(sizes))
    values, masses = hafnian.grid_coefficients(hafnian.Sieve(
        hafnian.gaussian_model(a, gam), expand), targets, radii)
    for k, value, mass in zip(targets, values, masses):
        want = hafnian.blocked_lhaf(a, gam, blocks, k)
        assert np.isclose(value, want, rtol=1e-9, atol=1e-12)
        assert abs(value) <= mass * (1 + 1e-12)


def poly_mul(a, b, cap):
    """Product of two polynomials {exponent tuple: coefficient}, dropping
    every exponent beyond ``cap``."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= c for x, c in zip(e, cap)):
                out[e] = out.get(e, 0) + ca * cb
    return out


def test_grid_coefficients_two_groups_match_brute_force():
    """1 / det(I - X B(y)), X = diag(x_1, x_2) and B(y) = sum_j y_j W_j, has
    degree N in x and degree N in y: with two groups, every pattern up to
    N = 3 from one grid equals its coefficient in the expanded series
    sum_n P^n, P = 1 - det(I - X B(y)).  With x_2, y_2 and y_3 limited to
    one, the grid pins the variable of the smallest largest count in each
    group, x_2 and y_2, and no live size exceeds its count plus one."""
    rng = np.random.default_rng(60)
    w = rand_gamma(rng, (3, 2, 2)) / 2

    def series(nmax, z):
        def first(lo, hi, out):
            out[:] = z[lo:hi, :2, None] * np.einsum("gj,jab->gab",
                                                     z[lo:hi, 2:], w)
        return hafnian.power_trace_series(first, 2, nmax, len(z))

    def unit(j):
        return tuple(int(i == j) for i in range(5))

    cap = (3,) * 5
    x1, x2 = {unit(0): 1.0}, {unit(1): 1.0}
    b = [[{unit(2 + j): w[j, r, c] for j in range(3)} for c in range(2)]
         for r in range(2)]
    # P = x1 B11 + x2 B22 - x1 x2 (B11 B22 - B12 B21)
    p = {**poly_mul(x1, b[0][0], cap), **poly_mul(x2, b[1][1], cap)}
    minor = poly_mul(b[0][0], b[1][1], cap)
    for e, c in poly_mul(b[0][1], b[1][0], cap).items():
        minor[e] = minor.get(e, 0) - c
    for e, c in poly_mul(poly_mul(x1, x2, cap), minor, cap).items():
        p[e] = p.get(e, 0) - c
    want, term = {(0,) * 5: 1.0}, {(0,) * 5: 1.0}
    for _ in range(6):
        term = poly_mul(term, p, cap)
        for e, c in term.items():
            want[e] = want.get(e, 0) + c
    scale = max(abs(c) for c in want.values())
    for limit in (3, 1):
        targets = [k for k in itertools.product(range(4), repeat=5)
                   if sum(k[:2]) == sum(k[2:]) <= 3
                   and max(k[1], k[3], k[4]) <= limit]
        values, _ = hafnian.grid_coefficients(hafnian.Sieve(
            hafnian.from_log_series(series), np.eye(5),
            groups=[range(2), range(2, 5)]), targets)
        for k, value in zip(targets, values):
            got = value / hafnian.factorial_product(k)
            assert abs(got - want.get(k, 0)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 8).flatmap(lambda nvar: st.lists(
           st.lists(st.integers(0, 5), min_size=nvar, max_size=nvar),
           min_size=1, max_size=4)),
       split=st.integers(0, 8))
def test_grid_has_fewest_points_over_every_pin(rows, split):
    """The series sees as many points as the best pin per group allows,
    found by trying every pin: pin e costs prod (max(k_j, k_e) + 1) over the
    other live variables j of its group, k the largest count per variable."""
    nvar = len(rows[0])
    groups = ([range(nvar)] if not 0 < split < nvar
              else [range(split), range(split, nvar)])
    kmax = np.max(rows, axis=0)
    want = 1
    for group in groups:
        live = [j for j in group if kmax[j]]
        want *= min((math.prod(max(kmax[j], kmax[e]) + 1
                               for j in live if j != e) for e in live),
                    default=1)
    seen = []

    def series(nmax, z):
        seen.append(len(z))
        return np.zeros((len(z), nmax))

    hafnian.grid_coefficients(hafnian.Sieve(hafnian.from_log_series(series),
                                            np.eye(nvar), groups), rows)
    assert seen == [want]


def fock_gram_series():
    """The real-coefficient Fock series 1 / det(I - X (S o B(y))) of two
    occupied inputs with a complex Gram matrix, two output blocks and the
    loss variable, from its power traces: five variables in the
    homogeneous groups (x_1, x_2), (y_1, y_2, y_env)."""
    t = np.sqrt(0.8) * haar_unitary(3, 4)[:, :2]
    gram = np.array([[1.0, 0.6 * np.exp(0.7j)], [0.6 * np.exp(-0.7j), 1.0]])
    w = [t[b].conj().T @ t[b] for b in ([0], [1, 2])]
    w = np.array(w + [np.eye(2) - t.conj().T @ t]) * gram

    def series(nmax, z):
        def first(lo, hi, out):
            out[:] = z[lo:hi, :2, None] * np.einsum("gj,jab->gab",
                                                     z[lo:hi, 2:], w)
        return hafnian.power_trace_series(first, 2, nmax, len(z))
    return hafnian.from_log_series(series)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(two_groups=st.booleans(),
       rows=st.lists(st.lists(st.integers(0, 5), min_size=5, max_size=5),
                     min_size=1, max_size=3),
       radii=st.none() | st.lists(st.floats(0.5, 2.0), min_size=5,
                                  max_size=5))
def test_half_grid_equals_full_grid(two_groups, rows, radii):
    """A real generating function folds on one point per conjugate pair
    to the full grid's values and masses: odd and even axes, one-point
    grids, pinned variables, one group (a displaced lossy Gaussian state)
    or two (a Fock series with a complex Gram matrix), on unit or dilated
    circles.  The two grids differ at each partner point by the series'
    own rounding, a few eps of |f_N| on either grid (the full grid's
    imaginary part alone, which is exactly zero, reaches 1.3e-15 * mass on
    these series), so they agree within 16 eps * mass; the half grid is
    conjugate-symmetric, so its values are real to the fold's rounding."""
    nvar = 5 if two_groups else 3
    series, groups = ((fock_gram_series(), [range(2), range(2, 5)])
                      if two_groups else (displaced_lossy_series(), None))
    rows = [row[:nvar] for row in rows]
    radii = None if radii is None else radii[:nvar]
    half, half_mass = hafnian.grid_coefficients(
        hafnian.Sieve(series, np.eye(nvar), groups, real=True), rows, radii)
    full, full_mass = hafnian.grid_coefficients(
        hafnian.Sieve(series, np.eye(nvar), groups), rows, radii)
    assert np.all(np.abs(half - full) <= 16 * hafnian._EPS * full_mass)
    assert np.all(np.abs(half_mass - full_mass) <= 16 * hafnian._EPS
                  * full_mass)
    assert np.all(np.abs(half.imag) <= 1e-15 * full_mass)


@contextlib.contextmanager
def grid_spy():
    """Per ``grid_coefficients`` call: (its grid shape, ``real``, the
    point counts its series saw)."""
    calls, original = [], hafnian.grid_coefficients

    def spy(sieve, targets, radii=None):
        seen = []

        def counted(totals, z):
            seen.append(len(z))
            return sieve.model(totals, z)
        rows = np.asarray(targets, dtype=int).reshape(-1,
                                                      sieve.expand.shape[0])
        plan = hafnian._grid_plan(tuple(map(tuple, rows.tolist())),
                                  sieve.groups)
        calls.append((plan.shape, sieve.real, seen))
        return original(hafnian.Sieve(counted, sieve.expand, sieve.groups,
                                      sieve.real), targets, radii)
    with mock.patch.object(hafnian, "grid_coefficients", spy):
        yield calls


def test_real_grids_evaluate_one_point_per_conjugate_pair():
    """A real call evaluates its model at (G + s) / 2 of its G points, s
    of them self-conjugate (m_j = 0 or L_j / 2 on every axis): fine
    probabilities and diagonal Gaussian herald classes.  A default
    ``blocked_lhaf`` call, every off-diagonal herald class and the Fock
    product form, whose coefficients are complex, evaluate all G."""
    def points(shape, real):
        g = math.prod(shape)
        s = math.prod(2 - size % 2 for size in shape)
        return (g + s) // 2 if real else g

    rep = displaced_lossy_rep()
    fi = fock_channel.FockInput((2, 1, 0), np.sqrt(0.8) * haar_unitary(3, 4))
    runs = [
        (lambda: dist.prob_fine(rep, (6, 5, 3)), True),
        (lambda: hafnian.blocked_lhaf(rep.a, rep.gamma, [(0,), (1,), (2,)],
                                      (6, 5, 3)), False),
        (lambda: fock_channel.fock_coarse_prob(
            fi, CoarsePattern([[0], [1, 2]], (1, 1))), False),
    ]
    for run, real in runs:
        with grid_spy() as calls:
            run()
        assert calls and points(calls[0][0], True) < points(calls[0][0],
                                                            False)
        for shape, flag, seen in calls:
            assert flag == real and seen == [points(shape, real)]
    spec = heralding.HeraldSpec([0], [2], cutoff=3)
    with grid_spy() as calls:
        heralding.herald_grouped(rep, spec)
    flags = [flag for _, flag, _ in calls]
    assert flags == sorted(flags, reverse=True) and len(set(flags)) == 2
    for shape, flag, seen in calls:
        assert seen == [points(shape, flag)]
    assert any(points(shape, True) < points(shape, False)
               for shape, flag, _ in calls if not flag)


def clear_plan_caches():
    for cache in (hafnian._grid_plan, hafnian._unit_grid, hafnian._phases,
                  hafnian._conj_pairs, hafnian._block_expansion):
        cache.cache_clear()


def test_grid_plan_caches_are_safe():
    """Cached plans give bitwise the values of fresh ones, also for a
    dilated re-fold after a unit-circle call; cached arrays are read-only;
    a malformed partition raises on every call."""
    series = displaced_lossy_series()
    expand = np.eye(3)
    rows = [[2, 1, 3], [1, 2, 3], [4, 0, 2], [0, 0, 0], [1, 1, 1]]
    for real in (False, True):
        sieve = hafnian.Sieve(series, expand, real=real)
        clear_plan_caches()
        fresh = hafnian.grid_coefficients(sieve, rows)
        cached = hafnian.grid_coefficients(sieve, rows)
        clear_plan_caches()
        again = hafnian.grid_coefficients(sieve, rows)
        for got in (cached, again):
            assert all(np.array_equal(x, y) for x, y in zip(got, fresh))
    radii = [2.0, 0.5, 1.5]
    sieve = hafnian.Sieve(series, expand)
    clear_plan_caches()
    dilated = hafnian.grid_coefficients(sieve, rows[:1], radii)
    hafnian.grid_coefficients(sieve, rows[:1])
    after_unit = hafnian.grid_coefficients(sieve, rows[:1], radii)
    assert all(np.array_equal(x, y) for x, y in zip(after_unit, dilated))

    plan = hafnian._grid_plan(tuple(map(tuple, rows)), None)
    arrays = [hafnian._unit_grid(plan.shape),
              hafnian.block_expansion([(0, 1), (2,)], 3),
              hafnian.partition_expansion([(0,), (1, 2)], 3),
              *hafnian._conj_pairs(plan.shape)]
    arrays += [a for *_, phases in plan.reads for a in phases]
    assert len(plan.reads) == len(rows) and arrays[6:]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    for _ in range(2):
        with pytest.raises(PartitionMismatch):
            hafnian.partition_expansion([(0, 1)], 3)
        with pytest.raises(PartitionMismatch):
            hafnian.block_expansion([(0, 1), (1,)], 3)


def test_grid_plan_caches_stay_small():
    """A fine-grid scan, 343 patterns up to 6 per mode on a displaced lossy
    state and the 126 Fock outputs of (2, 2, 1, 0) through two lossy
    circuits, leaves its plans, unit grids and expansions cached in under
    1.5 MB: the plans hold no per-pattern grid."""
    s = gaussian.from_squeezing([0.2, 0.15, 0.1], gaussian.ModeLayout(3))
    s = gaussian.apply_channel(s, 0.9 * haar_unitary(3, 1))
    rep = gaussian.to_adjacency(gaussian.displace(s, [0.1, -0.1j, 0.05]))
    inputs = [fock_channel.FockInput((2, 2, 1, 0),
                                     np.sqrt(0.9) * haar_unitary(4, seed))
              for seed in (2, 3)]
    outputs = [CoarsePattern([[0], [1], [2], [3]], b)
               for b in itertools.product(range(6), repeat=4) if sum(b) <= 5]
    clear_plan_caches()
    tracemalloc.start()
    try:
        for n in itertools.product(range(7), repeat=3):
            dist.prob_fine(rep, n)
        for fi in inputs:
            for cp in outputs:
                fock_channel.fock_coarse_prob(fi, cp)
        held = tracemalloc.get_traced_memory()[0]
        clear_plan_caches()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 1.5e6


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), nmodes=st.integers(1, 4),
       nmax=st.integers(1, 30), one_per_chunk=st.booleans())
def test_loop_term_matches_per_k_loop(seed, nmodes, nmax, one_per_chunk):
    """On random displaced lossy states, the loop term read off the baby and
    giant steps equals gamma^T (D XA)^(k-1) D X gamma / 2 from k - 1
    matrix-vector steps, at random scalings D."""
    rng = np.random.default_rng(seed)
    layout = gaussian.ModeLayout(nmodes)
    s = gaussian.from_squeezing(rng.uniform(0.1, 0.8, nmodes), layout)
    s = gaussian.apply_channel(s, np.sqrt(rng.uniform(0.5, 1.0))
                               * haar_unitary(nmodes, rng))
    rep = gaussian.to_adjacency(gaussian.displace(
        s, rng.normal(size=nmodes) + 1j * rng.normal(size=nmodes)))
    scale = rng.uniform(0.5, 1.2, (4, nmodes)) * np.exp(
        2j * np.pi * rng.random((4, nmodes)))
    budget = 1 if one_per_chunk else hafnian._CHUNK_BYTES
    with mock.patch.object(hafnian, "_CHUNK_BYTES", budget):
        got = hafnian.gaussian_series(rep.a, rep.gamma)(nmax, scale)
    x = xmat(nmodes)
    want = np.empty((4, nmax), dtype=complex)
    for row, z in enumerate(scale):
        d = np.concatenate([z, z])
        mat = d[:, None] * (x @ rep.a)
        power, w = np.eye(2 * nmodes), d * (x @ rep.gamma)
        for k in range(1, nmax + 1):
            power = power @ mat
            want[row, k - 1] = np.trace(power) / (2 * k) + rep.gamma @ w / 2
            w = mat @ w
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fold_is_sound_rules():
    assert hafnian.fold_is_sound(1.0, 10.0)
    assert not hafnian.fold_is_sound(1e-6, 10.0)
    assert hafnian.fold_is_sound(1e-6, 10.0, abs_tol=1e-12)
    assert not hafnian.fold_is_sound(np.nan, 1.0, abs_tol=1.0)


# -- fold and certify ---------------------------------------------------------

# on this state's unit circles the fold of HARD has about 1e4 times the mass
# of its value, so it is unsound there; on radii 4**(k_j/k_max) the two
# nearly agree, and every pattern with counts up to 6 is sound on unit
# circles
HARD = [20, 1, 5]


def displaced_lossy_rep():
    s = gaussian.from_squeezing([1.0, 0.8, 0.6], gaussian.ModeLayout(3))
    s = gaussian.apply_channel(s, np.sqrt(0.85) * haar_unitary(3, 0))
    return gaussian.to_adjacency(gaussian.displace(s, [0.1, 0.1, 0.1]))


def displaced_lossy_series():
    rep = displaced_lossy_rep()
    return hafnian.gaussian_model(rep.a, rep.gamma)


def folded_rows(series, rows, abs_tol=None):
    """sieve_reduce's values, and the target rows of every grid it folded."""
    with mock.patch.object(hafnian, "grid_coefficients",
                           wraps=hafnian.grid_coefficients) as spy:
        values = hafnian.sieve_reduce(hafnian.Sieve(series, np.eye(3)), rows,
                                      abs_tol)
    return values, [np.asarray(c.args[1]).tolist() for c in spy.call_args_list]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3),
                     max_size=4),
       at=st.integers(0, 4))
def test_sieve_reduce_rows_match_single_rows(rows, at):
    """Many rows in one call equal one call per row, also for a row that is
    folded again on dilated circles."""
    series = displaced_lossy_series()
    rows = rows[:at] + [HARD] + rows[at:]
    got, folds = folded_rows(series, rows)
    assert folds[1:] == [[HARD]] * (len(folds) - 1) and len(folds) > 1
    for k, value in zip(rows, got):
        want, _ = folded_rows(series, [k])
        assert np.isclose(value, want[0], rtol=1e-10, atol=0)


def test_sieve_reduce_tolerance_is_per_row():
    """A row is accepted under its own tolerance, not under another row's."""
    series = displaced_lossy_series()
    (value,), _ = folded_rows(series, [HARD])
    loose = abs(value)  # far above eps * mass on unit circles
    for rows in ([HARD, [1, 2, 0]], [[1, 2, 0], HARD]):
        at = rows.index(HARD)
        own = [loose if r == at else None for r in range(2)]
        _, folds = folded_rows(series, rows, own)
        assert folds == [rows]
        _, folds = folded_rows(series, rows, own[::-1])
        assert folds[0] == rows and len(folds) > 1
        assert folds[1:] == [[HARD]] * (len(folds) - 1)


def full_grid_fold(model, expand, rows, radii, groups):
    """The rows folded one point at a time over the full grid of their
    largest counts, with no variable pinned: variable j runs over r_j
    times the (k_j + 1)-th roots of unity, k_j its largest count, or sits
    at zero when all its counts are zero.  (values, masses) as
    ``grid_coefficients`` defines them, on this larger grid."""
    rows = np.array(rows)
    nvar = rows.shape[1]
    radii = np.ones(nvar) if radii is None else np.asarray(radii, float)
    sizes = rows.max(axis=0) + 1
    m = np.array(list(itertools.product(*(range(s) for s in sizes))))
    z = np.where(sizes > 1, radii * np.exp(2j * np.pi * m / sizes), 0.0)
    first = list(range(nvar)) if groups is None else list(groups[0])
    totals = sorted(set(rows[:, first].sum(axis=1).tolist()))
    f = dict(zip(totals, model(totals, z @ expand)))
    values, masses = [], []
    for k in rows:
        column = f[k[first].sum()]
        weight = math.prod(math.factorial(c) / (s * r ** c)
                           for c, s, r in zip(k, sizes, radii))
        phases = np.exp(-2j * np.pi * ((m * k % sizes) / sizes).sum(axis=1))
        values.append(weight * (phases * column).sum())
        masses.append(weight * np.abs(column).sum())
    return np.array(values), np.array(masses)


def composition(data, total, parts, cap=3):
    """``parts`` counts of at most ``cap`` each that sum to ``total``
    (at most parts * cap)."""
    counts = []
    for j in range(parts - 1, 0, -1):
        rest = total - sum(counts)
        counts.append(data.draw(st.integers(max(0, rest - j * cap),
                                            min(cap, rest))))
    return counts + [total - sum(counts)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["gaussian", "complex", "gram", "fock"]),
       dilated=st.booleans(), data=st.data())
def test_grid_coefficients_match_full_grid_fold(kind, dilated, data):
    """Every row equals its fold over the full, unpinned grid within
    16 eps times the larger mass: a real model on its representatives (a
    displaced lossy state; a Fock series with a complex Gram matrix, in two
    groups) and a complex model on every point (a random complex adjacency
    with loops; the Fock product form, in two groups, as ``fock_coarse_prob``
    reads it), one row or many, on unit or dilated circles."""
    groups = None
    if kind in ("gaussian", "complex"):
        if kind == "gaussian":
            model, real = displaced_lossy_series(), True
        else:
            rng = np.random.default_rng(5)
            model = hafnian.gaussian_model(rand_symmetric(rng, 6) / 3,
                                           rand_gamma(rng, 6))
            real = False
        expand = np.eye(3)
        rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=3,
                                           max_size=3), min_size=1,
                                  max_size=4))
    elif kind == "gram":   # x_1, x_2, then y_1, y_2, y_env of equal total
        model, expand, real = fock_gram_series(), np.eye(5), True
        groups = [range(2), range(2, 5)]
        xs = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=2,
                                         max_size=2), min_size=1, max_size=3))
        rows = [x + composition(data, sum(x), 3) for x in xs]
    else:   # the occupied inputs, then three outputs and the loss
        fi = fock_channel.FockInput((2, 1, 0),
                                    np.sqrt(0.8) * haar_unitary(3, 4))
        sieve = fock_channel._coarse_record(fi, ((0,), (1,), (2,)))
        model, expand, groups, real = (sieve.model, sieve.expand,
                                       sieve.groups, sieve.real)
        prefix, nin = [k for k in fi.p if k], sum(fi.p)
        rows = [list(prefix) + composition(data, nin, 4)
                for _ in range(data.draw(st.integers(1, 3)))]
    nvar = len(rows[0])
    radii = (data.draw(st.lists(st.floats(0.5, 2.0), min_size=nvar,
                                max_size=nvar)) if dilated else None)
    values, masses = hafnian.grid_coefficients(
        hafnian.Sieve(model, expand, groups, real), rows, radii)
    want, want_mass = full_grid_fold(model, expand, rows, radii, groups)
    bound = 16 * hafnian._EPS * np.maximum(masses, want_mass)
    assert np.all(np.abs(values - want) <= bound)


def test_one_row_reader_equals_sieve_reduce():
    """The one-row reader gives bitwise what ``sieve_reduce`` gives, scaled
    and range-checked alike: Gaussian rows, among them HARD, which is
    unsound on unit circles and folded again, and two Fock outputs, one of
    which is folded again too."""
    rep = displaced_lossy_rep()
    sieve, vacuum = dist._state_record(rep, None), rep.vacuum_prob
    fi = fock_channel.FockInput((2, 2, 1, 0), np.sqrt(0.9) * haar_unitary(
        4, np.random.default_rng(3)))
    fsieve = fock_channel._coarse_record(fi, ((0,), (1,), (2,), (3,)))
    prefix, nin = tuple(k for k in fi.p if k), sum(fi.p)
    cases = [(sieve, k, vacuum) for k in ((2, 1, 3), (0, 0, 4), tuple(HARD))]
    cases += [(fsieve, prefix + b + (nin - sum(b),), 1.0)
              for b in ((0, 2, 0, 3), (1, 1, 0, 0))]
    refolded = []
    for sieve, k, pre in cases:
        with mock.patch.object(hafnian, "grid_coefficients",
                               wraps=hafnian.grid_coefficients) as spy:
            got = dist._read_prob(sieve, pre, k)
        refolded.append(spy.call_count > 1)
        value = hafnian.sieve_reduce(sieve, [k])[0]
        assert got == dist._real_prob(pre * value
                                      / hafnian.factorial_product(k))
    assert refolded == [False, False, True, True, False]


def test_refolds_leave_grid_results_unchanged():
    """A row folded again on dilated circles keeps its result apart from
    the grids it reads: every (values, masses) that ``grid_coefficients``
    returned reads the same after ``sieve_reduce`` and after the one-row
    reader."""
    returned, original = [], hafnian.grid_coefficients

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        returned.append((out, [a.copy() for a in out]))
        return out
    rep = displaced_lossy_rep()
    sieve = dist._state_record(rep, None)
    with mock.patch.object(hafnian, "grid_coefficients", spy):
        hafnian.sieve_reduce(sieve, [HARD, [1, 2, 0]])
        dist._read_prob(sieve, rep.vacuum_prob, tuple(HARD))
    assert len(returned) > 2
    for out, kept in returned:
        assert all(np.array_equal(a, b) for a, b in zip(out, kept))


@contextlib.contextmanager
def reduce_spy():
    """The (real, groups) of the record of every ``sieve_reduce`` call,
    in each namespace that calls it."""
    calls, original = [], hafnian.sieve_reduce

    def spy(sieve, targets, abs_tol=None):
        calls.append((sieve.real, sieve.groups))
        return original(sieve, targets, abs_tol)
    with contextlib.ExitStack() as stack:
        for module in (hafnian, dist, heralding):
            stack.enter_context(mock.patch.object(module, "sieve_reduce", spy))
        yield calls


def test_every_read_reaches_sieve_reduce_with_its_record():
    """Each public read goes through ``sieve_reduce`` on a record that
    fixes its realness and groups: Gaussian probabilities, the
    distinguishable fast path, moments, cumulants and the diagonal Gaussian
    herald class are real in one group; ``blocked_lhaf`` is complex, as
    every other Gaussian herald class is; the Fock product
    form is complex in two groups, the occupied inputs and the outputs
    with the loss, for probabilities and heralds alike."""
    rep = displaced_lossy_rep()
    state = gaussian.from_squeezing([0.4, 0.3, 0.2], gaussian.ModeLayout(3))
    source = gaussian.from_squeezing([0.4, 0.0, 0.0, 0.45],
                                     gaussian.ModeLayout(2, 2))
    drep = gaussian.to_adjacency(gaussian.apply_channel(
        source, np.sqrt(0.85) * np.kron(haar_unitary(2, 5), np.eye(2))))
    blocks = dist.extract_distinguishable_blocks(drep)
    fi = fock_channel.FockInput((2, 1, 0), np.sqrt(0.8) * haar_unitary(3, 4))
    real, fock = [(True, None)], [(False, ((0, 1), (2, 3, 4)))]
    runs = [
        (lambda: dist.prob_fine(rep, (2, 1, 3)), real),
        (lambda: dist.prob_coarse(rep, CoarsePattern([[0, 2], [1]], (2, 1))),
         real),
        (lambda: dist.prob_external(drep, (1, 1)), real),
        (lambda: dist.prob_external_distinguishable(blocks, (1, 1)), real),
        (lambda: dist.coarse_moment(state, [[0], [1, 2]]), real),
        (lambda: dist.coarse_cumulant(state, [[0], [1, 2]]), real),
        (lambda: dist.block_cumulant(state, [0, 2], 3), real),
        (lambda: hafnian.blocked_lhaf(rep.a, rep.gamma, [(0,), (1, 2)],
                                      (2, 1)), [(False, None)]),
        (lambda: fock_channel.fock_coarse_prob(
            fi, CoarsePattern([[0], [1, 2]], (1, 1))), fock),
    ]
    for run, want in runs:
        with reduce_spy() as calls:
            run()
        assert calls == want
    with reduce_spy() as calls:
        heralding.herald_grouped(rep, heralding.HeraldSpec([0], [2], cutoff=3))
    assert calls[0] == (True, None) and len(calls) > 1
    assert calls[1:] == [(False, None)] * (len(calls) - 1)
    with reduce_spy() as calls:
        fock_channel.fock_herald(fi, heralding.HeraldSpec([0], [1], cutoff=2))
    assert calls
    for flag, groups in calls:
        assert not flag and len(groups) == 2 and groups[0] == (0, 1)
        assert groups[1] == tuple(range(2, groups[1][-1] + 1))


def test_negative_counts_raise_on_every_call():
    """A negative count is a ``DomainError`` straight into
    ``grid_coefficients`` as through ``sieve_reduce``, on every call: the
    plan that finds it keeps no exception."""
    sieve = hafnian.Sieve(displaced_lossy_series(), np.eye(3))
    hafnian.grid_coefficients(sieve, [(1, 1, 2)])
    for read in (hafnian.grid_coefficients, hafnian.sieve_reduce):
        for _ in range(2):
            with pytest.raises(DomainError):
                read(sieve, [(1, -1, 2)])
            with pytest.raises(DomainError):
                read(sieve, ((1, 1, 2), (0, 0, -3)))


def test_malformed_count_rows_raise_on_cold_and_warm_plans():
    """A row whose length is not the variable count is a
    ``PartitionMismatch``, and a fractional or boolean count a
    ``DomainError``, through ``grid_coefficients`` and ``sieve_reduce``, as
    lists or as tuples: never split, truncated or read as an int, also once
    the plan of the rows they would have been read as is cached."""
    sieve = hafnian.Sieve(displaced_lossy_series(),
                          hafnian.block_expansion([(0,), (1, 2)], 3))
    cases = [([[1, 1, 0, 2]], PartitionMismatch, [(1, 1), (0, 2)]),
             ([[1.7, 0.2]], DomainError, [(1, 0)]),
             ([[True, 1]], DomainError, [(1, 1)]),
             (((1.7, 0.2),), DomainError, ((1, 0),)),
             (((True, 1),), DomainError, ((1, 1),)),
             ([[np.nan, 1]], DomainError, [(0, 1)]),
             ([[np.inf, 0]], DomainError, [(1, 0)]),
             ([["1", 1]], DomainError, [(1, 1)])]
    for read in (hafnian.grid_coefficients, hafnian.sieve_reduce):
        for rows, error, read_as in cases:
            match = "non-negative integers" if error is DomainError else None
            clear_plan_caches()
            with pytest.raises(error, match=match):
                read(sieve, rows)
            read(sieve, read_as)
            with pytest.raises(error, match=match):
                read(sieve, rows)


def test_no_rows_read_as_empty_arrays():
    """No count rows, as a list or as a tuple, read as empty arrays through
    ``grid_coefficients`` and ``sieve_reduce`` alike."""
    sieve = hafnian.Sieve(displaced_lossy_series(), np.eye(3))
    for targets in ([], ()):
        values, masses = hafnian.grid_coefficients(sieve, targets)
        assert values.shape == masses.shape == (0,)
        assert hafnian.sieve_reduce(sieve, targets).shape == (0,)


# -- blocked ------------------------------------------------------------------

def test_blocked_singleton_reduces_to_sieve():
    rng = np.random.default_rng(20)
    a = rand_symmetric(rng, 6)
    gam = rand_gamma(rng, 6)
    b = [2, 0, 1]
    assert np.isclose(
        hafnian.blocked_lhaf(a, gam, [[0], [1], [2]], b),
        hafnian.lhaf_sieve(a, gam, b),
        rtol=1e-10,
    )


def test_blocked_single_block_total():
    rng = np.random.default_rng(21)
    a = rand_symmetric(rng, 6)
    gam = rand_gamma(rng, 6)
    n = 4
    assert np.isclose(
        hafnian.blocked_lhaf(a, gam, [[0, 1, 2]], [n]),
        math.factorial(n) * hafnian.f_n(a, gam, n),
        rtol=1e-9,
    )


def test_blocked_vs_combinatorial_small():
    rng = np.random.default_rng(22)
    a = rand_symmetric(rng, 6)
    gam = rand_gamma(rng, 6)
    blocks = [[0, 1], [2]]
    b = [2, 1]
    got = hafnian.blocked_lhaf(a, gam, blocks, b)
    want = hafnian.blocked_lhaf_combinatorial(a, gam, blocks, b, use_oracle=True)
    assert np.isclose(got, want, rtol=1e-9)


def test_blocked_partition_validation():
    a = np.zeros((6, 6))
    with pytest.raises(PartitionMismatch):
        hafnian.blocked_lhaf(a, None, [[0, 1]], [1])  # not covering
    with pytest.raises(PartitionMismatch):
        hafnian.blocked_lhaf(a, None, [[0, 1], [1, 2]], [1, 1])  # overlap
    with pytest.raises(PartitionMismatch):
        hafnian.blocked_lhaf(a, None, [[0, 1, 2], []], [1, 0])  # empty block
    with pytest.raises(PartitionMismatch):
        hafnian.blocked_lhaf(a, None, [[0, 1, 2]], [1, 1])  # count per block
    with pytest.raises(PartitionMismatch):
        hafnian.lhaf_sieve(a, None, [1, 1])  # one count per mode
    with pytest.raises(DomainError):
        hafnian.blocked_lhaf(a, None, [[0, 1], [2]], [1.5, 0])  # fractional


@pytest.mark.parametrize("blocks", [[[0], [1.0]], [[0.5], [1]],
                                    [[True], [0]], [[0], [np.True_]],
                                    [[0], ["1"]]])
def test_block_entries_must_be_integer_indices(blocks):
    """A block entry that is a float, a boolean or no number is a
    ``PartitionMismatch``, with a cold cache and after the expansion of the
    integer blocks that it equals as a key has been cached; NumPy integers
    are indices."""
    for expansion in (hafnian.block_expansion, hafnian.partition_expansion):
        clear_plan_caches()
        with pytest.raises(PartitionMismatch):
            expansion(blocks, 2)
        assert np.array_equal(expansion([[0], [1]], 2), np.eye(2))
        with pytest.raises(PartitionMismatch):
            expansion(blocks, 2)
        assert np.array_equal(expansion([np.array([0]), [np.int64(1)]], 2),
                              np.eye(2))


def test_compatible_patterns_count():
    pats = list(hafnian.compatible_patterns([[0, 1], [2]], [2, 1], 3))
    assert len(pats) == 3
    assert all(sum(p[:2]) == 2 and p[2] == 1 for p in pats)
