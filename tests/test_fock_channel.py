import itertools
import copy
import math
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonsieve import fock_channel as fc
from photonsieve import gaussian, hafnian
from photonsieve.cli import haar_unitary
from photonsieve.distributions import CoarsePattern
from photonsieve.errors import (DomainError, IndexOutOfRange, NonFinite,
                                NotPositiveDefinite, NotSubunitary,
                                PartitionMismatch, TooLarge,
                                ValidationFailure, ZeroProbability)
from photonsieve.hafnian import compatible_patterns, factorial_product
from photonsieve.heralding import HeraldSpec

from references import partial_trace

BS = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def fine_cp(b):
    return CoarsePattern([[k] for k in range(len(b))], list(b))


def master_matrix(t):
    """K = [[I - T^dag T, T^dag], [T, 0]]: input ports, then output ports."""
    m = t.shape[0]
    return np.block([[np.eye(m) - t.conj().T @ t, t.conj().T],
                     [t, np.zeros((m, m))]])


def permanent_element(fi, spec, u, v):
    """<v|rho|u> over the kept ports, ket u and bra v, by Ryser's formula
    (``perm_oracle``): the sum of per(K[R, C]) / (p! h! w! sqrt(u! v!)) over
    the fine herald outcomes h of the herald blocks and the outcomes w of
    the traced ports, with R = (p, h, w, v) and C = (p, h, w, u)."""
    m = len(fi.p)
    k = master_matrix(fi.t)
    blocks, counts = spec.measurement
    kept = [i for i in range(m)
            if i not in spec.herald_modes + spec.trace_out]
    nin = sum(fi.p)
    total = 0.0
    for h in compatible_patterns(blocks, counts, m):
        for w in itertools.product(range(nin + 1),
                                   repeat=len(spec.trace_out)):
            out = list(h)
            for i, c in zip(spec.trace_out, w):
                out[i] = c
            rows = [i for i in range(m) for _ in range(fi.p[i])]
            rows += [m + i for i in range(m) for _ in range(out[i])]
            cols = list(rows)
            rows += [m + i for i, c in zip(kept, v) for _ in range(c)]
            cols += [m + i for i, c in zip(kept, u) for _ in range(c)]
            if len(rows) != len(cols) or sum(out) + sum(v) > nin:
                continue  # not square, or more output rows than inputs
            total += (fc.perm_oracle(k[np.ix_(rows, cols)])
                      / factorial_product(out))
    return total / (factorial_product(fi.p)
                    * math.sqrt(factorial_product(u) * factorial_product(v)))


def permanent_density(fi, spec):
    nkept = len(fi.p) - len(spec.herald_modes) - len(spec.trace_out)
    patterns = list(itertools.product(range(spec.cutoff + 1), repeat=nkept))
    return np.array([[permanent_element(fi, spec, u, v) for u in patterns]
                     for v in patterns])


def glynn_permanent(mat, mult):
    """per of ``mat`` with row and column i repeated mult[i] times, by
    Glynn's formula with the sign vectors grouped by how many copies t_j of
    column j carry a minus sign: 2^-n sum_t prod_j (-1)^t_j C(c_j, t_j)
    prod_i (sum_j (c_j - 2 t_j) a_ij)^c_i.  Ryser's formula in the same
    grouped form lost up to 2e-8 to cancellation on the draws of
    ``test_master_theorem_matches_permanents``."""
    mult = np.asarray(mult)
    live = np.flatnonzero(mult)
    if not len(live):
        return 1.0 + 0.0j
    c = mult[live]
    a = np.asarray(mat, dtype=complex)[np.ix_(live, live)]
    t = np.array(list(itertools.product(*[range(x + 1) for x in c])))
    weight = np.prod([[(-1) ** tj * math.comb(int(cj), int(tj))
                       for tj, cj in zip(row, c)] for row in t], axis=1)
    terms = weight * np.prod(((c - 2 * t) @ a.T) ** c, axis=1)
    return terms.sum() / 2.0 ** c.sum()


# -- construction -------------------------------------------------------------

def test_herald_elements_are_master_matrix_permanents():
    fi = fc.FockInput((1, 1), 0.9 * BS)
    spec = HeraldSpec([], [], cutoff=2)
    assert np.allclose(fc.fock_herald(fi, spec).entries,
                       permanent_density(fi, spec))


@pytest.mark.parametrize("seed", range(3))
def test_glynn_permanent_matches_ryser(seed):
    rng = np.random.default_rng(400 + seed)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mult = [int(x) for x in rng.integers(0, 4, 4)]
    idx = [i for i in range(4) for _ in range(mult[i])]
    assert np.isclose(glynn_permanent(mat, mult),
                      fc.perm_oracle(mat[np.ix_(idx, idx)]), rtol=1e-12)


def test_input_validation():
    with pytest.raises(NotSubunitary):
        fc.FockInput((1, 0), 1.1 * np.eye(2))
    with pytest.raises(PartitionMismatch):
        fc.FockInput((1,), np.eye(2))
    with pytest.raises(DomainError):
        fc.FockInput((-1, 0), np.eye(2))
    with pytest.raises(DomainError):
        fc.FockInput((1.5, 0), np.eye(2))
    # no port: an empty transmission is subunitary, and the output vacuum
    assert fc.fock_coarse_prob(fc.FockInput((), np.zeros((0, 0))),
                               CoarsePattern([], [])) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_transmission_is_a_numeric_failure(bad):
    """Both the Fock and the Gaussian path reject a transmission with a NaN
    or an Inf entry through the one sub-unitarity check."""
    t = np.array([[bad, 0], [0, 1]])
    with pytest.raises(NonFinite):
        fc.FockInput((1, 1), t)
    vac = gaussian.from_squeezing([0.0, 0.0], gaussian.ModeLayout(2))
    with pytest.raises(NonFinite):
        gaussian.apply_channel(vac, t)


@pytest.mark.parametrize("gram, error", [
    ([[1, 0.5], [0.4, 1]], NotPositiveDefinite),
    ([[1, 2], [2, 1]], NotPositiveDefinite),
    ([[0.9, 0], [0, 1]], DomainError),
    ([[1, np.nan], [np.nan, 1]], DomainError),
    (np.ones((3, 3)), DomainError),
])
def test_bad_gram_matrix_raises(gram, error):
    with pytest.raises(error):
        fc.FockInput((1, 1), BS, gram)
    assert issubclass(error, ValidationFailure)


def test_gram_is_rejected_where_unsupported():
    fi = fc.FockInput((1, 1), BS, [[1, 0.5], [0.5, 1]])
    with pytest.raises(DomainError):
        fc.fock_herald(fi, HeraldSpec([1], [1], cutoff=1))
    with pytest.raises(DomainError):
        fc.fock_perm_oracle(fi, fine_cp([1, 1]))


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


def test_edge_cases_match_oracle():
    """No photons in, every photon lost, every photon detected, a single
    occupied port and one block over all outputs."""
    rng = np.random.default_rng(41)
    eta = 0.7
    t = np.sqrt(eta) * haar_unitary(3, rng)
    empty = fc.FockInput((0, 0, 0), t)
    assert fc.fock_coarse_prob(empty, fine_cp([0, 0, 0])) == 1.0
    assert fc.fock_coarse_prob(empty, fine_cp([0, 1, 0])) == 0.0
    lossy = 0.9 * haar_unitary(3, rng) @ np.diag([1.0, 0.8, 0.6])
    cases = [((2, 0, 1), [0, 0, 0]),     # every photon lost
             ((2, 0, 1), [1, 1, 1]),     # every photon detected
             ((2, 0, 1), [3, 0, 0]),
             ((3, 0, 0), [1, 0, 1]),     # a single occupied port
             ((0, 4, 0), [0, 0, 0])]
    for p, b in cases:
        fi = fc.FockInput(p, lossy)
        assert abs(fc.fock_coarse_prob(fi, fine_cp(b))
                   - fc.fock_perm_oracle(fi, fine_cp(b))) <= 1e-14
    # one block over all outputs of a uniformly lossy circuit: binomial
    fi = fc.FockInput((2, 1, 1), t)
    for k in range(5):
        want = math.comb(4, k) * eta ** k * (1 - eta) ** (4 - k)
        got = fc.fock_coarse_prob(fi, CoarsePattern([[0, 1, 2]], [k]))
        assert abs(got - want) <= 1e-14


def test_outputs_unsound_on_unit_circles_match_oracle():
    """The first four outputs drowned in cancellation on the unit circles
    of the determinant series; the product form folds them soundly on one
    grid.  The last two still drown there and are folded again on dilated
    circles.  Every fold matches the permanent oracle."""
    cases = [(1, [(0, 0, 1, 0), (0, 0, 5, 0), (0, 1, 0, 1), (2, 2, 0, 1)],
              False),
             (3, [(0, 2, 0, 3), (1, 1, 2, 1)], True)]
    for seed, outputs, refolds in cases:
        rng = np.random.default_rng(seed)
        fi = fc.FockInput((2, 2, 1, 0), np.sqrt(0.9) * haar_unitary(4, rng))
        for b in outputs:
            with mock.patch.object(hafnian, "grid_coefficients",
                                   wraps=hafnian.grid_coefficients) as spy:
                got = fc.fock_coarse_prob(fi, fine_cp(b))
            assert (spy.call_count > 1) == refolds
            assert abs(got - fc.fock_perm_oracle(fi, fine_cp(b))) <= 1e-12


# -- partial distinguishability -----------------------------------------------

@pytest.mark.parametrize("s", [0.0, 0.3, 0.7 + 0.2j, 1.0])
@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_hong_ou_mandel_dip(s, eta):
    """Two photons of overlap s on a 50:50 splitter with transmission eta
    per port: P(1, 1) = eta^2 (1 - |s|^2) / 2, P(2, 0) = eta^2 (1 + |s|^2)
    / 4."""
    gram = [[1, s], [np.conj(s), 1]]
    fi = fc.FockInput((1, 1), np.sqrt(eta) * BS, gram)
    assert abs(fc.fock_coarse_prob(fi, fine_cp([1, 1]))
               - eta ** 2 * (1 - abs(s) ** 2) / 2) <= 1e-15
    assert abs(fc.fock_coarse_prob(fi, fine_cp([2, 0]))
               - eta ** 2 * (1 + abs(s) ** 2) / 4) <= 1e-15
    assert abs(fc.fock_coarse_prob(fi, fine_cp([0, 0]))
               - (1 - eta) ** 2) <= 1e-15


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 3),
       r=st.integers(1, 3), shared=st.booleans())
def test_gram_matches_internal_mode_model(seed, m, r, shared):
    """Photons of port i in the internal state c_i: the Gram form with
    S_il = <c_i|c_l> equals ``fock_coarse_prob`` on M r modes, the circuit
    kron(T, I_r) after one internal unitary V_i per port (c_i = V_i e_0),
    with each output block over its internal modes."""
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.5, 1.0)) * haar_unitary(m, rng)
    v = [haar_unitary(r, rng) for _ in range(m)]
    if shared:
        v[1] = v[0]  # two ports in the same internal state
    c = np.array([vi[:, 0] for vi in v])
    big = np.zeros((m * r, m * r), dtype=complex)
    for i, vi in enumerate(v):
        big[i * r:(i + 1) * r, i * r:(i + 1) * r] = vi
    big = np.kron(t, np.eye(r)) @ big
    p = [int(x) for x in rng.integers(0, 3, m)]
    p[0] = max(p[0], 1)
    fi = fc.FockInput(p, t, c.conj() @ c.T)
    fi_big = fc.FockInput([k if s == 0 else 0 for k in p for s in range(r)],
                          big)
    blocks = [[0], list(range(1, m))]
    big_blocks = [[o * r + s for o in blk for s in range(r)]
                  for blk in blocks]
    for b in itertools.product(range(sum(p) + 1), repeat=2):
        if sum(b) <= sum(p):
            got = fc.fock_coarse_prob(fi, CoarsePattern(blocks, b))
            want = fc.fock_coarse_prob(fi_big, CoarsePattern(big_blocks, b))
            assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_all_ones_gram_is_indistinguishable(seed):
    rng = np.random.default_rng(500 + seed)
    t = 0.9 * haar_unitary(3, rng)
    p = (2, 1, 1)
    plain = fc.FockInput(p, t)
    ones = fc.FockInput(p, t, np.ones((3, 3)))
    for b in itertools.product(range(3), repeat=3):
        cp = fine_cp(b)
        want = fc.fock_perm_oracle(plain, cp)
        assert abs(fc.fock_coarse_prob(ones, cp) - want) <= 1e-13
        assert fc.fock_coarse_prob(ones, cp) == fc.fock_coarse_prob(plain,
                                                                    cp)


# -- permanent oracle ---------------------------------------------------------

def test_perm_oracle_small():
    assert np.isclose(fc.perm_oracle([[3.0]]), 3.0)
    assert np.isclose(fc.perm_oracle([[1, 2], [3, 4]]), 1 * 4 + 2 * 3)
    assert np.isclose(fc.perm_oracle(np.ones((4, 4))), math.factorial(4))
    with pytest.raises(TooLarge):
        fc.perm_oracle(np.ones((17, 17)))
    with pytest.raises(TooLarge):
        fc.fock_perm_oracle(fc.FockInput((9, 0), np.eye(2)), fine_cp([9, 0]))


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
    """On every repeat: a partition that fails its check is never kept as a
    prepared series of the input, not even after a valid read."""
    fi = fc.FockInput((1, 1, 0), 0.9 * haar_unitary(3,
                                                    np.random.default_rng(5)))
    for _ in range(2):
        with pytest.raises(PartitionMismatch):
            fc.fock_coarse_prob(fi, CoarsePattern(blocks, [1, 0]))
        fc.fock_coarse_prob(fi, fine_cp([1, 0, 1]))


def test_input_keeps_read_only_copies():
    """Changing the caller's complex arrays after construction changes no
    result, and the input's own arrays cannot be written."""
    t = 0.9 * haar_unitary(2, np.random.default_rng(6))
    gram = np.array([[1, 0.6], [0.6, 1]], dtype=complex)
    fi = fc.FockInput((1, 1), t, gram)
    fresh = fc.FockInput((1, 1), t.copy(), gram.copy())
    t[0, 0] = 0.3
    gram[0, 1] = gram[1, 0] = 0.0
    for b in ([1, 1], [2, 0], [1, 0]):
        assert fc.fock_coarse_prob(fi, fine_cp(b)) == fc.fock_coarse_prob(
            fresh, fine_cp(b))
    assert not fi.t.flags.writeable and not fi.gram.flags.writeable
    assert not fc.FockInput((1, 1), BS).gram.flags.writeable


def test_used_input_pickles_and_copies():
    """An input that has prepared series still pickles and copies; the copy
    prepares its own and keeps read-only arrays."""
    fi = fc.FockInput((1, 1), 0.9 * BS, [[1, 0.3], [0.3, 1]])
    want = fc.fock_coarse_prob(fi, fine_cp([1, 1]))
    for twin in (pickle.loads(pickle.dumps(fi)), copy.deepcopy(fi)):
        assert twin._record is None and not twin.t.flags.writeable
        assert fc.fock_coarse_prob(twin, fine_cp([1, 1])) == want


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       distinguishable=st.booleans())
def test_prepared_reads_equal_fresh_inputs(seed, m, distinguishable):
    """Reads from one input over interleaved output partitions (one of them
    also with its blocks reversed) are bitwise equal to reads from a fresh
    ``FockInput`` per call, with and without a Gram matrix."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.6, 0.95) * haar_unitary(m, rng)
    p = tuple(int(x) for x in rng.integers(0, 3, m))
    gram = None
    if distinguishable:
        c = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        gram = c.conj() @ c.T
    partitions = []
    for _ in range(3):
        labels = rng.integers(0, m, m)
        partitions.append([[int(i) for i in np.flatnonzero(labels == j)]
                           for j in np.unique(labels)])
    partitions.append(partitions[0][::-1])
    fi = fc.FockInput(p, t, gram)
    for _ in range(16):
        blocks = partitions[rng.integers(len(partitions))]
        total = int(rng.integers(0, sum(p) + 2))
        counts = [int(k) for k in rng.multinomial(total, [1 / len(blocks)]
                                                  * len(blocks))]
        cp = CoarsePattern(blocks, counts)
        assert fc.fock_coarse_prob(fi, cp) == fc.fock_coarse_prob(
            fc.FockInput(p, t, gram), cp)


def test_one_series_per_input_and_partition():
    """All 126 outputs of (2, 2, 1, 0) over the fine partition read one
    prepared series; an input keeps only the partition it read last, so a
    second partition, and then the first again, each prepare anew."""
    fi = fc.FockInput((2, 2, 1, 0),
                      np.sqrt(0.9) * haar_unitary(4, np.random.default_rng(3)))
    outputs = [b for b in itertools.product(range(6), repeat=4)
               if sum(b) <= 5]
    assert len(outputs) == 126
    with mock.patch.object(fc, "_fock_series", wraps=fc._fock_series) as spy:
        total = sum(fc.fock_coarse_prob(fi, fine_cp(b)) for b in outputs)
        assert spy.call_count == 1
        fc.fock_coarse_prob(fi, CoarsePattern([[0, 1], [2, 3]], [1, 1]))
        assert spy.call_count == 2
        fc.fock_coarse_prob(fi, fine_cp([1, 1, 1, 0]))
        assert spy.call_count == 3
    assert np.isclose(total, 1.0, atol=1e-12)


def test_input_is_freed_after_use():
    """What an input prepares stays with it and holds no reference back to
    it: the input is freed as soon as its last reference goes."""
    fi = fc.FockInput((2, 1, 0), 0.9 * haar_unitary(3,
                                                    np.random.default_rng(7)))
    fc.fock_coarse_prob(fi, fine_cp([1, 1, 0]))
    ref = weakref.ref(fi)
    del fi
    assert ref() is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       photons=st.integers(0, 14), unitary=st.booleans())
def test_master_theorem_matches_permanents(seed, m, photons, unitary):
    """The 2M x 2M master-theorem series gives the sum over fine outputs b
    of per(K[R, R]) / (p! b!), R = (p, b), on random sub-unitary circuits,
    input ports left empty and coarse output blocks.  Input plus output
    photons may exceed ``perm_oracle``'s 16 rows, so the permanents come
    from Glynn's formula grouped over repeated rows and columns."""
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
    k = master_matrix(t)
    want = sum(glynn_permanent(k, p + list(fine)).real
               / factorial_product(p + list(fine))
               for fine in compatible_patterns(blocks, b, m))
    assert abs(got - want) <= 1e-11


def determinant_series(t, gram, w):
    """The other side of MacMahon's theorem: the log series of 1 / det(I -
    X (S o B(y))) for the occupied input columns ``t``, their Gram block
    ``gram`` and the output terms ``w``, loss term last, from its power
    traces, as a sieve model."""
    d = t.shape[1]
    w = np.concatenate([w, [np.eye(d) - t.conj().T @ t]]) * gram

    def series(nmax, z):
        def first(lo, hi, out):
            out[:] = z[lo:hi, :d, None] * np.einsum("gj,jab->gab",
                                                     z[lo:hi, d:], w)
        return hafnian.power_trace_series(first, d, nmax, len(z))
    return hafnian.from_log_series(series)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(1, 4),
       photons=st.integers(1, 6), rank=st.integers(1, 3), fine=st.booleans())
def test_product_form_equals_determinant_series(seed, m, photons, rank,
                                                fine):
    """F = prod_i ((S o B(y)) x)_i^p_i and 1 / det(I - X (S o B(y))) share
    every x^p coefficient: on random sub-unitary circuits with complex
    Gram matrices of rank below M (unless M = 1), over fine and coarse
    output partitions, the two fold to the same probability on unit and
    dilated circles, and ``fock_coarse_prob`` reads it.  The Gram path has
    no permanent oracle.  The folds agree within a few eps times their
    summed masses: the mass leaves out the rounding of each side's own
    evaluation, and over 1,000 draws the gap reached 2.8 eps * mass."""
    rng = np.random.default_rng(seed)
    s = np.sqrt(rng.uniform(0.3, 1.0, m))
    t = haar_unitary(m, rng) @ np.diag(s) @ haar_unitary(m, rng)
    rank = min(rank, max(m - 1, 1))
    c = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    p = [int(x) for x in rng.multinomial(photons, np.ones(m) / m)]
    labels = np.arange(m) if fine else rng.integers(0, m, m)
    blocks = [[int(i) for i in np.flatnonzero(labels == j)]
              for j in np.unique(labels)]
    b = [int(x) for x in rng.multinomial(rng.integers(0, photons + 1),
                                         np.ones(len(blocks)) / len(blocks))]
    fi = fc.FockInput(p, t, c.conj() @ c.T)
    occ = [i for i in range(m) if p[i]]
    row = [p[i] for i in occ] + b + [photons - sum(b)]
    sieve = fc._coarse_record(fi, blocks)
    det = determinant_series(
        t[:, occ], fi.gram[np.ix_(occ, occ)],
        np.array([t[bl][:, occ].conj().T @ t[bl][:, occ] for bl in blocks]))
    for radii in (rng.uniform(0.5, 2.0, len(row)), None):
        got, got_mass = hafnian.grid_coefficients(sieve, [row], radii)
        want, want_mass = hafnian.grid_coefficients(
            hafnian.Sieve(det, sieve.expand, sieve.groups), [row], radii)
        bound = 4 * hafnian._EPS * (got_mass[0] + want_mass[0])
        assert abs(got[0] - want[0]) <= bound
    prob = fc.fock_coarse_prob(fi, CoarsePattern(blocks, b))
    assert abs(prob * factorial_product(row) - want[0]) <= bound


# -- heralded states ----------------------------------------------------------

def test_fock_herald_dimension_is_bounded():
    """A Fock herald over two kept ports at cutoff 1000, whose density
    matrix could not be allocated, is ``TooLarge``."""
    fi = fc.FockInput((1, 1, 1), np.eye(3))
    with pytest.raises(TooLarge):
        fc.fock_herald(fi, HeraldSpec([0], [1], cutoff=1000))


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
    marg = partial_trace(full, [1])
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
    traced = partial_trace(full, [1])
    assert np.allclose(direct.entries, traced.entries, atol=1e-10)


def test_herald_trace_out_keeps_photons_above_cutoff():
    """A traced port may hold more photons than the cutoff: the traced state
    is the partial trace of the full herald at a cutoff that holds every
    unheralded photon, cropped to the small cutoff."""
    rng = np.random.default_rng(36)
    fi = fc.FockInput((2, 1, 1, 0), 0.9 * haar_unitary(4, rng))
    direct = fc.fock_herald(fi, HeraldSpec([0], [1], cutoff=2,
                                           trace_out=[3]))
    full = fc.fock_herald(fi, HeraldSpec([0], [1], cutoff=3))
    traced = partial_trace(full, [2]).entries
    want = traced.reshape((4,) * 4)[:3, :3, :3, :3].reshape(9, 9)
    assert np.max(np.abs(direct.entries - want)) <= 1e-12 * np.trace(
        want).real


@pytest.mark.parametrize("herald, trace_out", [
    ([0], [7]), ([0], [-1]), ([0], [2, 2]), ([3], []), ([-1], []),
    ([0, 0], []),
])
def test_herald_mode_out_of_range_raises(herald, trace_out):
    fi = fc.FockInput((1, 1, 0), 0.9 * haar_unitary(
        3, np.random.default_rng(5)))
    spec = HeraldSpec(herald, [0] * len(herald), cutoff=1,
                      trace_out=trace_out)
    with pytest.raises(IndexOutOfRange):
        fc.fock_herald(fi, spec)


def test_herald_hermitian_with_complex_circuit():
    rng = np.random.default_rng(35)
    t = 0.85 * haar_unitary(2, rng)
    fi = fc.FockInput((2, 1), t)
    dm = fc.fock_herald(fi, HeraldSpec([1], [1], cutoff=2))
    assert np.allclose(dm.entries, dm.entries.conj().T)
    evals = np.linalg.eigvalsh(dm.entries)
    assert evals.min() > -1e-10


def test_herald_without_input_photons():
    """No input photons leave the vacuum on the kept ports under an
    all-zero herald, and a zero matrix under any other herald."""
    fi = fc.FockInput((0, 0, 0), 0.9 * haar_unitary(
        3, np.random.default_rng(7)))
    dm = fc.fock_herald(fi, HeraldSpec([0], [0], cutoff=2, trace_out=[2]))
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.array_equal(dm.entries, want)
    dm = fc.fock_herald(fi, HeraldSpec([0, 1], [0, 1], cutoff=2))
    assert dm.entries.shape == (3, 3) and not dm.entries.any()
    with pytest.raises(ZeroProbability):
        dm.normalized()


def test_herald_class_with_two_distinct_pairs():
    """Bra (0, 1, 1) against ket (2, 0, 0) pairs port 1's and port 2's
    surplus rows with port 0's surplus columns: two distinct pairs in one
    class, checked with every other element against Ryser's formula."""
    fi = fc.FockInput((1, 1, 1, 0), 0.9 * haar_unitary(
        4, np.random.default_rng(41)))
    spec = HeraldSpec([3], [1], cutoff=2)
    dm = fc.fock_herald(fi, spec).entries
    want = permanent_density(fi, spec)
    trace = np.trace(want).real
    assert abs(want[4, 18]) > 1e-3 * trace   # <0, 1, 1|rho|2, 0, 0>
    assert np.max(np.abs(dm - want)) <= 1e-12 * trace


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
    # a lossy circuit conserves or loses photons: |u| != |v| vanishes
    assert np.all(dm.entries[photons[:, None] != photons[None, :]] == 0.0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_herald_matches_per_element_oracle(seed):
    fi, spec = random_fock_herald(seed)
    dm = fc.fock_herald(fi, spec)
    want = permanent_density(fi, spec)
    assert np.max(np.abs(dm.entries - want)) <= 1e-12 * max(
        abs(np.trace(want).real), 1e-300)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       grouped=st.booleans(), traced=st.booleans())
def test_herald_matches_permanent_oracle(seed, m, grouped, traced):
    """Grouped herald blocks and traced ports against Ryser's formula, with
    the traced photons summed outcome by outcome."""
    nherald = 1 + grouped
    assume(nherald + traced < m)
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.5, 1.0)) * haar_unitary(m, rng)
    fi = fc.FockInput(tuple(int(x) for x in rng.integers(0, 3, m)), t)
    ports = [int(i) for i in rng.permutation(m)]
    herald = ports[:nherald]
    if grouped:
        measurement = ([tuple(herald)], (int(rng.integers(0, 3)),))
    else:
        measurement = [int(rng.integers(0, 2))]
    nkept = m - nherald - traced
    spec = HeraldSpec(herald, measurement, cutoff=2 if nkept < 3 else 1,
                      trace_out=ports[nherald:nherald + traced])
    dm = fc.fock_herald(fi, spec)
    want = permanent_density(fi, spec)
    assert np.max(np.abs(dm.entries - want)) <= 1e-12 * max(
        abs(np.trace(want).real), 1e-300)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4),
       nkept=st.integers(1, 2), grouped=st.booleans())
def test_herald_trace_is_exact_herald_probability(seed, m, nkept, grouped):
    """With the cutoff at the unheralded photon count, the trace is the
    whole herald probability: ``fock_coarse_prob`` on T with the kept
    rows zeroed, so that every photon on a kept port counts as lost."""
    assume(nkept < m and (m - nkept > 1 or not grouped))
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.5, 1.0)) * haar_unitary(m, rng)
    p = tuple(int(x) for x in rng.integers(0, 3, m))
    ports = [int(i) for i in rng.permutation(m)]
    herald, kept = ports[nkept:], ports[:nkept]
    if grouped:
        blocks, counts = [tuple(herald)], [int(rng.integers(0, 4))]
    else:
        blocks = [(i,) for i in herald]
        counts = [int(x) for x in rng.integers(0, 2, len(herald))]
    budget = max(sum(p) - sum(counts), 0)
    dm = fc.fock_herald(fc.FockInput(p, t),
                        HeraldSpec(herald, (blocks, counts), cutoff=budget))
    t_lost = t.copy()
    t_lost[kept] = 0.0
    want = fc.fock_coarse_prob(
        fc.FockInput(p, t_lost),
        CoarsePattern([list(b) for b in blocks] + [kept], counts + [0]))
    assert np.isclose(dm.trace.real, want, rtol=1e-10, atol=1e-15)
