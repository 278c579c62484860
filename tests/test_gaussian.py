import copy
import math
import pickle

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
    LengthMismatch,
    NotHermitian,
    NotPositiveDefinite,
    NotSubunitary,
    NotSymmetric,
    SingularCovariance,
)

from references import thermal_state, xmat

L1 = gaussian.ModeLayout(1)
L2 = gaussian.ModeLayout(2)


def prob_of(rep, pattern):
    """Fine-grained probability straight from the kernel definitions."""
    val = rep.vacuum_prob * hafnian.lhaf_sieve(rep.a, rep.gamma, pattern)
    return (val / np.prod([math.factorial(n) for n in pattern])).real


def mean_photons(state):
    t = state.layout.total
    occ = np.trace(state.husimi_cov[:t, :t]).real - t
    return occ + np.sum(np.abs(state.means[:t]) ** 2)


# -- construction -------------------------------------------------------------

def test_vacuum_state():
    s = gaussian.from_squeezing([0.0, 0.0], L2)
    assert np.allclose(s.husimi_cov, np.eye(4))
    rep = gaussian.to_adjacency(s)
    assert np.allclose(rep.a, 0) and np.allclose(rep.gamma, 0)
    assert np.isclose(rep.vacuum_prob, 1.0)


def test_squeezed_vacuum_statistics():
    r = 0.7
    rep = gaussian.to_adjacency(gaussian.from_squeezing([r], L1))
    assert np.isclose(rep.vacuum_prob.real, 1 / np.cosh(r), atol=1e-12)
    assert np.isclose(prob_of(rep, [2]), np.tanh(r) ** 2 / (2 * np.cosh(r)),
                      atol=1e-12)
    assert abs(prob_of(rep, [1])) < 1e-12
    # adjacency diagonal magnitude is tanh(r)
    assert np.isclose(abs(rep.a[0, 0]), np.tanh(r), atol=1e-12)


def test_coherent_state_poisson():
    alpha = 0.8 - 0.3j
    s = gaussian.displace(gaussian.from_squeezing([0.0], L1), [alpha])
    rep = gaussian.to_adjacency(s)
    lam = abs(alpha) ** 2
    for n in range(4):
        poisson = math.exp(-lam) * lam ** n / math.factorial(n)
        assert np.isclose(prob_of(rep, [n]), poisson, atol=1e-12)


def test_thermal_state_geometric():
    nbar = 0.6
    rep = gaussian.to_adjacency(thermal_state([nbar], L1))
    for n in range(4):
        geom = nbar ** n / (nbar + 1) ** (n + 1)
        assert np.isclose(prob_of(rep, [n]), geom, atol=1e-12)


def test_tmsv_vacuum_prob_and_pairing():
    r = 0.55
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = gaussian.apply_channel(gaussian.from_squeezing([r, -r], L2), bs)
    rep = gaussian.to_adjacency(s)
    assert np.isclose(rep.vacuum_prob.real, 1 / np.cosh(r) ** 2, atol=1e-10)
    # only paired counts survive
    assert abs(prob_of(rep, [1, 0])) < 1e-12
    p11 = np.tanh(r) ** 2 / np.cosh(r) ** 2
    assert np.isclose(prob_of(rep, [1, 1]), p11, atol=1e-10)


def test_unphysical_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        gaussian.GaussianState(0.5 * np.eye(2), np.zeros(2), L1)


# -- channels -----------------------------------------------------------------

def test_identity_and_full_loss():
    r = 0.4
    s = gaussian.from_squeezing([r], L1)
    same = gaussian.apply_channel(s, np.eye(1))
    assert np.allclose(same.husimi_cov, s.husimi_cov)
    dead = gaussian.apply_channel(s, np.zeros((1, 1)))
    assert np.allclose(dead.husimi_cov, np.eye(2))
    assert np.allclose(dead.means, 0)


def test_loss_scales_mean_photons():
    r, eta = 0.9, 0.35
    s = gaussian.from_squeezing([r], L1)
    lossy = gaussian.apply_channel(s, np.sqrt(eta) * np.eye(1))
    assert np.isclose(mean_photons(lossy), eta * np.sinh(r) ** 2, atol=1e-10)


def test_displacement_loss_commutation():
    alpha, eta = 1.1 + 0.4j, 0.6
    t = np.sqrt(eta) * np.eye(1)
    vac = gaussian.from_squeezing([0.0], L1)
    first = gaussian.apply_channel(gaussian.displace(vac, [alpha]), t)
    second = gaussian.displace(gaussian.apply_channel(vac, t),
                               [np.sqrt(eta) * alpha])
    assert np.allclose(first.husimi_cov, second.husimi_cov, atol=1e-12)
    assert np.allclose(first.means, second.means, atol=1e-12)


def test_unitary_preserves_covariance_spectrum():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(h)[0]
    s = gaussian.from_squeezing([0.5, -0.2], L2)
    out = gaussian.apply_channel(s, u)
    assert np.allclose(
        np.linalg.eigvalsh(out.husimi_cov),
        np.linalg.eigvalsh(s.husimi_cov),
        atol=1e-9,
    )


def test_superunitary_rejected():
    with pytest.raises(NotSubunitary):
        gaussian.apply_channel(gaussian.from_squeezing([0.0], L1),
                               1.01 * np.eye(1))


# -- adjacency ----------------------------------------------------------------

def test_adjacency_inversion_identity():
    rng = np.random.default_rng(8)
    u = np.linalg.qr(rng.normal(size=(3, 3))
                     + 1j * rng.normal(size=(3, 3)))[0]
    s = gaussian.from_squeezing([0.3, 0.7, -0.2], gaussian.ModeLayout(3))
    s = gaussian.apply_channel(s, 0.9 * u)
    rep = gaussian.to_adjacency(s)
    x = xmat(3)
    recon = np.linalg.inv(np.eye(6) - x @ rep.a)
    assert np.allclose(recon, s.husimi_cov, atol=1e-9)
    det = np.linalg.det(np.eye(6) - x @ rep.a)
    assert det.real > 0 and abs(det.imag) < 1e-9 * abs(det)


def displaced_lossy_rep():
    s = gaussian.from_squeezing([0.4, 0.3], L2)
    s = gaussian.apply_channel(s, 0.9 * haar_unitary(2, 3))
    return gaussian.to_adjacency(gaussian.displace(s, [0.2, -0.1j]))


def test_rep_keeps_read_only_copies():
    """Changing the caller's arrays after construction changes no result,
    read before or after the change, and the representation's own arrays
    cannot be written."""
    base = displaced_lossy_rep()
    a, gamma = base.a.copy(), base.gamma.copy()
    rep = gaussian.AdjacencyRep(a, gamma, base.vacuum_prob, L2)
    before = dist.prob_fine(rep, [1, 1])
    a[0, 1] = a[1, 0] = 0.5
    gamma[0] = 0.0
    fresh = gaussian.AdjacencyRep(base.a, base.gamma, base.vacuum_prob, L2)
    for n in ([1, 1], [2, 0], [0, 3]):
        assert dist.prob_fine(rep, n) == dist.prob_fine(fresh, n)
    assert dist.prob_fine(rep, [1, 1]) == before
    assert not rep.a.flags.writeable and not rep.gamma.flags.writeable
    with pytest.raises(ValueError):
        rep.a[0, 0] = 1.0


def test_used_rep_pickles_and_copies():
    """A representation that has prepared a record still pickles and
    copies; the copy prepares its own and keeps read-only arrays."""
    rep = displaced_lossy_rep()
    want = dist.prob_fine(rep, [1, 2])
    for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert twin._record is None and not twin.a.flags.writeable
        assert not twin.gamma.flags.writeable
        assert twin.vacuum_prob == rep.vacuum_prob
        assert twin.layout == rep.layout
        assert dist.prob_fine(twin, [1, 2]) == want


def test_tmsv_marginal_is_thermal():
    r = 0.6
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = gaussian.apply_channel(gaussian.from_squeezing([r, -r], L2), bs)
    marg = gaussian.marginal_state(s, [0])
    rep = gaussian.to_adjacency(marg)
    nbar = np.sinh(r) ** 2
    for n in range(4):
        assert np.isclose(prob_of(rep, [n]),
                          nbar ** n / (nbar + 1) ** (n + 1), atol=1e-10)


# -- spectral impurity --------------------------------------------------------

def test_impure_source_limits():
    lay = gaussian.ModeLayout(2, 2)
    pure = gaussian.impure_source([0.5, 0.8], 1.0, lay)
    direct = gaussian.from_squeezing([0.5, 0.0, 0.8, 0.0], lay)
    assert np.allclose(pure.husimi_cov, direct.husimi_cov)
    half = gaussian.impure_source([0.5, 0.8], 0.5, lay)
    both = gaussian.from_squeezing([0.5, 0.5, 0.8, 0.8], lay)
    assert np.allclose(half.husimi_cov, both.husimi_cov, atol=1e-12)
    with pytest.raises(DomainError):
        gaussian.impure_source([0.5, 0.8], 0.0, lay)
    with pytest.raises(LayoutMismatch):
        gaussian.impure_source([0.5], 1.0, gaussian.ModeLayout(1, 1))


def test_length_checks():
    with pytest.raises(LengthMismatch):
        gaussian.from_squeezing([0.1], L2)
    with pytest.raises(LengthMismatch):
        gaussian.displace(gaussian.from_squeezing([0.0], L1), [0.1, 0.2])
    with pytest.raises(LayoutMismatch):
        gaussian.apply_channel(gaussian.from_squeezing([0.0], L1),
                               np.eye(2))


@pytest.mark.parametrize("call, error", [
    (lambda: gaussian.ModeLayout(0), LayoutMismatch),
    (lambda: gaussian.ModeLayout("3"), DomainError),
    (lambda: L2.internal_indices(2), IndexOutOfRange),
    (lambda: gaussian.GaussianState(np.eye(2), np.zeros(4), L1),
     LayoutMismatch),
    (lambda: gaussian.GaussianState([[1, 0.5], [0, 1]], np.zeros(2), L1),
     NotHermitian),
    (lambda: gaussian.GaussianState(-np.eye(2), np.zeros(2), L1),
     NotPositiveDefinite),
    (lambda: gaussian.GaussianState(np.eye(2), [1, 1j], L1), LayoutMismatch),
    (lambda: gaussian.AdjacencyRep(np.zeros((2, 2)), np.zeros(4), 1, L1),
     LayoutMismatch),
    (lambda: gaussian.AdjacencyRep([[0, 1], [0, 0]], np.zeros(2), 1, L1),
     NotSymmetric),
    (lambda: thermal_state([0.1], L2), LengthMismatch),
    (lambda: thermal_state([-0.1], L1), DomainError),
    (lambda: gaussian.adjacency_from_cov(np.diag([1, 1e-14]), np.zeros(2),
                                         L1), SingularCovariance),
    # an indefinite covariance has no vacuum probability, not a complex one
    (lambda: gaussian.adjacency_from_cov(np.diag([1.0, -1.0]), np.zeros(2),
                                         L1), NotPositiveDefinite),
    (lambda: gaussian.marginal_state(gaussian.from_squeezing([0.5], L1), []),
     IndexOutOfRange),
    (lambda: gaussian.marginal_state(gaussian.from_squeezing([0.5], L1), [1]),
     IndexOutOfRange),
    (lambda: gaussian.marginal_state(
        gaussian.from_squeezing([0.5, 0.3], L2), [0, 0]), IndexOutOfRange),
    (lambda: gaussian.impure_source([-0.1, 0.5], 0.9,
                                    gaussian.ModeLayout(2, 2)), DomainError),
    (lambda: gaussian.impure_source([0.5], 0.9, gaussian.ModeLayout(2, 2)),
     LengthMismatch),
], ids=["layout", "layout-string", "internal-index", "state-shape", "not-hermitian",
        "not-positive", "means-halves", "rep-shape", "not-symmetric",
        "thermal-length", "thermal-negative", "singular-covariance",
        "indefinite-covariance", "marginal-empty", "marginal-mode",
        "marginal-repeat", "impure-negative",
        "impure-length"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("keep", [[-1], [0, 5], [0, 0], []],
                         ids=["negative", "beyond", "repeat", "empty"])
def test_marginal_rep_checks_its_modes(keep):
    rep = gaussian.to_adjacency(gaussian.from_squeezing([0.5, 0.3], L2))
    with pytest.raises(IndexOutOfRange):
        gaussian.marginal_rep(rep, keep)


def test_mode_layout_counts_are_whole_numbers():
    lay = gaussian.ModeLayout(2.0, 1)
    assert lay == gaussian.ModeLayout(2, 1)
    assert type(lay.externals) is int and type(lay.total) is int
    assert gaussian.from_squeezing([0.1, 0.2], lay).layout.total == 2
    with pytest.raises(DomainError):
        gaussian.ModeLayout(1.5, 2)
    with pytest.raises(DomainError):
        gaussian.ModeLayout(2, 1.5)
    for counts in [(0.5,), (-1,), (2, 0)]:
        with pytest.raises(LayoutMismatch):
            gaussian.ModeLayout(*counts)


# -- checks against the eigenvalue forms --------------------------------------

def squeezed_thermal(xi, nbar, layout):
    """Squeezers xi acting on thermal states of occupation nbar: the
    symmetric covariance S S^dag / 2 of each squeezed vacuum grows by
    2 nbar + 1, and the Husimi covariance is that plus I/2."""
    pure = gaussian.from_squeezing(xi, layout).husimi_cov
    d = np.sqrt(np.tile(2 * np.asarray(nbar) + 1, 2))
    cov = (d[:, None] * (2 * pure - np.eye(len(d))) * d + np.eye(len(d))) / 2
    return gaussian.GaussianState(cov, np.zeros(len(d)), layout)


def random_subunitary(rng, n):
    sv = rng.uniform(0, 1, n)
    return haar_unitary(n, rng) * sv @ haar_unitary(n, rng)


def uncertainty_eigenvalues(cov):
    """Eigenvalues of cov + (Z - I)/2, which are >= 0 for a physical state."""
    t = len(cov) // 2
    return np.linalg.eigvalsh(cov + np.diag(np.repeat([0.0, -1.0], t)))


def reference_adjacency(state):
    """The state checks and the adjacency conversion by eigenvalues, a
    condition number, an LU inverse and an LU log-determinant."""
    cov, z, t = state.husimi_cov, state.means, state.layout.total
    assert np.linalg.eigvalsh(cov).min() > 0
    assert uncertainty_eigenvalues(cov).min() >= -1e-9
    assert np.linalg.cond(cov) <= 1e12
    inv = np.linalg.inv(cov)
    x = xmat(t)
    a = x @ (np.eye(2 * t) - inv)
    sign, logdet = np.linalg.slogdet(cov)
    vac = np.exp(-(z.conj() @ inv @ z) / 2 - logdet / 2) / np.sqrt(sign)
    return (a + a.T) / 2, x @ inv @ z, vac


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), nmodes=st.integers(1, 5),
       displaced=st.booleans())
def test_physical_states_match_the_eigenvalue_reference(seed, nmodes,
                                                        displaced):
    """Squeezing |xi| <= 2 at random phases, thermal occupation <= 1, a
    random sub-unitary channel and an optional displacement: the state is
    accepted, and A, gamma and the vacuum probability agree with the
    eigenvalue-based reference to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    layout = gaussian.ModeLayout(nmodes)
    xi = rng.uniform(0, 2, nmodes) * np.exp(2j * np.pi * rng.random(nmodes))
    s = squeezed_thermal(xi, rng.uniform(0, 1, nmodes), layout)
    s = gaussian.apply_channel(s, random_subunitary(rng, nmodes))
    if displaced:
        s = gaussian.displace(s, rng.normal(size=nmodes)
                              + 1j * rng.normal(size=nmodes))
    rep = gaussian.to_adjacency(s)
    a, gamma, vac = reference_adjacency(s)
    assert np.max(np.abs(rep.a - a)) <= 1e-12 * np.max(np.abs(a))
    assert np.max(np.abs(rep.gamma - gamma)) <= 1e-12 * max(
        np.max(np.abs(gamma)), 1e-300)
    assert abs(rep.vacuum_prob - vac) <= 1e-12 * abs(vac)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), nmodes=st.integers(1, 5),
       delta=st.floats(1e-6, 0.5))
def test_pure_states_saturate_the_uncertainty_bound(seed, nmodes, delta):
    """Pure squeezed states up to r = 3 through a random unitary sit on
    the uncertainty bound and are accepted; (1 - delta) times their
    covariance is still positive definite but unphysical."""
    rng = np.random.default_rng(seed)
    layout = gaussian.ModeLayout(nmodes)
    xi = rng.uniform(0, 3, nmodes) * np.exp(2j * np.pi * rng.random(nmodes))
    s = gaussian.apply_channel(gaussian.from_squeezing(xi, layout),
                               haar_unitary(nmodes, rng))
    assert abs(uncertainty_eigenvalues(s.husimi_cov).min()) < 1e-9
    with pytest.raises(NotPositiveDefinite, match="uncertainty bound"):
        gaussian.GaussianState((1 - delta) * s.husimi_cov, s.means, layout)
