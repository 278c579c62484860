import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsieve import distributions as dist
from photonsieve import gaussian, phasespace
from photonsieve.cli import haar_unitary
from photonsieve.errors import (
    DomainError,
    LengthMismatch,
    NonFinite,
    NotSubunitary,
    PartitionMismatch,
)


def exact_total(xi, t, n_values):
    lay = gaussian.ModeLayout(len(xi))
    s = gaussian.apply_channel(gaussian.from_squeezing(xi, lay), t)
    rep = gaussian.to_adjacency(s)
    modes = list(range(t.shape[0]))
    return np.array([dist.prob_total(rep, modes, n) for n in n_values])


def pp_estimate_complex(run):
    """Reference oracle: the estimator in complex arithmetic.

    Forms alpha = u*s + i*v*d and beta = u*s - i*v*d per mode, runs both
    through the circuit and takes n' = sum alpha' conj(beta'). It draws the
    same samples as ``phasespace.pp_estimate`` but starts every weight
    recursion from exp(-n'), so it loses samples with Re n' beyond about 708.
    """
    xi = np.asarray(run.squeeze_params, dtype=float)
    nbar = np.sinh(xi) ** 2
    mbar = np.sinh(2 * xi) / 2
    s = np.sqrt((nbar + mbar).astype(complex) / 2)
    d = np.sqrt((nbar - mbar).astype(complex) / 2)
    nmax = max(run.n_values) if run.n_values else 0
    wanted = sorted(set(run.n_values))
    rng = np.random.default_rng(run.seed)
    sums = {n: 0.0 for n in wanted}
    sqsums = {n: 0.0 for n in wanted}
    remaining = run.samples
    while remaining > 0:
        batch = min(remaining, phasespace._CHUNK)
        remaining -= batch
        u = rng.standard_normal((batch, xi.size))
        v = rng.standard_normal((batch, xi.size))
        alpha = u * s + 1j * v * d
        beta = u * s - 1j * v * d
        ap = alpha @ run.t.T
        bp = beta @ run.t.T
        nprime = np.sum(ap * np.conj(bp), axis=1)
        w = np.exp(-nprime)
        if 0 in sums:
            r = w.real
            sums[0] += r.sum()
            sqsums[0] += (r * r).sum()
        for n in range(1, nmax + 1):
            w = w * nprime / n
            if n in sums:
                r = w.real
                sums[n] += r.sum()
                sqsums[n] += (r * r).sum()
        if not np.all(np.isfinite(w)):
            raise NonFinite("diverging phase-space trajectory")
    estimates = np.array([sums[n] / run.samples for n in wanted])
    variances = np.array(
        [max(sqsums[n] / run.samples - (sums[n] / run.samples) ** 2, 0.0)
         for n in wanted]
    )
    errors = np.sqrt(variances / run.samples)
    return estimates, errors


def test_validation():
    with pytest.raises(LengthMismatch):
        phasespace.PPRun((0.5,), np.eye(2), 10, 0, (0,))
    with pytest.raises(NotSubunitary):
        phasespace.PPRun((0.5, 0.5), 1.2 * np.eye(2), 10, 0, (0,))
    with pytest.raises(PartitionMismatch):
        phasespace.PPRun((0.5,), np.eye(1), 0, 0, (0,))
    with pytest.raises(DomainError):
        phasespace.PPRun((0.5,), np.eye(1), 10, 0, (-1,))
    with pytest.raises(DomainError):
        phasespace.PPRun((0.5,), np.eye(1), 10, 0, (1.5,))
    with pytest.raises(DomainError):
        phasespace.PPRun((0.5,), np.eye(1), 10.5, 0, (0,))
    # an empty transmission is subunitary: no light reaches a detector
    for xi, t in (((), np.zeros((2, 0))), ((0.3,), np.zeros((0, 1)))):
        est, err = phasespace.pp_estimate(
            phasespace.PPRun(xi, t, 100, 1, (0, 1)))
        assert est.tolist() == [1.0, 0.0] and err.tolist() == [0.0, 0.0]


def test_vacuum_is_exact():
    run = phasespace.PPRun((0.0, 0.0), np.eye(2), 100, 1, (0, 1, 2))
    est, err = phasespace.pp_estimate(run)
    assert np.allclose(est, [1.0, 0.0, 0.0])
    assert np.allclose(err, 0.0)


def test_deterministic():
    run = phasespace.PPRun((0.4,), np.eye(1), 5000, 42, (0, 1, 2))
    a = phasespace.pp_estimate(run)
    b = phasespace.pp_estimate(run)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_single_squeezer_matches_exact():
    xi = (0.5,)
    t = np.eye(1)
    nv = (0, 2, 4)
    run = phasespace.PPRun(xi, t, 10 ** 5, 3, nv)
    est, err = phasespace.pp_estimate(run)
    want = exact_total(list(xi), t, nv)
    assert np.all(np.abs(est - want) < 4 * np.maximum(err, 1e-12))


def test_lossy_interferometer_matches_exact():
    rng = np.random.default_rng(11)
    xi = [0.6, 0.45, 0.3]
    t = 0.7 * haar_unitary(3, rng)
    nv = (0, 1, 2, 3, 4)
    run = phasespace.PPRun(tuple(xi), t, 2 * 10 ** 5, 19, nv)
    est, err = phasespace.pp_estimate(run)
    want = exact_total(xi, t, nv)
    assert np.all(np.abs(est - want) < 4 * np.maximum(err, 1e-12))


def test_error_scaling_with_samples():
    # loss tames the weight tails so the error estimate itself is stable
    xi = (0.4, 0.4)
    t = 0.7 * np.eye(2)
    ratios = []
    for trial in range(10):
        r1 = phasespace.pp_estimate(
            phasespace.PPRun(xi, t, 20000, 100 + trial, (2,)))[1][0]
        r2 = phasespace.pp_estimate(
            phasespace.PPRun(xi, t, 40000, 200 + trial, (2,)))[1][0]
        ratios.append(r2 / r1)
    assert 0.6 < np.mean(ratios) < 0.82


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_real_kernel_matches_complex_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 6))
    # positive, zero and negative squeezing in one run
    xi = np.concatenate([rng.uniform(0.1, 0.7, 1), [0.0],
                         -rng.uniform(0.1, 0.7, 1),
                         rng.uniform(-0.7, 0.7, m - 3)])
    xi = tuple(float(x) for x in rng.permutation(xi))
    outputs = m + int(rng.choice([-1, 1]))
    t = rng.normal(size=(outputs, m)) + 1j * rng.normal(size=(outputs, m))
    t *= rng.uniform(0.5, 0.95) / np.linalg.norm(t, 2)
    nv = [int(n) for n in rng.integers(0, 7, size=5)]
    nv = tuple(nv + nv[:2])  # unsorted, with duplicates
    run = phasespace.PPRun(xi, t, phasespace._CHUNK + 17, seed, nv)
    est, err = phasespace.pp_estimate(run)
    want_est, want_err = pp_estimate_complex(run)
    assert est.shape == want_est.shape == (len(set(nv)),)
    assert np.all(np.abs(est - want_est) <= 1e-9 * want_err + 1e-15)
    assert np.allclose(err, want_err, rtol=1e-9, atol=0)


def mixed_run(samples, seed=5):
    """Four modes with positive, zero and negative squeezing through a
    lossy non-square circuit."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    t *= 0.8 / np.linalg.norm(t, 2)
    return phasespace.PPRun((0.5, 0.0, -0.4, 0.3), t, samples, seed,
                            (0, 1, 2, 5))


@pytest.mark.parametrize("samples", [
    1,
    phasespace._SUB - 1,
    phasespace._CHUNK + 17,
    2 * phasespace._CHUNK + phasespace._SUB + 5,
])
def test_stream_order_across_chunk_and_block_edges(samples):
    # The helper thread draws u, then v, per chunk, in row blocks; the
    # oracle draws each whole at once. Same stream, same samples.
    run = mixed_run(samples)
    est, err = phasespace.pp_estimate(run)
    want_est, want_err = pp_estimate_complex(run)
    assert np.all(np.abs(est - want_est) <= 1e-9 * want_err + 1e-15)
    assert np.allclose(err, want_err, rtol=1e-9, atol=0)
    again = phasespace.pp_estimate(run)
    assert np.array_equal(est, again[0])
    assert np.array_equal(err, again[1])


def test_no_helper_thread_outlives_a_call():
    before = threading.active_count()
    phasespace.pp_estimate(mixed_run(phasespace._CHUNK + 17))
    assert threading.active_count() == before

    # Re n' < -709 overflows exp(-n'); with this seed the first such sample
    # is number 46,131, in the second chunk, while blocks are still drawn.
    run = phasespace.PPRun((-2.5,), np.eye(1), 3 * phasespace._CHUNK, 3,
                           (0, 1, 2))
    spy = mock.patch.object(phasespace, "_add_block",
                            wraps=phasespace._add_block)
    with spy as add_block, np.errstate(all="ignore"):
        with pytest.raises(NonFinite):
            phasespace.pp_estimate(run)
    assert add_block.call_count > 1
    assert threading.active_count() == before

    err = RuntimeError("draw failed")
    make_rng = np.random.default_rng

    class FailingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)
            self.draws = 0

        def standard_normal(self, *args, **kwargs):
            self.draws += 1
            if self.draws == 3:
                raise err
            return self.rng.standard_normal(*args, **kwargs)

    run = mixed_run(phasespace._CHUNK + 17)
    with mock.patch.object(phasespace.np.random, "default_rng", FailingRng):
        with pytest.raises(RuntimeError) as info:
            phasespace.pp_estimate(run)
    assert info.value is err
    assert threading.active_count() == before


def test_concurrent_calls_keep_their_streams():
    # Each call hands its slots between two threads. With more threads than
    # cores and a short switch interval, a slot refilled before its
    # products were taken would change the bits of some result.
    run = mixed_run(phasespace._CHUNK + phasespace._SUB + 3)
    want = phasespace.pp_estimate(run)
    got = [None] * 4

    def call(i):
        got[i] = phasespace.pp_estimate(run)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,))
                   for i in range(len(got))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for est, err in got:
        assert np.array_equal(est, want[0])
        assert np.array_equal(err, want[1])


def test_slot_is_refilled_only_after_its_product():
    # A slow product gives the worker time to run every queued draw, so a
    # slot refilled before its product was taken would be overwritten
    # first, and the estimates would change.
    run = mixed_run(phasespace._CHUNK + 17)
    want = phasespace.pp_estimate(run)
    matmul = np.matmul

    def slow_matmul(*args, **kwargs):
        time.sleep(0.02)
        return matmul(*args, **kwargs)

    with mock.patch.object(phasespace.np, "matmul", slow_matmul):
        est, err = phasespace.pp_estimate(run)
    assert np.array_equal(est, want[0])
    assert np.array_equal(err, want[1])


def test_prefetch_memory_is_bounded():
    # The stats-scan task size. Drawing and multiplying whole chunks peaked
    # at 28.0 MB; row blocks in a fixed set of slots peak at 13.1 MB, and a
    # second chunk of live normals would add 8 MB.
    rng = np.random.default_rng(1)
    run = phasespace.PPRun((0.89,) * 16, 0.6 * haar_unitary(16, rng),
                           5 * 10 ** 4, 7, tuple(range(13)))
    tracemalloc.start()
    try:
        phasespace.pp_estimate(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_large_nprime_samples_keep_their_weight():
    # A third of these samples have Re n' > 708, where exp(-n') is subnormal
    # or 0; their weights at N near n' are large.
    xi = (math.asinh(math.sqrt(1500)),)
    t = np.array([[math.sqrt(0.5)]])
    nv = (750, 751)
    run = phasespace.PPRun(xi, t, 10 ** 5, 3, nv)
    est, err = phasespace.pp_estimate(run)
    lay = gaussian.ModeLayout(1)
    rep = gaussian.to_adjacency(
        gaussian.apply_channel(gaussian.from_squeezing(list(xi), lay), t))
    want = dist.total_distribution(rep, [0], cutoff=max(nv)).probabilities
    assert np.all(np.abs(est - want[list(nv)]) < 5 * err)


def test_overflowing_squared_weights_raise():
    # Every weight of this run is finite, but some exceed 1e154, so their
    # squares are infinite: the estimates reach 1e297 and every standard
    # error would be NaN.
    run = phasespace.PPRun((-2.5,), np.eye(1), phasespace._CHUNK, 3,
                           (0, 1, 2))
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        phasespace.pp_estimate(run)
