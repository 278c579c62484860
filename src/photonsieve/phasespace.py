"""Monte Carlo estimator for total photon-number probabilities.

Squeezed inputs with real squeezing parameters admit a positive phase-space
distribution that factorizes per mode, so Pr(N across all detectors) becomes
the average of Re[(n')^N e^{-n'} / N!] over Gaussian samples.

A sample is two real normal vectors u, v over the input modes. After the
circuit its amplitudes are alpha' = P + Q and beta' = P - Q, with
P = u diag(s) T^T and Q = v (i diag(d) T^T), so

    n' = sum_j alpha'_j conj(beta'_j)
       = sum |P|^2 - sum |Q|^2 + 2i sum Im(Q conj(P)).

A chunk of samples therefore costs two real matrix products and three row
dot products; no complex sample array is formed. The N-dependent weight is
built by a stable recursion from e^{-n'} instead of an explicit N!. Where
e^{-n'} would leave the normal range of doubles (Re n' > 700), the weights
of those samples are computed in log space instead.

The normals are drawn by a one-worker thread pool, ahead of the arithmetic:
NumPy's draws, matrix products and ufuncs release the GIL, so the two
overlap. The stream keeps its original order, per chunk u, then v, in
consecutive row blocks, which hold the same values as one draw of the whole
chunk; the single worker runs the draws in the order they are submitted.
The main thread pairs each u block with its v block as it arrives. So a
seed gives the same samples as a single-threaded draw, and the same
estimates up to the order of summation. The blocks go into a fixed set of
slots, one chunk of u and v; a slot's next draw is submitted only once the
main thread has multiplied it, so a call touches no fresh memory per block.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFinite, PartitionMismatch
from .linalg import require_counts, require_subunitary

_CHUNK = 1 << 15
# rows per drawn block; a chunk's u blocks wait for its v blocks
_SUB = 1 << 13
# e^{-n'} is subnormal beyond Re n' = 708 and 0 beyond 745
_LOG_SPACE = 700.0


@dataclass(frozen=True)
class PPRun:
    """Inputs of one estimation run.

    ``squeeze_params`` are real squeezing parameters, one per input port of
    the transmission matrix ``t``; ``n_values`` are the total photon numbers
    to estimate.
    """

    squeeze_params: tuple
    t: np.ndarray
    samples: int
    seed: int
    n_values: tuple

    def __post_init__(self):
        xi = tuple(float(x) for x in self.squeeze_params)
        t = np.asarray(self.t, dtype=complex)
        if t.ndim != 2 or t.shape[1] != len(xi):
            raise LengthMismatch("one squeezing parameter per input port")
        require_subunitary(t)
        (samples,) = require_counts([self.samples], "samples")
        if samples < 1:
            raise PartitionMismatch("samples must be positive")
        object.__setattr__(self, "squeeze_params", xi)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "n_values", require_counts(self.n_values))


def pp_estimate(run):
    """Estimates and standard errors of Pr(N), one per distinct N of
    ``run.n_values`` in ascending order.

    Per mode, s = sqrt((nbar + mbar) / 2) and d = sqrt((nbar - mbar) / 2),
    with nbar = sinh^2(xi) and mbar = sinh(2*xi) / 2; one of them is
    imaginary unless xi = 0. Each chunk draws u, then v, and forms the real
    products p = u @ [Re S | Im S] = [Re P | Im P] and
    q = v @ [Im D | -Re D] = [Im Q | -Re Q], with S = diag(s) T^T and
    D = i diag(d) T^T. Then n' = <p,p> - <q,q> + 2i <p,q> row by row,
    which equals sum_j alpha'_j conj(beta'_j) for alpha', beta' = P +- Q.
    A sample's weights Re[n'^N e^{-n'} / N!] come from the recursion
    w <- w n' / N, or, when Re n' > 700, from
    exp(N log n' - n' - lgamma(N + 1)) for each wanted N.  A weight or a
    sum of squared weights that is not finite raises ``NonFinite``.
    """
    xi = np.asarray(run.squeeze_params, dtype=float)
    nbar = np.sinh(xi) ** 2
    mbar = np.sinh(2 * xi) / 2
    s = np.sqrt((nbar + mbar).astype(complex) / 2)
    d = np.sqrt((nbar - mbar).astype(complex) / 2)
    big_s = s[:, None] * run.t.T
    big_d = 1j * d[:, None] * run.t.T
    s_real = np.hstack([big_s.real, big_s.imag])
    d_real = np.hstack([big_d.imag, -big_d.real])
    wanted = sorted(set(run.n_values))
    sums = np.zeros(len(wanted))
    sqsums = np.zeros(len(wanted))
    chunks = [[min(_SUB, run.samples - row)
               for row in range(start, min(start + _CHUNK, run.samples), _SUB)]
              for start in range(0, run.samples, _CHUNK)]
    # Room for one chunk of u and v blocks, and for the products of one pair.
    slots = np.empty((2 * len(chunks[0]), chunks[0][0], xi.size))
    pq = np.empty((2, chunks[0][0], s_real.shape[1]))
    rng = np.random.default_rng(run.seed)
    order = iter([rows for blocks in chunks for rows in blocks + blocks])
    drawn = deque()
    # imported here: concurrent.futures imports logging, which every CLI
    # process would otherwise pay for at start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        def refill(k):
            """Submit the draw of the stream's next block into slot k."""
            rows = next(order, 0)
            if rows:
                drawn.append(pool.submit(_draw, rng, slots, k, rows))

        for k in range(len(slots)):
            refill(k)
        for blocks in chunks:
            us = [drawn.popleft().result() for _ in blocks]
            for k, rows in zip(us, blocks):
                p = np.matmul(slots[k, :rows], s_real, out=pq[0, :rows])
                refill(k)
                k = drawn.popleft().result()
                q = np.matmul(slots[k, :rows], d_real, out=pq[1, :rows])
                refill(k)
                _add_block(p, q, wanted, sums, sqsums)
    # a finite weight above about 1e154 has an infinite square, which
    # would turn its standard error into NaN
    if not np.isfinite(sqsums).all():
        raise NonFinite("squared phase-space weights overflow")
    estimates = sums / run.samples
    variances = np.maximum(sqsums / run.samples - estimates ** 2, 0.0)
    errors = np.sqrt(variances / run.samples)
    return estimates, errors


def _draw(rng, slots, k, rows):
    """Draw the stream's next ``rows`` rows of normals into slot ``k``."""
    rng.standard_normal(out=slots[k, :rows])
    return k


def _add_block(p, q, wanted, sums, sqsums):
    """Accumulate the weights of the samples with real products p and q."""
    nprime = (np.einsum("ij,ij->i", p, p) - np.einsum("ij,ij->i", q, q)
              + 2j * np.einsum("ij,ij->i", p, q))
    far = nprime.real > _LOG_SPACE
    if far.any():
        _add_log_weights(nprime[far], wanted, sums, sqsums)
        nprime = nprime[~far]
    _add_weights(nprime, wanted, sums, sqsums)


def _add_weights(nprime, wanted, sums, sqsums):
    """Accumulate Re[n'^N e^{-n'} / N!] by the recursion w <- w n' / N."""
    w = np.exp(-nprime)
    n = 0
    for k, target in enumerate(wanted):
        while n < target:
            n += 1
            w *= nprime
            w *= 1.0 / n
        _accumulate(w.real, k, sums, sqsums)
    if not np.all(np.isfinite(w)):
        raise NonFinite("diverging phase-space trajectory")


def _add_log_weights(nprime, wanted, sums, sqsums):
    """Accumulate the same weights as exp(N log n' - n' - lgamma(N + 1))."""
    log_n = np.log(nprime)
    for k, n in enumerate(wanted):
        w = np.exp(n * log_n - nprime - math.lgamma(n + 1))
        if not np.all(np.isfinite(w)):
            raise NonFinite("diverging phase-space trajectory")
        _accumulate(w.real, k, sums, sqsums)


def _accumulate(r, k, sums, sqsums):
    sums[k] += r.sum()
    sqsums[k] += r @ r
