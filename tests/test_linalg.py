import os
import subprocess
import sys

import numpy as np
import pytest

from photonsieve import distributions as dist
from photonsieve import fock_channel, gaussian, heralding, linalg, phasespace
from photonsieve.errors import (DomainError, IndexOutOfRange, NotSubunitary,
                                ValidationFailure)

from references import xmat


def test_require_subunitary_threshold():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    q, _ = np.linalg.qr(h)
    linalg.require_subunitary((1 + 5e-11) * q)
    with pytest.raises(NotSubunitary, match="singular value above 1"):
        linalg.require_subunitary((1 + 1e-9) * q)
    # a matrix with no singular value is subunitary
    for empty in (np.zeros((2, 0)), np.zeros((0, 1)), np.zeros((0, 0))):
        linalg.require_subunitary(empty)


def test_require_counts_takes_whole_numbers_only():
    counts = linalg.require_counts([2.0, 0, np.int64(3), np.float64(1.0)])
    assert counts == (2, 0, 3, 1)
    assert all(type(c) is int for c in counts)
    assert linalg.require_counts(iter([1, 2])) == (1, 2)
    for bad in ([1.5], [-1], [0, -0.5], [np.nan], [np.inf], ["2"], [1j],
                [None], [[1]], [True, False], [2, False], [np.True_], 3,
                None):
        with pytest.raises(DomainError, match="non-negative integers"):
            linalg.require_counts(bad, "counts")


def test_require_modes_takes_distinct_indices_in_range():
    assert linalg.require_modes((2, np.int64(0)), 3) == [2, 0]
    assert linalg.require_modes(iter([1]), 2) == [1]
    assert linalg.require_modes([], 2) == []
    for bad in ([0, 0], [3], [-1], [1.0], [0.5], ["0"], [None], [True, 0],
                [2, False], [np.True_], 3, None):
        with pytest.raises(IndexOutOfRange):
            linalg.require_modes(bad, 3)


_STATE = gaussian.from_squeezing([0.5, 0.3], gaussian.ModeLayout(2))


@pytest.mark.parametrize("call", [
    lambda: dist.prob_fine(gaussian.to_adjacency(_STATE), 3),
    lambda: dist.CoarsePattern([(0, 1)], 2),
    lambda: heralding.HeraldSpec([0], 5, 2),
    lambda: fock_channel.FockInput(2, np.eye(1)),
    lambda: phasespace.PPRun((0.5,), np.eye(1), 10, 1, 3),
    lambda: dist.total_distribution(gaussian.to_adjacency(_STATE), 3),
    lambda: gaussian.marginal_state(_STATE, 1),
], ids=["prob_fine", "CoarsePattern", "HeraldSpec", "FockInput", "PPRun",
        "total_distribution", "marginal_state"])
def test_scalar_for_counts_or_modes_is_a_validation_error(call):
    """A scalar where counts or a mode list belong fails the count or the
    mode-list check, never as a raw ``TypeError``."""
    with pytest.raises(ValidationFailure):
        call()


def test_xmat():
    x = xmat(3)
    assert np.allclose(x @ x, np.eye(6))
    assert np.allclose(x[:3, 3:], np.eye(3))


def test_import_loads_no_scipy():
    code = ("import sys, photonsieve; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
