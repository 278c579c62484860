import os
import subprocess
import sys

import numpy as np
import pytest

from photonsieve import linalg
from photonsieve.errors import DomainError, IndexOutOfRange, NotSubunitary


def test_require_subunitary_threshold():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    q, _ = np.linalg.qr(h)
    linalg.require_subunitary((1 + 5e-11) * q)
    with pytest.raises(NotSubunitary, match="singular value above 1"):
        linalg.require_subunitary((1 + 1e-9) * q)


def test_require_counts_takes_whole_numbers_only():
    counts = linalg.require_counts([2.0, 0, np.int64(3), np.float64(1.0)])
    assert counts == (2, 0, 3, 1)
    assert all(type(c) is int for c in counts)
    assert linalg.require_counts(iter([1, 2])) == (1, 2)
    for bad in ([1.5], [-1], [0, -0.5], [np.nan], [np.inf], ["2"], [1j],
                [None], [[1]], [True, False], [2, False], [np.True_]):
        with pytest.raises(DomainError, match="non-negative integers"):
            linalg.require_counts(bad, "counts")


def test_require_modes_takes_distinct_indices_in_range():
    assert linalg.require_modes((2, np.int64(0)), 3) == [2, 0]
    assert linalg.require_modes(iter([1]), 2) == [1]
    assert linalg.require_modes([], 2) == []
    for bad in ([0, 0], [3], [-1], [1.0], [0.5], ["0"], [None], [True, 0],
                [2, False], [np.True_]):
        with pytest.raises(IndexOutOfRange):
            linalg.require_modes(bad, 3)


def test_xmat():
    x = linalg.xmat(3)
    assert np.allclose(x @ x, np.eye(6))
    assert np.allclose(x[:3, 3:], np.eye(3))


def test_import_loads_no_scipy():
    code = ("import sys, photonsieve; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
