import os
import subprocess
import sys

import numpy as np
import pytest

from photonsieve import linalg
from photonsieve.errors import NotSubunitary


def test_require_subunitary_threshold():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    q, _ = np.linalg.qr(h)
    linalg.require_subunitary((1 + 5e-11) * q)
    with pytest.raises(NotSubunitary, match="singular value above 1"):
        linalg.require_subunitary((1 + 1e-9) * q)


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
