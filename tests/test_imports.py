"""What ``import unmix`` loads of scipy.

The solver binds its BLAS and LAPACK routines from scipy's two compiled
modules, never from the ``scipy.linalg`` package, whose ``__init__`` costs
about 0.2 s. These checks run in fresh interpreters, since this process may
have imported ``scipy.linalg`` already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from unmix import kkt

_IDENTITIES = """
import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack
from unmix import kkt

assert scipy.linalg._fblas is sys.modules["scipy.linalg._fblas"]
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
for name in ("daxpy", "ddot", "dtrsm", "dtrsv"):
    assert getattr(kkt, name) is getattr(blas, name), name
for name in ("dposv", "dpotrf"):
    assert getattr(kkt, name) is getattr(lapack, name), name
a = np.array([[4.0, 1.0], [1.0, 3.0]])
b = np.array([1.0, 2.0])
assert np.allclose(scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b), np.linalg.solve(a, b))
"""


def _fresh_python(code):
    """Run ``code`` in a new interpreter with this checkout's ``src`` first on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=environment, timeout=60, check=True)


def test_unmix_loads_no_scipy_linalg_module_and_leaves_the_package_whole():
    _fresh_python("""
import sys
import unmix, unmix.cli
loaded = sorted(name for name in sys.modules if name.startswith("scipy.linalg"))
assert not loaded, loaded
import scipy.linalg.lapack, scipy.linalg.blas
""" + _IDENTITIES)


def test_unmix_after_scipy_linalg_binds_the_same_routines():
    _fresh_python("""
import sys
import scipy.linalg.lapack, scipy.linalg.blas
import unmix, unmix.cli
""" + _IDENTITIES)


def test_a_missing_extension_raises_import_error_and_leaves_sys_modules_alone():
    before = dict(sys.modules)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module") as caught:
        kkt._linalg_extension("_no_such_module")
    assert os.path.join("scipy", "linalg") in str(caught.value)
    assert dict(sys.modules) == before
