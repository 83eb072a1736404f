import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack as lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam.solvers as solvers

SRC = Path(solvers.__file__).resolve().parents[1]
ROUTINES = ("zposv", "zpotrf", "ztrtrs")


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg's __init__ imports numpy.f2py and numpy.testing through
    # scipy's array-API layer; the solvers load only its LAPACK module.
    code = (
        "import json, sys, sparsebeam\n"
        "unloaded = [m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') if m not in sys.modules]\n"
        "import scipy.linalg.lapack as lapack, sparsebeam.solvers as solvers\n"
        f"same = [getattr(lapack, n) is getattr(solvers, n) for n in {ROUTINES!r}]\n"
        "print(json.dumps([unloaded, same]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    unloaded, same = json.loads(proc.stdout)
    assert unloaded == ["scipy.linalg", "numpy.f2py", "numpy.testing"]
    # A later import of scipy.linalg reuses the module the solvers loaded.
    assert same == [True, True, True]


def test_missing_lapack_module_names_the_scipy_version(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
        solvers._load_flapack()


def _same_bytes(ours, theirs):
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m=st.integers(1, 12),
    nrhs=st.integers(1, 3),
    definite=st.booleans(),
    trans=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_routines_match_scipy_linalg_lapack(m, nrhs, definite, trans, seed):
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    z = complex_normal(m, m)
    a = z @ z.conj().T + 0.1 * np.eye(m)
    if not definite:
        a[m - 1, m - 1] = -1.0  # the last leading minor is negative: info = m
    b = complex_normal(m, nrhs)

    def calls(routines):
        posv, potrf, trtrs = routines
        solved = posv(a.copy(), b.copy(), lower=1)
        chol, info = potrf(a.copy(), lower=1, clean=0)
        return solved, (chol, info), trtrs(np.tril(chol), b.copy(), lower=1, trans=trans)

    ours = calls([getattr(solvers, n) for n in ROUTINES])
    theirs = calls([getattr(lapack, n) for n in ROUTINES])
    assert (ours[1][1] == 0) == definite
    for x, y in zip(ours, theirs):
        _same_bytes(x, y)
