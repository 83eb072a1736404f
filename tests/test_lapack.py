import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import sparsebeam.solvers as solvers

SRC = Path(solvers.__file__).resolve().parents[1]
ROUTINES = ("zposv", "zpotrf", "ztrtrs")


def _imported(code: str):
    """What ``code``, run in a fresh interpreter that imports this checkout, prints as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg's __init__ imports numpy.f2py and numpy.testing through
    # scipy's array-API layer; the solvers load only its LAPACK module.
    compare = f"same = [getattr(lapack, n) is getattr(solvers, n) for n in {ROUTINES!r}]\n"
    unloaded, same_later = _imported(
        "import json, sys, sparsebeam\n"
        "unloaded = [m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') if m not in sys.modules]\n"
        "import scipy.linalg.lapack as lapack, sparsebeam.solvers as solvers\n"
        + compare + "print(json.dumps([unloaded, same]))\n"
    )
    assert unloaded == ["scipy.linalg", "numpy.f2py", "numpy.testing"]
    # A later import of scipy.linalg reuses the module the solvers loaded.
    assert same_later == [True, True, True]
    # After an earlier one, the solvers take the module it registered.
    registered, same_earlier = _imported(
        "import json, sys\nimport scipy.linalg.lapack as lapack\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import sparsebeam.solvers as solvers\n"
        + compare + "print(json.dumps([solvers._flapack is flapack, same]))\n"
    )
    assert registered
    assert same_earlier == [True, True, True]


def test_missing_lapack_module_names_the_scipy_version(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
        solvers._load_flapack()
