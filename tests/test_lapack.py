"""degenwave takes dpttrf, dpttrs and dtbtrs from scipy's compiled LAPACK
extension without importing the scipy.linalg package.

Each test runs a fresh interpreter: the test process itself has imported
scipy.linalg already (through scipy.integrate in test_mesh.py).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# modules a cold start must not load: the scipy.linalg package (and what its
# array-API layer pulls in from numpy), the process pool of sweep/converge
# and OpenSSL, which only a report's config hash needs
HEAVY = ["scipy.linalg", "numpy.f2py", "numpy.testing",
         "concurrent.futures.process", "_hashlib"]


def _python(code: str, *path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [*path, SRC])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cold_start_imports_no_scipy_linalg():
    # what perfbench/coldstart.py does, after importing the whole CLI
    code = f"""
import json, sys
import degenwave, degenwave.cli
from degenwave import config, stepper
setup = config.build_setup(config.load_config("baseline"))
stepper.StepWorkspace.build(setup.ops, setup.gains, setup.dt)
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_routines_are_scipys_own_objects():
    code = """
import json
import degenwave
import scipy.linalg.lapack as lapack
print(json.dumps([degenwave.mesh.dpttrf is lapack.dpttrf,
                  degenwave.mesh.dpttrs is lapack.dpttrs,
                  degenwave.delay_channel.dtbtrs is lapack.dtbtrs]))
"""
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, True, True]


def test_missing_extension_fails_loudly(tmp_path):
    # a scipy package with no linalg/_flapack in it
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = _python("import degenwave", tmp_path)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: scipy's LAPACK extension _flapack")
    assert str(tmp_path / "scipy" / "linalg") in last
    assert "(scipy of unknown version)" in last


def test_channel_solve_overwrites_a_transposed_stack():
    # the run keeps its channel as a C-order (B, m + 1) array: dtbtrs with
    # overwrite_b solves its Fortran-order transpose where it lies and
    # returns that very array, which the per-step channel solve relies on
    import numpy as np

    from degenwave._lapack import dtbtrs

    for rows in (3, 1):
        w = np.random.default_rng(rows).standard_normal((rows, 9))
        before = w.copy()
        # lower band storage of the bidiagonal 2 I - S (S the shift)
        band = np.empty((9, 2))
        band[:, 0], band[:, 1] = 2.0, -1.0
        b = w.T
        assert b.flags.f_contiguous and band.T.flags.f_contiguous
        x, info = dtbtrs(band.T, b, "L", "N", "N", 1)
        assert info == 0 and x is b
        assert np.shares_memory(x, w)
        # x_i = (b_i + x_{i-1}) / 2, exact in every order of evaluation
        want = before.copy()
        want[:, 0] /= 2.0
        for i in range(1, 9):
            want[:, i] = (want[:, i] + want[:, i - 1]) / 2.0
        assert np.array_equal(w, want)
