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
# array-API layer pulls in from numpy) and the process pool of sweep/converge
HEAVY = ["scipy.linalg", "numpy.f2py", "numpy.testing",
         "concurrent.futures.process"]


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
