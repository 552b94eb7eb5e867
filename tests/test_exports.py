import importlib
import os
import subprocess
import sys
from pathlib import Path

import cavityfilter

# the modules whose public names the package re-exports (cli is the
# command-line entry point and stays a module of its own)
REEXPORTED = ("classical", "control", "errors", "fock", "lti", "mc", "qkf",
              "trajectory")


def test_package_exports_are_the_union_of_module_exports():
    union = set()
    for name in REEXPORTED:
        module = importlib.import_module(f"cavityfilter.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"
        union.update(module.__all__)
    assert len(cavityfilter.__all__) == len(set(cavityfilter.__all__))
    assert set(cavityfilter.__all__) == union
    for attr in cavityfilter.__all__:
        assert hasattr(cavityfilter, attr), attr


# one fresh interpreter: thermal CLI runs leave scipy unloaded (and a
# one-shard run the process pool too); a squeezed, displaced prior loads
# scipy and has the bits of a direct scipy.linalg.expm construction
LAZY_IMPORTS = r"""
import contextlib, io, math, sys
from pathlib import Path

import numpy as np

import cavityfilter
from cavityfilter import cli, fock

def loaded(name):
    return any(m == name or m.startswith(name + ".") for m in sys.modules)

out = Path(sys.argv[1])
ini = out / "thermal.ini"
ini.write_text(
    "[mode]\ngamma = 1\ndim = 20\n[initial]\nstate = thermal\nnbar = 0.5\n"
    "[run]\nT = 0.02\ndt = 1e-3\nn_traj = 2\nseed = 8589934592\n"
    "stride = 10\n", encoding="utf-8")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["filter", str(ini), "--out", str(out / "f")]) == 0
    assert not loaded("concurrent.futures")
    assert cli.main(["ensemble", str(ini), "--out", str(out / "e")]) == 0
assert loaded("concurrent.futures.process")  # two shards took the pool
assert not loaded("scipy")

alpha, cov, dim = 0.3 - 0.2j, fock.CovariancePair(0.4, 0.2 + 0.1j), 30
rho = fock.gaussian_state(alpha, cov, dim).entries
assert loaded("scipy.linalg")

from scipy.linalg import expm
half = cov.V + 0.5
nbar = math.sqrt(half * half - abs(cov.W) ** 2) - 0.5
xi = 0.5 * math.atanh(abs(cov.W) / half) * (-cov.W / abs(cov.W))
m = fock._mode_matrices(dim)
want = np.diag(fock._thermal_diag(nbar, dim)).astype(np.complex128)
for gen in (0.5 * (np.conj(xi) * m["a2"] - xi * m["ad2"]),
            alpha * m["ad"] - np.conj(alpha) * m["a"]):
    u = expm(gen)
    want = u @ want @ u.conj().T
want = 0.5 * (want + want.conj().T)
want /= float(np.trace(want).real)
assert rho.tobytes() == want.tobytes()
print("ok")
"""


def test_scipy_is_imported_only_for_squeezed_or_displaced_priors(tmp_path):
    src = str(Path(cavityfilter.__file__).resolve().parents[1])
    env = dict(os.environ, QKF_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok"]
