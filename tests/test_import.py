"""What a fresh process loads, checked in subprocesses.

Importing gibbslab loads numpy alone, and so does the exact finite path.
The first LP solve loads one compiled module of scipy's, the HiGHS binding
``scipy.optimize._highspy._core``, and the first Newton step of
``minimize_J`` another, the LAPACK wrapper ``scipy.linalg._flapack``; both
are loaded from their files by ``measures._scipy_extension``, so neither
``scipy.optimize``, ``scipy.sparse``, ``scipy.linalg`` nor scipy's own
``__init__`` runs.  A later ``import scipy.optimize, scipy.linalg`` reuses
the two modules, and a process that imported scipy first solves through
scipy's copies.  Either way every solve equals the one in this process.

What that saves, on a 2-core x86-64 Linux box with numpy at 29 MB of RSS:
the first ``d_bl`` in a process took 280 ms and 49 MB more when it imported
``scipy.optimize``, 5 ms and 5 MB with the binding alone, and the first
``minimize_J`` with Newton steps 140-200 ms and 28 MB more when it imported
``scipy.linalg``, 7 ms and 4 MB with ``_flapack`` alone.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbslab import measures
from gibbslab.functionals import rate_I
from gibbslab.measures import ReferenceMeasure, empirical_measure
from gibbslab.potentials import PotentialPair, coulomb_kernel, power_confinement
from gibbslab.sampler import exact_sample_finite

SRC = Path(measures.__file__).resolve().parents[1]
MU = ([[0.0, 0.0], [0.3, 0.4], [1.0, 1.0]], [0.25, 0.25, 0.5])
NU = ([[0.0, 0.36], [0.5, 0.5], [2.0, 0.0]], [0.2, 0.5, 0.3])
ATOMS = [[-1.0], [-0.2], [0.4], [1.1]]
WEIGHTS = [1.0, 0.5, 1.5, 0.8]
EXTENSIONS = ("scipy.optimize._highspy._core", "scipy.linalg._flapack")

# the constants above, then the solves; each script below prints one JSON line
PRELUDE = f"""
import json, sys
MU, NU, ATOMS, WEIGHTS, EXTENSIONS = {MU!r}, {NU!r}, {ATOMS!r}, {WEIGHTS!r}, {EXTENSIONS!r}
"""

SOLVES = """
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def solves():
    from gibbslab.measures import DiscreteMeasure, d_bl, wasserstein_p
    from gibbslab.potentials import (PotentialPair, Region, coulomb_kernel,
                                     masked_interaction, power_confinement)
    from gibbslab.variational import GridSpec, minimize_J
    mu, nu = DiscreteMeasure(*MU), DiscreteMeasure(*NU)
    # a masked w1 kernel fails the certificate, so the active-set QP takes Newton steps
    W = masked_interaction("w1", coulomb_kernel(1), Region.box([[-0.5, 0.5]]))
    pair = PotentialPair(power_confinement(2.0), W, dim=1, symmetric=True)
    J = minimize_J(pair, GridSpec.regular([(-1.0, 1.0)], 0.05))
    return {"d_bl": d_bl(mu, nu), "w2": wasserstein_p(mu, nu, 2), "J": J.to_json()}
"""

COLD = PRELUDE + SOLVES + """
import gibbslab.measures, gibbslab.potentials, gibbslab.functionals
import gibbslab.sampler, gibbslab.variational
loaded = scipy_loaded()
# the exact finite path: tuple law, exact draws, empirical measures and their rates
from gibbslab.functionals import rate_I
from gibbslab.measures import ReferenceMeasure, empirical_measure
from gibbslab.potentials import PotentialPair, coulomb_kernel, power_confinement
from gibbslab.sampler import exact_gibbs_law, exact_sample_finite
ref = ReferenceMeasure.finite(ATOMS, WEIGHTS)
pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
exact_gibbs_law(pair, ref, 3, 3.0)
rates = [rate_I(empirical_measure(c), pair, ref).value
         for c in exact_sample_finite(pair, ref, 3, 3.0, 0, 5)]
exact_path = scipy_loaded()
out = solves()
after_solves = scipy_loaded()
modules = [sys.modules[name] for name in EXTENSIONS]

# scipy's packages, imported after the solves, reuse both modules and agree with them
import numpy as np
import scipy.linalg, scipy.optimize
from scipy.optimize._highspy import _core
from gibbslab.measures import DiscreteMeasure, _squared_distance
from gibbslab.variational import _support_step, _tangent_hessian
mu, nu = DiscreteMeasure(*MU), DiscreteMeasure(*NU)
cost = _squared_distance(mu.atoms[:, None, :], nu.atoms[None, :, :]).ravel()
rows = np.vstack([np.kron(np.eye(3), np.ones(3)), np.kron(np.ones(3), np.eye(3))])
lp = scipy.optimize.linprog(cost, A_eq=rows, b_eq=np.concatenate([mu.weights, nu.weights]),
                            bounds=(0, None), method="highs")
K = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 1.5]])
g = np.array([0.3, -0.2, 0.4])
step, newton = _support_step(K, g)
H = _tangent_hessian(K)
cho = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), g[:-1] - g[-1])
print(json.dumps(dict(out, scipy=loaded, exact_path=exact_path, after_solves=after_solves,
                      rates=rates, reused=[_core is modules[0],
                                           scipy.linalg.lapack._flapack is modules[1]],
                      linprog_gap=abs(lp.fun - out["w2"]),
                      cho_solve_equal=bool(newton and np.array_equal(step[:-1], cho)))))
"""

# scipy's packages first; the solves then take scipy's own copies of the modules
SCIPY_FIRST = PRELUDE + SOLVES + """
import scipy.linalg, scipy.optimize
from gibbslab.measures import _scipy_extension
modules = [sys.modules[name] for name in EXTENSIONS]
out = solves()
print(json.dumps(dict(out, reused=[_scipy_extension(name) is module
                                   for name, module in zip(EXTENSIONS, modules)])))
"""

# a module file that does not load alone, as on a platform where scipy's
# __init__ must first make its shared libraries findable: the usual import
FILE_REFUSED = PRELUDE + SOLVES + """
import importlib.util

def refuse(spec):
    raise ImportError(f"{spec.name} does not load alone here")

importlib.util.module_from_spec = refuse
out = solves()
print(json.dumps(dict(out, imported=[name in sys.modules
                                     for name in ("scipy.optimize", "scipy.linalg")])))
"""


def run_cold(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_solves_match(cold):
    # the same solves in this process
    namespace = {}
    exec(PRELUDE + SOLVES, namespace)
    expected = namespace["solves"]()
    assert {key: cold[key] for key in expected} == expected
    assert json.loads(expected["J"])["method"] == "active_set_qp"


@pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
def test_import_loads_no_scipy_and_first_solves_match():
    cold = run_cold(COLD)
    assert cold["scipy"] == []
    assert cold["exact_path"] == []
    ref = ReferenceMeasure.finite(ATOMS, WEIGHTS)
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    rates = [rate_I(empirical_measure(c), pair, ref).value
             for c in exact_sample_finite(pair, ref, 3, 3.0, 0, 5)]
    assert cold["rates"] == rates
    # the solves loaded the two modules, with pybind11's submodules of HiGHS's,
    # and no package: not scipy, scipy.optimize, scipy.sparse or scipy.linalg
    loaded = cold["after_solves"]
    assert set(EXTENSIONS) <= set(loaded)
    assert all(name.startswith(EXTENSIONS) for name in loaded)
    assert_solves_match(cold)
    assert cold["reused"] == [True, True]
    assert cold["linprog_gap"] <= 1e-12
    assert cold["cho_solve_equal"]


def test_a_process_that_imported_scipy_first_solves_through_its_modules():
    cold = run_cold(SCIPY_FIRST)
    assert cold["reused"] == [True, True]
    assert_solves_match(cold)


def test_a_module_file_that_does_not_load_alone_is_imported():
    cold = run_cold(FILE_REFUSED)
    assert cold["imported"] == [True, True]
    assert_solves_match(cold)

