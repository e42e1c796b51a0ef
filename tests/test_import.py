"""Importing gibbslab loads numpy alone, and so does the exact finite path;
scipy loads on the first solve."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbslab import measures
from gibbslab.functionals import rate_I
from gibbslab.measures import (DiscreteMeasure, ReferenceMeasure, d_bl, empirical_measure,
                               wasserstein_p)
from gibbslab.potentials import PotentialPair, coulomb_kernel, power_confinement
from gibbslab.sampler import exact_sample_finite

SRC = Path(measures.__file__).resolve().parents[1]
MU = ([[0.0, 0.0], [0.3, 0.4], [1.0, 1.0]], [0.25, 0.25, 0.5])
NU = ([[0.0, 0.36], [0.5, 0.5], [2.0, 0.0]], [0.2, 0.5, 0.3])
ATOMS = [[-1.0], [-0.2], [0.4], [1.1]]
WEIGHTS = [1.0, 0.5, 1.5, 0.8]

COLD = f"""
import json, sys
import gibbslab.measures, gibbslab.potentials, gibbslab.functionals
import gibbslab.sampler, gibbslab.variational

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = scipy_loaded()
# the exact finite path: tuple law, exact draws, empirical measures and their rates
from gibbslab.functionals import rate_I
from gibbslab.measures import ReferenceMeasure, empirical_measure
from gibbslab.potentials import PotentialPair, coulomb_kernel, power_confinement
from gibbslab.sampler import exact_gibbs_law, exact_sample_finite
ref = ReferenceMeasure.finite({ATOMS!r}, {WEIGHTS!r})
pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
exact_gibbs_law(pair, ref, 3, 3.0)
rates = [rate_I(empirical_measure(c), pair, ref).value
         for c in exact_sample_finite(pair, ref, 3, 3.0, 0, 5)]
exact_path = scipy_loaded()
from gibbslab.measures import DiscreteMeasure, d_bl, wasserstein_p
mu, nu = DiscreteMeasure(*{MU!r}), DiscreteMeasure(*{NU!r})
print(json.dumps({{"scipy": loaded, "exact_path": exact_path, "rates": rates,
                  "d_bl": d_bl(mu, nu), "w2": wasserstein_p(mu, nu, 2)}}))
"""


@pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
def test_import_loads_no_scipy_and_first_solves_match():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", COLD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    cold = json.loads(proc.stdout.strip().splitlines()[-1])
    assert cold["scipy"] == []
    assert cold["exact_path"] == []
    ref = ReferenceMeasure.finite(ATOMS, WEIGHTS)
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    rates = [rate_I(empirical_measure(c), pair, ref).value
             for c in exact_sample_finite(pair, ref, 3, 3.0, 0, 5)]
    assert cold["rates"] == rates
    # the first solves, scipy imported inside them, give the in-process values
    mu, nu = DiscreteMeasure(*MU), DiscreteMeasure(*NU)
    assert cold["d_bl"] == d_bl(mu, nu)
    assert cold["w2"] == wasserstein_p(mu, nu, 2)
