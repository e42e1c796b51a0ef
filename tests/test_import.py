"""Importing gibbslab loads numpy alone; scipy loads on the first solve."""
import json
import os
import subprocess
import sys
from pathlib import Path

from gibbslab import measures
from gibbslab.measures import DiscreteMeasure, d_bl, wasserstein_p

SRC = Path(measures.__file__).resolve().parents[1]
MU = ([[0.0, 0.0], [0.3, 0.4], [1.0, 1.0]], [0.25, 0.25, 0.5])
NU = ([[0.0, 0.36], [0.5, 0.5], [2.0, 0.0]], [0.2, 0.5, 0.3])

COLD = f"""
import json, sys
import gibbslab.measures, gibbslab.potentials, gibbslab.functionals
import gibbslab.sampler, gibbslab.variational
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from gibbslab.measures import DiscreteMeasure, d_bl, wasserstein_p
mu, nu = DiscreteMeasure(*{MU!r}), DiscreteMeasure(*{NU!r})
print(json.dumps({{"scipy": loaded, "d_bl": d_bl(mu, nu), "w2": wasserstein_p(mu, nu, 2)}}))
"""


def test_import_loads_no_scipy_and_first_solves_match():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", COLD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    cold = json.loads(proc.stdout.strip().splitlines()[-1])
    assert cold["scipy"] == []
    # the first solves, scipy imported inside them, give the in-process values
    mu, nu = DiscreteMeasure(*MU), DiscreteMeasure(*NU)
    assert cold["d_bl"] == d_bl(mu, nu)
    assert cold["w2"] == wasserstein_p(mu, nu, 2)
