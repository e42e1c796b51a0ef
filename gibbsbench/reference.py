"""Long-run energy statistics of the mh_coulomb targets, for ``ENERGY_REFERENCE``.

Run from the repository root::

    PYTHONPATH=src python3 -m gibbsbench.reference

For each model, at every size in ``SIZES``, it runs ``CHAINS`` independent
chains of ``SWEEPS`` kept sweeps and prints the mean kept energy, its standard
error, and the asymptotic variance of the energy trace (variance times
integrated autocorrelation time, by batch means).  A chain of N kept samples
then has effective sample size N * var / asymptotic variance and standard
error sqrt(asymptotic variance / N).  The chains use seeds disjoint from the
ones the benchmark draws, so the output reproduces ``ENERGY_REFERENCE``.
"""
from __future__ import annotations

import math

import numpy as np

from gibbslab import sampler
from gibbslab.measures import ReferenceMeasure

from .workloads import SIZES, box_reference, coulomb_pair, plain

CHAINS = 4
SWEEPS = 4000
BURN_IN = 400
BATCH = 200
SEED = 10**9


def long_run(pair, ref, n, sigma):
    traces = []
    for c in range(CHAINS):
        cfg = sampler.SamplerConfig(n=n, beta_n=float(n), sigma=sigma, burn_in=BURN_IN,
                                    seed=SEED + c)
        _, diag = sampler.mh_sample(pair, ref, cfg, SWEEPS)
        traces.append(np.asarray(diag.energy_trace, dtype=float))
    batches = np.concatenate([t[: len(t) // BATCH * BATCH].reshape(-1, BATCH).mean(axis=1)
                              for t in traces])
    asymptotic_var = BATCH * float(np.var(batches, ddof=1))
    total = sum(len(t) for t in traces)
    mean = float(np.mean(np.concatenate(traces)))
    return mean, math.sqrt(asymptotic_var / total), asymptotic_var, [t.mean() for t in traces]


def main():
    for sizes in SIZES.values():
        size = sizes["mh_coulomb"]
        n, sigma = size["n"], size["sigma"]
        models = {
            f"plane_box2_n{n}": (coulomb_pair(2, plain), box_reference(2.0, 2, plain)),
            f"line_grid{size['atoms']}_n{n}": (
                coulomb_pair(1, plain),
                ReferenceMeasure.finite(np.linspace(-2.0, 2.0, size["atoms"])[:, None])),
        }
        for key, (pair, ref) in models.items():
            mean, se, asymptotic_var, chain_means = long_run(pair, ref, n, sigma)
            print(f'"{key}": ({mean:.5f}, {se:.5f}, {asymptotic_var:.5g}),'
                  f'  # chain means {np.round(chain_means, 5).tolist()}', flush=True)


if __name__ == "__main__":
    main()
