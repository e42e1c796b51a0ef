"""The four benchmark workloads: inputs made from a seed, timed ops, output checks.

A workload is a list of :class:`Op`.  ``Op.run`` is the timed call into
gibbslab; ``Op.check`` inspects its output afterwards, untimed, and returns a
list of ``(kind, message)`` problems.  ``WRONG`` marks an incorrect output;
``UNMET`` marks an op that returned a correct but unfinished answer, such as
a solver that stopped at ``max_iter`` above its tolerance.  Both count the op
as failed.

Every call into gibbslab goes through a module attribute (``sampler.mh_sample``,
never a name imported from it), so the traced run can rebind it.  The V, W and
log_density callables pass through ``wrap`` so the traced run can span them;
checks use unwrapped copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gibbslab import functionals, measures, potentials, sampler, variational
from gibbslab.measures import ParticleConfig, ReferenceMeasure

WRONG = "wrong"
UNMET = "unmet"

# Mean kept energy may sit this many combined standard errors from the
# long-run reference (the chains' errors plus the reference's own).
ENERGY_Z_MAX = 4.0
# HiGHS solves to a primal/dual feasibility tolerance of 1e-7.
LP_TOL = 1e-7
# Weight-lattice step of the 4-node oracle.  simplex_scan_oracle accepts steps
# down to 1e-3, but at 1e-3 compositions_array(1000, 4) materializes
# C(1003, 3) ~ 1.7e8 rows (~5 GB); 0.01 gives 176851 rows.
ORACLE_STEP = 0.01
# Fixed 4-node instance for the oracle checks: default_rng(0).uniform(-1, 1, (4, 2)),
# solved from the solvers' default starts.  Neither comes from the run seed:
# whether a start runs to max_iter on 4 nodes changes the solve's cost a
# hundredfold (Frank-Wolfe on some node sets, mirror descent from about one
# start seed in ten), which made wall_s bimodal across seeds.
FOUR_NODES = np.array([
    [0.27392337, -0.46042657],
    [-0.91805295, -0.96694473],
    [0.62654048, 0.82551115],
    [0.21327155, 0.45899312],
])

# Long-run energy of the Metropolis targets, keyed by model: (mean, its
# standard error, asymptotic variance of the energy trace).  A chain of N kept
# samples has ESS = N * var / asymptotic variance, so its mean has standard
# error sqrt(asymptotic variance / N).  The ESS a 100-sample chain estimates
# for itself runs about 3x too high on these targets, which made a check
# built on it fail on correct chains.  Recorded, for both sizes in SIZES, with
# ``python3 -m gibbsbench.reference``; see README.md.  A chain whose model has
# no entry here fails its check.
ENERGY_REFERENCE = {
    "plane_box2_n50": (1.09030, 0.00320, 0.16377),
    "line_grid64_n50": (0.21183, 0.00076, 0.0092478),
    "plane_box2_n5": (1.05704, 0.01212, 2.3518),
    "line_grid8_n5": (0.29294, 0.00291, 0.13553),
}

SIZES = {
    "full": {
        "setup_repeats": 7,
        "exact_finite": {"atoms": 10, "n": 6, "samples": 2000, "rated": 200, "pairs": 50},
        "mh_coulomb": {"n": 50, "sweeps": 200, "burn_in": 100, "sigma": 0.3, "atoms": 64,
                       "chains": 4},
        "variational_coulomb": {"h_I": 0.1, "h_J": 0.2, "solver": {}},
        "distances": {"plane": 40, "line": 30, "repeated": 30, "points": (60, 80),
                      "base_atoms": (30, 40), "symmetry_every": 10, "lp_checks": 5},
    },
    # Smoke-test sizes: every op and check runs, in about a second per workload.
    "tiny": {
        "setup_repeats": 1,
        "exact_finite": {"atoms": 4, "n": 3, "samples": 50, "rated": 10, "pairs": 5},
        "mh_coulomb": {"n": 5, "sweeps": 20, "burn_in": 10, "sigma": 0.3, "atoms": 8,
                       "chains": 2},
        "variational_coulomb": {"h_I": 1.0, "h_J": 1.0, "solver": {"max_iter": 50}},
        "distances": {"plane": 2, "line": 2, "repeated": 2, "points": (6, 8),
                      "base_atoms": (3, 4), "symmetry_every": 2, "lp_checks": 1},
    },
}


@dataclass
class Op:
    name: str
    ops: int                                  # ops this call counts
    run: Callable[[], Any]
    check: Callable[[Any], list]


def plain(name, fn):
    return fn


def coulomb_pair(d, wrap):
    """V = |x|^2 with the d-dimensional Coulomb interaction."""
    return potentials.PotentialPair(wrap("V", potentials.power_confinement(2.0)),
                                    wrap("W", potentials.coulomb_kernel(d)),
                                    dim=d, symmetric=True)


def box_reference(half_width, d, wrap):
    """Lebesgue measure on [-half_width, half_width]^d, with a log-density of our own."""
    bounds = np.array([(-half_width, half_width)] * d)

    def log_density(points):
        pts = np.asarray(points, dtype=float)
        inside = np.all((pts >= bounds[:, 0]) & (pts <= bounds[:, 1]), axis=-1)
        return np.where(inside, 0.0, -np.inf)

    return ReferenceMeasure.density_on_box(wrap("log_density", log_density), bounds,
                                           description="lebesgue_box")


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -----------------------------------------------------------------------------
# exact_finite
# -----------------------------------------------------------------------------
def build_exact_finite(seed, size, wrap):
    rng = np.random.default_rng(seed)
    m, n = size["atoms"], size["n"]
    line = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (m, 1)), rng.uniform(0.5, 1.5, m))
    cloud = ReferenceMeasure.finite(rng.uniform(-1.0, 1.0, (m, 2)), rng.uniform(0.5, 1.5, m))
    cases = [("d1_speed_n", 1, line, float(n)),
             ("d1_speed_n2", 1, line, float(n * n)),
             ("d2_coulomb", 2, cloud, float(n))]
    ops = []
    for name, d, ref, beta in cases:
        pair = coulomb_pair(d, wrap)
        draw_seed, check_seed = (int(s) for s in rng.integers(2**32, size=2))

        def run(pair=pair, ref=ref, beta=beta, draw_seed=draw_seed):
            digits, probs = sampler.exact_gibbs_law(pair, ref, n, beta)
            samples = sampler.exact_sample_finite(pair, ref, n, beta, draw_seed, size["samples"])
            rates = [functionals.rate_I(measures.empirical_measure(c), pair, ref).value
                     for c in samples[:size["rated"]]]
            return digits, probs, samples, rates

        def check(out, d=d, ref=ref, beta=beta, check_seed=check_seed):
            return _check_exact(out, coulomb_pair(d, plain), ref, n, beta, size, check_seed)

        ops.append(Op(name, 1, run, check))
    return ops


def _check_exact(out, pair, ref, n, beta, size, seed):
    digits, probs, samples, rates = out
    atoms = np.asarray(ref.atoms, dtype=float)
    m = len(atoms)
    if digits.shape != (m**n, n) or probs.shape != (m**n,):
        return [(WRONG, f"law shapes {digits.shape}, {probs.shape}")]
    problems = []
    if np.any(probs < 0) or not _close(math.fsum(probs), 1.0, 1e-9):
        problems.append((WRONG, "probabilities are negative or do not sum to 1"))
    rng = np.random.default_rng(seed)
    radix = m ** np.arange(n - 1, -1, -1)
    logw = np.log(ref.weights)
    live = np.flatnonzero(probs > 1e-250)

    def energy(state):
        return functionals.hamiltonian(ParticleConfig(atoms[state]), pair)

    for s in rng.choice(live, size["pairs"]):
        perm = digits[s][rng.permutation(n)]
        t = int(perm @ radix)
        if not (probs[t] > 0 and _close(math.log(probs[t]), math.log(probs[s]), 1e-9)):
            problems.append((WRONG, f"law not invariant under permuting slots of state {s}"))
    for s, t in rng.choice(live, (size["pairs"], 2)):
        expected = (-beta * (energy(digits[s]) - energy(digits[t]))
                    + logw[digits[s]].sum() - logw[digits[t]].sum())
        got = math.log(probs[s]) - math.log(probs[t])
        if not _close(got, expected, 1e-8):
            problems.append((WRONG, f"p_s/p_t for states {s}, {t}: log {got!r} vs {expected!r}"))
    dead = np.flatnonzero(probs == 0)
    for s in rng.choice(dead, min(size["pairs"], len(dead)), replace=False):
        if energy(digits[s]) != np.inf:
            problems.append((WRONG, f"state {s} has finite energy but probability 0"))

    index = {a.tobytes(): k for k, a in enumerate(atoms)}
    states = np.array([[index.get(p.tobytes(), -1) for p in c.points] for c in samples])
    if len(samples) != size["samples"] or np.any(states < 0) or np.any(probs[states @ radix] == 0):
        problems.append((WRONG, "drawn configurations are off the atoms or have probability 0"))
    else:
        # mean first coordinate of a drawn configuration, against the exact law
        x = atoms[:, 0]
        stat = sum(x[digits[:, slot]] for slot in range(n)) / n
        mean = float(stat @ probs)
        sd = math.sqrt(max(float((stat - mean) ** 2 @ probs), 1e-300))
        drawn = x[states].mean(axis=1)
        if abs(drawn.mean() - mean) > 5.0 * sd / math.sqrt(len(drawn)):
            problems.append((WRONG, f"drawn mean {drawn.mean():.6g} vs exact {mean:.6g}"))

    # an empirical measure has atoms, so rate_I is finite exactly when W is on the diagonal
    diag_finite = bool(np.all(np.isfinite(pair.W(atoms, atoms))))
    if len(rates) != size["rated"] or any(math.isnan(v) or math.isfinite(v) != diag_finite
                                          for v in rates):
        problems.append((WRONG, f"rate_I values disagree with a W diagonal finite={diag_finite}"))
    elif diag_finite:
        for c, value in zip(samples[:5], rates):
            if not _close(value, _rate_I_direct(c, pair, ref, index), 1e-9):
                problems.append((WRONG, f"rate_I {value!r} differs from direct evaluation"))
    return problems


def _rate_I_direct(config, pair, ref, index):
    """Relative entropy against exp(-V) ell plus half the double integral of W."""
    atoms = np.asarray(ref.atoms, dtype=float)
    counts = np.bincount([index[p.tobytes()] for p in config.points], minlength=len(atoms))
    mu = counts / counts.sum()
    nu = ref.weights * np.exp(-pair.V(atoms))
    nu = nu / nu.sum()
    on = mu > 0
    entropy = float(np.sum(mu[on] * np.log(mu[on] / nu[on])))
    K = pair.W(atoms[:, None, :], atoms[None, :, :])
    return entropy + 0.5 * float(mu @ K @ mu)


# -----------------------------------------------------------------------------
# mh_coulomb
# -----------------------------------------------------------------------------
def build_mh_coulomb(seed, size, wrap):
    rng = np.random.default_rng(seed)
    n, sweeps, burn, chains = size["n"], size["sweeps"], size["burn_in"], size["chains"]
    kept = sweeps - burn
    plane, box = coulomb_pair(2, wrap), box_reference(2.0, 2, wrap)
    line = coulomb_pair(1, wrap)
    grid = ReferenceMeasure.finite(np.linspace(-2.0, 2.0, size["atoms"])[:, None])
    s1, s2, s3 = (int(s) for s in rng.integers(2**32, size=3))

    def cfg(chain_seed):
        return sampler.SamplerConfig(n=n, beta_n=float(n), sigma=size["sigma"],
                                     burn_in=burn, seed=chain_seed)

    def in_box(points):
        return bool(np.all(np.abs(points) <= 2.0))

    def on_grid(points):
        return bool(np.all(np.isin(points[:, 0], grid.atoms[:, 0])))

    plane_key = f"plane_box2_n{n}"
    line_key = f"line_grid{size['atoms']}_n{n}"
    return [
        Op("density_chain", sweeps,
           lambda: sampler.mh_sample(plane, box, cfg(s1), kept),
           lambda out: _check_chains([out], coulomb_pair(2, plain), in_box, kept, plane_key)),
        Op("finite_chain", sweeps,
           lambda: sampler.mh_sample(line, grid, cfg(s2), kept),
           lambda out: _check_chains([out], coulomb_pair(1, plain), on_grid, kept, line_key)),
        Op(f"{chains}_chains", chains * sweeps,
           lambda: sampler.mh_sample_chains(plane, box, cfg(s3), kept, chains),
           lambda out: _check_chains(_split_chains(out, chains), coulomb_pair(2, plain),
                                     in_box, kept, plane_key)),
    ]


def _split_chains(out, chains):
    samples, diags = out
    per = len(samples) // chains
    return [(samples[c * per:(c + 1) * per], diags[c]) for c in range(chains)]


def _check_chains(results, pair, inside, kept_per_chain, reference_key):
    problems = []
    for kept, diag in results:
        trace = np.asarray(diag.energy_trace, dtype=float)
        if len(kept) != kept_per_chain or len(trace) != kept_per_chain:
            return [(WRONG, f"{len(kept)} kept samples, expected {kept_per_chain}")]
        if np.any((diag.acceptance_rate < 0) | (diag.acceptance_rate > 1)):
            problems.append((WRONG, "acceptance rate outside [0, 1]"))
        for config, traced in zip(kept, trace):
            e = functionals.hamiltonian(config, pair)
            if not math.isfinite(e) or not inside(config.points):
                problems.append((WRONG, "kept configuration has infinite energy or leaves the support"))
                break
            if not _close(e, traced, 1e-9):
                problems.append((WRONG, f"energy trace {traced!r} vs hamiltonian {e!r}"))
                break
    if reference_key not in ENERGY_REFERENCE:
        return problems + [(WRONG, f"no reference energy for {reference_key}; "
                                   f"run python3 -m gibbsbench.reference")]
    ref_mean, ref_se, asymptotic_var = ENERGY_REFERENCE[reference_key]
    mean = float(np.mean([d.energy_trace for _, d in results]))
    se = math.sqrt(asymptotic_var / (kept_per_chain * len(results)) + ref_se * ref_se)
    if abs(mean - ref_mean) > ENERGY_Z_MAX * se:
        problems.append((WRONG, f"mean energy {mean:.5f} is {abs(mean - ref_mean) / se:.1f} "
                                f"standard errors from the reference {ref_mean}"))
    return problems


# -----------------------------------------------------------------------------
# variational_coulomb
# -----------------------------------------------------------------------------
def build_variational_coulomb(seed, size, wrap):
    """Every input is fixed and every solve starts from the solvers' default
    starts; ``seed`` is unused.  From about one drawn start seed in five the
    441-node minimize_I runs to max_iter (20073 iterations, 3.6 s instead of
    about 90 and 0.05 s), which made op_p50_ms bimodal across seeds."""
    kw = size["solver"]
    pair, box = coulomb_pair(2, wrap), box_reference(1.0, 2, wrap)
    bounds = [(-1.0, 1.0), (-1.0, 1.0)]
    fine = variational.GridSpec.regular(bounds, size["h_I"])
    coarse = variational.GridSpec.regular(bounds, size["h_J"])
    four = variational.GridSpec.from_points(FOUR_NODES)

    def solve_I(grid):
        return lambda: variational.minimize_I(pair, box, grid, **kw)

    def solve_J(grid):
        return lambda: variational.minimize_J(pair, grid, **kw)

    def objective_I(grid):
        return variational.build_objective_I(coulomb_pair(2, plain),
                                             box_reference(1.0, 2, plain), grid)[0]

    def objective_J(grid):
        return variational.build_objective_J(coulomb_pair(2, plain), grid)[0]

    tol = kw.get("tol", variational.DEFAULT_TOL)
    return [
        Op(f"I_{len(fine.nodes)}_nodes", 1, solve_I(fine),
           lambda out: _check_solve(out, objective_I(fine), tol, oracle=False)),
        Op(f"J_{len(coarse.nodes)}_nodes", 1, solve_J(coarse),
           lambda out: _check_solve(out, objective_J(coarse), tol, oracle=False)),
        Op("I_4_nodes", 1, solve_I(four),
           lambda out: _check_solve(out, objective_I(four), tol, oracle=True)),
        Op("J_4_nodes", 1, solve_J(four),
           lambda out: _check_solve(out, objective_J(four), tol, oracle=True)),
    ]


def _weights_on_nodes(mu, obj):
    """The measure's weights as a vector over the objective's nodes, or None."""
    index = {node.tobytes(): i for i, node in enumerate(obj.nodes + 0.0)}
    w = np.zeros(obj.k)
    for atom, weight in zip(mu.atoms, mu.weights):
        i = index.get(atom.tobytes())
        if i is None:
            return None
        w[i] = weight
    return w


def _check_solve(result, obj, tol, oracle):
    problems = []
    converged = result.convergence_gap <= tol
    if not converged:
        problems.append((UNMET, f"gap {result.convergence_gap:.3g} above tol {tol:g} "
                                f"after {result.iterations} iterations"))
    w = _weights_on_nodes(result.minimizer, obj)
    if w is None or np.any(w < 0) or not _close(w.sum(), 1.0, 1e-9):
        return problems + [(WRONG, "minimizer is not a probability vector on the grid")]
    if not _close(obj.value(w), result.value, 1e-9):
        problems.append((WRONG, f"reported value {result.value!r} is not the objective "
                                f"{obj.value(w)!r} at the minimizer"))
    if oracle:
        scan = variational.simplex_scan_oracle(obj, obj.nodes, ORACLE_STEP)
        w_scan = _weights_on_nodes(scan.minimizer, obj)
        g = obj.grad(w_scan)
        # for a convex objective, f* >= f(w_scan) - (Frank-Wolfe gap at w_scan)
        lattice_error = float(w_scan @ g - g.min())
        if result.value > scan.value + 1e-9 * max(1.0, abs(scan.value)):
            # a solver that reports its own unmet gap may still sit above the optimum
            problems.append((WRONG if converged else UNMET,
                             f"value {result.value!r} above the lattice oracle {scan.value!r}"))
        if result.value < scan.value - lattice_error - 1e-9 * max(1.0, abs(scan.value)):
            problems.append((WRONG, f"value {result.value!r} below the oracle {scan.value!r} "
                                    f"by more than the lattice error {lattice_error:.3g}"))
    return problems


# -----------------------------------------------------------------------------
# distances
# -----------------------------------------------------------------------------
def build_distances(seed, size, wrap):
    rng = np.random.default_rng(seed)
    lo, hi = size["points"]

    def shuffled_range(count, low, high):
        # a fixed set of sizes, shuffled by the seed, so LP sizes and the
        # peak memory they set do not change with the seed
        return rng.permutation(np.round(np.linspace(low, high, count)).astype(int))

    def sizes(count):
        na = shuffled_range(count, lo, hi)
        return zip(na, lo + hi - na)

    pairs = []
    for na, nb in sizes(size["plane"]):
        pairs.append(("plane", rng.normal(size=(na, 2)), rng.normal(0.5, 1.2, (nb, 2))))
    for na, nb in sizes(size["line"]):
        pairs.append(("line", rng.normal(size=(na, 1)), rng.normal(0.3, 0.8, (nb, 1))))
    bases = shuffled_range(size["repeated"], *size["base_atoms"])
    for (na, nb), k in zip(sizes(size["repeated"]), bases):
        atoms, w = rng.normal(size=(k, 2)), rng.dirichlet(np.ones(k))
        pairs.append(("repeated", atoms[rng.choice(k, na, p=w)], atoms[rng.choice(k, nb, p=w)]))

    ops = []
    lp_checks = 0
    for i, (kind, x, y) in enumerate(pairs):
        symmetric = i % size["symmetry_every"] == 0
        against_lp = kind == "line" and lp_checks < size["lp_checks"]
        lp_checks += against_lp

        def run(x=x, y=y):
            mu = measures.empirical_measure(ParticleConfig(x))
            nu = measures.empirical_measure(ParticleConfig(y))
            return mu, nu, measures.d_bl(mu, nu), measures.wasserstein_p(mu, nu, 2)

        def check(out, symmetric=symmetric, against_lp=against_lp):
            return _check_distances(out, symmetric, against_lp)

        ops.append(Op(f"{kind}_{i}", 1, run, check))
    return ops


def _check_distances(out, symmetric, against_lp):
    mu, nu, dbl, w2 = out
    problems = []
    if not 0.0 <= dbl <= 1.0 + LP_TOL:
        problems.append((WRONG, f"d_bl {dbl!r} outside [0, 1]"))
    if not w2 >= 0.0:
        problems.append((WRONG, f"W2 cost {w2!r} negative"))
    elif dbl > math.sqrt(w2) + LP_TOL:
        # a test function of d_bl is 1-Lipschitz, so d_bl <= W_1 <= sqrt(W2 cost)
        problems.append((WRONG, f"d_bl {dbl!r} exceeds the W2 distance {math.sqrt(w2)!r}"))
    if symmetric and not _close(measures.d_bl(nu, mu), dbl, LP_TOL):
        problems.append((WRONG, "d_bl is not symmetric"))
    if against_lp and not _close(measures.wasserstein_lp(mu, nu, 2), w2, LP_TOL):
        problems.append((WRONG, "quantile W2 differs from the transport LP"))
    return problems


WORKLOADS = {
    "exact_finite": build_exact_finite,
    "mh_coulomb": build_mh_coulomb,
    "variational_coulomb": build_variational_coulomb,
    "distances": build_distances,
}
