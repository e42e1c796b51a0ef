"""Monte Carlo generation of particle configurations from the Gibbs law.

Three generators:

* ``mh_sample``          -- Metropolis-Hastings over R^{dn} with single-site
  proposals.  Gaussian random-walk moves against a density reference, exact
  reference-categorical moves against a finite atom cloud.  Proposals landing
  where the energy is +inf (singularities, hard walls, outside the support)
  are rejected, so kept samples never violate the hard constraints.
* ``exact_sample_finite`` -- exact Gibbs probabilities of all m^n index
  tuples on a finite reference, categorical sampling of tuple indices.  The
  law is built one slot at a time (``exact_gibbs_law`` shares the recursion)
  and is still bounded by a budget on m^n; only the drawn tuples are turned
  into atoms.
* ``iid_sample``          -- n independent draws per sample from a given
  discrete measure (the product-control construction used for upper bounds).

All randomness flows through numpy ``SeedSequence`` spawning, so parallel
chains with derived seeds are statistically independent and every run is
reproducible from its recorded seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .measures import DiscreteMeasure, ParticleConfig, ReferenceMeasure
from .potentials import PotentialPair, evaluate_V, evaluate_W
from .functionals import hamiltonian

ENUM_BUDGET_DEFAULT = 10**7
INIT_RETRIES = 100


class SamplerError(RuntimeError):
    pass


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the configuration budget."""


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters; a fixed seed makes the whole run reproducible."""

    n: int
    beta_n: float
    sigma: float = 0.5
    burn_in: int = 100
    thinning: int = 1
    seed: int | np.random.SeedSequence = 0
    init: ParticleConfig | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.beta_n <= 0:
            raise ValueError("beta_n must be positive")
        if self.sigma <= 0:
            raise ValueError("proposal step sigma must be positive")
        if self.burn_in < 0 or self.thinning < 0:
            raise ValueError("burn_in and thinning must be non-negative")


@dataclass
class ChainDiagnostics:
    acceptance_rate: np.ndarray          # per sweep
    energy_trace: np.ndarray             # per kept sample
    ess: float                           # effective sample size of the trace
    seed: int | np.random.SeedSequence = 0

    @property
    def mean_acceptance(self) -> float:
        return float(np.mean(self.acceptance_rate)) if len(self.acceptance_rate) else 0.0

    def to_csv(self, path) -> None:
        lines = ["sweep,acceptance"]
        for i, a in enumerate(self.acceptance_rate):
            lines.append(f"{i},{a:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def effective_sample_size(trace) -> float:
    """Autocorrelation ESS with the usual cutoff at the first negative lag."""
    x = np.asarray(trace, dtype=float)
    n = len(x)
    if n < 4 or np.allclose(x, x[0]):
        return float(n)
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    rho_sum = 0.0
    for lag in range(1, n // 2):
        rho = float(np.dot(x[:-lag], x[lag:])) / ((n - lag) * var)
        if rho <= 0:
            break
        rho_sum += rho
    return float(n / (1.0 + 2.0 * rho_sum))


def _local_energy(pts, i, xi, pair, n):
    """Energy terms of H_n involving site i with that site at position xi.

    Per-site confinement plus the row/column interaction against the other
    sites.  Returns +inf as soon as any term diverges.
    """
    v = float(evaluate_V(pair.V, xi[None, :])[0])
    if v == np.inf:
        return np.inf
    others = np.delete(pts, i, axis=0)
    if len(others) == 0:
        return v / n
    xi_rep = np.broadcast_to(xi, others.shape)
    w_out = evaluate_W(pair.W, xi_rep, others)
    if pair.symmetric:
        w_sum = 2.0 * float(np.sum(w_out)) if np.all(np.isfinite(w_out)) else np.inf
    else:
        w_in = evaluate_W(pair.W, others, xi_rep)
        both = np.concatenate([w_out, w_in])
        w_sum = float(np.sum(both)) if np.all(np.isfinite(both)) else np.inf
    if w_sum == np.inf:
        return np.inf
    return v / n + w_sum / (2.0 * n * n)


def _draw_init(pair, ref, cfg, rng):
    if cfg.init is not None:
        pts = np.array(cfg.init.points, dtype=float)
        if hamiltonian(ParticleConfig(pts), pair) == np.inf:
            raise SamplerError("user initial configuration has infinite energy")
        return pts
    for _ in range(INIT_RETRIES):
        if ref.is_finite:
            probs = ref.weights / ref.weights.sum()
            idx = rng.choice(len(ref.atoms), size=cfg.n, p=probs)
            pts = ref.atoms[idx].astype(float)
        else:
            box = ref.box
            pts = rng.uniform(box[:, 0], box[:, 1], size=(cfg.n, len(box)))
        if hamiltonian(ParticleConfig(pts), pair) < np.inf:
            return pts
    raise SamplerError(
        f"no finite-energy initial configuration found in {INIT_RETRIES} draws"
    )


def mh_sample(pair: PotentialPair, ref: ReferenceMeasure, cfg: SamplerConfig,
              samples: int, _transition_hook=None):
    """Metropolis chain targeting the Gibbs law exp(-beta_n H_n) d ell^n / Z_n.

    One sweep updates each of the n sites once.  Against a density reference
    the proposal is a Gaussian step of scale sigma and the acceptance ratio
    carries the reference log-density; against a finite reference the
    proposal redraws the site from the normalized atom cloud, which cancels
    the reference factor and leaves the pure energy ratio.  The normalization
    constant is never needed.

    Returns (kept configurations, ChainDiagnostics).  ``_transition_hook``,
    used by the validation suite, receives (state_before, state_after) index
    tuples per elementary move on finite references.
    """
    rng = np.random.default_rng(cfg.seed)
    pts = _draw_init(pair, ref, cfg, rng)
    n = cfg.n

    finite_mode = ref.is_finite
    if finite_mode:
        probs = ref.weights / ref.weights.sum()
        atom_index = {a.tobytes(): k for k, a in enumerate(np.asarray(ref.atoms, dtype=float))}
        state_idx = np.array([atom_index[p.tobytes()] for p in pts]) if _transition_hook else None

    kept = []
    energies = []
    acc_rates = []
    sweeps_done = 0
    while len(kept) < samples:
        accepted = 0
        for i in range(n):
            xi = pts[i]
            if finite_mode:
                k_new = rng.choice(len(ref.atoms), p=probs)
                prop = ref.atoms[k_new].astype(float)
                log_q = 0.0     # reference-categorical proposal cancels the ell factor
            else:
                prop = xi + cfg.sigma * rng.normal(size=xi.shape)
                ld = ref.log_density(np.vstack([prop, xi]))
                log_q = float(ld[0] - ld[1])
            e_prop = _local_energy(pts, i, prop, pair, n)
            if e_prop == np.inf or log_q == -np.inf:
                if _transition_hook is not None and finite_mode:
                    _transition_hook(tuple(state_idx), tuple(state_idx))
                continue
            e_cur = _local_energy(pts, i, xi, pair, n)
            log_ratio = -cfg.beta_n * (e_prop - e_cur) + log_q
            if math.log(rng.uniform()) < log_ratio:
                pts[i] = prop
                accepted += 1
                if _transition_hook is not None and finite_mode:
                    old = tuple(state_idx)
                    state_idx[i] = k_new
                    _transition_hook(old, tuple(state_idx))
            elif _transition_hook is not None and finite_mode:
                _transition_hook(tuple(state_idx), tuple(state_idx))
        acc_rates.append(accepted / n)
        sweeps_done += 1
        past_burn = sweeps_done > cfg.burn_in
        due = (sweeps_done - cfg.burn_in - 1) % max(cfg.thinning, 1) == 0
        if past_burn and due:
            config = ParticleConfig(pts.copy())
            kept.append(config)
            energies.append(hamiltonian(config, pair))

    diag = ChainDiagnostics(
        acceptance_rate=np.array(acc_rates),
        energy_trace=np.array(energies),
        ess=effective_sample_size(energies),
        seed=cfg.seed,
    )
    return kept, diag


def mh_sample_chains(pair, ref, cfg: SamplerConfig, samples: int, chains: int):
    """Independent chains seeded by the children of SeedSequence(cfg.seed).spawn(chains).

    Chain c is ``mh_sample`` with ``seed`` set to the c-th child; samples are
    merged by chain index.
    """
    spawned = np.random.SeedSequence(cfg.seed).spawn(chains)
    results = [mh_sample(pair, ref, replace(cfg, seed=child), samples)
               for child in spawned]
    all_samples = [s for samp, _ in results for s in samp]
    diags = [d for _, d in results]
    return all_samples, diags


def _tuple_law(pair, ell, n, beta_n, budget) -> np.ndarray:
    """Normalized probabilities of all m^n index tuples, in mixed-radix order.

    Built one slot at a time: appending atom j as the new fastest digit of a
    prefix adds j's site term -beta_n V_j / n + log w_j and, through ``prefix``,
    the interaction -beta_n (W + W^T)_{aj} / (2 n^2) with every atom a already
    in the prefix.  evaluate_V and evaluate_W refuse NaN and -inf and the
    weights are positive and finite, so the only non-finite value is -inf.
    """
    if not ell.is_finite:
        raise ValueError("exact law needs a finite reference measure")
    if not beta_n > 0:
        raise ValueError("beta_n must be positive")
    m = len(ell.atoms)
    if m**n > budget:
        raise BudgetExceededError(f"enumeration of {m}^{n} configurations exceeds budget {budget}")
    atoms = np.asarray(ell.atoms, dtype=float)
    site = -beta_n * evaluate_V(pair.V, atoms) / n + np.log(ell.weights)
    log_prob = site
    if n > 1:
        Wmat = evaluate_W(pair.W, atoms[:, None, :], atoms[None, :, :])
        link = -beta_n * (Wmat + Wmat.T) / (2.0 * n * n)
        prefix = link
        for slot in range(1, n):
            log_prob = (log_prob[:, None] + site[None, :] + prefix).ravel()
            if slot < n - 1:
                prefix = (prefix[:, None, :] + link[None, :, :]).reshape(-1, m)
    shift = log_prob.max()
    if shift == -np.inf:
        raise SamplerError("all configurations have infinite energy; the Gibbs law is empty")
    log_prob -= shift
    probs = np.exp(log_prob, out=log_prob)
    probs /= probs.sum()
    return probs


def exact_sample_finite(pair: PotentialPair, ell: ReferenceMeasure, n: int,
                        beta_n: float, seed: int, samples: int,
                        budget: int = ENUM_BUDGET_DEFAULT):
    """Exact draws from the Gibbs law on a finite reference.

    Computes the probabilities of all m^n index tuples by the slot recursion
    of ``exact_gibbs_law`` (same m^n budget), draws flat tuple indices
    categorically and converts only the drawn indices into atoms; the
    (m^n, n) tuple array is never built.
    """
    probs = _tuple_law(pair, ell, n, beta_n, budget)
    atoms = np.asarray(ell.atoms, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picks = rng.choice(len(probs), size=samples, p=probs)
    slots = np.stack(np.unravel_index(picks, (len(atoms),) * n), axis=1)
    return [ParticleConfig(atoms[row]) for row in slots]


def exact_gibbs_law(pair: PotentialPair, ell: ReferenceMeasure, n: int, beta_n: float,
                    budget: int = ENUM_BUDGET_DEFAULT):
    """Exact configuration probabilities on a finite reference.

    Returns (index tuples array of shape (m^n, n), probability vector), both
    in lexicographic (mixed-radix) order of the tuples, aligned with
    np.unravel_index on shape (m,) * n.  The probabilities, proportional to
    exp(-beta_n H_n) times the product of reference weights, are built one
    slot at a time, so no per-tuple energy sum is formed.  Raises
    BudgetExceededError when m^n exceeds ``budget``.
    """
    probs = _tuple_law(pair, ell, n, beta_n, budget)
    m = len(ell.atoms)
    digits = np.empty((m,) * n + (n,), dtype=np.min_scalar_type(m - 1))
    for slot in range(n):
        column = [1] * n
        column[slot] = m
        digits[..., slot] = np.arange(m).reshape(column)
    return digits.reshape(-1, n), probs


def iid_sample(mu_star: DiscreteMeasure, n: int, seed: int, samples: int):
    """samples independent configurations of n iid draws from mu_star."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.choice(mu_star.support_size, size=(samples, n), p=mu_star.weights)
    return [ParticleConfig(mu_star.atoms[row]) for row in idx]
