"""Monte Carlo generation of particle configurations from the Gibbs law.

Three generators:

* ``mh_sample``          -- Metropolis-Hastings over R^{dn} with single-site
  proposals.  Gaussian random-walk moves against a density reference, exact
  reference-categorical moves against a finite atom cloud.  Proposals landing
  where the energy is +inf (singularities, hard walls, outside the support)
  are rejected, so kept samples never violate the hard constraints.
  One sweep moves the sites in order, so its transition matrix is the
  product T_0 T_1 ... T_{n-1} of single-site Metropolis kernels, each of
  which leaves the Gibbs law invariant.
  ``mh_sample_chains`` runs C such chains in lockstep on a (C, n, d) state
  through the same kernel, of which ``mh_sample`` is the C = 1 call.  Every
  chain carries a running H_n, updated on each accepted move, which is its
  energy trace.  W is evaluated in two batched blocks per sweep, all
  proposals against the state and against each other, by
  ``potentials.offdiag_pair_matrix``, and each chain keeps its state's
  (n, n) interaction matrix current; memory is O(C n^2).  A
  sweep still moves its sites one after another, but its n accept decisions
  are settled together: given the earlier sites that accepted, a site's
  energy change is linear in their indicator through a strictly
  lower-triangular matrix, so the decisions are the unique fixed point of a
  threshold system, which at most n + 1 batched matrix-vector passes reach,
  with no Python loop over sites.  A run of ``samples`` kept states with
  burn-in b and thinning t makes exactly b + (samples - 1) t + 1 sweeps (none
  for samples = 0), keeping the state after sweep b + k t for k = 0, 1, ...;
  its per-sweep diagnostics and its energy trace are filled in place.
* ``exact_sample_finite`` -- exact draws on a finite reference.  The
  particles are exchangeable, so H_n depends only on the counts of the m
  atoms, and ``exact_count_law`` gives the exact law of those counts on the
  C(n + m - 1, m - 1) compositions of n, with at most ``ENUM_BUDGET`` entries
  in its count array.  Both exact laws are built from one formula
  (``_count_log_weights``) on the per-atom terms of ``_atom_terms``: the site
  term site_a = -beta_n V_a / n + log w_a and the link matrix
  link = -beta_n (W + W^T) / (2 n^2).  The log weight of a composition c is
  separable over the atoms but for the cross term:

      log n! + sum_a T[a, c_a] + (1/2) sum_{a != b} c_a c_b link_ab,
      T[a, h] = h site_a + h (h - 1) / 2 link_aa - log h!,

  so the count law gathers an (m, n + 1) table by the counts.  A drawn
  composition is expanded into atom indices and its row shuffled uniformly,
  which gives every ordering its exact probability; only the drawn rows are
  turned into atoms.
  ``exact_gibbs_law`` gives the law of all m^n index tuples, for m^n at most
  ``ENUM_BUDGET``: the count law read at each tuple's composition,
  p(c) / multinomial(n; c).  A label per (n - 1)-tuple names the composition
  of its first n - 1 slots, and the law gathers, by these labels, rows of m
  probabilities, one per last atom, so one gather is its only per-tuple
  work.  The index tuples, their labels and the compositions depend on
  (n, m) alone: each is built once per (n, m), kept for the last (n, m)
  asked for, and returned as a shared read-only array.
* ``iid_sample``          -- n independent draws per sample from a given
  discrete measure (the product-control construction used for upper bounds).

Every generator takes an int or a numpy ``SeedSequence`` as its seed and
draws from ``np.random.default_rng(seed)``.  Chain c of
``mh_sample_chains`` is seeded by the c-th spawn child of the configured seed
(derived without advancing a caller's sequence) and draws only from its own
Generator, so lockstep chains are statistically independent, each equals the
chain run alone, and every run is reproducible from its recorded seed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._enum import compositions_array
from .measures import DiscreteMeasure, ParticleConfig, ReferenceMeasure, _record_json
from .potentials import (PotentialPair, _check_dim, _integer, evaluate_V, evaluate_W,
                         offdiag_pair_matrix)
from .functionals import hamiltonian  # noqa: F401  (callers reach it as sampler.hamiltonian)

# Most m^n tuples of exact_gibbs_law, and most entries of exact_count_law's
# (compositions, m) count array (n times as many for exact_gibbs_law's).
ENUM_BUDGET = 10**7
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
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "burn_in", _integer(self.burn_in, "burn_in", 0))
        object.__setattr__(self, "thinning", _integer(self.thinning, "thinning"))
        # NaN fails every comparison, so it is refused along with inf
        if not 0 < self.beta_n < math.inf:
            raise ValueError(f"beta_n must lie in (0, inf), got {self.beta_n!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"proposal step sigma must lie in (0, inf), got {self.sigma!r}")


@dataclass
class ChainDiagnostics:
    acceptance_rate: np.ndarray          # per sweep
    energy_trace: np.ndarray             # per kept sample: the chain's running H_n
    ess: float                           # effective sample size of the trace
    seed: int | np.random.SeedSequence = 0
    # per sweep: moves whose proposal has +inf energy or lies outside the
    # reference's support, and moves that failed the Metropolis test
    rejected_infinite: np.ndarray = field(kw_only=True)
    rejected_metropolis: np.ndarray = field(kw_only=True)
    # per sweep: fixed-point passes that settled the sweep's accept decisions
    # (1 when every site rejects at once, at most n + 1)
    passes: np.ndarray = field(kw_only=True)

    @property
    def mean_acceptance(self) -> float:
        return float(np.mean(self.acceptance_rate)) if len(self.acceptance_rate) else 0.0

    def to_json(self) -> str:
        """Every field, arrays as lists; a SeedSequence seed is written as the
        entropy, spawn key and pool size that rebuild it."""
        return _record_json(self)

    def to_csv(self, path) -> None:
        """One row per sweep: acceptance rate, the two rejection counts and
        the fixed-point passes."""
        lines = ["sweep,acceptance,rejected_infinite,rejected_metropolis,passes"]
        for i, (a, r_inf, r_met, p) in enumerate(zip(
                self.acceptance_rate, self.rejected_infinite, self.rejected_metropolis,
                self.passes)):
            lines.append(f"{i},{a:.17g},{r_inf},{r_met},{p}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def effective_sample_size(trace) -> float:
    """N / tau, with tau from Geyer's initial monotone sequence estimator.

    The autocorrelations rho_t come from one FFT of the centred trace (the
    biased autocovariance).  The pair sums Gamma_k = rho_{2k} + rho_{2k+1} are
    cut at the first non-positive one and made non-increasing, and
    tau = 2 sum_k Gamma_k - 1 (Geyer 1992).  tau is floored at 1, so the ESS
    never exceeds N.  The ESS is unchanged by x -> a + b x (b != 0), so a
    trace counts as constant, with ESS N, only when all its entries are
    equal: a tolerance test would call a trace of small fluctuations about
    a large level constant.
    """
    x = np.asarray(trace, dtype=float)
    n = len(x)
    if n < 4 or np.ptp(x) == 0:  # constant only when every entry is equal
        return float(n)
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f.real**2 + f.imag**2, 2 * n)[:n]
    gamma = (acov[: 2 * (n // 2)] / acov[0]).reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(gamma <= 0)
    if len(stop):
        gamma = gamma[: stop[0]]
    tau = 2.0 * float(np.sum(np.minimum.accumulate(gamma))) - 1.0
    return float(n / max(tau, 1.0))


def _interactions(pair, x, y):
    """S(x_i, y_j) for j != i over (C, n, d) sites, a (C, n, n) array with a
    zero diagonal from ``offdiag_pair_matrix``: S = W for a symmetric W and
    W(x, y) + W(y, x) otherwise."""
    S = offdiag_pair_matrix(pair.W, x, y)
    if not pair.symmetric:
        S += offdiag_pair_matrix(pair.W, y, x).transpose(0, 2, 1)
    return S


def _refuse_asymmetric(pts, Y):
    """Raise when a W declared symmetric is not, at the starting state.

    Y holds W(x_i, x_j) and W(x_j, x_i); the kernel keeps only one of them
    per pair for a symmetric W, so a difference above 1e-12 relative would
    make the chain target the wrong law.
    """
    Yt = Y.transpose(0, 2, 1)
    bad = np.abs(Y - Yt) > 1e-12 * np.maximum(np.abs(Y), np.abs(Yt))
    if bad.any():
        c, i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"W is declared symmetric, but W(x_{i}, x_{j}) = {float(Y[c, i, j])!r} and "
            f"W(x_{j}, x_{i}) = {float(Y[c, j, i])!r} at x_{i} = {pts[c, i].tolist()}, "
            f"x_{j} = {pts[c, j].tolist()} (chain {c}); declare the pair with "
            "symmetric=False")


def _draw_starts(pair, ref, cfg, rngs, cdf):
    """Starting configurations of finite energy and finite reference
    log-density, one per Generator, and what the kernel keeps of them.

    On a finite reference a start's n sites are drawn by inverting ``cdf``,
    the normalized cumulative reference weights the kernel's proposals use,
    at n uniforms; that is how numpy's ``choice`` draws with probabilities p.
    Every chain draws once; the chains whose draw has infinite energy draw
    again, each from its own Generator, up to INIT_RETRIES draws.  Returns the
    (C, n, d) state, V / n at it, its log-density (None on a finite
    reference), its interaction matrix S(x_i, x_j) and the chains' H_n, which
    is (1/n) sum V + sum S / (2 n^2), halved again for a non-symmetric W.
    ``cfg.init`` is refused when it has infinite energy, a site of -inf
    log-density, or, on a finite reference, a site that is not an atom.
    For a W declared symmetric, a start whose matrix differs from its
    transpose is refused (``_refuse_asymmetric``); this needs no W call.
    """
    C, n, d = len(rngs), cfg.n, ref.dim
    pts = np.empty((C, n, d))
    v, Y = np.empty((C, n)), np.empty((C, n, n))
    ld = None if ref.is_finite else np.empty((C, n))
    energy = np.full(C, np.inf)
    pair_norm = 2.0 * n * n if pair.symmetric else 4.0 * n * n
    todo = np.arange(C)
    tries = INIT_RETRIES if cfg.init is None else 1
    # a finite reference has no log-density to refuse an init site off its atoms
    if cfg.init is not None and ref.is_finite:
        tries = int(all(p.tobytes() in ref._canon[2] for p in cfg.init.points))
    for _ in range(tries):
        for c in todo:
            if cfg.init is not None:
                pts[c] = cfg.init.points
            elif ref.is_finite:
                pts[c] = ref.atoms[np.searchsorted(cdf, rngs[c].random(n), side="right")]
            else:
                box = ref.box
                pts[c] = rngs[c].uniform(box[:, 0], box[:, 1], size=(n, d))
        raw_v = evaluate_V(pair.V, pts[todo].reshape(-1, d)).reshape(-1, n)
        v[todo] = raw_v / n
        Y[todo] = _interactions(pair, pts[todo], pts[todo])
        if ld is not None:
            ld[todo] = ref.log_density(pts[todo].reshape(-1, d)).reshape(-1, n)
        for c, vals in zip(todo, raw_v):
            if ld is None or np.all(np.isfinite(ld[c])):
                energy[c] = (math.fsum(vals.tolist()) / n
                             + math.fsum(Y[c].ravel().tolist()) / pair_norm)
        todo = todo[energy[todo] == np.inf]
        if not len(todo):
            if pair.symmetric:
                _refuse_asymmetric(pts, Y)
            return pts, v, ld, Y, energy
    if cfg.init is not None:
        raise SamplerError("user initial configuration has infinite energy "
                           "or lies outside the reference's support")
    raise SamplerError(
        f"no finite-energy initial configuration found in {INIT_RETRIES} draws"
    )


def _chain_seeds(seed, chains):
    """The seeds of ``SeedSequence(seed).spawn(chains)``, derived without spawning.

    A ``SeedSequence`` seed is the parent as it is, and its child counter is
    not advanced, so the caller's sequence is left unchanged.  chains must be
    an integer >= 1.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(base.entropy, spawn_key=base.spawn_key + (c,),
                                   pool_size=base.pool_size)
            for c in range(_integer(chains, "chains"))]


@functools.lru_cache(maxsize=1)
def _strictly_lower(n):
    """The (n, n) 0/1 mask of the entries below the diagonal, kept for the
    last n asked for: a run sweeps at one n."""
    return np.tri(n, k=-1)


def _settle_sweep(X, Q, Y, base, log_u, bw):
    """The n accept decisions of one sweep of C chains, all at once.

    X = S(prop_i, x_j), Q = S(prop_i, prop_j) and the state's Y = S(x_i, x_j)
    are (C, n, n) with a zero diagonal, Y finite and Q symmetric; base is the
    (C, n) log ratio without W, finite or -inf, and log_u = log(1 - u).  Site
    i, moved after sites 0..i-1, sees the interaction change

        w_i = sum_j (X - Y)[i, j] + (D a)_i,   D = Q - X - X^T + Y below the diagonal,

    where a marks the earlier sites that accepted: their columns of X became
    columns of Q, and Y[i, j] became X[j, i].  Site i accepts when
    log_u_i < base_i - bw w_i.  Row i of D is zero on and above the diagonal,
    so a_i depends on a_0..a_{i-1} alone, and the system has exactly one
    fixed point, the sequential scan's outcome.  Iterating from a = 0 settles
    sites 0..t-1 for good in pass t, so the passes stop, when one changes
    nothing, after at most n + 1 of them.

    +inf entries of X and Q are counted by the same recurrence on indicator
    blocks and zeroed in place in X and Q; a site whose row keeps one has log
    ratio -inf.  An accepted site's effective row is finite, so the finite
    parts never form inf - inf.  Y is then brought to the state after the
    sweep, in place: accepted rows from X, accepted columns from X^T, and
    Q where both sites accepted, all of them entries that were finite.  Returns the (C, n) accept mask, log ratios
    and w, and the passes each chain needed.
    """
    C, n, _ = X.shape
    blocked = None
    if X.max() == np.inf or Q.max() == np.inf:
        inf_X, inf_Q = X == np.inf, Q == np.inf
        X[inf_X], Q[inf_Q] = 0.0, 0.0
        row_inf = inf_X.sum(axis=2)
        D_inf = (inf_Q.astype(float) - inf_X) * _strictly_lower(n)
        blocked = row_inf > 0
    row = (X - Y).sum(axis=2)
    accepted = np.zeros((C, n), dtype=bool)
    passes = np.ones(C, dtype=np.int64)
    w_diff = row
    for t in range(1, n + 2):  # pass t; a chain it changes needs pass t + 1
        log_ratio = base - bw * w_diff
        if blocked is not None:
            log_ratio[blocked] = -np.inf
        take = log_u < log_ratio
        changed = (take != accepted).any(axis=1)
        if not changed.any():
            break
        if t == 1:  # some site accepts: D is needed from here on
            D = Q - X
            D -= X.transpose(0, 2, 1)
            D += Y
            D *= _strictly_lower(n)
        passes[changed] = t + 1
        accepted = take
        a = accepted.astype(float)[:, :, None]
        w_diff = row + np.matmul(D, a)[:, :, 0]
        if blocked is not None:
            blocked = row_inf + np.matmul(D_inf, a)[:, :, 0] > 0
    else:
        raise AssertionError("a lower-triangular threshold system took more than n + 1 passes")
    if accepted.any():
        rows, cols = accepted[:, :, None], accepted[:, None, :]
        np.copyto(Y, X, where=rows)
        np.copyto(Y, X.transpose(0, 2, 1), where=cols)
        np.copyto(Y, Q, where=rows & cols)
    return accepted, log_ratio, w_diff, passes


def _run_chains(pair, ref, cfg, seeds, samples):
    """One Metropolis chain per seed, all advanced in lockstep.

    The state is a (C, n, d) array.  Each sweep, chain c draws its n
    proposals and then its n uniforms from its own Generator, so a chain's
    stream does not depend on the other chains.  Site i is read only at its
    own move, so the sweep's proposals, their V values and log-densities are
    computed before its first move (on a finite reference V is evaluated
    once, on the atoms), and the state, V and log-density are written back
    once, at the end of the sweep, through the ``accepted`` mask.

    W is evaluated once per sweep, not once per site.  With S = W for a
    symmetric W and S = W(x, y) + W(y, x) otherwise, each sweep builds two
    (C, n, n) blocks of ``_interactions``: X = S(prop_i, x_j), every proposal
    against the sweep's starting state, and Q = S(prop_i, prop_j), every
    proposal against the others.  Y = S(x_i, x_j) for the current state is
    built once, at the start, and kept current.  The sweep's n sequential
    accept decisions are then settled together by ``_settle_sweep``: given
    the earlier sites that accepted, site i's energy change is linear in
    their indicator through a strictly lower-triangular matrix, so the
    decisions are the unique fixed point of a threshold system, reached by
    batched (C, n, n) matrix-vector passes, at most n + 1 of them, so no
    Python loop runs over the sites.  The running H_n of each chain moves by
    the sum of its accepted sites' changes, (v1_i - v0_i) + w_i / n^2
    (/ 2n^2 for a non-symmetric W).  Memory is O(C n^2): a few (C, n, n)
    float arrays, 80 KB each at C = 4 and n = 50, plus a block's gathered
    pairs; a block costs one W call, two for a non-symmetric W.

    The run makes burn_in + (samples - 1) * thinning + 1 sweeps, none for
    samples = 0, and keeps the state after sweep burn_in + k * thinning,
    k = 0 .. samples - 1 (sweeps counted from 0).  The per-sweep counts and
    the kept states and energies go into arrays allocated before the first
    sweep.  A pair declared for another dimension than ``ref``, and a
    ``cfg.init`` whose points are not n points in ref's dimension, are
    refused.  Returns one (kept configurations, ChainDiagnostics) pair per seed.
    """
    n, d, beta = cfg.n, ref.dim, cfg.beta_n
    samples = _integer(samples, "samples", 0)
    _check_dim(pair, d, "reference")
    if cfg.init is not None and cfg.init.points.shape != (n, d):
        raise ValueError(f"init holds {cfg.init.n} points in d = {cfg.init.dim}, but the "
                         f"chains need n = {n} points in d = {d}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    C = len(rngs)
    w_scale = 1.0 / (n * n) if pair.symmetric else 1.0 / (2.0 * n * n)
    finite_mode = ref.is_finite
    cdf = None
    if finite_mode:
        cdf = np.cumsum(ref.weights)
        cdf /= cdf[-1]
        v_atoms = evaluate_V(pair.V, ref.atoms) / n
        picks = np.empty((C, n), dtype=np.intp)
    else:
        steps = np.empty((C, n, d))
    state, v_state, ld_state, Y, energy = _draw_starts(pair, ref, cfg, rngs, cdf)
    u = np.empty((C, n))

    sweeps = cfg.burn_in + (samples - 1) * cfg.thinning + 1 if samples else 0
    acc, rej_inf, n_passes = (np.empty((sweeps, C), dtype=np.int64) for _ in range(3))
    trace = np.empty((samples, C))
    kept = np.empty((C, samples, n, d))
    for sweep in range(sweeps):
        for c, rng in enumerate(rngs):
            if finite_mode:
                picks[c] = np.searchsorted(cdf, rng.random(n), side="right")
            else:
                steps[c] = rng.standard_normal((n, d))
            u[c] = rng.random(n)
        if finite_mode:
            prop = ref.atoms[picks]
            v_prop = v_atoms[picks]
        else:
            prop = state + cfg.sigma * steps
            ld_prop = ref.log_density(prop.reshape(C * n, d)).reshape(C, n)
            v_prop = evaluate_V(pair.V, prop.reshape(C * n, d)).reshape(C, n) / n
        X = _interactions(pair, prop, state)
        Q = _interactions(pair, prop, prop)
        # The state's V and log-density are finite, so dv is finite or +inf
        # and base is finite or -inf.
        dv = v_prop - v_state
        base = -beta * dv
        if not finite_mode:
            base += ld_prop - ld_state
        # log1p(-u) for u in [0, 1) is finite, so it never passes a log ratio of -inf
        accepted, log_ratio, w_diff, passes = _settle_sweep(
            X, Q, Y, base, np.log1p(-u), beta * w_scale)
        energy += (dv + w_scale * w_diff).sum(axis=1, where=accepted)
        np.copyto(state, prop, where=accepted[:, :, None])
        np.copyto(v_state, v_prop, where=accepted)
        if not finite_mode:
            np.copyto(ld_state, ld_prop, where=accepted)
        acc[sweep] = accepted.sum(axis=1)
        rej_inf[sweep] = np.sum(log_ratio == -np.inf, axis=1)
        n_passes[sweep] = passes
        k, off = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k >= 0 and off == 0:
            kept[:, k] = state
            trace[k] = energy

    configs = ParticleConfig._from_block(kept.reshape(C * samples, n, d))
    return [
        (configs[c * samples:(c + 1) * samples], ChainDiagnostics(
            acceptance_rate=acc[:, c] / n,
            energy_trace=trace[:, c].copy(),
            ess=effective_sample_size(trace[:, c]),
            seed=seeds[c],
            rejected_infinite=rej_inf[:, c].copy(),
            rejected_metropolis=n - acc[:, c] - rej_inf[:, c],
            passes=n_passes[:, c].copy(),
        ))
        for c in range(C)
    ]


def mh_sample(pair: PotentialPair, ref: ReferenceMeasure, cfg: SamplerConfig,
              samples: int):
    """Metropolis chain targeting the Gibbs law exp(-beta_n H_n) d ell^n / Z_n.

    One sweep updates each of the n sites once.  Against a density reference
    the proposal is a Gaussian step of scale sigma and the acceptance ratio
    carries the reference log-density; against a finite reference the
    proposal redraws the site from the normalized atom cloud, which cancels
    the reference factor and leaves the pure energy ratio.  The normalization
    constant is never needed.  This is the one-chain call of the lockstep
    kernel behind ``mh_sample_chains``: each sweep draws its n proposals and
    then its n uniforms at once and evaluates W in two blocks, the proposals
    against the state and against each other; the state's (n, n) interaction
    matrix, built once, is kept current, and memory is O(n^2).  The sweep's
    n accept decisions, which the sequential scan would take one site after
    another, are the unique fixed point of a strictly lower-triangular
    threshold system; ``_settle_sweep`` reaches it in at most n + 1 passes of
    one (n, n) matrix-vector product each, and ``ChainDiagnostics.passes``
    records how many each sweep took.  The energy trace is the chain's
    running H_n, moved by every accepted move, not recomputed per kept
    sample.

    Returns (kept configurations, ChainDiagnostics).  Single moves are not
    reported; with thinning 1, consecutive kept states are one sweep apart,
    so their transition law is the sweep's matrix T_0 T_1 ... T_{n-1}.
    """
    return _run_chains(pair, ref, cfg, [cfg.seed], samples)[0]


def mh_sample_chains(pair, ref, cfg: SamplerConfig, samples: int, chains: int):
    """Independent chains, run in lockstep, seeded as by SeedSequence(cfg.seed).spawn(chains).

    Chain c's seed is SeedSequence(entropy, spawn_key=spawn_key + (c,)) of
    cfg.seed, or of SeedSequence(cfg.seed) for an int; a SeedSequence given
    as cfg.seed is not advanced.  Every chain draws from its own Generator,
    so chain c equals ``mh_sample`` run alone with that seed, bit for bit.
    Samples are merged by chain index.
    """
    results = _run_chains(pair, ref, cfg, _chain_seeds(cfg.seed, chains), samples)
    return [s for kept, _ in results for s in kept], [diag for _, diag in results]


def _check_exact_args(pair, ell, n, beta_n) -> int:
    """Refuse the arguments of an exact law; returns n as an int."""
    if not ell.is_finite:
        raise ValueError("exact law needs a finite reference measure")
    _check_dim(pair, ell.dim, "reference")
    n = _integer(n, "n")
    if not 0 < beta_n < math.inf:
        raise ValueError(f"beta_n must lie in (0, inf), got {beta_n!r}")
    return n


@functools.lru_cache(maxsize=1)
def _tuple_tables(n, m):
    """What ``exact_gibbs_law`` reads besides the count law, built once per
    (n, m) and read-only.

    Returns the (m^n, n) index tuples, the transposed (n, m^n) array of
    ``np.indices``; a label per (n - 1)-tuple, in lexicographic order and
    the smallest unsigned dtype, the row of its counts c' in
    ``compositions_array(n - 1, m)``; the (L, m) rows of c' + e_j in
    ``compositions_array(n, m)``, also in the smallest unsigned dtype; and
    multinomial(n; c), the number of n-tuples of each composition c of n, as
    floats.  The rows of a tuple (p, j) of prefix p and last atom j are
    rows[label[p], j].

    The labels are built one slot at a time from the empty tuple.  A
    composition's key is its sorted tuple read as a base-m number, below m^k,
    and ascending keys are the compositions in descending lexicographic
    order.  Atom j goes into a sorted tuple after its atoms below j, and the
    atoms above it move one place up, so the keys of c' + e_j give the rows
    of the compositions of k.
    """
    digits = np.indices((m,) * n, dtype=np.min_scalar_type(m - 1)).reshape(n, -1).T
    label = key = np.zeros(1, dtype=np.uint8)  # the empty tuple
    for k in range(1, n + 1):  # (compositions_array loops over the m parts)
        counts = compositions_array(k - 1, m) if k > 1 else np.zeros((1, m), dtype=np.int64)
        place = m ** (k - 1 - (np.cumsum(counts, axis=1) - counts))
        high, low = np.divmod(key[:, None], place)
        key, rows = np.unique(high * place * m + np.arange(m) * place + low, return_inverse=True)
        rows = (len(key) - 1 - rows.reshape(counts.shape)).astype(np.min_scalar_type(len(key) - 1))
        key = key[::-1]
        label = rows[label].ravel() if k < n else label
    multinomial = np.bincount(rows.ravel(), np.bincount(label).repeat(m))
    for table in (digits, label, rows, multinomial):
        table.flags.writeable = False
    return digits, label, rows, multinomial


@functools.lru_cache(maxsize=1)
def _compositions(n, m):
    """The read-only (C, m) compositions of n of ``exact_count_law``, built
    once per (n, m).  ``compositions_array`` itself stays uncached, so the
    weight lattices of ``simplex_scan_oracle``, 10^5 rows and more, are not
    held after its scan."""
    counts = compositions_array(n, m)
    counts.flags.writeable = False
    return counts


def _normalize_log(log_prob) -> np.ndarray:
    """exp(log_prob) normalized to sum 1, in place; log_prob is finite or -inf,
    and exp(-inf) is 0 exactly."""
    shift = log_prob.max()
    if shift == -np.inf:
        raise SamplerError("all configurations have infinite energy; the Gibbs law is empty")
    log_prob -= shift
    probs = np.exp(log_prob, out=log_prob)
    probs /= probs.sum()
    return probs


def _atom_terms(pair, ell, n, beta_n):
    """The per-atom Gibbs terms of both exact laws: the site term
    -beta_n V_a / n + log w_a of every atom and, for n > 1, the link matrix
    -beta_n (W + W^T) / (2 n^2), the log weight one particle on a adds with
    one on b.  evaluate_V and evaluate_W refuse NaN and -inf and the weights
    are positive and finite, so the only non-finite term is -inf."""
    site = -beta_n * evaluate_V(pair.V, ell.atoms) / n + np.log(ell.weights)
    if n == 1:
        return site, None
    Wmat = evaluate_W(pair.W, ell.atoms[:, None, :], ell.atoms[None, :, :])
    return site, -beta_n * (Wmat + Wmat.T) / (2.0 * n * n)


def _count_log_weights(pair, ell, n, beta_n, slots=1):
    """The (C, m) compositions of n and their unnormalized log weights, by
    the table T of ``exact_count_law``: the one formula of both exact laws.
    ``slots`` times ``ENUM_BUDGET`` bounds the entries of the count array,
    checked before the cached compositions are looked up.

    T is held as an (n + 1, m) array, one row per count h, and gathered by
    the counts; 0 times -inf is read as 0, so T[a, 0] = 0 and link_aa enters
    only from h = 2 on.  The finite off-diagonal links form the cross term,
    and a composition that occupies both atoms of a -inf link gets log
    weight -inf, so every infinity sits where it arises.  Those compositions
    are found in one pass per atom over a boolean (C, m) occupancy block:
    the atom occupied, and any of its -inf partners after it.  The counts are
    read as floats only by the cross term's product, a (C, m) block that
    lives for that product alone.
    """
    n = _check_exact_args(pair, ell, n, beta_n)
    m = len(ell.atoms)
    entries = math.comb(n + m - 1, m - 1) * m
    if entries > slots * ENUM_BUDGET:
        raise BudgetExceededError(f"count law of {entries} entries (n = {n}, m = {m}) exceeds "
                                  f"budget {slots * ENUM_BUDGET}")
    counts = _compositions(n, m)
    site, link = _atom_terms(pair, ell, n, beta_n)
    h = np.arange(n + 1.0)[:, None]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])[:, None]
    table = np.multiply(h, site, out=np.zeros((n + 1, m)), where=h > 0) - log_fact
    if link is not None:
        table[2:] += h[2:] * (h[2:] - 1.0) / 2.0 * np.diag(link)
    log_weight = table[counts, np.arange(m)].sum(axis=1) + log_fact[n]
    if link is not None:
        off = np.where(np.eye(m, dtype=bool) | (link == -np.inf), 0.0, link)
        log_weight += 0.5 * np.einsum("ij,ij->i", counts @ off, counts)
        hard = np.triu(link == -np.inf, 1)
        if hard.any():
            occupied = counts > 0
            blocked = np.zeros(len(counts), dtype=bool)
            for a in np.flatnonzero(hard.any(axis=1)):
                blocked |= occupied[:, a] & occupied[:, hard[a]].any(axis=1)
            log_weight[blocked] = -np.inf
    return counts, log_weight


def exact_count_law(pair: PotentialPair, ell: ReferenceMeasure, n: int, beta_n: float):
    """Exact law of the counts of a configuration on a finite reference.

    The particles are exchangeable, so H_n depends only on the counts c of
    the m atoms, and the law of L_n = c / n is a law on the
    C(n + m - 1, m - 1) compositions of n, against the m^n tuples of
    ``exact_gibbs_law``.  Composition c has weight multinomial(n; c) times
    prod_a w_a^{c_a} exp(-beta_n H_n(c)).  With the site terms
    site_a = -beta_n V_a / n + log w_a and the links
    link = -beta_n (W + W^T) / (2 n^2) of ``_atom_terms``, its log weight is

        log n! + sum_a T[a, c_a] + (1/2) sum_{a != b} c_a c_b link_ab,
        T[a, h] = h site_a + h (h - 1) / 2 link_aa - log h!,

    so the diagonal of W is counted c_a (c_a - 1) times, and a +inf of V or
    W is never multiplied by a zero count (see ``_count_log_weights``).
    ``ENUM_BUDGET`` bounds the C * m entries of the count array.

    Returns (counts, probabilities): counts is the (C, m) int64 array of
    ``_enum.compositions_array``, in lexicographic order.  It depends on
    (n, m) alone, so it is built once per (n, m) and shared between calls:
    it is read-only, and a call with another (n, m) builds a new one and
    leaves earlier results as they were.  n must be an integer >= 1.
    Raises BudgetExceededError over budget, checked before the cached
    counts are looked up, and SamplerError when every composition has
    infinite energy.
    """
    counts, log_weight = _count_log_weights(pair, ell, n, beta_n)
    return counts, _normalize_log(log_weight)


def exact_sample_finite(pair: PotentialPair, ell: ReferenceMeasure, n: int,
                        beta_n: float, seed: int | np.random.SeedSequence, samples: int):
    """Exact draws from the Gibbs law on a finite reference.

    Draws compositions from ``exact_count_law``, expands each into its atom indices in sorted order
    and shuffles every row uniformly.  This is exact: the law is invariant
    under permuting the particles, so each of the multinomial(n; c) orderings
    of c has probability p(c) / multinomial(n; c).  Only the drawn rows are
    turned into atoms.  ``seed`` is an int or a ``SeedSequence``, read by
    ``np.random.default_rng``.
    """
    samples = _integer(samples, "samples", 0)
    counts, probs = exact_count_law(pair, ell, n, beta_n)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(probs), size=samples, p=probs)
    drawn = counts[picks].ravel()
    slots = np.repeat(np.tile(np.arange(len(ell.atoms)), samples), drawn).reshape(samples, n)
    return ParticleConfig._from_block(ell.atoms[rng.permuted(slots, axis=1)])


def exact_gibbs_law(pair: PotentialPair, ell: ReferenceMeasure, n: int, beta_n: float):
    """Exact configuration probabilities on a finite reference.

    Returns (index tuples array of shape (m^n, n), probability vector), both
    in lexicographic (mixed-radix) order of the tuples, aligned with
    np.unravel_index on shape (m,) * n.  The index tuples, of dtype
    ``np.min_scalar_type(m - 1)``, are a transposed (Fortran-order) view of
    the (n, m^n) array of ``np.indices``: each slot's column is contiguous,
    each tuple's row is strided.  They depend on (n, m) alone, so they are
    built once per (n, m) and shared between calls: the array is read-only,
    and a call with another (n, m) builds a new one and leaves earlier
    results as they were.  n must be an integer >= 1.  Raises
    BudgetExceededError when m^n exceeds ``ENUM_BUDGET``, checked before the
    cached tuples are looked up.

    The probabilities, proportional to exp(-beta_n H_n) times the product of
    reference weights, are the count law read at each tuple's composition
    c(t): the particles are exchangeable, so tuple t has probability
    p(c(t)) / multinomial(n; c(t)), where p is ``exact_count_law``'s law from
    ``_count_log_weights``, the one formula of both laws.  No per-tuple
    arithmetic runs but one gather.  Per (n, m), ``_tuple_tables`` keeps,
    besides the tuples, a label per (n - 1)-tuple for the composition c' of
    the first n - 1 slots, in the smallest unsigned dtype (2 bytes each at
    n = 6, m = 10: 200 KB), the (L, m) rows of the compositions c' + e_j and
    multinomial(n; c) on the C compositions of n (40 KB each there).  The
    law divides the count law by the multinomials, takes for each label its
    row of m probabilities, one per last atom j, and gathers these rows by
    the labels, which puts the last slot fastest: the lexicographic order.
    So tuples of one composition read one float, and besides the tuples and
    the count law the call takes one m^n block of floats, the probability
    vector returned.  Besides m^n, ``ENUM_BUDGET`` times n bounds the
    C(n + m - 1, n) m entries of the count array, the bound of the n m^n
    index entries.  For m well above n that count array, not the tuples,
    sets the cost (n = 2, m = 300: 0.35 s warm); for n = 1 the law is the
    single site's, with no count array.
    """
    n = _check_exact_args(pair, ell, n, beta_n)
    m = len(ell.atoms)
    if m**n > ENUM_BUDGET:
        raise BudgetExceededError(f"law of {m}^{n} configurations exceeds budget {ENUM_BUDGET}")
    if n == 1:  # the law of one particle's atom, without m^2 count entries
        return _tuple_tables(n, m)[0], _normalize_log(_atom_terms(pair, ell, n, beta_n)[0])
    count_law = _normalize_log(_count_log_weights(pair, ell, n, beta_n, slots=n)[1])
    digits, label, rows, multinomial = _tuple_tables(n, m)
    return digits, (count_law / multinomial)[rows][label].ravel()


def iid_sample(mu_star: DiscreteMeasure, n: int, seed: int | np.random.SeedSequence,
               samples: int):
    """samples independent configurations of n iid draws from mu_star; ``seed``
    is an int or a ``SeedSequence``, read by ``np.random.default_rng``."""
    rng = np.random.default_rng(seed)
    size = (_integer(samples, "samples", 0), _integer(n, "n"))
    idx = rng.choice(mu_star.support_size, size=size, p=mu_star.weights)
    return ParticleConfig._from_block(mu_star.atoms[idx])
