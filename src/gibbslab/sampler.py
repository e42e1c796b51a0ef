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
  proposals against the state and against each other, and each chain keeps
  its state's (n, n) interaction matrix current; memory is O(C n^2).  A
  sweep still moves its sites one after another, but its n accept decisions
  are settled together: given the earlier sites that accepted, a site's
  energy change is linear in their indicator through a strictly
  lower-triangular matrix, so the decisions are the unique fixed point of a
  threshold system, which at most n + 1 batched matrix-vector passes reach,
  with no Python loop over sites.
* ``exact_sample_finite`` -- exact draws on a finite reference.  The
  particles are exchangeable, so H_n depends only on the counts of the m
  atoms, and ``exact_count_law`` gives the exact law of those counts on the
  C(n + m - 1, m - 1) compositions of n, under a budget on the entries of its
  count array.  A drawn composition is expanded into atom indices and its
  row shuffled uniformly, which gives every ordering its exact probability;
  only the drawn rows are turned into atoms.  ``exact_gibbs_law`` keeps the
  law of all m^n index tuples, built one slot at a time under a budget on
  m^n, as the independent cross-check.
* ``iid_sample``          -- n independent draws per sample from a given
  discrete measure (the product-control construction used for upper bounds).

All randomness flows through numpy ``SeedSequence``.  Chain c of
``mh_sample_chains`` is seeded by the c-th spawn child of the configured seed
(derived without advancing a caller's sequence) and draws only from its own
Generator, so lockstep chains are statistically independent, each equals the
chain run alone, and every run is reproducible from its recorded seed.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._enum import compositions_array
from .measures import DiscreteMeasure, ParticleConfig, ReferenceMeasure
from .potentials import PotentialPair, evaluate_V, evaluate_W
from .functionals import hamiltonian  # noqa: F401  (callers reach it as sampler.hamiltonian)

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
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


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
        seed = self.seed
        if isinstance(seed, np.random.SeedSequence):
            seed = {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key),
                    "pool_size": seed.pool_size}
        return json.dumps(
            {
                "acceptance_rate": self.acceptance_rate.tolist(),
                "energy_trace": self.energy_trace.tolist(),
                "ess": self.ess,
                "seed": seed,
                "rejected_infinite": self.rejected_infinite.tolist(),
                "rejected_metropolis": self.rejected_metropolis.tolist(),
                "passes": self.passes.tolist(),
            },
            sort_keys=True,
        )

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
    never exceeds N.
    """
    x = np.asarray(trace, dtype=float)
    n = len(x)
    if n < 4 or np.allclose(x, x[0]):
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


def _interactions(pair, x, y, rest):
    """S(x_i, y_j) for j != i in a (C, n, n) array with a zero diagonal.

    x and y are (C, n, d); S = W for a symmetric W and W(x, y) + W(y, x)
    otherwise.  The pairs come from ``rest``, so W never sees a site paired
    with itself, and n = 1 makes no call.
    """
    C, n, _ = x.shape
    out = np.zeros((C, n, n))
    if n > 1:
        xi, yj = x[:, :, None, :], np.take(y, rest, axis=1)
        vals = evaluate_W(pair.W, xi, yj)
        if not pair.symmetric:
            vals += evaluate_W(pair.W, yj, xi)
        # flattened, the off-diagonal entries in row-major order are the first
        # n of every n + 1 entries after the first: a strided view
        off = out.reshape(C, n * n)[:, 1:].reshape(C, n - 1, n + 1)[:, :, :n]
        off[...] = vals.reshape(C, n - 1, n)
    return out


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


def _draw_starts(pair, ref, cfg, rngs, rest):
    """Starting configurations of finite energy and finite reference
    log-density, one per Generator, and what the kernel keeps of them.

    Every chain draws once; the chains whose draw has infinite energy draw
    again, each from its own Generator, up to INIT_RETRIES draws.  Returns the
    (C, n, d) state, V / n at it, its log-density (None on a finite
    reference), its interaction matrix S(x_i, x_j) and the chains' H_n, which
    is (1/n) sum V + sum S / (2 n^2), halved again for a non-symmetric W.
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
    for _ in range(1 if cfg.init is not None else INIT_RETRIES):
        for c in todo:
            if cfg.init is not None:
                pts[c] = cfg.init.points
            elif ref.is_finite:
                probs = ref.weights / ref.weights.sum()
                pts[c] = ref.atoms[rngs[c].choice(len(ref.atoms), size=n, p=probs)]
            else:
                box = ref.box
                pts[c] = rngs[c].uniform(box[:, 0], box[:, 1], size=(n, d))
        raw_v = evaluate_V(pair.V, pts[todo].reshape(-1, d)).reshape(-1, n)
        v[todo] = raw_v / n
        Y[todo] = _interactions(pair, pts[todo], pts[todo], rest)
        if ld is not None:
            ld[todo] = ref.log_density(pts[todo].reshape(-1, d)).reshape(-1, n)
        for c, vals in zip(todo, raw_v):
            if ld is None or np.all(np.isfinite(ld[c])):
                energy[c] = math.fsum(vals) / n + math.fsum(Y[c].ravel()) / pair_norm
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
    not advanced, so the caller's sequence is left unchanged.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(base.entropy, spawn_key=base.spawn_key + (c,),
                                   pool_size=base.pool_size) for c in range(chains)]


@functools.cache
def _strictly_lower(n):
    """The (n, n) 0/1 mask of the entries below the diagonal."""
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
    (C, n, n) blocks with a zero diagonal: X = S(prop_i, x_j), every proposal
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
    float arrays, 80 KB each at C = 4 and n = 50, plus the C n (n - 1)
    gathered pairs of a block; a block costs one W call of those pairs, two
    for a non-symmetric W.  Returns one (kept configurations,
    ChainDiagnostics) pair per seed.
    """
    n, d, beta = cfg.n, ref.dim, cfg.beta_n
    rngs = [np.random.default_rng(seed) for seed in seeds]
    C = len(rngs)
    rest = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])  # sites j != i
    w_scale = 1.0 / (n * n) if pair.symmetric else 1.0 / (2.0 * n * n)
    state, v_state, ld_state, Y, energy = _draw_starts(pair, ref, cfg, rngs, rest)
    finite_mode = ref.is_finite
    if finite_mode:
        atoms = np.asarray(ref.atoms, dtype=float)
        cdf = np.cumsum(ref.weights)
        cdf /= cdf[-1]
        v_atoms = evaluate_V(pair.V, atoms) / n
        picks = np.empty((C, n), dtype=np.intp)
    else:
        steps = np.empty((C, n, d))
    u = np.empty((C, n))

    kept = np.empty((C, samples, n, d))
    traces, acc_counts, inf_counts, pass_counts = [], [], [], []
    sweeps_done = 0
    while len(traces) < samples:
        for c, rng in enumerate(rngs):
            if finite_mode:
                picks[c] = np.searchsorted(cdf, rng.random(n), side="right")
            else:
                steps[c] = rng.standard_normal((n, d))
            u[c] = rng.random(n)
        if finite_mode:
            prop = atoms[picks]
            v_prop = v_atoms[picks]
        else:
            prop = state + cfg.sigma * steps
            ld_prop = ref.log_density(prop.reshape(C * n, d)).reshape(C, n)
            v_prop = evaluate_V(pair.V, prop.reshape(C * n, d)).reshape(C, n) / n
        X = _interactions(pair, prop, state, rest)
        Q = _interactions(pair, prop, prop, rest)
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
        acc_counts.append(accepted.sum(axis=1))
        inf_counts.append(np.sum(log_ratio == -np.inf, axis=1))
        pass_counts.append(passes)
        sweeps_done += 1
        past_burn = sweeps_done > cfg.burn_in
        due = (sweeps_done - cfg.burn_in - 1) % cfg.thinning == 0
        if past_burn and due:
            kept[:, len(traces)] = state
            traces.append(energy.copy())

    acc = np.array(acc_counts, dtype=np.int64).reshape(-1, C)
    rej_inf = np.array(inf_counts, dtype=np.int64).reshape(-1, C)
    n_passes = np.array(pass_counts, dtype=np.int64).reshape(-1, C)
    trace = np.array(traces).reshape(-1, C)
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


def _check_exact_args(ell, beta_n):
    if not ell.is_finite:
        raise ValueError("exact law needs a finite reference measure")
    if not beta_n > 0:
        raise ValueError("beta_n must be positive")


def _normalize_log(log_prob) -> np.ndarray:
    """exp(log_prob) normalized to sum 1, in place; log_prob is finite or -inf."""
    shift = log_prob.max()
    if shift == -np.inf:
        raise SamplerError("all configurations have infinite energy; the Gibbs law is empty")
    log_prob -= shift
    probs = np.exp(log_prob, out=log_prob)
    probs /= probs.sum()
    return probs


def _tuple_law(pair, ell, n, beta_n, budget) -> np.ndarray:
    """Normalized probabilities of all m^n index tuples, in mixed-radix order.

    Built one slot at a time: appending atom j as the new fastest digit of a
    prefix adds j's site term -beta_n V_j / n + log w_j and, through ``prefix``,
    the interaction -beta_n (W + W^T)_{aj} / (2 n^2) with every atom a already
    in the prefix.  evaluate_V and evaluate_W refuse NaN and -inf and the
    weights are positive and finite, so the only non-finite value is -inf.
    """
    _check_exact_args(ell, beta_n)
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
    return _normalize_log(log_prob)


def _count_log_weights(pair, ell, n, beta_n, budget):
    """The (C, m) compositions of n and their unnormalized log weights.

    Composition c has log weight

        log multinomial(n; c) + c.log w - beta_n [(c.v) / n
            + (c^T S_off c + sum_a c_a (c_a - 1) S_aa) / (2 n^2)],   S = (W + W^T) / 2,

    with the log factorials from a ``math.lgamma`` table.  A +inf in v or S
    is never multiplied by a zero count: c gets log weight -inf when an
    occupied atom has V = +inf, two occupied atoms have S = +inf, or an atom
    with S_aa = +inf holds two or more particles.  ``budget`` bounds the
    entries of the count array.
    """
    _check_exact_args(ell, beta_n)
    m = len(ell.atoms)
    entries = math.comb(n + m - 1, m - 1) * m
    if entries > budget:
        raise BudgetExceededError(
            f"count law of {entries} entries (n = {n}, m = {m}) exceeds budget {budget}")
    atoms = np.asarray(ell.atoms, dtype=float)
    counts = compositions_array(n, m)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    c = counts.astype(float)
    occupied = (counts > 0).astype(float)
    v = evaluate_V(pair.V, atoms)
    infinite = occupied @ (v == np.inf)
    energy = c @ np.where(v == np.inf, 0.0, v) / n
    if n > 1:
        Wmat = evaluate_W(pair.W, atoms[:, None, :], atoms[None, :, :])
        S = 0.5 * (Wmat + Wmat.T)
        inf_S = (S == np.inf).astype(float)
        S[inf_S > 0] = 0.0
        diag, inf_diag = np.diag(S).copy(), np.diag(inf_S).copy()
        np.fill_diagonal(S, 0.0)
        np.fill_diagonal(inf_S, 0.0)
        infinite += ((occupied @ inf_S) * occupied).sum(axis=1) + (counts >= 2) @ inf_diag
        energy += (((c @ S) * c).sum(axis=1) + (c * (c - 1.0)) @ diag) / (2.0 * n * n)
    log_weight = log_fact[n] - log_fact[counts].sum(axis=1) + c @ np.log(ell.weights)
    log_weight -= beta_n * energy
    log_weight[infinite > 0] = -np.inf
    return counts, log_weight


def exact_count_law(pair: PotentialPair, ell: ReferenceMeasure, n: int, beta_n: float,
                    budget: int = ENUM_BUDGET_DEFAULT):
    """Exact law of the counts of a configuration on a finite reference.

    The particles are exchangeable, so H_n depends only on the counts c of
    the m atoms, and the law of L_n = c / n is a law on the
    C(n + m - 1, m - 1) compositions of n, against the m^n tuples of
    ``exact_gibbs_law``.  Composition c has weight multinomial(n; c) times
    prod_a w_a^{c_a} exp(-beta_n H_n(c)), with the diagonal of W counted
    c_a (c_a - 1) times and a +inf never multiplied by a zero count (see
    ``_count_log_weights``).  ``budget`` bounds the C * m entries of the
    count array.

    Returns (counts, probabilities): counts is the (C, m) int64 array of
    ``_enum.compositions_array``, in lexicographic order.  Raises
    BudgetExceededError over budget and SamplerError when every composition
    has infinite energy.
    """
    counts, log_weight = _count_log_weights(pair, ell, n, beta_n, budget)
    return counts, _normalize_log(log_weight)


def exact_sample_finite(pair: PotentialPair, ell: ReferenceMeasure, n: int,
                        beta_n: float, seed: int, samples: int,
                        budget: int = ENUM_BUDGET_DEFAULT):
    """Exact draws from the Gibbs law on a finite reference.

    Draws compositions from ``exact_count_law`` (same budget, on the entries
    of its count array), expands each into its atom indices in sorted order
    and shuffles every row uniformly.  This is exact: the law is invariant
    under permuting the particles, so each of the multinomial(n; c) orderings
    of c has probability p(c) / multinomial(n; c).  Only the drawn rows are
    turned into atoms.
    """
    counts, probs = exact_count_law(pair, ell, n, beta_n, budget)
    atoms = np.asarray(ell.atoms, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picks = rng.choice(len(probs), size=samples, p=probs)
    drawn = counts[picks].ravel()
    slots = np.repeat(np.tile(np.arange(len(atoms)), samples), drawn).reshape(samples, n)
    return ParticleConfig._from_block(atoms[rng.permuted(slots, axis=1)])


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
    return ParticleConfig._from_block(mu_star.atoms[idx])
