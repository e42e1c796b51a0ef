import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import v_quadratic, v_zero, w_sqdist, w_zero
from gibbslab.functionals import hamiltonian, rate_I, rate_J
from gibbslab.measures import DiscreteMeasure, ParticleConfig, ReferenceMeasure
from gibbslab.potentials import PotentialPair, coulomb_kernel
from gibbslab.sampler import (
    BudgetExceededError,
    ChainDiagnostics,
    SamplerConfig,
    SamplerError,
    _count_log_weights,
    _settle_sweep,
    effective_sample_size,
    exact_count_law,
    exact_gibbs_law,
    exact_sample_finite,
    iid_sample,
    mh_sample,
    mh_sample_chains,
)


def reference_metropolis(pair, ref, cfg, seed, sweeps):
    """Independent single-site Metropolis from cfg.init: a plain loop over the
    sites that scores every proposal with a full ``hamiltonian``.  It draws the
    kernel's stream, per sweep n proposals and then n uniforms u, and its
    uniform is 1 - u.  Returns the state, the accept flags, the number of
    moves with log ratio -inf and H_n after every sweep."""
    rng = np.random.default_rng(seed)
    n, d = cfg.n, ref.dim
    x = np.array(cfg.init.points, dtype=float)
    energy = hamiltonian(ParticleConfig(x), pair)
    cdf = np.cumsum(ref.weights) / np.sum(ref.weights) if ref.is_finite else None
    states, accepts, infinite, energies = [], [], [], []
    for _ in range(sweeps):
        if ref.is_finite:
            props = ref.atoms[np.searchsorted(cdf, rng.random(n), side="right")]
        else:
            props = x + cfg.sigma * rng.standard_normal((n, d))
        u = rng.random(n)
        flags, infs = [], 0
        for i in range(n):
            y = x.copy()
            y[i] = props[i]
            e_new = hamiltonian(ParticleConfig(y), pair)
            log_ratio = -cfg.beta_n * (e_new - energy)
            if not ref.is_finite:
                log_ratio += ref.log_density(y[i:i + 1])[0] - ref.log_density(x[i:i + 1])[0]
            infs += log_ratio == -np.inf
            flags.append(bool(np.log1p(-u[i]) < log_ratio))
            if flags[-1]:
                x, energy = y, e_new
        states.append(x.copy())
        accepts.append(flags)
        infinite.append(infs)
        energies.append(energy)
    return np.array(states), np.array(accepts), np.array(infinite), np.array(energies)


def v_hard_wall(x):
    pts = np.asarray(x, dtype=float)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=-1)
    return np.where(inside, 0.0, np.inf)


class TestMHGaussianTarget:
    def test_single_particle_moments(self):
        # W = 0, V = x^2, beta = 1: target is N(0, 1/2) on a wide box
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-12.0, 12.0)])
        cfg = SamplerConfig(n=1, beta_n=1.0, sigma=0.8, burn_in=300, thinning=2, seed=42)
        kept, diag = mh_sample(pair, ref, cfg, samples=4000)
        xs = np.array([k.points[0, 0] for k in kept])
        ess = max(effective_sample_size(xs), 10.0)
        var_target = 0.5
        se_mean = math.sqrt(var_target / ess)
        se_var = var_target * math.sqrt(2.0 / ess)
        assert abs(xs.mean()) < 3 * se_mean
        assert abs(xs.var() - var_target) < 3 * se_var
        assert np.all((diag.acceptance_rate >= 0) & (diag.acceptance_rate <= 1))

    def test_hard_wall_rejection(self):
        pair = PotentialPair(v_hard_wall, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 2.0)])
        cfg = SamplerConfig(n=3, beta_n=2.0, sigma=0.7, burn_in=50, thinning=1, seed=7)
        kept, diag = mh_sample(pair, ref, cfg, samples=200)
        for k in kept:
            assert np.all(k.points >= 0.0) and np.all(k.points <= 1.0)
        assert diag.rejected_infinite.sum() > 0

    def test_coulomb_never_coincident(self):
        # finite reference cloud makes exact coincidence proposable; the
        # log-singularity must reject every such proposal
        atoms = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        pair = PotentialPair(v_zero, coulomb_kernel(2), dim=2, symmetric=True)
        ell = ReferenceMeasure.finite(atoms)
        cfg = SamplerConfig(n=2, beta_n=1.0, burn_in=20, thinning=1, seed=3)
        kept, _ = mh_sample(pair, ell, cfg, samples=300)
        for k in kept:
            assert not np.array_equal(k.points[0], k.points[1])

    def test_reproducible_with_seed(self):
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-5.0, 5.0)])
        cfg = SamplerConfig(n=2, beta_n=1.0, sigma=0.5, burn_in=10, thinning=1, seed=11)
        kept1, d1 = mh_sample(pair, ref, cfg, samples=50)
        kept2, d2 = mh_sample(pair, ref, cfg, samples=50)
        for a, b in zip(kept1, kept2):
            assert np.array_equal(a.points, b.points)
        assert np.array_equal(d1.energy_trace, d2.energy_trace)

    def test_no_finite_init_raises(self):
        v_bad = lambda x: np.full(np.asarray(x).shape[:-1], np.inf)
        pair = PotentialPair(v_bad, w_zero, dim=1)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])
        cfg = SamplerConfig(n=1, beta_n=1.0, seed=0)
        with pytest.raises(SamplerError):
            mh_sample(pair, ref, cfg, samples=1)

    def test_init_outside_support_raises(self):
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])
        cfg = SamplerConfig(n=2, beta_n=1.0, seed=0, init=ParticleConfig([[0.0], [3.0]]))
        with pytest.raises(SamplerError):
            mh_sample(pair, ref, cfg, samples=1)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=1, beta_n=1.0, sigma=0.0)

    def test_zero_thinning_raises(self):
        with pytest.raises(ValueError, match="thinning"):
            SamplerConfig(n=1, beta_n=1.0, thinning=0)

    def test_an_asymmetric_W_declared_symmetric_is_refused(self):
        # declared symmetric, the kernel keeps only W(x_i, x_j) of each pair: with
        # this configuration, 500 kept samples and no check, the running energy
        # was off from the hamiltonian by up to 1.58
        pair = PotentialPair(v_quadratic, w_asymmetric, dim=2, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0), (-1.0, 1.0)])
        cfg = SamplerConfig(n=5, beta_n=5.0, burn_in=0, seed=3)
        with pytest.raises(ValueError, match=r"declared symmetric, but W\(x_\d, x_\d\)"):
            mh_sample(pair, ref, cfg, samples=500)


class TestExactFinite:
    def test_single_particle_law(self):
        atoms = np.array([[0.0], [1.0], [2.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0, 1.0])
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        digits, probs = exact_gibbs_law(pair, ell, n=1, beta_n=1.5)
        expected = np.array([1.0, 2.0, 1.0]) * np.exp(-1.5 * np.array([0.0, 1.0, 4.0]))
        expected /= expected.sum()
        np.testing.assert_allclose(probs, expected, atol=1e-14)

    def test_two_by_two_hand_enumeration(self):
        # m = 2, n = 2, V = 0, W = 1 off the diagonal of the atom values:
        # distinct ordered pairs carry H = 2/(2*4) = 1/4, coincident pairs H = 0
        atoms = np.array([[0.0], [1.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 3.0])
        W = lambda x, y: np.where(
            np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) > 0, 1.0, 0.0
        )
        pair = PotentialPair(v_zero, W, dim=1, symmetric=True)
        beta = 2.0
        digits, probs = exact_gibbs_law(pair, ell, n=2, beta_n=beta)
        lookup = {tuple(row): p for row, p in zip(digits.tolist(), probs)}
        # hand enumeration: weights 1*1, 1*3, 3*1, 3*3 against H = 0, 1/4, 1/4, 0
        z = 1 + 3 * math.exp(-beta / 4) + 3 * math.exp(-beta / 4) + 9
        assert lookup[(0, 0)] == pytest.approx(1 / z, abs=1e-14)
        assert lookup[(0, 1)] == pytest.approx(3 * math.exp(-beta / 4) / z, abs=1e-14)
        assert lookup[(1, 0)] == pytest.approx(3 * math.exp(-beta / 4) / z, abs=1e-14)
        assert lookup[(1, 1)] == pytest.approx(9 / z, abs=1e-14)

    def test_small_beta_near_product(self):
        atoms = np.array([[0.0], [1.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0])
        pair = PotentialPair(v_zero, w_zero, dim=1, symmetric=True)
        _, probs = exact_gibbs_law(pair, ell, n=2, beta_n=1e-9)
        product = np.array([1.0, 2.0, 2.0, 4.0]) / 9.0
        np.testing.assert_allclose(probs, product, atol=1e-9)

    def test_sampling_frequencies(self):
        atoms = np.array([[0.0], [1.0]])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        digits, probs = exact_gibbs_law(pair, ell, n=2, beta_n=1.0)
        draws = exact_sample_finite(pair, ell, n=2, beta_n=1.0, seed=5, samples=4000)
        counts = Counter(tuple(int(v) for v in d.points[:, 0]) for d in draws)
        for row, p in zip(digits.tolist(), probs):
            key = tuple(int(atoms[i, 0]) for i in row)
            freq = counts.get(key, 0) / 4000
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / 4000) + 1e-3

    def test_budget_guard(self):
        # the tuple law's budget is on m^n = 10^9
        atoms = np.array([[float(i)] for i in range(10)])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_zero, w_zero, dim=1)
        with pytest.raises(BudgetExceededError):
            exact_gibbs_law(pair, ell, n=9, beta_n=1.0, budget=10**6)

    def test_count_budget_guard(self):
        # n = 9 on 10 atoms: C(18, 9) = 48620 compositions, 486200 count entries
        atoms = np.array([[float(i)] for i in range(10)])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_zero, w_zero, dim=1)
        counts, _ = exact_count_law(pair, ell, n=9, beta_n=1.0, budget=486200)
        assert counts.shape == (48620, 10)
        with pytest.raises(BudgetExceededError):
            exact_count_law(pair, ell, n=9, beta_n=1.0, budget=486199)
        with pytest.raises(BudgetExceededError):
            exact_sample_finite(pair, ell, n=9, beta_n=1.0, seed=0, samples=1, budget=486199)

    def test_all_infinite_rejected(self):
        atoms = np.array([[0.0]])
        ell = ReferenceMeasure.finite(atoms)
        v_bad = lambda x: np.full(np.asarray(x).shape[:-1], np.inf)
        pair = PotentialPair(v_bad, w_zero, dim=1)
        with pytest.raises(SamplerError):
            exact_sample_finite(pair, ell, n=1, beta_n=1.0, seed=0, samples=1)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pair = PotentialPair(v_zero, coulomb_kernel(2), dim=2, symmetric=True)
        with pytest.raises(ValueError):
            exact_gibbs_law(pair, ell, n=2, beta_n=beta)
        with pytest.raises(ValueError):
            exact_sample_finite(pair, ell, n=2, beta_n=beta, seed=0, samples=1)

    def test_single_slot_many_atoms(self):
        # n = 1 never uses W, and atom indices above the int16 range must survive
        m = 40000
        atoms = np.linspace(-1.0, 1.0, m)[:, None]
        weights = np.linspace(0.5, 1.5, m)
        ell = ReferenceMeasure.finite(atoms, weights)

        def w_unused(x, y):
            raise AssertionError("W evaluated for a single particle")

        pair = PotentialPair(v_quadratic, w_unused, dim=1, symmetric=True)
        digits, probs = exact_gibbs_law(pair, ell, n=1, beta_n=2.0)
        expected = weights * np.exp(-2.0 * atoms[:, 0] ** 2)
        np.testing.assert_allclose(probs, expected / expected.sum(), rtol=1e-12)
        assert digits.shape == (m, 1)
        np.testing.assert_array_equal(digits[:, 0], np.arange(m))

    @pytest.mark.parametrize("case", ["asymmetric", "coulomb_d2"])
    def test_law_ratios_match_hamiltonian(self, case):
        # every pair of tuples: log p_s - log p_t = -beta (H_s - H_t) + sum log w
        if case == "asymmetric":
            atoms = np.array([[0.0], [0.7], [1.5], [2.0]])
            w_asym = lambda x, y: w_sqdist(x, y) + 0.8 * np.asarray(x)[..., 0]
            pair = PotentialPair(v_quadratic, w_asym, dim=1, symmetric=False)
        else:
            atoms = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9], [-0.5, 0.4]])
            pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0, 0.5, 1.5])
        beta, n = 1.7, 3
        digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
        H = np.array([hamiltonian(ParticleConfig(atoms[row]), pair) for row in digits])
        np.testing.assert_array_equal(probs == 0, H == np.inf)
        live = np.isfinite(H)
        assert live.sum() >= 24
        logw = np.log(ell.weights)[digits[live]].sum(axis=1)
        log_p = np.log(probs[live])
        got = log_p[:, None] - log_p[None, :]
        expected = -beta * (H[live][:, None] - H[live][None, :]) + logw[:, None] - logw[None, :]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def count_marginal(digits, probs, counts):
    """The tuple law's probabilities summed over the orderings of each row of counts."""
    m = counts.shape[1]
    tuple_counts = np.stack([(digits == a).sum(axis=1) for a in range(m)], axis=1)
    row = {tuple(c): i for i, c in enumerate(counts.tolist())}
    index = [row[tuple(c)] for c in tuple_counts.tolist()]
    return np.bincount(index, weights=probs, minlength=len(counts))


class TestCountLaw:
    @pytest.mark.parametrize("case", ["d1_speed_n", "d1_speed_n2", "coulomb_d2", "repeated_atom"])
    def test_equals_the_tuple_law_count_marginal(self, case):
        rng = np.random.default_rng(3)
        if case.startswith("d1"):
            n = 5
            ell = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (4, 1)), rng.uniform(0.5, 1.5, 4))
            pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
            beta = float(n if case == "d1_speed_n" else n * n)
        elif case == "coulomb_d2":
            # the +inf diagonal leaves only the compositions with every count <= 1
            n, beta = 3, 3.0
            ell = ReferenceMeasure.finite(rng.uniform(-1.0, 1.0, (5, 2)), rng.uniform(0.5, 1.5, 5))
            pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
        else:
            # atoms 0 and 2 coincide, so occupying both costs W(x, x) = +inf
            n, beta = 3, 3.0
            ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.3, 0.8]],
                                          [1.0, 2.0, 0.5, 1.5])
            pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
        counts, probs = exact_count_law(pair, ell, n=n, beta_n=beta)
        digits, tuple_probs = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
        assert counts.shape == (math.comb(n + len(ell.atoms) - 1, n), len(ell.atoms))
        np.testing.assert_array_equal(counts.sum(axis=1), n)
        np.testing.assert_allclose(probs, count_marginal(digits, tuple_probs, counts),
                                   rtol=0, atol=1e-14)
        if case == "coulomb_d2":
            np.testing.assert_array_equal(probs == 0, counts.max(axis=1) >= 2)
        elif case == "repeated_atom":
            dead = (counts.max(axis=1) >= 2) | ((counts[:, 0] > 0) & (counts[:, 2] > 0))
            np.testing.assert_array_equal(probs == 0, dead)
        else:
            assert np.all(probs > 0)

    def test_all_infinite_rejected(self):
        # two particles on two atoms of a Coulomb plane: every composition has
        # a coincident pair or an atom at V = +inf
        v_wall = lambda x: np.where(np.asarray(x)[..., 0] > 0.5, np.inf, 0.0)
        ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0]])
        pair = PotentialPair(v_wall, coulomb_kernel(2), dim=2, symmetric=True)
        with pytest.raises(SamplerError):
            exact_count_law(pair, ell, n=2, beta_n=1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        ell = ReferenceMeasure.finite([[0.0], [1.0]])
        pair = PotentialPair(v_zero, w_zero, dim=1)
        with pytest.raises(ValueError):
            exact_count_law(pair, ell, n=2, beta_n=beta)

    def test_density_reference_rejected(self):
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])
        pair = PotentialPair(v_zero, w_zero, dim=1)
        with pytest.raises(ValueError):
            exact_count_law(pair, ref, n=2, beta_n=1.0)

    def test_draws_are_exchangeable(self):
        # three particles on three atoms: every ordering of a composition is
        # equally likely, and the draws follow the tuple law
        atoms = np.array([[0.0], [1.0], [2.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0, 1.5])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        digits, probs = exact_gibbs_law(pair, ell, n=3, beta_n=3.0)
        samples = 20000
        draws = exact_sample_finite(pair, ell, n=3, beta_n=3.0, seed=11, samples=samples)
        index = np.array([d.points[:, 0] for d in draws]).astype(int) @ [9, 3, 1]
        freq = np.bincount(index, minlength=27) / samples
        se = np.sqrt(probs * (1 - probs) / samples)
        assert np.all(np.abs(freq - probs) < 4 * se + 1e-3)


class TestLDPOnExactLaws:
    """The paper's LDP on exact count laws: -(1/beta_n) log P(L_n = c/n)
    approaches the rate, I at beta_n = n and J at beta_n = n^2, up to their
    minima, uniformly over the compositions c of n.

    The model has 3 atoms and W with a zero diagonal, so H_n(c) = J(c/n) and
    the gap is the multinomial and reference factor (1/beta_n) log
    (multinomial(n; c) prod w^c).  At beta_n = n, Stirling leaves
    (m - 1)/2 log n / n of it; at beta_n = n^2 all of it is at most
    (log m + log(max w / min w)) / n.  The log weights are taken before
    normalizing, since most compositions' probabilities underflow at
    beta_n = n^2.
    """

    atoms = np.array([[0.0], [1.0], [2.0]])
    weights = np.array([1.0, 2.0, 1.5])

    def pair(self):
        return PotentialPair(lambda x: 0.5 * v_quadratic(x), w_sqdist, dim=1, symmetric=True)

    @pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
    @pytest.mark.parametrize("regime", ["I", "J"])
    def test_sup_deviation_falls_with_n(self, regime):
        ell = ReferenceMeasure.finite(self.atoms, self.weights)
        pair = self.pair()
        v = pair.V(self.atoms)
        K = pair.W(self.atoms[:, None, :], self.atoms[None, :, :])
        nu = self.weights * np.exp(-v)
        nu /= nu.sum()
        sizes = (50, 100, 200, 400) if regime == "I" else (12, 50, 100, 200)
        sups = []
        for n in sizes:
            beta = float(n if regime == "I" else n * n)
            counts, log_weight = _count_log_weights(pair, ell, n, beta, 10**7)
            mu = counts / n
            with np.errstate(divide="ignore", invalid="ignore"):
                entropy = np.where(counts > 0, mu * np.log(mu / nu), 0.0).sum(axis=1)
            energy = 0.5 * ((mu @ K) * mu).sum(axis=1)
            rate = entropy + energy if regime == "I" else mu @ v + energy
            speed = -(log_weight - log_weight.max()) / beta
            gap = np.abs(speed - (rate - rate.min()))
            sups.append(gap.max())
            for i in (0, len(counts) // 3, int(np.argmax(gap)), len(counts) - 1):
                m_i = DiscreteMeasure(self.atoms, mu[i])
                exact = rate_I(m_i, pair, ell) if regime == "I" else rate_J(m_i, pair)
                assert rate[i] == pytest.approx(float(exact), rel=1e-12, abs=1e-12)
            if regime == "I":
                assert n * sups[-1] / math.log(n) <= 1.0
            else:
                assert n * sups[-1] <= math.log(3) + math.log(2)
        assert all(a > b for a, b in zip(sups, sups[1:]))


class TestIIDSample:
    def test_dirac_gives_constant(self):
        mu = DiscreteMeasure.dirac([4.0])
        for cfg in iid_sample(mu, n=3, seed=1, samples=5):
            assert np.all(cfg.points == 4.0)

    def test_frequencies_within_binomial_error(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
        draws = iid_sample(mu, n=10, seed=2, samples=600)
        flat = np.concatenate([d.points[:, 0] for d in draws])
        freq = float(np.mean(flat == 1.0))
        se = math.sqrt(0.7 * 0.3 / len(flat))
        assert abs(freq - 0.7) < 3 * se

    def test_seed_reproducibility(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        a = iid_sample(mu, n=4, seed=9, samples=10)
        b = iid_sample(mu, n=4, seed=9, samples=10)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)


class TestChainValidity:
    def test_sweep_transition_matrix_finite_reference(self):
        # m = 3, n = 2: the exact one-sweep matrix P = T_0 T_1, built from
        # hamiltonian and the proposal weights, keeps the exact law, and the
        # kernel's transitions between consecutive kept states follow P
        atoms = np.array([[0.0], [1.0], [2.0]])
        weights = np.array([1.0, 2.0, 1.5])
        ell = ReferenceMeasure.finite(atoms, weights)
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        n, m, beta = 2, 3, 3.0
        digits, pi = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
        energy = [hamiltonian(ParticleConfig(atoms[s]), pair) for s in digits]
        propose = weights / weights.sum()
        sweep = np.eye(m**n)
        for i in range(n):  # site i moves after sites 0..i-1
            T = np.zeros((m**n, m**n))
            for a, s in enumerate(digits):
                for atom in range(m):
                    b = np.ravel_multi_index(np.r_[s[:i], atom, s[i + 1:]], (m,) * n)
                    accept = math.exp(min(0.0, -beta * (energy[b] - energy[a])))
                    T[a, b] += propose[atom] * accept
                T[a, a] += 1.0 - T[a].sum()
            sweep = sweep @ T
        np.testing.assert_allclose(pi @ sweep, pi, rtol=0, atol=1e-12)

        chains, sweeps = 8, 7500
        cfg = SamplerConfig(n=n, beta_n=beta, burn_in=0, thinning=1, seed=23,
                            init=ParticleConfig(atoms[[0, 1]]))
        kept, _ = mh_sample_chains(pair, ell, cfg, samples=sweeps, chains=chains)
        sites = np.searchsorted(atoms[:, 0], [k.points[:, 0] for k in kept])
        state = np.ravel_multi_index(tuple(sites.T), (m,) * n).reshape(chains, sweeps)
        counts = np.zeros((m**n, m**n))
        np.add.at(counts, (state[:, :-1].ravel(), state[:, 1:].ravel()), 1)
        visits = counts.sum(axis=1, keepdims=True)
        expected = visits * sweep
        # 5 standard errors per entry, with the binomial variance floored at
        # one count: the count of an entry expected well under once is far from normal
        sd = np.sqrt(np.maximum(expected * (1.0 - sweep), 1.0))
        assert np.all(np.abs(counts - expected) <= 5 * sd)
        assert np.sum(visits >= 1000) >= 4

    def test_tv_decreases_with_chain_length(self):
        atoms = np.array([[0.0], [1.0], [2.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 1.0, 1.0])
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        digits, probs = exact_gibbs_law(pair, ell, n=2, beta_n=2.0)
        exact = {tuple(row): p for row, p in zip(digits.tolist(), probs)}
        # biased start: both particles on the last atom
        start_pts = np.array([[2.0], [2.0]])
        from gibbslab.measures import ParticleConfig

        tvs = []
        for sweeps in (20, 2000):
            cfg = SamplerConfig(n=2, beta_n=2.0, burn_in=0, thinning=1, seed=31,
                                init=ParticleConfig(start_pts))
            kept, _ = mh_sample(pair, ell, cfg, samples=sweeps)
            counts = Counter(
                (int(k.points[0, 0]), int(k.points[1, 0])) for k in kept
            )
            tv = 0.5 * sum(
                abs(counts.get(state, 0) / sweeps - p) for state, p in exact.items()
            )
            tvs.append(tv)
        margin = 2 * math.sqrt(len(exact) / (4 * 20))
        assert tvs[1] < tvs[0] + margin


class TestDiagnostics:
    def test_ess_bounds(self):
        rng = np.random.default_rng(0)
        iidseq = rng.normal(size=500)
        ess = effective_sample_size(iidseq)
        assert 100 < ess <= 500 + 1e-9
        constant = np.ones(50)
        assert effective_sample_size(constant) == 50.0

    def test_multi_chain_merge(self):
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-5.0, 5.0)])
        cfg = SamplerConfig(n=1, beta_n=1.0, sigma=0.5, burn_in=5, thinning=1, seed=2)
        samples, diags = mh_sample_chains(pair, ref, cfg, samples=20, chains=3)
        assert len(samples) == 60
        assert len(diags) == 3
        seeds = [d.seed for d in diags]
        assert len(set(seeds)) == 3

    def test_chains_seeded_by_spawn_children(self):
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-5.0, 5.0)])
        cfg = SamplerConfig(n=3, beta_n=3.0, sigma=0.5, burn_in=5, thinning=2, seed=7)
        chains = 3
        samples, diags = mh_sample_chains(pair, ref, cfg, samples=10, chains=chains)
        children = np.random.SeedSequence(cfg.seed).spawn(chains)
        for c, child in enumerate(children):
            alone, diag = mh_sample(pair, ref, replace(cfg, seed=child), samples=10)
            assert diags[c].seed.spawn_key == child.spawn_key == (c,)
            assert np.array_equal(diags[c].energy_trace, diag.energy_trace)
            for a, b in zip(samples[10 * c:10 * (c + 1)], alone):
                assert np.array_equal(a.points, b.points)

    def test_seed_sequence_seed_is_not_advanced(self):
        # a chain's own seed fed back as cfg.seed spawns its sub-chains
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-5.0, 5.0)])
        cfg = SamplerConfig(n=2, beta_n=2.0, sigma=0.5, burn_in=2, thinning=1, seed=11)
        _, diags = mh_sample_chains(pair, ref, cfg, samples=5, chains=2)
        parent = diags[0].seed
        spawned_before = parent.n_children_spawned
        samples, subs = mh_sample_chains(pair, ref, replace(cfg, seed=parent), samples=5, chains=3)
        assert len(samples) == 15
        assert parent.n_children_spawned == spawned_before
        fresh = np.random.SeedSequence(parent.entropy, spawn_key=parent.spawn_key).spawn(3)
        for c, (sub, child) in enumerate(zip(subs, fresh)):
            assert sub.seed.spawn_key == child.spawn_key == parent.spawn_key + (c,)
            assert np.array_equal(sub.seed.generate_state(4), child.generate_state(4))

    @pytest.mark.parametrize("case", ["finite_reference", "asymmetric_W"])
    def test_lockstep_chain_equals_chain_alone(self, case):
        if case == "finite_reference":
            ref = ReferenceMeasure.finite(np.linspace(-2.0, 2.0, 9)[:, None],
                                          np.linspace(1.0, 2.0, 9))
            pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        else:
            ref = ReferenceMeasure.lebesgue_box([(-3.0, 3.0), (-3.0, 3.0)])
            w_asym = lambda x, y: w_sqdist(x, y) + 0.8 * np.asarray(x)[..., 0]
            pair = PotentialPair(v_quadratic, w_asym, dim=2, symmetric=False)
        cfg = SamplerConfig(n=4, beta_n=4.0, sigma=0.6, burn_in=3, thinning=2, seed=19)
        samples, diags = mh_sample_chains(pair, ref, cfg, samples=12, chains=3)
        for c, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
            alone, diag = mh_sample(pair, ref, replace(cfg, seed=child), samples=12)
            for name in ("acceptance_rate", "energy_trace", "rejected_infinite",
                         "rejected_metropolis", "passes"):
                assert np.array_equal(getattr(diags[c], name), getattr(diag, name))
            for a, b in zip(samples[12 * c:12 * (c + 1)], alone):
                assert np.array_equal(a.points, b.points)
            assert 0 < diag.mean_acceptance < 1
            if case == "asymmetric_W":
                energies = [hamiltonian(k, pair) for k in alone]
                np.testing.assert_allclose(diag.energy_trace, energies, rtol=1e-12)

    def test_running_energy_matches_hamiltonian(self):
        pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-2.0, 2.0), (-2.0, 2.0)])
        cfg = SamplerConfig(n=20, beta_n=20.0, sigma=0.3, burn_in=0, thinning=1, seed=4)
        kept, diag = mh_sample(pair, ref, cfg, samples=2000)
        energies = [hamiltonian(k, pair) for k in kept]
        np.testing.assert_allclose(diag.energy_trace, energies, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["density", "finite"])
    def test_rejection_causes_partition_each_sweep(self, mode):
        if mode == "density":
            pair = PotentialPair(v_hard_wall, coulomb_kernel(2), dim=2, symmetric=True)
            ref = ReferenceMeasure.lebesgue_box([(-0.5, 1.5), (-0.5, 1.5)])
        else:
            # two atoms for three particles: coincident proposals have +inf energy
            pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
            ref = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cfg = SamplerConfig(n=3, beta_n=6.0, sigma=0.4, burn_in=10, thinning=1, seed=5)
        _, diag = mh_sample(pair, ref, cfg, samples=200)
        n = cfg.n
        total = diag.acceptance_rate + diag.rejected_infinite / n + diag.rejected_metropolis / n
        np.testing.assert_array_equal(total, np.ones(len(diag.acceptance_rate)))
        assert diag.rejected_infinite.sum() > 0 and diag.rejected_metropolis.sum() > 0
        assert np.all(diag.rejected_infinite >= 0) and np.all(diag.rejected_metropolis >= 0)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_ess_on_ar1_traces(self, rho):
        # the integrated autocorrelation time of AR(1) is (1 + rho) / (1 - rho);
        # the mean over five independent traces damps the estimator's own noise
        n = 20000
        taus = []
        for seed in range(5):
            noise = np.random.default_rng(seed).normal(size=n) * math.sqrt(1 - rho * rho)
            x = np.empty(n)
            x[0] = noise[0] / math.sqrt(1 - rho * rho)
            for t in range(1, n):
                x[t] = rho * x[t - 1] + noise[t]
            taus.append(n / effective_sample_size(x))
        target = (1 + rho) / (1 - rho)
        assert abs(np.mean(taus) / target - 1) < 0.10


def w_asymmetric(x, y):
    return w_sqdist(x, y) + 0.8 * np.asarray(x)[..., 0]


def w_hard_core(x, y):
    """+inf for points closer than 0.5, 0 otherwise."""
    dist = np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)
    return np.where(dist < 0.5, np.inf, 0.0)


def reference_case(case):
    """A pair, a reference and a finite-energy start of n = 5 sites."""
    if case == "finite":
        # six atoms for five sites: coincident proposals have +inf energy
        ref = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                                       [0.5, 0.5], [-0.5, 0.8]], [1.0, 2.0, 1.0, 1.5, 0.5, 1.0])
        start = ref.atoms[:5]
    else:
        box = ReferenceMeasure.lebesgue_box([(-1.0, 1.0), (-1.0, 1.0)])
        ref = box
        if case == "weighted_density":
            # a log-density that is not constant on its support
            ref = ReferenceMeasure.density_on_box(
                lambda x: box.log_density(x) - np.sum(np.abs(x), axis=-1), box.box)
        start = np.array([[0.0, 0.0], [0.5, 0.1], [-0.4, 0.6], [0.2, -0.7], [-0.8, -0.3]])
    W = {"asymmetric_W": w_asymmetric, "hard_core": w_hard_core}.get(case, coulomb_kernel(2))
    pair = PotentialPair(v_quadratic, W, dim=2, symmetric=case != "asymmetric_W")
    cfg = SamplerConfig(n=5, beta_n=5.0, sigma=0.6, burn_in=0, thinning=1, seed=29,
                        init=ParticleConfig(start))
    return pair, ref, cfg


class TestAgainstReferenceMetropolis:
    """The lockstep kernel against ``reference_metropolis``: the same stream
    gives the same moves, and the running energy equals a full hamiltonian."""

    SWEEPS = 40

    def assert_same_chain(self, kept, diag, reference, n):
        states, accepts, infinite, energies = reference
        # the kept states and the per-sweep counts pin down the accept
        # sequence, up to a proposal equal to its site's position (on atoms)
        np.testing.assert_array_equal(np.array([k.points for k in kept]), states)
        np.testing.assert_array_equal(diag.acceptance_rate, accepts.sum(axis=1) / n)
        np.testing.assert_array_equal(diag.rejected_infinite, infinite)
        np.testing.assert_allclose(diag.energy_trace, energies, rtol=1e-12, atol=0)
        assert 0 < accepts.mean() < 1

    @pytest.mark.parametrize("case", ["density", "weighted_density", "finite", "asymmetric_W",
                                      "hard_core"])
    def test_mh_sample(self, case):
        pair, ref, cfg = reference_case(case)
        kept, diag = mh_sample(pair, ref, cfg, samples=self.SWEEPS)
        reference = reference_metropolis(pair, ref, cfg, cfg.seed, self.SWEEPS)
        self.assert_same_chain(kept, diag, reference, cfg.n)
        if case == "finite":
            assert diag.rejected_infinite.sum() > 0
        if case == "hard_core":
            # several sites of one sweep propose inside another's core
            assert diag.rejected_infinite.max() >= 2

    def test_mh_sample_chains(self):
        pair, ref, cfg = reference_case("density")
        samples, diags = mh_sample_chains(pair, ref, cfg, samples=self.SWEEPS, chains=3)
        for c, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
            reference = reference_metropolis(pair, ref, cfg, child, self.SWEEPS)
            kept = samples[self.SWEEPS * c:self.SWEEPS * (c + 1)]
            self.assert_same_chain(kept, diags[c], reference, cfg.n)


class CountingW:
    """W wrapper that counts its calls and, if asked, refuses a pair of two
    identical points (in density mode: a site paired with itself)."""

    def __init__(self, W, refuse_identical):
        self.W, self.refuse_identical, self.calls = W, refuse_identical, 0

    def __call__(self, x, y):
        self.calls += 1
        if self.refuse_identical:
            xb, yb = np.broadcast_arrays(x, y)
            if np.any(np.all(xb == yb, axis=-1)):
                raise AssertionError("W received a site paired with itself")
        return self.W(x, y)


class TestWCallsPerSweep:
    @pytest.mark.parametrize("case", ["density", "finite", "asymmetric_W"])
    @pytest.mark.parametrize("chains", [1, 3])
    def test_one_start_call_and_two_blocks_per_sweep(self, case, chains):
        pair, ref, cfg = reference_case(case)
        counter = CountingW(pair.W, refuse_identical=not ref.is_finite)
        counted = PotentialPair(pair.V, counter, dim=2, symmetric=pair.symmetric)
        cfg = replace(cfg, burn_in=3, thinning=2)
        _, diags = mh_sample_chains(counted, ref, cfg, samples=6, chains=chains)
        sweeps = len(diags[0].acceptance_rate)
        assert sweeps == 3 + 1 + 2 * 5
        per_sym = 1 if pair.symmetric else 2
        assert counter.calls <= per_sym * (1 + 2 * sweeps)


class TestDiagnosticsCSV:
    def test_round_trip(self, tmp_path):
        pair = PotentialPair(v_hard_wall, coulomb_kernel(2), dim=2, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-0.5, 1.5), (-0.5, 1.5)])
        cfg = SamplerConfig(n=3, beta_n=6.0, sigma=0.4, burn_in=10, thinning=1, seed=5)
        _, diag = mh_sample(pair, ref, cfg, samples=30)
        path = tmp_path / "chain.csv"
        diag.to_csv(path)
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert table.dtype.names == ("sweep", "acceptance", "rejected_infinite",
                                     "rejected_metropolis", "passes")
        np.testing.assert_array_equal(table["sweep"], np.arange(40))
        np.testing.assert_array_equal(table["acceptance"], diag.acceptance_rate)
        np.testing.assert_array_equal(table["rejected_infinite"], diag.rejected_infinite)
        np.testing.assert_array_equal(table["rejected_metropolis"], diag.rejected_metropolis)
        np.testing.assert_array_equal(table["passes"], diag.passes)
        assert diag.rejected_infinite.sum() > 0 and diag.rejected_metropolis.sum() > 0


class TestDiagnosticsJSON:
    ARRAYS = ("acceptance_rate", "energy_trace", "rejected_infinite", "rejected_metropolis",
              "passes")

    @pytest.mark.parametrize("chains", [1, 3])
    def test_round_trip_rebuilds_every_field_and_the_chain(self, chains):
        # one chain runs mh_sample on the int seed; three carry SeedSequence seeds
        pair, ref, cfg = reference_case("density")
        if chains == 1:
            runs = [mh_sample(pair, ref, cfg, samples=12)]
        else:
            kept, diags = mh_sample_chains(pair, ref, cfg, samples=12, chains=chains)
            runs = [(kept[12 * c:12 * (c + 1)], diags[c]) for c in range(chains)]
        for kept, diag in runs:
            record = json.loads(diag.to_json())
            seed = record.pop("seed")
            if chains > 1:
                seed = np.random.SeedSequence(seed["entropy"], spawn_key=tuple(seed["spawn_key"]),
                                              pool_size=seed["pool_size"])
            back = ChainDiagnostics(
                seed=seed, **{k: v if k == "ess" else np.array(v) for k, v in record.items()})
            for name in self.ARRAYS:
                assert getattr(back, name).tobytes() == getattr(diag, name).tobytes()
            assert back.ess == diag.ess
            again, _ = mh_sample(pair, ref, replace(cfg, seed=back.seed), samples=12)
            assert np.array([k.points for k in again]).tobytes() == \
                np.array([k.points for k in kept]).tobytes()


def sequential_sweep(X, Q, Y, base, log_u, bw):
    """A sweep's decisions by a plain scan over chains and sites: site i sums
    its row of X - Y, and on accept column i of X becomes column i of Q and
    row and column i of Y become row i of X.  Returns the accept mask, the
    log ratios, the interaction changes and the final Y."""
    X, Y = X.copy(), Y.copy()
    C, n, _ = X.shape
    accepted = np.zeros((C, n), dtype=bool)
    log_ratio, w = np.empty((C, n)), np.empty((C, n))
    for c in range(C):
        for i in range(n):
            w[c, i] = np.sum(X[c, i] - Y[c, i])
            log_ratio[c, i] = base[c, i] - bw * w[c, i]
            if log_u[c, i] < log_ratio[c, i]:
                accepted[c, i] = True
                X[c, :, i] = Q[c, :, i]
                Y[c, i] = X[c, i]
                Y[c, :, i] = X[c, i]
    return accepted, log_ratio, w, Y


def random_sweep(rng, C, n, inf_frac):
    """Blocks of a sweep with a zero diagonal: X and a symmetric Q holding
    +inf at a fraction of their entries, a symmetric finite Y, and a base
    that is -inf at a fraction of the sites."""
    def symmetric(a):
        a = np.triu(a, 1)
        return a + a.transpose(0, 2, 1)

    off = ~np.eye(n, dtype=bool)
    X = np.where((rng.random((C, n, n)) < inf_frac) & off, np.inf, rng.normal(size=(C, n, n)))
    X *= off
    Q = symmetric(np.where(rng.random((C, n, n)) < inf_frac, np.inf, rng.normal(size=(C, n, n))))
    np.einsum("cii->ci", Q)[...] = 0.0
    Y = symmetric(rng.normal(size=(C, n, n)))
    base = np.where(rng.random((C, n)) < inf_frac, -np.inf, rng.normal(size=(C, n)))
    log_u = np.log1p(-rng.random((C, n)))
    return X, Q, Y, base, log_u


class TestSettleSweep:
    """``_settle_sweep`` against ``sequential_sweep`` on the same blocks."""

    def assert_matches_scan(self, X, Q, Y, base, log_u, bw):
        acc, lr, w, Y_scan = sequential_sweep(X, Q, Y, base, log_u, bw)
        Y_fixed = Y.copy()
        accepted, log_ratio, w_diff, passes = _settle_sweep(
            X.copy(), Q.copy(), Y_fixed, base, log_u, bw)
        np.testing.assert_array_equal(accepted, acc)
        np.testing.assert_array_equal(log_ratio == -np.inf, lr == -np.inf)
        live = lr > -np.inf
        np.testing.assert_allclose(log_ratio[live], lr[live], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_diff[live], w[live], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Y_fixed, Y_scan, rtol=0, atol=1e-15)
        n = X.shape[1]
        assert np.all((passes >= 1) & (passes <= n + 1))
        return accepted, log_ratio, passes

    def test_alternating_chain_needs_n_plus_one_passes(self):
        # every site accepts alone, and an accepted left neighbour blocks it:
        # pass t flips every site from t on, and the decisions alternate
        for n in (1, 2, 3, 6, 9):
            Q = np.zeros((1, n, n))
            i = np.arange(1, n)
            Q[0, i, i - 1] = Q[0, i - 1, i] = 10.0
            X, Y = np.zeros((1, n, n)), np.zeros((1, n, n))
            base, log_u = np.zeros((1, n)), np.full((1, n), np.log1p(-0.5))
            accepted, _, passes = self.assert_matches_scan(X, Q, Y, base, log_u, 1.0)
            np.testing.assert_array_equal(accepted[0], np.arange(n) % 2 == 0)
            assert passes[0] == n + 1

    def test_all_rejected_takes_one_pass(self):
        X, Q, Y, base, log_u = random_sweep(np.random.default_rng(0), 2, 5, 0.0)
        base[...] = -np.inf
        accepted, _, passes = self.assert_matches_scan(X, Q, Y, base, log_u, 1.0)
        assert not accepted.any()
        np.testing.assert_array_equal(passes, [1, 1])

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("infs_per_row", [0.0, 0.5, 1.0])
    def test_random_blocks(self, n, infs_per_row):
        rng = np.random.default_rng(1000 * n + int(100 * infs_per_row))
        freed = blocked = 0
        for _ in range(20):
            X, Q, Y, base, log_u = random_sweep(rng, 3, n, infs_per_row / n)
            accepted, log_ratio, _ = self.assert_matches_scan(X, Q, Y, base, log_u, 0.7)
            # the +inf recurrence at work: a site accepts although its row of
            # X holds +inf (every such column accepted earlier, with a finite
            # Q entry), or is blocked by +inf in Q alone
            inf_row = np.isinf(X).any(axis=2)
            freed += np.sum(accepted & inf_row)
            blocked += np.sum((log_ratio == -np.inf) & ~inf_row & (base > -np.inf))
        if infs_per_row > 0 and n >= 7:
            assert freed > 0 and blocked > 0
