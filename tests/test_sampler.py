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
    SamplerConfig,
    SamplerError,
    effective_sample_size,
    exact_gibbs_law,
    exact_sample_finite,
    iid_sample,
    mh_sample,
    mh_sample_chains,
)


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
        kept, _ = mh_sample(pair, ref, cfg, samples=200)
        for k in kept:
            assert np.all(k.points >= 0.0) and np.all(k.points <= 1.0)

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

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=1, beta_n=1.0, sigma=0.0)


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
        atoms = np.array([[float(i)] for i in range(10)])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_zero, w_zero, dim=1)
        with pytest.raises(BudgetExceededError):
            exact_sample_finite(pair, ell, n=9, beta_n=1.0, seed=0, samples=1, budget=10**6)

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


class TestLDPOnExactLaws:
    """The paper's LDP on exact laws: -(1/beta_n) log P(L_n = c/n) approaches
    the rate, I at beta_n = n and J at beta_n = n^2, up to their minima."""

    @pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
    @pytest.mark.parametrize("regime", ["I", "J"])
    def test_sup_deviation_falls_with_n(self, regime):
        atoms = np.array([[0.0], [1.0], [2.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0, 1.5])
        v_half = lambda x: 0.5 * v_quadratic(x)
        # W has a finite diagonal, so n > m still leaves finite-energy states
        pair = PotentialPair(v_half, w_sqdist, dim=1, symmetric=True)
        sups = []
        for n in (4, 8, 12):
            beta = float(n if regime == "I" else n * n)
            digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
            c0, c1 = ((digits == a).sum(axis=1) for a in (0, 1))
            law = np.bincount(c0 * (n + 1) + c1, weights=probs, minlength=(n + 1) ** 2)
            comps = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
            speed = np.array([-math.log(law[a * (n + 1) + b]) / beta for a, b, _ in comps])
            rates = []
            for c in comps:
                mu = DiscreteMeasure(atoms, np.array(c) / n)
                rates.append(float(rate_I(mu, pair, ell) if regime == "I" else rate_J(mu, pair)))
            rates = np.array(rates)
            sups.append(np.max(np.abs(speed - speed.min() - (rates - rates.min()))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.15


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
    def test_detailed_balance_finite_reference(self):
        # m = 3, n = 2: compare empirical stationary flows pi(a) T(a,b)
        # against their reverses, chain started from an exact draw
        atoms = np.array([[0.0], [1.0], [2.0]])
        ell = ReferenceMeasure.finite(atoms, [1.0, 2.0, 1.5])
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        start = exact_sample_finite(pair, ell, n=2, beta_n=3.0, seed=17, samples=1)[0]
        flows = Counter()

        def hook(a, b):
            flows[(a, b)] += 1

        cfg = SamplerConfig(n=2, beta_n=3.0, burn_in=0, thinning=1, seed=23, init=start)
        mh_sample(pair, ell, cfg, samples=30000, _transition_hook=hook)
        total = sum(flows.values())
        checked = 0
        for (a, b), cnt in flows.items():
            if a >= b:
                continue
            f_ab = cnt / total
            f_ba = flows.get((b, a), 0) / total
            se = math.sqrt((f_ab + f_ba) / total) + 1e-12
            assert abs(f_ab - f_ba) < 5 * se
            checked += 1
        assert checked >= 3

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
