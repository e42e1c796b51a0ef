import json
import math
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _exact import EmptyLawError, count_marginal, tuple_law
from conftest import (CountingW, v_quadratic, v_wall_from, v_zero, w_nan_on_diagonal, w_sqdist,
                      w_zero)
from gibbslab import sampler
from gibbslab._enum import compositions_array
from gibbslab.functionals import hamiltonian, rate_I, rate_J
from gibbslab.measures import DiscreteMeasure, ParticleConfig, ReferenceMeasure
from gibbslab.potentials import PotentialPair, coulomb_kernel, evaluate_V, evaluate_W
from gibbslab.sampler import (
    BudgetExceededError,
    ChainDiagnostics,
    SamplerConfig,
    SamplerError,
    _count_log_weights,
    _draw_starts,
    _settle_sweep,
    effective_sample_size,
    exact_count_law,
    exact_gibbs_law,
    exact_sample_finite,
    iid_sample,
    mh_sample,
    mh_sample_chains,
)
from gibbslab.variational import GridSpec, minimize_I, minimize_J


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

    @pytest.mark.parametrize("init", [[[0.5], [1.0]], [[0.0], [7.25]], [[1.0], [-1e-300]]],
                             ids=["first", "last", "ulps_off"])
    def test_finite_reference_init_off_the_atoms_raises(self, init):
        # a finite reference has no log-density to refuse it: (0.5, 7.25) on
        # the atoms {0, 1} ran, and every rejected move kept 0.5
        pair = PotentialPair(v_quadratic, w_zero, dim=1, symmetric=True)
        ref = ReferenceMeasure.finite([[0.0], [1.0]])
        cfg = SamplerConfig(n=2, beta_n=200.0, burn_in=0, seed=0, init=ParticleConfig(init))
        match = "^user initial configuration has infinite energy or lies outside"
        with pytest.raises(SamplerError, match=match):
            mh_sample(pair, ref, cfg, samples=3)
        with pytest.raises(SamplerError, match=match):
            mh_sample_chains(pair, ref, cfg, samples=3, chains=2)
        # -0.0 is the atom 0.0, also on a cloud that repeats its atoms
        on = replace(cfg, init=ParticleConfig([[-0.0], [1.0]]))
        for cloud in (ref, ReferenceMeasure.finite([[1.0], [0.0], [1.0]])):
            kept, _ = mh_sample(pair, cloud, on, samples=3)
            assert all(set(k.points.ravel().tolist()) <= {0.0, 1.0} for k in kept)

    @pytest.mark.parametrize("points", [[[0.0], [0.5], [-0.5]], [[0.0, 0.0], [0.5, 0.5]]],
                             ids=["d1_on_2d", "wrong_n"])
    def test_init_of_another_shape_refused(self, points):
        # a 1-D init on [-1, 1]^2 ran with every start point (x, x) on the
        # diagonal; a wrong n failed in numpy's broadcast
        pair = PotentialPair(v_quadratic, w_zero, dim=2, symmetric=True)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)] * 2)
        init = ParticleConfig(points)
        cfg = SamplerConfig(n=3, beta_n=1.0, seed=0, init=init)
        match = (rf"init holds {init.n} points in d = {init.dim}, but the chains need "
                 r"n = 3 points in d = 2")
        with pytest.raises(ValueError, match=match):
            mh_sample(pair, ref, cfg, samples=1)
        with pytest.raises(ValueError, match=match):
            mh_sample_chains(pair, ref, cfg, samples=1, chains=2)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=1, beta_n=1.0, sigma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["beta_n", "sigma"])
    def test_beta_n_and_sigma_must_lie_in_zero_inf(self, name, value):
        # with no check, beta_n = nan rejected every move and raised nothing
        with pytest.raises(ValueError, match=rf"{name} must lie in \(0, inf\)"):
            SamplerConfig(**{"n": 1, "beta_n": 1.0, name: value})

    def test_zero_thinning_raises(self):
        with pytest.raises(ValueError, match="thinning"):
            SamplerConfig(n=1, beta_n=1.0, thinning=0)

    @pytest.mark.parametrize("name, value", [
        ("n", 0), ("n", -1), ("n", 2.5), ("n", True), ("n", "3"),
        ("burn_in", -1), ("burn_in", 2.5), ("burn_in", False),
        ("thinning", 0), ("thinning", 1.5), ("thinning", True)])
    def test_counts_must_be_integers(self, name, value):
        # n = 2.5 passed a plain n < 1 check and failed later in numpy
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= [01], got"):
            SamplerConfig(**{"n": 1, "beta_n": 1.0, name: value})

    @pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
    def test_mh_sample_refuses_a_bad_sample_count(self, value):
        # samples = -1 and samples = True failed in numpy with unrelated messages
        pair, ref, cfg = reference_case("finite")
        with pytest.raises(ValueError, match="samples must be an integer >= 0, got"):
            mh_sample(pair, ref, cfg, samples=value)

    @pytest.mark.parametrize("name, value", [
        ("samples", -1), ("samples", True), ("samples", 2.5),
        ("chains", 0), ("chains", -2), ("chains", True), ("chains", 1.5)])
    def test_mh_sample_chains_refuses_bad_counts(self, name, value):
        # chains = 0 and -2 failed inside numpy, and chains = True ran one chain
        pair, ref, cfg = reference_case("finite")
        least = 0 if name == "samples" else 1
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= {least}, got"):
            mh_sample_chains(pair, ref, cfg, **{"samples": 2, "chains": 2, name: value})

    def test_the_lower_triangle_is_kept_for_one_size(self):
        sampler._strictly_lower(3)
        mask = sampler._strictly_lower(5)
        assert sampler._strictly_lower.cache_info().currsize == 1
        assert sampler._strictly_lower(5) is mask
        np.testing.assert_array_equal(mask, np.tri(5, k=-1))

    def test_numpy_integers_are_read_as_ints(self):
        cfg = SamplerConfig(n=np.int64(3), beta_n=1.0, burn_in=np.int32(2), thinning=np.uint8(1))
        assert (cfg.n, cfg.burn_in, cfg.thinning) == (3, 2, 1)
        assert all(type(v) is int for v in (cfg.n, cfg.burn_in, cfg.thinning))

    @pytest.mark.parametrize("case", ["density", "finite"])
    def test_pair_of_another_dimension_refused(self, case):
        # a d = 1 Coulomb pair on a 2-D reference read only the first coordinate
        _, ref, cfg = reference_case(case)
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        match = "declared for d = 1, but the reference is in d = 2"
        with pytest.raises(ValueError, match=match):
            mh_sample(pair, ref, cfg, samples=2)
        with pytest.raises(ValueError, match=match):
            mh_sample_chains(pair, ref, cfg, samples=2, chains=2)

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

    @pytest.mark.parametrize("m, n", [(3, 4), (10, 3)])
    def test_index_tuples_in_unravel_order(self, m, n):
        ell = ReferenceMeasure.finite(np.arange(m, dtype=float)[:, None])
        pair = PotentialPair(v_zero, w_zero, dim=1)
        digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=1.0)
        expected = np.stack(np.unravel_index(np.arange(m**n), (m,) * n), axis=1)
        assert digits.dtype == np.min_scalar_type(m - 1)
        np.testing.assert_array_equal(digits, expected)
        # a transposed view: each slot's column is contiguous
        assert digits.flags.f_contiguous and digits.shape == (m**n, n)
        np.testing.assert_allclose(probs, np.full(m**n, 1.0 / m**n), rtol=1e-12)

    def test_budget_guard(self, monkeypatch):
        # the tuple law's budget is on m^n: 10^9 is over ENUM_BUDGET
        atoms = np.array([[float(i)] for i in range(10)])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_zero, w_zero, dim=1)
        with pytest.raises(BudgetExceededError, match="10\\^9 configurations exceeds budget"):
            exact_gibbs_law(pair, ell, n=9, beta_n=1.0)
        monkeypatch.setattr(sampler, "ENUM_BUDGET", 1000)
        assert len(exact_gibbs_law(pair, ell, n=3, beta_n=1.0)[1]) == 1000
        with pytest.raises(BudgetExceededError, match="exceeds budget 1000"):
            exact_gibbs_law(pair, ell, n=4, beta_n=1.0)

    def test_tuple_law_bounds_its_count_array(self, monkeypatch):
        # the tuple law reads the count law, whose C(n + m - 1, n) m entries
        # may reach n ENUM_BUDGET, the bound of its n m^n index entries: at
        # budget 1000, n = 2 on 15 atoms has 1800 of them and 16 atoms 2176,
        # though 256 tuples; one particle needs no count array
        monkeypatch.setattr(sampler, "ENUM_BUDGET", 1000)
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        line = lambda m: ReferenceMeasure.finite(np.linspace(-1.0, 1.0, m)[:, None])
        assert len(exact_gibbs_law(pair, line(15), n=2, beta_n=2.0)[1]) == 225
        with pytest.raises(BudgetExceededError, match="count law of 2176 entries"):
            exact_gibbs_law(pair, line(16), n=2, beta_n=2.0)
        assert len(exact_gibbs_law(pair, line(1000), n=1, beta_n=1.0)[1]) == 1000

    def test_count_budget_guard(self, monkeypatch):
        # n = 9 on 10 atoms: C(18, 9) = 48620 compositions, 486200 count entries
        atoms = np.array([[float(i)] for i in range(10)])
        ell = ReferenceMeasure.finite(atoms)
        pair = PotentialPair(v_zero, w_zero, dim=1)
        monkeypatch.setattr(sampler, "ENUM_BUDGET", 486200)
        counts, _ = exact_count_law(pair, ell, n=9, beta_n=1.0)
        assert counts.shape == (48620, 10)
        monkeypatch.setattr(sampler, "ENUM_BUDGET", 486199)
        with pytest.raises(BudgetExceededError):
            exact_count_law(pair, ell, n=9, beta_n=1.0)
        with pytest.raises(BudgetExceededError):
            exact_sample_finite(pair, ell, n=9, beta_n=1.0, seed=0, samples=1)

    def test_pair_of_another_dimension_refused(self):
        # a d = 1 Coulomb pair read only the first coordinate of 2-D atoms
        ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        match = "declared for d = 1, but the reference is in d = 2"
        with pytest.raises(ValueError, match=match):
            exact_gibbs_law(pair, ell, n=2, beta_n=2.0)
        with pytest.raises(ValueError, match=match):
            exact_count_law(pair, ell, n=2, beta_n=2.0)
        with pytest.raises(ValueError, match=match):
            exact_sample_finite(pair, ell, n=2, beta_n=2.0, seed=0, samples=1)

    def test_all_infinite_rejected(self):
        atoms = np.array([[0.0]])
        ell = ReferenceMeasure.finite(atoms)
        v_bad = lambda x: np.full(np.asarray(x).shape[:-1], np.inf)
        pair = PotentialPair(v_bad, w_zero, dim=1)
        with pytest.raises(SamplerError):
            exact_sample_finite(pair, ell, n=1, beta_n=1.0, seed=0, samples=1)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_beta_rejected(self, beta):
        ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pair = PotentialPair(v_zero, coulomb_kernel(2), dim=2, symmetric=True)
        with pytest.raises(ValueError):
            exact_gibbs_law(pair, ell, n=2, beta_n=beta)
        with pytest.raises(ValueError):
            exact_sample_finite(pair, ell, n=2, beta_n=beta, seed=0, samples=1)

    @pytest.mark.parametrize("n", [0, -1, True, 2.5])
    @pytest.mark.parametrize("law", ["tuple", "count", "draws"])
    def test_particle_count_must_be_an_integer_of_at_least_one(self, law, n):
        # n = 0 divided by zero and drew from NaN probabilities, n = -1 failed
        # in a reshape and n = True in a broadcast
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0]])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        call = {"tuple": exact_gibbs_law, "count": exact_count_law,
                "draws": lambda *a, **k: exact_sample_finite(*a, **k, seed=0, samples=3)}[law]
        with pytest.raises(ValueError, match="n must be an integer >= 1, got"):
            call(pair, ell, n=n, beta_n=1.0)

    @pytest.mark.parametrize("value", [-1, 2.5, True])
    def test_exact_sample_finite_refuses_a_bad_sample_count(self, value):
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0]])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        with pytest.raises(ValueError, match="samples must be an integer >= 0, got"):
            exact_sample_finite(pair, ell, n=2, beta_n=1.0, seed=0, samples=value)
        assert exact_sample_finite(pair, ell, n=2, beta_n=1.0, seed=0, samples=0) == []

    def test_numpy_integer_particle_count(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0]], [1.0, 2.0, 0.5])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        for law in (exact_gibbs_law, exact_count_law):
            table, probs = law(pair, ell, n=np.int64(3), beta_n=3.0)
            expected_table, expected = law(pair, ell, n=3, beta_n=3.0)
            assert table is expected_table
            assert probs.tobytes() == expected.tobytes()
        draws = exact_sample_finite(pair, ell, n=np.int64(3), beta_n=3.0, seed=4, samples=5)
        again = exact_sample_finite(pair, ell, n=3, beta_n=3.0, seed=4, samples=5)
        assert [c.points.tobytes() for c in draws] == [c.points.tobytes() for c in again]

    def test_tuples_and_counts_are_shared_read_only(self, monkeypatch):
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0]])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        digits, _ = exact_gibbs_law(pair, ell, n=2, beta_n=1.0)
        counts, _ = exact_count_law(pair, ell, n=2, beta_n=1.0)
        tables = sampler._tuple_tables(2, 3)
        assert tables[0] is digits
        for table in (counts,) + tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
        assert exact_gibbs_law(pair, ell, n=2, beta_n=2.0)[0] is digits
        assert exact_count_law(pair, ell, n=2, beta_n=2.0)[0] is counts
        assert all(a is b for a, b in zip(sampler._tuple_tables(2, 3), tables))
        # another (n, m) replaces the one cached entry; earlier results stay as they were
        kept = [table.copy() for table in (counts,) + tables]
        digits3, _ = exact_gibbs_law(pair, ell, n=3, beta_n=1.0)
        counts3, _ = exact_count_law(pair, ell, n=3, beta_n=1.0)
        assert sampler._tuple_tables.cache_info().currsize == 1
        assert sampler._compositions.cache_info().currsize == 1
        for table, copy in zip((counts,) + tables, kept):
            np.testing.assert_array_equal(table, copy)
        assert digits3.shape == (27, 3) and counts3.shape == (10, 3)
        assert sampler._tuple_tables(3, 3)[0] is digits3
        assert exact_gibbs_law(pair, ell, n=2, beta_n=1.0)[0] is not digits
        # with the n = 3 tables cached, the budget is still checked first:
        # 27 tuples and 30 count entries
        monkeypatch.setattr(sampler, "ENUM_BUDGET", 26)
        with pytest.raises(BudgetExceededError):
            exact_gibbs_law(pair, ell, n=3, beta_n=1.0)
        with pytest.raises(BudgetExceededError):
            exact_count_law(pair, ell, n=3, beta_n=1.0)

    @pytest.mark.parametrize("m, n", [(3, 4), (10, 3), (1, 5), (4, 1)])
    def test_labels_are_the_compositions_of_the_prefixes(self, m, n):
        # label, rows and multinomial of _tuple_tables against counts taken
        # tuple by tuple: row r of compositions_array(n - 1, m) for the first
        # n - 1 slots, its row plus the last atom in compositions_array(n, m),
        # and each composition's number of n-tuples
        digits, label, rows, multinomial = sampler._tuple_tables(n, m)
        prefix_counts = compositions_array(n - 1, m)
        counts = compositions_array(n, m)
        tuples = np.indices((m,) * n).reshape(n, -1).T
        tally = np.stack([(tuples == a).sum(axis=1) for a in range(m)], axis=1)
        np.testing.assert_array_equal(digits, tuples)
        prefixes = tally[::m] - np.eye(m, dtype=np.int64)[0]
        np.testing.assert_array_equal(prefix_counts[label], prefixes)
        added = prefix_counts[:, None, :] + np.eye(m, dtype=np.int64)
        np.testing.assert_array_equal(counts[rows], added)
        orderings = [math.factorial(n) // math.prod(math.factorial(h) for h in c)
                     for c in counts.tolist()]
        np.testing.assert_array_equal(multinomial, orderings)
        assert label.dtype == np.min_scalar_type(len(prefix_counts) - 1)
        assert rows.dtype == np.min_scalar_type(len(counts) - 1)

    def test_law_takes_one_block_besides_the_tuples(self):
        # 10^6 tuples on cold caches: besides the n m^n bytes of tuples the
        # traced peak is one m^n block of floats, the law returned, while the
        # labels (2 bytes per 5-tuple), the composition rows, the count law and
        # the row gather take under 1 MiB
        m, n = 10, 6
        rng = np.random.default_rng(5)
        ell = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (m, 1)), rng.uniform(0.5, 1.5, m))
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        sampler._tuple_tables.cache_clear()
        sampler._compositions.cache_clear()
        tracemalloc.start()
        try:
            digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=float(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digits.nbytes == n * m**n and probs.nbytes == 8 * m**n
        assert sampler._tuple_tables(n, m)[1].nbytes == 2 * m**(n - 1)
        assert peak <= 8 * m**n + n * m**n + 2**20

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


def w_hard_core_coulomb(d, radius):
    """The d-dimensional Coulomb kernel, and +inf for points closer than radius."""
    coulomb = coulomb_kernel(d)

    def W(x, y):
        dist = np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)
        return np.where(dist < radius, np.inf, coulomb(x, y))

    return W


def draw_reference(seed, n, d, repeated, wall, hard_core, data):
    """(pair, reference): up to 5 atoms in d dimensions, one of them copied
    when repeated, at least n of them distinct, so the d = 2 Coulomb kernel,
    +inf on its diagonal, leaves some tuple finite.  A wall adds a sixth atom
    beyond x_0 = 1, where V is +inf, and a hard core makes W +inf below a
    drawn distance between two distinct atoms."""
    distinct = data.draw(st.integers(n, 5 - repeated), label="distinct")
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-1.0, 1.0, (distinct, d))
    if repeated:
        atoms = np.vstack([atoms, atoms[rng.integers(distinct)]])
    if wall:
        beyond = rng.uniform(-1.0, 1.0, d)
        beyond[0] += 2.0
        atoms = np.vstack([atoms, beyond])
    ell = ReferenceMeasure.finite(atoms, rng.uniform(0.5, 1.5, len(atoms)))
    V = v_wall_from(1.0) if wall else v_quadratic
    W = coulomb_kernel(d)
    gaps = np.linalg.norm(atoms[:, None] - atoms[None, :], axis=-1)
    if hard_core and gaps.max() > 0:
        radius = data.draw(st.sampled_from(sorted(set(gaps[gaps > 0]))), label="radius")
        W = w_hard_core_coulomb(d, radius)
    return PotentialPair(V, W, dim=d, symmetric=True), ell


def assert_log_ratios_equal(probs, expected):
    """probs > 0 exactly where expected > 0, and their logs equal up to a
    constant to 1e-12."""
    np.testing.assert_array_equal(probs == 0, expected == 0)
    live = np.flatnonzero(probs > 0)
    got, want = np.log(probs[live]), np.log(expected[live])
    top = np.argmax(want)
    np.testing.assert_allclose(got - got[top], want - want[top], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.sampled_from([1, 2]),
       speed=st.sampled_from(["n", "n^2"]), repeated=st.booleans(), wall=st.booleans(),
       hard_core=st.booleans(), data=st.data())
def test_tuple_law_matches_hamiltonian_and_count_law(seed, n, d, speed, repeated, wall,
                                                     hard_core, data):
    # both exact laws against the per-tuple enumeration of tests/_exact.py,
    # which shares none of their arithmetic: the tuple law to 1e-12 in log
    # ratios, and the count law, and the tuple law's count marginal, to
    # 1e-12 against the enumeration's count marginal.  When the references
    # leave no tuple finite, both laws must refuse
    pair, ell = draw_reference(seed, n, d, repeated, wall, hard_core, data)
    beta = float(n if speed == "n" else n * n)
    try:
        tuples, expected = tuple_law(pair, ell, n, beta)
    except EmptyLawError:
        for law in (exact_gibbs_law, exact_count_law):
            with pytest.raises(SamplerError, match="the Gibbs law is empty"):
                law(pair, ell, n=n, beta_n=beta)
        return
    digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
    np.testing.assert_array_equal(digits, tuples)
    assert_log_ratios_equal(probs, expected)

    counts, count_probs = exact_count_law(pair, ell, n=n, beta_n=beta)
    marginal = count_marginal(tuples, expected, counts)
    np.testing.assert_array_equal(count_probs == 0, marginal == 0)
    np.testing.assert_allclose(count_probs, marginal, rtol=0, atol=1e-12)
    np.testing.assert_allclose(count_marginal(digits, probs, counts), count_probs,
                               rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.sampled_from([1, 2]),
       speed=st.sampled_from(["n", "n^2"]), repeated=st.booleans(), wall=st.booleans(),
       hard_core=st.booleans(), asymmetric=st.booleans(), data=st.data())
def test_tuple_law_is_one_value_per_composition(seed, n, d, speed, repeated, wall, hard_core,
                                                asymmetric, data):
    # every ordering of a composition reads one float of the count law, so
    # tuples of one composition have bitwise equal probabilities; and the law
    # equals the per-tuple enumeration to 1e-12 in log ratios, on the
    # references above, also with W made asymmetric (and declared so)
    pair, ell = draw_reference(seed, n, d, repeated, wall, hard_core, data)
    if asymmetric:  # W(x, y) + 0.8 x_0 differs from W(y, x) off the diagonal
        W = pair.W
        pair = PotentialPair(pair.V, lambda x, y: W(x, y) + 0.8 * np.asarray(x)[..., 0], dim=d,
                             symmetric=False)
    beta = float(n if speed == "n" else n * n)
    try:
        tuples, expected = tuple_law(pair, ell, n, beta)
    except EmptyLawError:
        return
    digits, probs = exact_gibbs_law(pair, ell, n=n, beta_n=beta)
    # a tuple's composition, read as a base-(n + 1) number
    composition = sum((tuples == a).sum(axis=1) * (n + 1)**a for a in range(len(ell.atoms)))
    one = np.empty(composition.max() + 1)
    one[composition] = probs
    assert probs.tobytes() == one[composition].tobytes()
    assert_log_ratios_equal(probs, expected)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d, infinite_share", [(2, 1 - 210 / 5005), (1, 0.0)],
                         ids=["coulomb_d2", "all_finite"])
def test_normalized_law_equals_exponentiating_every_entry(monkeypatch, d, infinite_share):
    # the count laws of the exact_finite benchmark, 5005 compositions of 6 on
    # 10 atoms: in d = 2 every composition with two particles on one atom is
    # -inf, all but the C(10, 6) = 210 with counts <= 1, and exp(-inf) is 0
    # exactly; in d = 1 every entry is finite
    rng = np.random.default_rng(11)
    m, n = 10, 6
    ell = ReferenceMeasure.finite(rng.uniform(-1.0, 1.0, (m, d)), rng.uniform(0.5, 1.5, m))
    pair = PotentialPair(v_quadratic, coulomb_kernel(d), dim=d, symmetric=True)
    logs = []
    normalize = sampler._normalize_log
    monkeypatch.setattr(sampler, "_normalize_log",
                        lambda log_prob: logs.append(log_prob.copy()) or normalize(log_prob))
    _, probs = exact_count_law(pair, ell, n=n, beta_n=float(n))
    log_prob, = logs
    assert np.mean(log_prob == -np.inf) == pytest.approx(infinite_share, abs=1e-12)
    expected = np.exp(log_prob - log_prob.max())
    expected /= expected.sum()
    assert np.array_equal(probs, expected)


def reference_count_log_weights(pair, ell, n, beta_n):
    """The count law's log weights written out as energies: log multinomial(n; c)
    + c.log w - beta_n [(c.v) / n + (c^T S_off c + sum_a c_a (c_a - 1) S_aa)
    / (2 n^2)], S = (W + W^T) / 2, over a float copy of the counts, with
    separate +inf indicator sums for V, the off-diagonal S and the diagonal S."""
    m = len(ell.atoms)
    counts = compositions_array(n, m)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    c = counts.astype(float)
    occupied = (counts > 0).astype(float)
    v = evaluate_V(pair.V, ell.atoms)
    infinite = occupied @ (v == np.inf)
    energy = c @ np.where(v == np.inf, 0.0, v) / n
    if n > 1:
        Wmat = evaluate_W(pair.W, ell.atoms[:, None, :], ell.atoms[None, :, :])
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


def per_link_count_log_weights(pair, ell, n, beta_n):
    """``_count_log_weights``' log weights, its -inf links applied one pass
    over the counts per link, as they once were."""
    m = len(ell.atoms)
    counts = compositions_array(n, m)
    site, link = sampler._atom_terms(pair, ell, n, beta_n)
    h = np.arange(n + 1.0)[:, None]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])[:, None]
    table = np.multiply(h, site, out=np.zeros((n + 1, m)), where=h > 0) - log_fact
    table[2:] += h[2:] * (h[2:] - 1.0) / 2.0 * np.diag(link)
    log_weight = table[counts, np.arange(m)].sum(axis=1) + log_fact[n]
    off = np.where(np.eye(m, dtype=bool) | (link == -np.inf), 0.0, link)
    log_weight += 0.5 * np.einsum("ij,ij->i", counts @ off, counts)
    for a, b in np.argwhere(np.triu(link == -np.inf, 1)):
        log_weight[(counts[:, a] > 0) & (counts[:, b] > 0)] = -np.inf
    return log_weight


def count_law_case(case):
    """(pair, reference, n, beta_n): the three cases of the exact_finite
    benchmark, built as it builds them (10 atoms, n = 6), repeated atoms, a V
    wall, a hard-core W and a single particle."""
    rng = np.random.default_rng(17)
    line = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (10, 1)), rng.uniform(0.5, 1.5, 10))
    cloud = ReferenceMeasure.finite(rng.uniform(-1.0, 1.0, (10, 2)), rng.uniform(0.5, 1.5, 10))
    coulomb_1, coulomb_2 = (PotentialPair(v_quadratic, coulomb_kernel(d), dim=d, symmetric=True)
                            for d in (1, 2))
    if case == "repeated_atoms":
        # atoms 0 and 1 of the cloud twice each: occupying a copy and its atom costs +inf
        ell = ReferenceMeasure.finite(np.vstack([cloud.atoms, cloud.atoms[:2]]),
                                      rng.uniform(0.5, 1.5, 12))
        return coulomb_2, ell, 4, 4.0
    return {"d1_speed_n": (coulomb_1, line, 6, 6.0),
            "d1_speed_n2": (coulomb_1, line, 6, 36.0),
            "d2_coulomb": (coulomb_2, cloud, 6, 6.0),
            "v_wall": (PotentialPair(v_wall_from(0.5), coulomb_kernel(1), dim=1, symmetric=True),
                       line, 5, 25.0),
            "hard_core": (PotentialPair(v_quadratic, w_hard_core_coulomb(2, 0.6), dim=2,
                                        symmetric=True), cloud, 3, 3.0),
            "n1": (coulomb_2, cloud, 1, 1.0)}[case]


class TestCountLaw:
    @pytest.mark.parametrize("case", ["d1_speed_n", "d1_speed_n2", "d2_coulomb", "repeated_atoms",
                                      "v_wall", "hard_core", "n1"])
    def test_log_weights_equal_the_energy_formula(self, case):
        # the per-atom table against energies with separate +inf indicator sums
        pair, ell, n, beta = count_law_case(case)
        counts, log_weight = _count_log_weights(pair, ell, n, beta)
        expected_counts, expected = reference_count_log_weights(pair, ell, n, beta)
        np.testing.assert_array_equal(counts, expected_counts)
        live = np.isfinite(expected)
        np.testing.assert_array_equal(np.isfinite(log_weight), live)
        assert np.all(log_weight[~live] == -np.inf)
        assert 0 < live.sum() and (case in ("d1_speed_n", "d1_speed_n2", "n1")) == live.all()
        err = np.abs(log_weight[live] - expected[live])
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(expected[live])))

    @pytest.mark.parametrize("radius", [10.0, 0.2], ids=["all_pairs", "few_pairs"])
    def test_hard_core_links_equal_the_per_link_loop(self, radius):
        # the -inf links, applied in one pass per atom, against the loop that
        # made one pass over the counts per link; W is finite on the diagonal,
        # so compositions with repeated atoms keep finite weights
        rng = np.random.default_rng(5)
        line = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (10, 1)), rng.uniform(0.5, 1.5, 10))
        coulomb = coulomb_kernel(1)

        def W(x, y):
            dist = np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])
            return np.where((dist > 0) & (dist < radius), np.inf, coulomb(x, y))

        pair = PotentialPair(v_quadratic, W, dim=1, symmetric=True)
        n, beta = 6, 6.0
        link = sampler._atom_terms(pair, line, n, beta)[1]
        hard = np.argwhere(np.triu(link == -np.inf, 1))
        assert len(hard) == 45 if radius == 10.0 else 2 <= len(hard) <= 6
        counts, log_weight = _count_log_weights(pair, line, n, beta)
        # a copy of the per-link loop, on the rest of the function as it stands
        expected = per_link_count_log_weights(pair, line, n, beta)
        np.testing.assert_array_equal(log_weight, expected)
        assert 0 < np.isfinite(log_weight).sum() < len(log_weight)

    def test_takes_at_most_two_and_a_half_count_arrays(self):
        # 293930 compositions of 12 on 10 atoms, cached: the energy formula over
        # a float copy of the counts peaked at 3.53 times the count array
        m, n = 10, 12
        rng = np.random.default_rng(2)
        ell = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (m, 1)), rng.uniform(0.5, 1.5, m))
        pair = PotentialPair(v_quadratic, coulomb_kernel(1), dim=1, symmetric=True)
        counts, _ = exact_count_law(pair, ell, n=n, beta_n=float(n))
        tracemalloc.start()
        try:
            exact_count_law(pair, ell, n=n, beta_n=float(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (math.comb(n + m - 1, n), m)
        assert peak <= 2.5 * counts.nbytes + 2**20

    @pytest.mark.parametrize("case", ["d1_speed_n", "d1_speed_n2", "coulomb_d2", "repeated_atom",
                                      "v_wall", "hard_core"])
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
        elif case == "repeated_atom":
            # atoms 0 and 2 coincide, so occupying both costs W(x, x) = +inf
            n, beta = 3, 3.0
            ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.3, 0.8]],
                                          [1.0, 2.0, 0.5, 1.5])
            pair = PotentialPair(v_quadratic, coulomb_kernel(2), dim=2, symmetric=True)
        elif case == "v_wall":
            # V is +inf on atoms 2 and 3; the d = 1 kernel is finite everywhere
            n, beta = 4, 4.0
            ell = ReferenceMeasure.finite([[-1.2], [-0.3], [0.8], [1.5]], [1.0, 2.0, 0.5, 1.5])
            pair = PotentialPair(v_wall_from(0.5), coulomb_kernel(1), dim=1, symmetric=True)
        else:
            # W is +inf between two particles on one atom and between atoms 0
            # and 1, 0.3 apart
            n, beta = 3, 3.0
            ell = ReferenceMeasure.finite([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0], [0.2, 0.9],
                                           [-0.8, 0.5]], [1.0, 2.0, 0.5, 1.5, 0.8])
            pair = PotentialPair(v_quadratic, w_hard_core_coulomb(2, 0.5), dim=2, symmetric=True)
        # against the per-tuple enumeration of tests/_exact.py
        counts, probs = exact_count_law(pair, ell, n=n, beta_n=beta)
        tuples, tuple_probs = tuple_law(pair, ell, n, beta)
        assert counts.shape == (math.comb(n + len(ell.atoms) - 1, n), len(ell.atoms))
        np.testing.assert_array_equal(counts.sum(axis=1), n)
        np.testing.assert_allclose(probs, count_marginal(tuples, tuple_probs, counts),
                                   rtol=0, atol=1e-14)
        if case == "coulomb_d2":
            np.testing.assert_array_equal(probs == 0, counts.max(axis=1) >= 2)
        elif case == "repeated_atom":
            dead = (counts.max(axis=1) >= 2) | ((counts[:, 0] > 0) & (counts[:, 2] > 0))
            np.testing.assert_array_equal(probs == 0, dead)
        elif case == "v_wall":
            np.testing.assert_array_equal(probs == 0, counts[:, 2:].sum(axis=1) > 0)
        elif case == "hard_core":
            dead = (counts.max(axis=1) >= 2) | ((counts[:, 0] > 0) & (counts[:, 1] > 0))
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

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
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
            counts, log_weight = _count_log_weights(pair, ell, n, beta)
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


def w_minus_distance(x, y):
    """-|x - y| in d = 1, the 1-D Coulomb interaction."""
    return -np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])


class TestLaplacePrincipleOnCountLaw:
    """The paper's Laplace principle, exactly at finite n on a finite reference.

    Lambda_n(g) = (1/beta_n) log E exp(beta_n g . L_n) is a logsumexp of the
    count law's log weights.  Its limit is -(inf(I - g) - inf I) at
    beta_n = n and -(inf(J - g) - inf J) at beta_n = n^2 (and any faster
    speed), from ``minimize_I`` and ``minimize_J`` with tilt -g on the atoms.
    The gaps Lambda_n - limit measured at n = 25, 100, 400 and 1600 are
    -0.067 / n at beta_n = n and -0.63 / n to -0.55 / n at beta_n = n^2.
    """

    atoms = np.array([[-1.0], [0.0], [0.7]])
    weights = np.array([1.0, 2.0, 0.5])
    g = np.array([1.0, -0.5, 0.3])

    @pytest.mark.parametrize("rate, scale", [("I", 0.08), ("J", 0.7)], ids=["I", "J"])
    def test_gaps_fall_like_one_over_n(self, rate, scale):
        ell = ReferenceMeasure.finite(self.atoms, self.weights)
        pair = PotentialPair(v_quadratic, w_minus_distance, dim=1, symmetric=True)
        grid = GridSpec.from_points(self.atoms)
        solve = ((lambda tilt: minimize_I(pair, ell, grid, tilt=tilt)) if rate == "I"
                 else (lambda tilt: minimize_J(pair, grid, tilt=tilt)))
        untilted, tilted = solve(None), solve(-self.g)
        assert untilted.converged and tilted.converged
        limit = untilted.value - tilted.value
        assert limit == pytest.approx(0.0981833 if rate == "I" else 0.3195588, abs=1e-7)

        def logsumexp(x):
            top = x.max()
            return top + math.log(np.exp(x - top).sum())

        gaps = []
        for n in (25, 100, 400):
            beta = float(n if rate == "I" else n * n)
            counts, log_weight = _count_log_weights(pair, ell, n, beta)
            tilt = beta * (counts @ self.g) / n
            laplace = (logsumexp(log_weight + tilt) - logsumexp(log_weight)) / beta
            gaps.append(laplace - limit)
            assert -scale / n <= gaps[-1] < 0.0
        assert all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))


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

    @pytest.mark.parametrize("name, value", [
        ("samples", -1), ("samples", True), ("samples", 2.5),
        ("n", 0), ("n", -1), ("n", True), ("n", 2.5)])
    def test_refuses_bad_counts(self, name, value):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        least = 0 if name == "samples" else 1
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= {least}, got"):
            iid_sample(mu, seed=0, **{"n": 3, "samples": 2, name: value})
        assert iid_sample(mu, n=3, seed=0, samples=0) == []

    def test_seed_reproducibility(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        a = iid_sample(mu, n=4, seed=9, samples=10)
        b = iid_sample(mu, n=4, seed=9, samples=10)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)


def test_a_seed_sequence_seeds_every_sampler_as_its_int():
    # exact_sample_finite and iid_sample wrapped their seed in SeedSequence
    # again, which refuses a SeedSequence; mh_sample took one already
    ell = ReferenceMeasure.finite([[0.0], [1.0], [2.5]], [1.0, 2.0, 0.5])
    pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
    mu = DiscreteMeasure([[0.0], [1.0], [3.0]], [0.2, 0.5, 0.3])
    cfg = SamplerConfig(n=3, beta_n=3.0, burn_in=5)
    draws = {
        "exact": lambda seed: exact_sample_finite(pair, ell, n=3, beta_n=3.0, seed=seed,
                                                  samples=20),
        "iid": lambda seed: iid_sample(mu, n=4, seed=seed, samples=20),
        "mh": lambda seed: mh_sample(pair, ell, replace(cfg, seed=seed), samples=20)[0],
    }
    for draw in draws.values():
        expected = [c.points.tobytes() for c in draw(7)]
        assert [c.points.tobytes() for c in draw(np.random.SeedSequence(7))] == expected


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
        digits, pi = tuple_law(pair, ell, n, beta)
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
        digits, probs = tuple_law(pair, ell, 2, 2.0)
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

    def test_ess_is_unchanged_by_shifts_and_scales(self):
        # autocorrelations do not see x -> a + b x; a tolerance test for a
        # constant trace took 1000 + 1e-3 x, 1e-9 x and 1e6 + x for constant
        # and returned N = 400 for them, against 16.56 for x
        rng = np.random.default_rng(7)
        x = np.empty(400)
        x[0] = rng.standard_normal()
        for t in range(1, len(x)):
            x[t] = 0.95 * x[t - 1] + rng.standard_normal()
        ess = effective_sample_size(x)
        assert 10.0 < ess < 25.0
        for a, b in [(0.0, 1e-3), (1000.0, 1e-3), (0.0, 1e-9), (1e6, 1.0), (-3.5, 2.0),
                     (0.0, -1.0), (5.0, 1e-6)]:
            assert effective_sample_size(a + b * x) == pytest.approx(ess, rel=1e-9, abs=0)
        assert effective_sample_size(np.full(400, 1e6)) == 400.0


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


class TestWUndefinedOnTheDiagonal:
    """W = |x - y|^2 log |x - y| is NaN at x = y; the chain never evaluates it
    there, and neither does ``hamiltonian`` of its kept states."""

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trace_is_the_hamiltonian_of_the_kept_states(self, symmetric):
        pair = PotentialPair(v_quadratic, w_nan_on_diagonal, dim=2, symmetric=symmetric)
        ref = ReferenceMeasure.lebesgue_box([(-1.0, 1.0), (-1.0, 1.0)])
        cfg = SamplerConfig(n=6, beta_n=6.0, sigma=0.3, burn_in=5, seed=4)
        kept, diags = mh_sample_chains(pair, ref, cfg, samples=15, chains=2)
        traces = np.concatenate([d.energy_trace for d in diags])
        assert all(d.mean_acceptance > 0 for d in diags)
        for config, traced in zip(kept, traces):
            assert hamiltonian(config, pair) == pytest.approx(traced, abs=1e-9)


class TestSweepCount:
    """A run makes burn_in + (samples - 1) * thinning + 1 sweeps and keeps the
    state after sweeps burn_in, burn_in + thinning, ..."""

    @pytest.mark.parametrize("burn_in, thinning, samples", [(0, 1, 1), (3, 2, 5), (10, 3, 4)])
    @pytest.mark.parametrize("case", ["density", "finite"])
    def test_diagnostics_per_sweep_and_kept_states(self, case, burn_in, thinning, samples):
        pair, ref, cfg = reference_case(case)
        kept, diag = mh_sample(pair, ref, replace(cfg, burn_in=burn_in, thinning=thinning),
                               samples)
        sweeps = burn_in + (samples - 1) * thinning + 1
        for name in ("acceptance_rate", "rejected_infinite", "rejected_metropolis", "passes"):
            assert getattr(diag, name).shape == (sweeps,)
        assert len(kept) == len(diag.energy_trace) == samples
        # the same stream, every sweep kept
        every, every_diag = mh_sample(pair, ref, cfg, sweeps)
        picks = list(range(burn_in, sweeps, thinning))
        assert np.array([k.points for k in kept]).tobytes() == \
            np.array([every[i].points for i in picks]).tobytes()
        np.testing.assert_array_equal(diag.energy_trace, every_diag.energy_trace[picks])
        np.testing.assert_array_equal(diag.passes, every_diag.passes)

    @pytest.mark.parametrize("chains", [1, 3])
    def test_zero_samples_runs_no_sweep(self, chains):
        pair, ref, cfg = reference_case("density")
        counter = CountingW(pair.W, refuse_identical=True)
        counted = PotentialPair(pair.V, counter, dim=2, symmetric=True)
        kept, diags = mh_sample_chains(counted, ref, replace(cfg, burn_in=10), samples=0,
                                       chains=chains)
        # one call, for the starts' interaction matrices; a sweep makes two
        assert kept == [] and counter.calls == 1
        for diag in diags:
            for name in ("acceptance_rate", "energy_trace", "rejected_infinite",
                         "rejected_metropolis", "passes"):
                assert getattr(diag, name).shape == (0,)
            assert diag.ess == 0.0

    def test_finite_start_is_numpys_choice(self):
        # the start inverts the kernel's cdf at n uniforms, as Generator.choice
        # does with probabilities p, so the draws are choice's
        ref = ReferenceMeasure.finite(np.arange(7.0)[:, None], [0.3, 2.0, 1.0, 0.1, 1.7, 0.9, 3.0])
        pair = PotentialPair(v_zero, w_zero, dim=1, symmetric=True)
        n = 40
        cfg = SamplerConfig(n=n, beta_n=1.0)
        cdf = np.cumsum(ref.weights)
        cdf /= cdf[-1]
        probs = ref.weights / ref.weights.sum()
        for seed in range(200):
            pts = _draw_starts(pair, ref, cfg, [np.random.default_rng(seed)], cdf)[0]
            picks = np.random.default_rng(seed).choice(7, size=n, p=probs)
            np.testing.assert_array_equal(pts[0, :, 0], ref.atoms[picks, 0])


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
    def test_keys_are_the_fields(self, chains):
        pair, ref, cfg = reference_case("finite")
        _, diags = mh_sample_chains(pair, ref, cfg, samples=3, chains=chains)
        for diag in diags:
            assert set(json.loads(diag.to_json())) == {f.name for f in fields(ChainDiagnostics)}

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
