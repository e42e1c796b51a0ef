import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gibbslab import measures
from gibbslab.measures import (
    DiscreteMeasure,
    ParticleConfig,
    ReferenceMeasure,
    WeightFunction,
    _merge_atoms,
    _union_support,
    d_bl,
    d_psi,
    empirical_measure,
    product_measure,
    psi_integral,
    tail_psi_mass,
    wasserstein_lp,
    wasserstein_p,
)


def bruteforce_d_bl_two_points(dist, grid=2001):
    """Independent oracle: scan f-values on a 2-point support."""
    f = np.linspace(-0.5, 0.5, grid)
    f0, f1 = np.meshgrid(f, f, indexing="ij")
    feasible = np.abs(f0 - f1) <= dist + 1e-12
    obj = np.abs(f0 - f1)
    return obj[feasible].max()


def all_pairs_d_bl(mu, nu):
    """Independent oracle: the primal LP over the atoms of mu and nu, unmerged,
    with two Lipschitz rows for every pair u < v and the box |f| <= 1/2."""
    pts = np.vstack([mu.atoms, nu.atoms])
    signed = np.concatenate([mu.weights, -nu.weights])
    k = len(pts)
    rows, rhs = [], []
    for u in range(k):
        for v in range(u + 1, k):
            for sign in (1.0, -1.0):
                row = np.zeros(k)
                row[u], row[v] = sign, -sign
                rows.append(row)
                rhs.append(np.linalg.norm(pts[u] - pts[v]))
    # without presolve, which accepts rows violated within 1e-7
    res = linprog(-signed, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(-0.5, 0.5),
                  method="highs", options={"presolve": False})
    assert res.success
    return -res.fun


def bruteforce_w1_2x2(xa, xb, wa, wb, p):
    """Independent oracle: scan the one-parameter family of 2x2 transport plans."""
    lo = max(0.0, wa[0] - wb[1])
    hi = min(wa[0], wb[0])
    best = np.inf
    for t in np.linspace(lo, hi, 20001):
        plan = np.array([[t, wa[0] - t], [wb[0] - t, wa[1] - (wb[0] - t)]])
        cost = sum(
            plan[i, j] * abs(xa[i] - xb[j]) ** p for i in range(2) for j in range(2)
        )
        best = min(best, cost)
    return best


class TestDiscreteMeasure:
    def test_duplicate_merge(self):
        mu = DiscreteMeasure([[0.0], [1.0], [1.0]], [1 / 3, 1 / 3, 1 / 3])
        assert mu.support_size == 2
        np.testing.assert_allclose(mu.weights, [1 / 3, 2 / 3])

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [0.6, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [1.2, -0.2])

    def test_tiny_weights_dropped_and_renormalized(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0 - 1e-16, 1e-16])
        assert mu.support_size == 1
        assert mu.weights[0] == 1.0

    def test_merge_in_two_dimensions(self):
        # ties in the first coordinate, and ten copies of (0, 0): from nine
        # copies on, a pairwise sum can differ from the sequential one
        distinct = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, -1.0], [0.0, 0.0], [-0.5, 2.0]])
        copies = np.array([1, 2, 3, 10, 1])
        rng = np.random.default_rng(9)
        which = rng.permutation(np.repeat(np.arange(len(distinct)), copies))
        weights = rng.uniform(0.5, 1.5, len(which))
        weights /= math.fsum(weights)
        atoms, sums = _merge_atoms(distinct[which], weights)

        order = [4, 3, 1, 2, 0]                        # lexicographic order of `distinct`
        np.testing.assert_array_equal(atoms, distinct[order])
        sequential = []
        for j in order:
            total = 0.0
            for w in weights[which == j]:
                total += w
            sequential.append(total)
        np.testing.assert_array_equal(sums, sequential)
        heavy = weights[which == 3]
        # the data tell the orders apart: exact and pairwise sums differ
        assert sequential[1] != math.fsum(heavy)
        assert sequential[1] != np.add.reduce(heavy)

        mu = DiscreteMeasure(distinct[which], weights)
        np.testing.assert_array_equal(mu.atoms, atoms)
        np.testing.assert_array_equal(mu.weights, sums / math.fsum(sums))

    def test_union_support_in_two_dimensions(self):
        mu = DiscreteMeasure([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]], [0.5, 0.25, 0.25])
        nu = DiscreteMeasure([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.5]],
                             [0.125, 0.375, 0.25, 0.25])
        pts, signed = _union_support(mu, nu)
        np.testing.assert_array_equal(
            pts, [[0.0, 1.0], [0.0, 1.5], [0.0, 2.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(signed, [0.125, -0.25, 0.25, 0.25, -0.375])
        assert math.fsum(signed) == 0.0

    def test_canonical_equality(self):
        a = DiscreteMeasure([[1.0], [0.0]], [0.25, 0.75])
        b = DiscreteMeasure([[0.0], [1.0], [1.0]], [0.75, 0.1, 0.15])
        assert a == b

    def test_json_roundtrip(self):
        mu = DiscreteMeasure([[0.0, 1.0], [2.0, -1.0]], [0.3, 0.7])
        back = DiscreteMeasure.from_json(mu.to_json())
        assert back == mu
        obj = json.loads(mu.to_json())
        assert set(obj) == {"dim", "atoms", "weights"}
        assert obj["dim"] == 2

    def test_csv_export(self, tmp_path):
        mu = DiscreteMeasure([[0.0, 1.0], [2.0, -1.0]], [0.3, 0.7])
        path = tmp_path / "mu.csv"
        mu.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_1,x_2,w"
        assert len(lines) == 3


class TestParticleConfigBlock:
    def test_rows_equal_the_constructor_and_are_read_only(self):
        block = np.array([[[-0.0, 1.0], [2.0, -3.5]], [[4.0, -0.0], [0.25, 7.0]]])
        configs = ParticleConfig._from_block(block.copy())
        assert len(configs) == 2
        for config, row in zip(configs, block):
            assert config.points.tobytes() == ParticleConfig(row).points.tobytes()
            assert not config.points.flags.writeable
        assert ParticleConfig._from_block(np.empty((0, 3, 2))) == []

    def test_non_finite_refused(self):
        with pytest.raises(ValueError, match="finite"):
            ParticleConfig._from_block(np.array([[[0.0], [np.inf]]]))


class TestEmpiricalMeasure:
    def test_duplicate_points_merge(self):
        mu = empirical_measure(ParticleConfig([[0.0], [1.0], [1.0]]))
        assert mu == DiscreteMeasure([[0.0], [1.0]], [1 / 3, 2 / 3])

    def test_single_point(self):
        mu = empirical_measure(ParticleConfig([[5.0]]))
        assert mu == DiscreteMeasure.dirac([5.0])

    def test_uniform_weights(self):
        mu = empirical_measure(ParticleConfig([[0.0], [1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(mu.weights, 0.25)


class TestBoundedLipschitz:
    def test_identical_measures(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0], [2.0]])
        assert d_bl(mu, mu) == 0.0

    def test_unit_gap(self):
        got = d_bl(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([1.0]))
        assert got == pytest.approx(bruteforce_d_bl_two_points(1.0), abs=1e-9)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_sup_norm_cap(self):
        got = d_bl(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([3.0]))
        assert got == pytest.approx(bruteforce_d_bl_two_points(3.0), abs=1e-9)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_small_separation_lipschitz_binds(self):
        got = d_bl(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.25]))
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            d_bl(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 0.0]))

    @pytest.mark.parametrize("d", [1, 2])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_w1_on_unit_diameter(self, d, data):
        # With diameter <= 1 a 1-Lipschitz f has range <= 1, so it shifts to
        # |f| <= 1/2 without changing its integral against mu - nu: d_bl = W1.
        coord = st.floats(0.0, 0.99 / math.sqrt(d))
        pool = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5))
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)
        mu, nu = (empirical_measure(ParticleConfig([pool[i] for i in data.draw(index)]))
                  for _ in range(2))
        assert abs(d_bl(mu, nu) - wasserstein_p(mu, nu, 1)) <= 1e-9

    def test_equals_w1_on_a_nearly_collinear_triple(self):
        # found by the test above: the transport LP solved with HiGHS's
        # presolve gave W1 = 0.06250000186 here, against d_bl = 0.06250000062
        pts = [(0.0, 0.0), (0.0, 0.5), (6.1e-5, 0.25)]
        mu = empirical_measure(ParticleConfig(pts))
        nu = empirical_measure(ParticleConfig([pts[0]] + pts))
        assert abs(wasserstein_lp(mu, nu, 1) - d_bl(mu, nu)) <= 1e-12

    def test_equals_w1_on_atoms_2_to_the_minus_24_apart(self):
        # found by test_equals_w1_on_unit_diameter: at HiGHS's default dual
        # feasibility tolerance, 1e-7, the transport LP took the plan that is
        # 2^-24 dearer in reduced cost and returned 1/4 + 2^-25
        eps = 2.0**-24
        mu = DiscreteMeasure.uniform([(0.0, eps), (0.0, 0.0)])
        nu = DiscreteMeasure.uniform([(0.0, eps), (0.5, 0.0)])
        assert wasserstein_p(mu, nu, 1) == 0.25
        assert d_bl(mu, nu) == 0.25

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_all_pairs_lp(self, d, data):
        # spreads well past 1, so some pairs keep a row and some do not; drawing
        # indices into a small pool repeats atoms within and across the measures
        coord = st.floats(-3.0, 3.0, allow_subnormal=False)
        pool = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6))
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)
        mu, nu = (empirical_measure(ParticleConfig([pool[i] for i in data.draw(index)]))
                  for _ in range(2))
        assert abs(d_bl(mu, nu) - all_pairs_d_bl(mu, nu)) <= 1e-9

    def test_no_close_pair_is_total_variation(self):
        # every pair of the union support is >= 1 apart, so no Lipschitz row is kept
        # (dyadic weights, so the total variation is exact in floating point)
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.25, 0.25])
        nu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0], [3.0, -2.0]], [0.125, 0.5, 0.375])
        pts, signed = _union_support(mu, nu)
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        assert gaps[np.triu_indices(len(pts), 1)].min() >= 1.0
        assert d_bl(mu, nu) == 0.5 * math.fsum(np.abs(signed)) == 0.875

    def test_single_close_pair(self):
        # a and b are 0.6 apart, c is >= 1 from both: maximize
        # 0.5 f_a - 0.2 f_b - 0.3 f_c with |f_a - f_b| <= 0.6, so f_a = 1/2,
        # f_b = -0.1, f_c = -1/2
        a, b, c = [0.0, 0.0, 0.0], [0.0, 0.36, 0.48], [1.0, 1.0, 1.0]
        mu = DiscreteMeasure([a, c], [0.5, 0.5])
        nu = DiscreteMeasure([b, c], [0.2, 0.8])
        assert d_bl(mu, nu) == pytest.approx(0.42, abs=1e-12)
        assert d_bl(nu, mu) == pytest.approx(0.42, abs=1e-12)

    def test_only_neighbours_close_on_the_line(self):
        # neighbours are 0.6 apart and every other pair >= 1.2: the zigzag
        # f = 1/2, -0.1, 1/2, -0.1 attains the bound (0.6 + 0.6) / 2
        mu = DiscreteMeasure([[0.0], [1.2]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.6], [1.8]], [0.5, 0.5])
        assert d_bl(mu, nu) == pytest.approx(0.6, abs=1e-12)
        assert d_bl(nu, mu) == pytest.approx(0.6, abs=1e-12)

    def test_gap_below_the_solver_feasibility_tolerance(self):
        # two atoms eps = 2^-24 apart, under HiGHS's 1e-7 feasibility tolerance.
        # f(0) = 1/2, f(1) = -1/2 and f(eps) = 1/2 - eps give 1/2 + eps / 2
        eps = 2.0**-24
        mu = DiscreteMeasure.dirac([0.0])
        nu = DiscreteMeasure.uniform([[1.0], [eps]])
        assert d_bl(mu, nu) == pytest.approx(0.5 + eps / 2, abs=1e-15)
        # d_bl is W_1 for the metric min(|x - y|, 1); delta_1 has one coupling
        # with nu, moving mass 1/3 from 1 to each of 0, 1/2 and eps, at cost
        # (1 + 1/2 + 1 - eps) / 3 = 5/6 - eps/3.  f = -1/2, -1/2 + eps, 0, 1/2
        # at 0, eps, 1/2, 1 attains it.  HiGHS returns f(eps) = -1/2, which
        # breaks the row between eps and 1/2 by eps, and so 5/6
        mu = DiscreteMeasure.dirac([1.0])
        nu = DiscreteMeasure.uniform([[0.0], [0.5], [eps]])
        got = d_bl(mu, nu)
        assert got == pytest.approx(0.5 + 1 / 3, abs=1e-15)  # HiGHS's answer
        assert 0.0 <= got - (5 / 6 - eps / 3) <= 1e-7

    def test_one_solve_without_presolve(self, monkeypatch):
        options = []
        real_milp = measures.milp

        def spy(*args, **kwargs):
            options.append(kwargs.get("options"))
            return real_milp(*args, **kwargs)

        monkeypatch.setattr(measures, "milp", spy)
        eps = 2.0**-24
        cases = [
            (DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.25])),
            (DiscreteMeasure.dirac([1.0]), DiscreteMeasure.uniform([[0.0], [0.5], [eps]])),
            (DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]),
             DiscreteMeasure([[0.0, 0.36], [1.0, 1.0]], [0.2, 0.8])),
            (DiscreteMeasure.dirac([0.0, 0.0]), DiscreteMeasure.dirac([3.0, 0.0])),
        ]
        for mu, nu in cases:
            options.clear()
            d_bl(mu, nu)
            assert options == [{"presolve": False}]


class TestDPsi:
    def test_zero_on_equal(self):
        mu = DiscreteMeasure.uniform([[0.0], [2.0]])
        assert d_psi(mu, mu, WeightFunction.norm_power(2)) == 0.0

    def test_component_sum(self):
        mu = DiscreteMeasure.dirac([0.0])
        nu = DiscreteMeasure.dirac([1.0])
        psi = WeightFunction.norm_power(2)
        assert d_psi(mu, nu, psi) == pytest.approx(d_bl(mu, nu) + 1.0, abs=1e-12)

    def test_constant_free(self):
        psi = WeightFunction(lambda x: 1.0 + np.linalg.norm(x, axis=-1), "1+|x|")
        mu = DiscreteMeasure.dirac([0.0])
        assert d_psi(mu, mu, psi) == 0.0

    def test_dominates_components(self):
        rng = np.random.default_rng(7)
        psi = WeightFunction.norm_power(1)
        for _ in range(20):
            mu = DiscreteMeasure.uniform(rng.normal(size=(4, 2)))
            nu = DiscreteMeasure.uniform(rng.normal(size=(5, 2)))
            val = d_psi(mu, nu, psi)
            assert val >= d_bl(mu, nu)
            assert val >= abs(psi_integral(mu, psi) - psi_integral(nu, psi))


class TestWasserstein:
    def test_single_coupling(self):
        got = wasserstein_p(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([1.0]), 2)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_equal(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure.uniform(rng.normal(size=(5, 1)))
        assert wasserstein_p(mu, mu, 1.5) == 0.0

    def test_half_mass_move(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        nu = DiscreteMeasure.uniform([[0.0], [2.0]])
        oracle = bruteforce_w1_2x2([0.0, 1.0], [0.0, 2.0], [0.5, 0.5], [0.5, 0.5], 1)
        got = wasserstein_p(mu, nu, 1)
        assert got == pytest.approx(0.5, abs=1e-9)
        assert got == pytest.approx(oracle, abs=1e-4)

    def test_quantile_matches_lp(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            mu = DiscreteMeasure(rng.normal(size=(5, 1)), _random_weights(rng, 5))
            nu = DiscreteMeasure(rng.normal(size=(5, 1)), _random_weights(rng, 5))
            for p in (1, 2):
                assert wasserstein_p(mu, nu, p) == pytest.approx(
                    wasserstein_lp(mu, nu, p), abs=1e-9
                )

    def test_quantile_matches_level_loop(self):
        def level_loop(mu, nu, p):
            ca, cb = np.cumsum(mu.weights), np.cumsum(nu.weights)
            prev, terms = 0.0, []
            for lv in np.union1d(ca, cb):
                if lv > 1.0 + 1e-15:
                    break
                mid = 0.5 * (prev + lv)
                qa = mu.atoms[min(np.searchsorted(ca, mid), mu.support_size - 1), 0]
                qb = nu.atoms[min(np.searchsorted(cb, mid), nu.support_size - 1), 0]
                terms.append((lv - prev) * abs(qa - qb) ** p)
                prev = lv
            return math.fsum(terms)

        rng = np.random.default_rng(12)
        for k in (1, 3, 8, 40):
            mu = DiscreteMeasure.uniform(rng.normal(size=(k, 1)))
            nu = DiscreteMeasure(rng.normal(size=(2 * k, 1)), _random_weights(rng, 2 * k))
            for p in (1, 1.5, 2, 3):
                # vectorised and scalar powers may round one ulp apart per term
                assert wasserstein_p(mu, nu, p) == pytest.approx(
                    level_loop(mu, nu, p), rel=4 * np.finfo(float).eps, abs=0.0)

    def test_p_below_one_rejected(self):
        mu = DiscreteMeasure.dirac([0.0])
        with pytest.raises(ValueError):
            wasserstein_p(mu, mu, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_p(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 1.0]), 2)


class TestPsiIntegrals:
    def test_dirac_at_origin(self):
        assert psi_integral(DiscreteMeasure.dirac([0.0]), WeightFunction.norm_power(2)) == 0.0

    def test_symmetric_pair(self):
        mu = DiscreteMeasure.uniform([[-1.0], [1.0]])
        assert psi_integral(mu, WeightFunction.norm_power(2)) == pytest.approx(1.0)

    def test_three_atoms(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0], [2.0]])
        assert psi_integral(mu, WeightFunction.norm_power(1)) == pytest.approx(1.0)

    def test_tail_beyond_support(self):
        mu = DiscreteMeasure.uniform([[0.0], [3.0]])
        psi = WeightFunction.norm_power(1)
        assert tail_psi_mass(mu, psi, 10.0) == 0.0
        assert tail_psi_mass(mu, psi, 1.0) == pytest.approx(1.5)
        assert tail_psi_mass(mu, psi, 0.0) == pytest.approx(psi_integral(mu, psi))


class TestMetricAxioms:
    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(5)
        psi = WeightFunction.norm_power(2)
        for _ in range(10):
            mus = [DiscreteMeasure(rng.normal(size=(5, 1)), _random_weights(rng, 5))
                   for _ in range(3)]
            for dist in (
                d_bl,
                lambda a, b: d_psi(a, b, psi),
                lambda a, b: wasserstein_p(a, b, 1),
            ):
                dab = dist(mus[0], mus[1])
                dba = dist(mus[1], mus[0])
                dac = dist(mus[0], mus[2])
                dcb = dist(mus[2], mus[1])
                assert dab >= 0
                assert dab == pytest.approx(dba, abs=1e-9)
                assert dab <= dac + dcb + 1e-9
                assert dist(mus[0], mus[0]) == 0.0

    def test_escaping_mass_sequence(self):
        # moving one atom to infinity: vanishing weight*psi keeps d_psi -> 0,
        # non-vanishing product keeps it bounded away from zero
        mu = DiscreteMeasure.dirac([0.0])
        psi_heavy = WeightFunction.norm_power(1)
        psi_light = WeightFunction.norm_power(0.5)
        heavy = []
        light = []
        for k in (4, 16, 64, 256):
            mk = DiscreteMeasure([[0.0], [float(k)]], [1 - 1 / k, 1 / k])
            heavy.append(d_psi(mk, mu, psi_heavy))
            light.append(d_psi(mk, mu, psi_light))
        assert all(h >= 1.0 for h in heavy)
        assert light[-1] < light[0]
        assert light[-1] < 0.15


class TestProductMeasure:
    def test_marginal_weights(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        zeta = product_measure(mu, mu)
        assert zeta.dim == 2
        assert zeta.support_size == 4
        assert math.fsum(zeta.weights) == pytest.approx(1.0)


class TestReferenceMeasure:
    def test_finite_mode(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [2.0, 3.0])
        assert ell.is_finite
        assert ell.dim == 1

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            ReferenceMeasure.finite([[0.0]], [0.0])

    def test_lebesgue_box(self):
        ell = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])
        assert not ell.is_finite
        vals = ell.log_density(np.array([[0.0], [2.0]]))
        assert vals[0] == 0.0 and vals[1] == -np.inf


def _random_weights(rng, k):
    w = rng.uniform(0.1, 1.0, size=k)
    return w / w.sum()
