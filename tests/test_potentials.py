import json
import math

import numpy as np
import pytest

from gibbslab.measures import DiscreteMeasure, ReferenceMeasure, WeightFunction
from gibbslab.potentials import (
    AssumptionReport,
    PotentialPair,
    PotentialValueError,
    VIOLATION_EXAMPLES,
    ProbePlan,
    Region,
    SuperlinearFunction,
    check_assumption_B1,
    check_assumption_C1,
    construct_phi,
    coulomb_kernel,
    evaluate_W,
    masked_interaction,
    normalize_pair,
    pair_matrix,
    phi_moment_check,
    power_confinement,
)
from gibbslab.sampler import SamplerConfig, mh_sample


class TestCoulomb:
    def test_d2_unit_distance(self):
        W = coulomb_kernel(2)
        assert W(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_d3_distance_two(self):
        W = coulomb_kernel(3)
        assert W(np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])) == pytest.approx(0.5)

    def test_d1_diagonal_is_zero(self):
        W = coulomb_kernel(1)
        assert W(np.array([3.0]), np.array([3.0])) == 0.0

    def test_diagonal_singularity(self):
        for d in (2, 3, 5):
            W = coulomb_kernel(d)
            x = np.zeros(d)
            assert W(x, x) == np.inf

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            W = coulomb_kernel(d)
            X = rng.normal(size=(6, d))
            K = pair_matrix(W, X, X)
            assert np.array_equal(K, K.T)


def einsum_coulomb(d):
    """Reference Coulomb kernel: forms the (..., d) difference block z = x - y
    and contracts it with einsum."""
    def W(x, y):
        z = np.asarray(x) - np.asarray(y)
        if d == 1:
            return -np.abs(z[..., 0])
        with np.errstate(divide="ignore"):
            sq = np.einsum("...i,...i->...", z, z)
            return -0.5 * np.log(sq) if d == 2 else sq ** ((2 - d) / 2)
    return W


def kernel_arguments(d, rng):
    """Pairs of W arguments in the shapes the package passes: pair_matrix's
    (k, 1, d) against (1, l, d), the sampler's (C, n, 1, d) against the
    gathered (C, n, n - 1, d), one pair of single points, lists, and a
    pair_matrix block whose diagonal pairs each point with itself."""
    pts, other, state = rng.normal(size=(7, d)), rng.normal(size=(5, d)), rng.normal(size=(3, 6, d))
    rest = np.arange(5) + (np.arange(5) >= np.arange(6)[:, None])
    return {
        "pair_matrix": (pts[:, None, :], other[None, :, :]),
        "interactions": (state[:, :, None, :], np.take(state, rest, axis=1)),
        "single_pair": (pts[0], other[0]),
        "lists": (pts[:3].tolist(), other[:3].tolist()),
        "diagonal": (pts[:, None, :], pts[None, :, :]),
    }


class TestCoulombAgainstEinsum:
    """coulomb_kernel sums squared distances plane by plane; the einsum
    reference sums the same squares in the same order in d <= 2."""

    @pytest.mark.parametrize("shape", ["pair_matrix", "interactions", "single_pair", "lists",
                                       "diagonal"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_equal(self, d, shape, rng):
        x, y = kernel_arguments(d, rng)[shape]
        got = np.asarray(coulomb_kernel(d)(x, y))
        ref = np.asarray(einsum_coulomb(d)(x, y))
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        if shape == "diagonal":
            assert np.all(np.diagonal(got) == (0.0 if d == 1 else np.inf))

    @pytest.mark.parametrize("d", [3, 4])
    def test_within_4_ulp(self, d, rng):
        for shape, (x, y) in kernel_arguments(d, rng).items():
            got = coulomb_kernel(d)(x, y)
            np.testing.assert_array_max_ulp(got, einsum_coulomb(d)(x, y), maxulp=4)
            if shape == "diagonal":
                assert np.all(np.diagonal(got) == np.inf)

    @pytest.mark.parametrize("d", [1, 2])
    def test_metropolis_draws_bitwise_equal(self, d):
        if d == 1:
            ref = ReferenceMeasure.finite(np.linspace(-2.0, 2.0, 16), np.linspace(1.0, 2.0, 16))
        else:
            ref = ReferenceMeasure.lebesgue_box([(-2.0, 2.0), (-2.0, 2.0)])
        cfg = SamplerConfig(n=12, beta_n=12.0, sigma=0.4, burn_in=20, thinning=2, seed=17)
        (kept, diag), (kept_ref, diag_ref) = (
            mh_sample(PotentialPair(power_confinement(2), W, dim=d, symmetric=True), ref, cfg,
                      samples=30)
            for W in (coulomb_kernel(d), einsum_coulomb(d)))
        states = np.array([k.points for k in kept])
        assert states.tobytes() == np.array([k.points for k in kept_ref]).tobytes()
        assert diag.acceptance_rate.tobytes() == diag_ref.acceptance_rate.tobytes()
        assert diag.energy_trace.tobytes() == diag_ref.energy_trace.tobytes()
        assert 0.0 < diag.mean_acceptance < 1.0


class TestPowerConfinement:
    def test_values(self):
        V = power_confinement(2)
        assert V(np.array([1.0, 1.0])) == pytest.approx(2.0)
        assert V(np.zeros(2)) == 0.0
        assert power_confinement(3)(np.array([2.0])) == pytest.approx(8.0)

    def test_p_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            power_confinement(1.0)
        with pytest.raises(ValueError):
            power_confinement(0.5)


class TestMaskedInteractions:
    def setup_method(self):
        self.h = lambda x, y: np.ones(np.broadcast(np.asarray(x)[..., 0],
                                                   np.asarray(y)[..., 0]).shape)
        self.box = Region.box([(-1.0, 1.0), (-1.0, 1.0)])

    def test_w1_outside(self):
        W = masked_interaction("w1", self.h, self.box)
        assert W(np.array([2.0, 2.0]), np.array([3.0, 3.0])) == 0.0

    def test_w1_inside(self):
        W = masked_interaction("w1", self.h, self.box)
        assert W(np.array([0.0, 0.0]), np.array([0.5, 0.5])) == 1.0

    def test_w1_mixed(self):
        W = masked_interaction("w1", self.h, self.box)
        assert W(np.array([0.0, 0.0]), np.array([3.0, 3.0])) == 0.0

    def test_w2_both_sides(self):
        W = masked_interaction("w2", self.h, self.box)
        assert W(np.array([0.0, 0.0]), np.array([0.5, 0.5])) == 1.0
        assert W(np.array([2.0, 2.0]), np.array([3.0, 3.0])) == 1.0
        assert W(np.array([0.0, 0.0]), np.array([3.0, 3.0])) == 0.0
        # boundary point is neither inside the open box nor in the
        # interior of its complement
        assert W(np.array([1.0, 0.0]), np.array([3.0, 3.0])) == 0.0

    def test_w3_wall_blocks(self):
        wall = Region.box([(-0.5, 0.5), (-0.5, 0.5)], open_=False)
        W = masked_interaction("w3", self.h, wall, segment_samples=1000)
        # segment through the wall: interaction off
        assert W(np.array([-2.0, 0.0]), np.array([2.0, 0.0])) == 0.0
        # segment passing above the wall: particles see each other
        assert W(np.array([-2.0, 2.0]), np.array([2.0, 2.0])) == 1.0

    def test_w3_vectorized(self):
        wall = Region.ball([0.0, 0.0], 0.5, open_=False)
        W = masked_interaction("w3", self.h, wall, segment_samples=257)
        xs = np.array([[-2.0, 0.0], [-2.0, 2.0]])
        ys = np.array([[2.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(W(xs, ys), [0.0, 1.0])

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            masked_interaction("w4", self.h, self.box)


class TestAssumptionChecks:
    def test_b1_coulomb_d3_nonnegative(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(3), dim=3,
                             symmetric=True, declared_lower_bound_c=0.0)
        probe = ProbePlan.random([(-2, 2)] * 3, count=200, seed=1)
        report = check_assumption_B1(pair, probe)
        assert report.ok
        assert report.minima["W"] >= 0.0
        assert not report.exhaustive

    def test_b1_violation_found(self):
        W = lambda x, y: -np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) ** 2
        pair = PotentialPair(power_confinement(2), W, dim=2, declared_lower_bound_c=0.0)
        report = check_assumption_B1(pair, ProbePlan.grid([(-1, 1)] * 2, per_axis=5))
        assert not report.ok
        assert report.minima["W"] < 0.0

    def test_b1_coulomb_d2_unbounded_below(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(2), dim=2,
                             symmetric=True, declared_lower_bound_c=0.0)
        report = check_assumption_B1(pair, ProbePlan.grid([(-5, 5)] * 2, per_axis=7))
        assert not report.ok

    def test_c1_log_gas_d2(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(2), dim=2, symmetric=True)
        probe = ProbePlan.grid([(-5, 5)] * 2, per_axis=9)
        report = check_assumption_C1(pair, 0.5, probe)
        sampled_min = report.minima["W+eps1(V+V)"]
        assert np.isfinite(sampled_min)
        # declaring the sampled minimum itself leaves no violation
        again = check_assumption_C1(pair, 0.5, probe, declared_c=sampled_min - 1e-9)
        assert again.ok

    def test_c1_trivial_nonnegative(self):
        V = lambda x: np.linalg.norm(np.asarray(x), axis=-1) ** 2
        W = lambda x, y: np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)
        pair = PotentialPair(V, W, dim=1)
        report = check_assumption_C1(pair, 0.5, ProbePlan.grid([(-3, 3)], per_axis=13),
                                     declared_c=0.0, declared_c_prime=-1e-12)
        assert report.ok

    def test_c1_cubic_beats_quadratic(self):
        W = lambda x, y: -np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) ** 3
        pair = PotentialPair(power_confinement(2), W, dim=1)
        report = check_assumption_C1(pair, 0.9, ProbePlan.grid([(-20, 20)], per_axis=41),
                                     declared_c=0.0)
        assert not report.ok

    def test_plan_over_the_pair_budget_says_so(self):
        probe = ProbePlan.grid([(-1, 1)], per_axis=200)
        xs, ys, total, seed = probe.pairs()
        assert (len(xs), len(ys), total, seed) == (20000, 20000, 40000, 0)
        pair = PotentialPair(power_confinement(2), coulomb_kernel(1), dim=1,
                             declared_lower_bound_c=0.0)
        for report in (check_assumption_B1(pair, probe), check_assumption_C1(pair, 0.5, probe)):
            coverage = (report.pairs_checked, report.pairs_total, report.sample_seed)
            assert coverage == (20000, 40000, 0)

    def test_plan_within_the_pair_budget_checks_every_pair(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(1), dim=1)
        report = check_assumption_C1(pair, 0.5, ProbePlan.grid([(-1, 1)], per_axis=7))
        assert (report.pairs_checked, report.pairs_total, report.sample_seed) == (49, 49, None)

    def test_violations_counted_past_the_examples(self):
        W = lambda x, y: -np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) ** 2
        pair = PotentialPair(power_confinement(2), W, dim=2, declared_lower_bound_c=0.0)
        report = check_assumption_B1(pair, ProbePlan.grid([(-1, 1)] * 2, per_axis=5))
        # W < 0 on every ordered pair of distinct points: 25^2 - 25
        assert report.violation_count == 600
        assert len(report.violations) == VIOLATION_EXAMPLES == 20
        # C1 counts violations of both declared bounds: V = |x|^2 < 0.3 at 3 of
        # the 13 points (-0.5, 0, 0.5), and W + (1/2)(V(x) + V(y)) < 0 on the
        # pairs where the cubic -|x - y|^3 dominates
        W3 = lambda x, y: -np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) ** 3
        probe = ProbePlan.grid([(-3, 3)], per_axis=13)
        report = check_assumption_C1(PotentialPair(power_confinement(2), W3, dim=1), 0.5,
                                     probe, declared_c=0.0, declared_c_prime=0.3)
        xs, ys, _, _ = probe.pairs()
        coupled = -np.abs(xs - ys)[:, 0] ** 3 + 0.5 * (xs[:, 0] ** 2 + ys[:, 0] ** 2)
        assert report.violation_count == 3 + int(np.sum(coupled < 0.0))
        assert report.violation_count > 2 * VIOLATION_EXAMPLES

    def test_json_round_trip(self):
        W3 = lambda x, y: -np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1) ** 3
        coulomb = PotentialPair(power_confinement(2), coulomb_kernel(3), dim=3,
                                declared_lower_bound_c=0.0)
        reports = [
            # sampled pairs, and violations of both declared bounds
            check_assumption_C1(PotentialPair(power_confinement(2), W3, dim=1), 0.5,
                                ProbePlan.grid([(-3, 3)], per_axis=200),
                                declared_c=0.0, declared_c_prime=0.3),
            # a single point: its one pair is on the diagonal, so the minimum is +inf
            check_assumption_B1(coulomb, ProbePlan.grid([(0.0, 1.0)] * 3, per_axis=1)),
        ]
        assert reports[0].sample_seed == 0 and reports[0].violations
        assert reports[1].minima == {"W": np.inf}
        for report in reports:
            assert AssumptionReport(**json.loads(report.to_json())) == report

    def test_eps1_range_validated(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(1), dim=1)
        with pytest.raises(ValueError):
            check_assumption_C1(pair, 1.5, ProbePlan.grid([(-1, 1)], per_axis=3))


class TestExtendedRealRules:
    def test_nan_is_surfaced_with_points(self):
        W = lambda x, y: np.full(np.broadcast(np.asarray(x)[..., 0],
                                              np.asarray(y)[..., 0]).shape, np.nan)
        with pytest.raises(PotentialValueError):
            evaluate_W(W, np.array([1.0]), np.array([2.0]))

    def test_minus_inf_rejected(self):
        W = lambda x, y: np.full(np.broadcast(np.asarray(x)[..., 0],
                                              np.asarray(y)[..., 0]).shape, -np.inf)
        with pytest.raises(PotentialValueError):
            evaluate_W(W, np.array([1.0]), np.array([2.0]))


class TestNormalizePair:
    def test_already_normalized_unchanged(self):
        # ell uniform on two atoms with weight 1/2 each and v2 = 0: Z2 = 1
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [0.5, 0.5])
        zero = lambda x: np.zeros(np.asarray(x).shape[:-1])
        wfun = lambda x, y: np.zeros(np.broadcast(np.asarray(x)[..., 0],
                                                  np.asarray(y)[..., 0]).shape)
        pair = normalize_pair(zero, zero, wfun, ell)
        pt = np.array([0.3])
        assert pair.V(pt) == pytest.approx(0.0, abs=1e-15)
        assert pair.W(pt, pt) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_four_atoms(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0], [3.0]], [1.0] * 4)
        zero = lambda x: np.zeros(np.asarray(x).shape[:-1])
        wfun = lambda x, y: np.zeros(np.broadcast(np.asarray(x)[..., 0],
                                                  np.asarray(y)[..., 0]).shape)
        pair = normalize_pair(zero, zero, wfun, ell)
        assert pair.V(np.array([7.0])) == pytest.approx(math.log(4))
        # exp(-V) ell is then the uniform probability on the four atoms
        probs = ell.weights * np.exp(-pair.V(ell.atoms))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_w_gains_confinement_split(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        v1 = lambda x: 0.5 * np.linalg.norm(np.asarray(x), axis=-1) ** 2
        zero = lambda x: np.zeros(np.asarray(x).shape[:-1])
        wfun = lambda x, y: np.zeros(np.broadcast(np.asarray(x)[..., 0],
                                                  np.asarray(y)[..., 0]).shape)
        pair = normalize_pair(v1, zero, wfun, ell)
        x, y = np.array([1.0]), np.array([2.0])
        assert pair.W(x, y) == pytest.approx(0.5 + 2.0 - math.log(2))

    def test_nonfinite_normalizer_rejected(self):
        ell = ReferenceMeasure.finite([[0.0]], [1.0])
        v2 = lambda x: np.full(np.asarray(x).shape[:-1], -np.inf)
        zero = lambda x: np.zeros(np.asarray(x).shape[:-1])
        wfun = lambda x, y: np.zeros(np.broadcast(np.asarray(x)[..., 0],
                                                  np.asarray(y)[..., 0]).shape)
        with pytest.raises((ValueError, FloatingPointError)):
            normalize_pair(zero, v2, wfun, ell)


def scan_phi_reference(nu, psi_bar, lambda_max):
    """construct_phi by a Python scan over the sorted psi_bar-values, with the
    values at the breakpoints accumulated piece by piece."""
    s = np.asarray(psi_bar(nu.atoms), dtype=float)
    order = np.argsort(s)
    s, w = s[order], nu.weights[order]
    breakpoints, prev = [], 0.0
    for k in range(1, lambda_max + 1):
        with np.errstate(over="ignore"):
            tails = np.cumsum((w * np.exp(k * s))[::-1])[::-1]
        mk = None
        for j in range(len(s)):
            if tails[np.searchsorted(s, s[j], side="left")] < 2.0**-k:
                mk = s[j]
                break
        if mk is None or mk <= 0.0:
            mk = np.nextafter(s[-1], np.inf) if mk is None else np.nextafter(0.0, np.inf)
        prev = max(mk, prev)
        breakpoints.append(prev)
    values = [breakpoints[0]]
    for k in range(1, len(breakpoints)):
        values.append(values[-1] + k * (breakpoints[k] - breakpoints[k - 1]))
    return np.array(breakpoints), np.array(values)


class TestConstructPhi:
    def test_single_atom(self):
        nu = DiscreteMeasure.dirac([1.0])
        psi_bar = WeightFunction.norm_power(1)
        phi = construct_phi(nu, psi_bar, 3)
        assert np.all(phi.breakpoints > 1.0)
        assert np.isfinite(phi(1.0))
        check = phi_moment_check(phi, nu, psi_bar)
        assert check["integral"] <= math.exp(phi.breakpoints[0])

    def test_three_atom_tail_scan(self):
        # psi_bar-values {1, 2, 3}: even the smallest tail e^3/3 exceeds 1/2,
        # so the first breakpoint must land just above 3
        nu = DiscreteMeasure.uniform([[1.0], [2.0], [3.0]])
        psi_bar = WeightFunction.norm_power(1)
        phi = construct_phi(nu, psi_bar, 2)
        assert phi.breakpoints[0] > 3.0
        check = phi_moment_check(phi, nu, psi_bar)
        assert check["integral"] <= math.exp(phi.breakpoints[0]) + 1.0

    def test_breakpoints_monotone(self):
        rng = np.random.default_rng(2)
        psi_bar = WeightFunction.norm_power(1)
        for _ in range(10):
            k = rng.integers(2, 7)
            nu = DiscreteMeasure(rng.uniform(0, 4, size=(k, 1)),
                                 np.full(k, 1.0 / k))
            phi = construct_phi(nu, psi_bar, 8)
            assert np.all(np.diff(phi.breakpoints) >= 0)

    def test_convexity_and_slopes(self):
        nu = DiscreteMeasure.uniform([[0.5], [1.5], [2.5]])
        psi_bar = WeightFunction.norm_power(1)
        phi = construct_phi(nu, psi_bar, 5)
        bp = phi.breakpoints
        s_grid = np.linspace(0, bp[-1] * 2, 400)
        vals = phi(s_grid)
        diffs = np.diff(vals) / np.diff(s_grid)
        assert np.all(np.diff(diffs) >= -1e-12)          # convex
        assert np.all(diffs >= -1e-12)                   # non-decreasing
        # supporting-line inequality at every breakpoint
        for k in range(1, phi.max_slope + 1):
            mk = bp[k - 1]
            s = s_grid[s_grid >= mk]
            assert np.all(phi(s) >= k * s - k * mk + phi(mk) - 1e-12)

    def test_superlinearity_from_slope_schedule(self):
        nu = DiscreteMeasure.dirac([1.0])
        phi = construct_phi(nu, WeightFunction.norm_power(1), 8)
        s = 1e6
        assert phi(s) / s > 7.0

    def test_invalid_k(self):
        nu = DiscreteMeasure.dirac([1.0])
        with pytest.raises(ValueError):
            construct_phi(nu, WeightFunction.norm_power(1), 0)

    def test_equals_the_scan_reference(self):
        # atoms at +-x share a psi_bar-value, so tie blocks occur, and weights
        # falling like exp(-4 x^2) put some tails under 2^-k and some above
        rng = np.random.default_rng(13)
        psi_bar = WeightFunction.norm_power(1)
        scanned = 0
        for _ in range(200):
            x = rng.uniform(0.0, 3.0, rng.integers(1, 6))
            x = np.concatenate([x, -x[: rng.integers(0, len(x) + 1)]])
            w = np.exp(-4.0 * x**2) * rng.uniform(0.5, 1.5, len(x))
            nu = DiscreteMeasure(x[:, None], w / math.fsum(w))
            lambda_max = int(rng.integers(1, 10))
            phi = construct_phi(nu, psi_bar, lambda_max)
            breakpoints, values = scan_phi_reference(nu, psi_bar, lambda_max)
            np.testing.assert_array_equal(phi.breakpoints, breakpoints)
            np.testing.assert_array_equal(phi.values_at_breakpoints, values)
            scanned += np.any(breakpoints < np.abs(x).max())
        assert 50 <= scanned <= 150


class TestSuperlinearFunction:
    def test_flat_then_slopes(self):
        phi = SuperlinearFunction([1.0, 2.0, 4.0])
        assert phi(0.0) == 1.0
        assert phi(1.0) == 1.0
        assert phi(2.0) == pytest.approx(2.0)       # 1 + 1*(2-1)
        assert phi(4.0) == pytest.approx(6.0)       # 2 + 2*(4-2)
        assert phi(5.0) == pytest.approx(9.0)       # slope 3 beyond last

    def test_validation(self):
        with pytest.raises(ValueError):
            SuperlinearFunction([2.0, 1.0])
        with pytest.raises(ValueError):
            SuperlinearFunction([0.0, 1.0])
