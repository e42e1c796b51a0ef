import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import CountingW, strict_json, w_nan_on_diagonal, w_sqdist
from gibbslab import potentials
from gibbslab.measures import DiscreteMeasure, ReferenceMeasure, WeightFunction, _grid_points
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
    offdiag_pair_matrix,
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

    @pytest.mark.parametrize("d", [1.5, 2.0, 0, -1, "2", None, True])
    def test_dimension_not_an_integer_of_at_least_one_refused(self, d):
        # coulomb_kernel(1.5) returned the kernel |z|^0.25
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            coulomb_kernel(d)

    def test_numpy_integer_dimension_accepted(self):
        W = coulomb_kernel(np.int64(3))
        assert W(np.zeros(3), np.array([2.0, 0.0, 0.0])) == pytest.approx(0.5)


class TestPotentialPair:
    @pytest.mark.parametrize("dim", [2.7, 2.0, 0, -1, "1", None, True])
    def test_dimension_not_an_integer_of_at_least_one_refused(self, dim):
        # dim=2.7 read 2 and dim=-1 was accepted
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            PotentialPair(power_confinement(2), coulomb_kernel(1), dim=dim)

    def test_numpy_integer_dimension_read_as_int(self):
        pair = PotentialPair(power_confinement(2), coulomb_kernel(2), dim=np.int64(2))
        assert pair.dim == 2 and type(pair.dim) is int


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


class TestOffdiagPairMatrix:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_pair_matrix_off_the_diagonal(self, lead, rng):
        x, y = rng.normal(size=(*lead, 5, 2)), rng.normal(size=(*lead, 5, 2))
        got = offdiag_pair_matrix(coulomb_kernel(2), x, y)
        full = pair_matrix(coulomb_kernel(2), x.reshape(-1, 5, 2)[0], y.reshape(-1, 5, 2)[0])
        off = ~np.eye(5, dtype=bool)
        assert got.shape == (*lead, 5, 5)
        assert np.all(np.diagonal(got, axis1=-2, axis2=-1) == 0.0)
        assert got.reshape(-1, 5, 5)[0][off].tobytes() == full[off].tobytes()

    def test_no_site_paired_with_itself(self, rng):
        W = CountingW(w_nan_on_diagonal, refuse_identical=True)
        x = rng.normal(size=(4, 6, 2))
        vals = offdiag_pair_matrix(W, x, x)
        assert W.calls == 1 and np.isfinite(vals).all()

    def test_other_sites_are_kept_for_one_size(self, rng):
        # a cache per size held 229 MB after n = 100, 200, ..., 2000
        offdiag_pair_matrix(w_sqdist, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        offdiag_pair_matrix(w_sqdist, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
        assert potentials._other_sites.cache_info().currsize == 1
        assert potentials._other_sites(6) is potentials._other_sites(6)

    def test_one_site_makes_no_call(self):
        def W(x, y):
            raise AssertionError("W called")
        assert np.array_equal(offdiag_pair_matrix(W, np.ones((3, 1, 2)), np.ones((3, 1, 2))),
                              np.zeros((3, 1, 1)))


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
        W = masked_interaction("w3", self.h, wall)
        # segment through the wall: interaction off
        assert W(np.array([-2.0, 0.0]), np.array([2.0, 0.0])) == 0.0
        # segment passing above the wall: particles see each other
        assert W(np.array([-2.0, 2.0]), np.array([2.0, 2.0])) == 1.0

    def test_w3_vectorized(self):
        wall = Region.ball([0.0, 0.0], 0.5, open_=False)
        W = masked_interaction("w3", self.h, wall)
        xs = np.array([[-2.0, 0.0], [-2.0, 2.0]])
        ys = np.array([[2.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(W(xs, ys), [0.0, 1.0])

    @pytest.mark.parametrize("open_, expected", [(False, 0.0), (True, 1.0)])
    def test_w3_segment_touching_the_boundary(self, open_, expected):
        # the segment meets the box at its corner (0.5, 0.5) and runs along
        # its top face, and is tangent to the ball: it meets the closed
        # regions and misses the open ones
        box = Region.box([(-0.5, 0.5), (-0.5, 0.5)], open_=open_)
        W = masked_interaction("w3", self.h, box)
        assert W(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == expected
        assert W(np.array([-1.0, 0.5]), np.array([1.0, 0.5])) == expected
        assert W(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == expected
        ball = Region.ball([0.0, 0.0], 1.0, open_=open_)
        assert masked_interaction("w3", self.h, ball)(np.array([-2.0, 1.0]),
                                                       np.array([2.0, 1.0])) == expected

    @pytest.mark.parametrize("kind", ["box", "ball"])
    @pytest.mark.parametrize("open_", [True, False])
    @pytest.mark.parametrize("d", [2, 3])
    def test_w3_agrees_with_dense_sampling(self, kind, open_, d):
        # against 20001 points sampled on each segment; a segment on which
        # fewer than 5 samples fall in the region is skipped, since there the
        # samples, not the exact test, are unreliable
        rng = np.random.default_rng(d)
        ts = np.linspace(0.0, 1.0, 20001)
        for _ in range(60):
            if kind == "box":
                lo = rng.uniform(-1.0, 0.0, d)
                region = Region.box(np.stack([lo, lo + rng.uniform(0.1, 1.5, d)], 1), open_)
            else:
                region = Region.ball(rng.uniform(-0.5, 0.5, d), rng.uniform(0.1, 1.0), open_)
            x, y = rng.uniform(-2.0, 2.0, (2, d))
            if rng.random() < 0.2:    # a segment along the first axis
                y = x + np.eye(d)[0] * rng.uniform(-3.0, 3.0)
            hits = region.contains(x + ts[:, None] * (y - x))
            if hits.any() and hits.sum() < 5:
                continue
            W = masked_interaction("w3", self.h, region)
            assert W(x, y) == (0.0 if hits.any() else 1.0)

    def test_w3_pair_matrix_on_a_fine_grid(self):
        # 441 nodes in d = 2: sampling 1000 points per segment made 3.1 GB
        nodes = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 21)] * 2), -1).reshape(-1, 2)
        W = masked_interaction("w3", w_sqdist, Region.ball([0.0, 0.0], 0.3, open_=False))
        K = pair_matrix(W, nodes, nodes)
        assert K.shape == (441, 441) and np.array_equal(K, K.T)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            masked_interaction("w4", self.h, self.box)

    @pytest.mark.parametrize("bounds", [[(np.nan, 1.0)], [(0.0, np.nan)], [(1.0, 0.0)],
                                        [(-1.0, 1.0), (2.0, -2.0)], [0.0, 1.0]])
    def test_box_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="^box bounds must be a"):
            Region.box(bounds)

    def test_box_with_infinite_bounds_is_a_half_space(self):
        half = Region.box([(0.0, np.inf), (-np.inf, np.inf)], open_=False)
        np.testing.assert_array_equal(half.contains([[1e300, -5.0], [-1.0, 0.0]]), [True, False])

    @pytest.mark.parametrize("center, radius", [([0.0, 0.0], np.nan), ([0.0, 0.0], 0.0),
                                                ([0.0, 0.0], -1.0), ([np.nan, 0.0], 1.0),
                                                ([0.0, np.inf], 1.0)])
    def test_ball_refused(self, center, radius):
        with pytest.raises(ValueError, match="^ball centre must be finite and radius positive$"):
            Region.ball(center, radius)

    @pytest.mark.parametrize("region", [Region.box([(-1.0, 1.0), (0.0, 2.0)]),
                                        Region.ball([0.5, -0.5], 1.0)])
    @pytest.mark.parametrize("open_", [True, False])
    def test_outside_closure_is_the_closed_complement(self, region, open_):
        # a boundary point is not in the interior of the complement
        region = replace(region, open_=open_)
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.uniform(-3.0, 3.0, (500, 2)),
                         [[1.0, 0.5], [-1.0, 2.0], [0.5, 0.0], [0.5, 0.5], [1.5, -0.5]]])
        if region.kind == "box":
            lo, hi = region.bounds[:, 0], region.bounds[:, 1]
            expected = np.any((pts < lo) | (pts > hi), axis=-1)
        else:
            expected = np.linalg.norm(pts - region.center, axis=-1) > region.radius
        np.testing.assert_array_equal(region.strictly_outside_closure(pts), expected)
        boundary = pts[-5:-2] if region.kind == "box" else pts[-2:]
        assert not region.strictly_outside_closure(boundary).any()


class TestAssumptionChecks:
    @pytest.mark.parametrize("make", [lambda b: ProbePlan.grid(b, per_axis=3),
                                      lambda b: ProbePlan.random(b, count=5)])
    @pytest.mark.parametrize("bounds", [[(0.0, np.inf)], [(np.nan, 1.0)], [(1.0, 1.0)],
                                        [(2.0, 1.0)], [0.0, 1.0]])
    def test_probe_box_refused(self, make, bounds):
        with pytest.raises(ValueError, match=r"^bounds must be a \(d, 2\) array of finite"):
            make(bounds)

    def test_pair_of_another_dimension_refused(self):
        # a d = 1 Coulomb pair on a 2-D probe read only the first coordinate,
        # and B1 reported min W = -2
        pair = PotentialPair(power_confinement(2), coulomb_kernel(1), dim=1, symmetric=True)
        probe = ProbePlan.grid([(-1, 1)] * 2, per_axis=3)
        match = "declared for d = 1, but the probe is in d = 2"
        with pytest.raises(ValueError, match=match):
            check_assumption_B1(pair, probe)
        with pytest.raises(ValueError, match=match):
            check_assumption_C1(pair, 0.5, probe)

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
            assert set(strict_json(report.to_json())) == {f.name for f in fields(AssumptionReport)}
        assert AssumptionReport(**strict_json(reports[0].to_json())) == reports[0]
        # strict JSON: the +inf minimum is written as null and reads back as None
        assert (AssumptionReport(**strict_json(reports[1].to_json()))
                == replace(reports[1], minima={"W": None}))

    def test_violations_counted_and_capped_per_bound(self):
        # C1 keeps at most VIOLATION_EXAMPLES examples per declared bound, V's first
        pair = PotentialPair(power_confinement(2), coulomb_kernel(1), dim=1)
        probe = ProbePlan.grid([(-3, 3)], per_axis=61)
        report = check_assumption_C1(pair, 0.5, probe, declared_c=0.0, declared_c_prime=5.0)
        v = power_confinement(2)(probe.points())
        xs, ys, _, _ = probe.pairs()
        coupled = -np.abs(xs - ys)[:, 0] + 0.5 * (v[:, None] + v[None, :]).ravel()
        assert report.violation_count == np.sum(v < 5.0) + np.sum(coupled < 0.0)
        assert len(report.violations) == 2 * VIOLATION_EXAMPLES
        assert set(report.violations[0]) == {"x", "V"}
        assert set(report.violations[-1]) == {"x", "y", "coupled"}
        assert report.minima == {"V": 0.0, "W+eps1(V+V)": float(coupled.min())}

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


@pytest.mark.parametrize("finite", [True, False])
def test_log_normalizer_equals_the_sum_over_numpy_scalars(finite):
    # math.fsum reads the terms as a list of floats: the same floats, the same sum
    v2 = power_confinement(2.0)
    if finite:
        rng = np.random.default_rng(13)
        ell = ReferenceMeasure.finite(rng.normal(size=(40, 2)), rng.uniform(0.5, 1.5, 40))
        terms = ell.weights * np.exp(-v2(ell.atoms))
        expected = math.log(math.fsum(terms))
    else:
        ell = ReferenceMeasure.lebesgue_box([(-1.0, 2.0), (-1.5, 1.0)])
        q = potentials.QUADRATURE_PER_AXIS
        axes = [np.linspace(lo, hi, q + 1) for lo, hi in ell.box]
        pts = _grid_points([0.5 * (a[1:] + a[:-1]) for a in axes])
        cell = np.prod([(hi - lo) / q for lo, hi in ell.box])
        expected = math.log(math.fsum(np.exp(ell.log_density(pts) - v2(pts))) * cell)
    assert potentials._log_normalizer(v2, ell) == expected


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

    @pytest.mark.parametrize("lambda_max", [0, -1, True, 2.5, "3"])
    def test_lambda_max_must_be_an_integer_of_at_least_one(self, lambda_max):
        # lambda_max = True was taken as 1
        nu = DiscreteMeasure.dirac([1.0])
        with pytest.raises(ValueError, match="lambda_max must be an integer >= 1, got"):
            construct_phi(nu, WeightFunction.norm_power(1), lambda_max)

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

    def test_values_equal_the_clamped_formula(self):
        # the formula phi was evaluated by before it lost two redundant
        # steps: idx clamped to len(bp), and the flat part as its own branch
        def clamped(phi, s):
            s = np.asarray(s, dtype=float)
            bp, values = phi.breakpoints, phi.values_at_breakpoints
            idx = np.minimum(np.searchsorted(bp, s, side="right"), len(bp))
            out = np.where(idx == 0, values[0],
                           values[np.maximum(idx - 1, 0)] + idx * (s - bp[np.maximum(idx - 1, 0)]))
            return out if out.ndim else float(out)

        rng = np.random.default_rng(17)
        for _ in range(300):
            # breakpoints drawn with replacement from a few values, so ties are common
            pool = rng.uniform(1e-3, 10.0, int(rng.integers(1, 6)))
            phi = SuperlinearFunction(np.sort(rng.choice(pool, int(rng.integers(1, 9)))))
            bp = phi.breakpoints
            points = np.concatenate([[0.0, 1e300, np.inf], bp, np.nextafter(bp, 0.0),
                                     np.nextafter(bp, np.inf), rng.uniform(0.0, 12.0, 16)])
            got, expected = phi(points), clamped(phi, points)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            for s in points:
                value = phi(s)
                assert type(value) is float and np.float64(value).tobytes() == \
                    np.float64(clamped(phi, s)).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SuperlinearFunction([2.0, 1.0])
        with pytest.raises(ValueError):
            SuperlinearFunction([0.0, 1.0])

    @pytest.mark.parametrize("breakpoints", [[np.nan], [np.nan, 2.0], [1.0, np.nan],
                                             [1.0, np.nan, 3.0]])
    def test_nan_breakpoint_refused(self, breakpoints):
        # a NaN passed both order checks, and phi was NaN from there on
        with pytest.raises(ValueError, match="^breakpoints must be"):
            SuperlinearFunction(breakpoints)
