import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, linprog, milp

from conftest import strict_json
from gibbslab import measures
from gibbslab.measures import (
    DiscreteMeasure,
    ParticleConfig,
    ReferenceMeasure,
    WeightFunction,
    _gaussian_images,
    _merge_atoms,
    _record_json,
    _transport_candidates,
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
    # without presolve, and at HiGHS's least feasibility tolerances: at the
    # default 1e-7 it returned 0.375000005 for uniform{0.25, 0} against
    # uniform{1e-8, -0.5}, whose distance is 0.375 - 5e-9
    res = linprog(-signed, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(-0.5, 0.5),
                  method="highs", options={"presolve": False,
                                           "primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return -res.fun


def spied_solves(monkeypatch):
    """Each later call to measures.linprog, as its arguments by name and its
    result."""
    solves = []
    real_linprog = measures.linprog

    def spy(*args, **kwargs):
        result = real_linprog(*args, **kwargs)
        solves.append((inspect.signature(real_linprog).bind(*args, **kwargs).arguments, result))
        return result

    monkeypatch.setattr(measures, "linprog", spy)
    return solves


class Replay:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` returns
    the next of the given values, whatever the strategy, starting over after
    the last, so every run of the example draws the same values."""

    def __init__(self, *values):
        self._values = values
        self._draws = 0

    def draw(self, strategy):
        self._draws += 1
        return self._values[(self._draws - 1) % len(self._values)]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_atom_rejected(self, bad):
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            DiscreteMeasure([[0.0, 1.0], [bad, 0.0]], [0.5, 0.5])

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0],
                                         [1.2, -0.2], [-np.inf, 1.0]])
    def test_bad_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="^weights must be non-negative and finite$"):
            DiscreteMeasure([[0.0], [1.0]], weights)

    def test_negative_zero_weight_accepted_and_dropped(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0, -0.0])
        assert mu.support_size == 1
        assert mu.weights[0] == 1.0

    def test_negative_zero_atom_merges_with_zero(self):
        mu = DiscreteMeasure([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]], [0.25, 0.5, 0.25])
        np.testing.assert_array_equal(mu.atoms, [[0.0, 0.0], [0.0, 1.0]])
        assert not np.signbit(mu.atoms).any()
        np.testing.assert_array_equal(mu.weights, [0.25, 0.75])

    def test_merge_without_repeats_returns_the_sorted_input(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        w = np.array([0.5, 0.25, 0.25])
        atoms, sums = _merge_atoms(pts, w)
        np.testing.assert_array_equal(atoms, pts[[2, 1, 0]])
        np.testing.assert_array_equal(sums, w[[2, 1, 0]])

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

    def test_record_json_is_strict(self):
        # every non-finite number, a float, a numpy scalar or an array entry,
        # at any depth, is written as null, never as a bare Infinity or NaN
        @dataclasses.dataclass
        class Record:
            value: float
            trace: np.ndarray
            minima: dict
            gap: np.float64
            measure: DiscreteMeasure

        record = Record(math.inf, np.array([1.0, -np.inf, np.nan]), {"W": np.inf, "V": 0.5},
                        np.float64(np.nan), DiscreteMeasure.dirac([0.25]))
        assert strict_json(_record_json(record)) == {
            "value": None, "trace": [1.0, None, None], "minima": {"W": None, "V": 0.5},
            "gap": None, "measure": {"dim": 1, "atoms": [[0.25]], "weights": [1.0]}}

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

    def test_constructor_keeps_the_block_rules(self):
        # the constructor is the one-row block: finite, -0.0 made +0.0, read-only
        config = ParticleConfig([[-0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert not config.points.flags.writeable
        assert not np.signbit(config.points).any()
        with pytest.raises(ValueError, match="at least one particle"):
            ParticleConfig([])
        with pytest.raises(ValueError, match="finite"):
            ParticleConfig([[0.0], [np.nan]])


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_the_checked_constructor_bitwise(self, rng, d):
        # configurations of a block, with repeated points and -0.0 among them
        pool = np.vstack([rng.normal(size=(3, d)), np.zeros((1, d)), -np.zeros((1, d))])
        block = pool[rng.integers(0, len(pool), size=(40, 7))]
        block[0] = pool[0]
        configs = ParticleConfig._from_block(block)
        for config in configs:
            n = config.n
            mu = empirical_measure(config)
            expected = DiscreteMeasure(config.points, np.full(n, 1.0 / n))
            assert mu.atoms.tobytes() == expected.atoms.tobytes()
            assert mu.weights.tobytes() == expected.weights.tobytes()
            assert mu == expected and hash(mu) == hash(expected)
            assert not (mu.atoms.flags.writeable or mu.weights.flags.writeable)
        assert empirical_measure(configs[0]).support_size == 1


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
    # the oracle at HiGHS's default tolerances failed this example; it is
    # replayed in d = 1 under every d
    @example(data=Replay([(0.25,), (0.0,), (1e-8,), (-0.5,)], [0, 1], [2, 3]))
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
        # two atoms eps = 2^-24 apart, under HiGHS's default 1e-7 feasibility
        # tolerance.  f(0) = 1/2, f(1) = -1/2 and f(eps) = 1/2 - eps give 1/2 + eps / 2
        eps = 2.0**-24
        mu = DiscreteMeasure.dirac([0.0])
        nu = DiscreteMeasure.uniform([[1.0], [eps]])
        assert d_bl(mu, nu) == pytest.approx(0.5 + eps / 2, abs=1e-15)
        # d_bl is W_1 for the metric min(|x - y|, 1); delta_1 has one coupling
        # with nu, moving mass 1/3 from 1 to each of 0, 1/2 and eps, at cost
        # (1 + 1/2 + 1 - eps) / 3 = 5/6 - eps/3.  f = -1/2, -1/2 + eps, 0, 1/2
        # at 0, eps, 1/2, 1 attains it.  At the default tolerance HiGHS
        # returned f(eps) = -1/2, which breaks the row between eps and 1/2 by
        # eps, and so 5/6
        mu = DiscreteMeasure.dirac([1.0])
        nu = DiscreteMeasure.uniform([[0.0], [0.5], [eps]])
        assert abs(d_bl(mu, nu) - (5 / 6 - eps / 3)) <= 1e-10

    def test_gap_below_the_solver_feasibility_tolerance_without_close_atoms(self):
        # two atoms 1 - eps apart keep one row, which f = 1/2, -1/2 breaks by
        # eps < 1e-7: at the default tolerance the value was 1, with no two
        # atoms close
        eps = 2.0**-24
        got = d_bl(DiscreteMeasure.dirac([eps]), DiscreteMeasure.dirac([1.0]))
        assert abs(got - (1.0 - eps)) <= 1e-10

    def test_one_solve_without_presolve(self, monkeypatch):
        solves = spied_solves(monkeypatch)
        eps = 2.0**-24
        cases = [
            (DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.25])),
            (DiscreteMeasure.dirac([1.0]), DiscreteMeasure.uniform([[0.0], [0.5], [eps]])),
            (DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]),
             DiscreteMeasure([[0.0, 0.36], [1.0, 1.0]], [0.2, 0.8])),
            (DiscreteMeasure.dirac([0.0, 0.0]), DiscreteMeasure.dirac([3.0, 0.0])),
        ]
        for mu, nu in cases:
            solves.clear()
            d_bl(mu, nu)
            assert len(solves) == 1
            arguments = solves[0][0]
            assert arguments["options"] == {"presolve": "off",
                                            "primal_feasibility_tolerance": 1e-10}
            # one column per atom of the union support, ranged rows only
            assert arguments["c"].shape == (len(_union_support(mu, nu)[0]),)
            assert arguments["A_ub"].format == "csr"
            assert "A_eq" not in arguments

    @staticmethod
    def assert_rows_equal_the_triu_reference(monkeypatch, mu, nu):
        """d_bl's Lipschitz rows and their ranges, bit for bit, against the
        pairs of np.triu_indices (neighbours in d = 1) filtered on
        sqrt(|x - y|^2) < 1; returns the row matrix."""
        solves = spied_solves(monkeypatch)
        d_bl(mu, nu)
        pts, _ = _union_support(mu, nu)
        k = len(pts)
        if mu.dim == 1:
            iu = np.arange(k - 1)
            ju = iu + 1
        else:
            iu, ju = np.triu_indices(k, 1)
        dists = np.sqrt(measures._squared_distance(pts[iu], pts[ju]))
        near = dists < 1.0
        iu, ju, dists = iu[near], ju[near], dists[near]
        arguments = solves[-1][0]
        a = arguments["A_ub"]
        assert a.shape == (len(iu), k)
        np.testing.assert_array_equal(a.indptr, np.arange(0, 2 * len(iu) + 1, 2))
        np.testing.assert_array_equal(a.indices.reshape(-1, 2), np.column_stack([iu, ju]))
        np.testing.assert_array_equal(a.data, np.tile([1.0, -1.0], len(iu)))
        assert arguments["b_ub"].tobytes() == dists.tobytes()
        assert arguments["b_lb"].tobytes() == (-dists).tobytes()
        return a

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_triu_reference(self, d, data):
        # indices into a small pool repeat atoms within and across the measures
        coord = st.floats(-1.5, 1.5, allow_subnormal=False)
        pool = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10))
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20)
        mu, nu = (empirical_measure(ParticleConfig([pool[i] for i in data.draw(index)]))
                  for _ in range(2))
        if mu != nu:
            with pytest.MonkeyPatch.context() as monkeypatch:
                self.assert_rows_equal_the_triu_reference(monkeypatch, mu, nu)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_at_squared_distance_just_below_and_at_one(self, monkeypatch, d):
        # (1 - 2^-53, 1.2 * 2^-27) is at squared distance nextafter(1, 0), the
        # largest below 1, and keeps its row; (1, 0) at exactly 1 keeps none
        # (in d = 1, 1 - 2^-53 squares to nextafter(1, 0) - 2^-53)
        below = [1.0 - 2.0**-53, 1.2 * 2.0**-27, 0.0][:d]
        at = [1.0, 0.0, 0.0][:d]
        origin = [0.0] * d
        sq = measures._squared_distance(np.array(below), np.array(origin))
        assert sq < 1.0 and (d == 1 or sq == np.nextafter(1.0, 0.0))
        assert measures._squared_distance(np.array(at), np.array(origin)) == 1.0
        shift = [2.5] + [0.0] * (d - 1)
        mu = DiscreteMeasure([origin, np.add(shift, at)], [0.5, 0.5])
        nu = DiscreteMeasure([below, shift], [0.25, 0.75])
        assert self.assert_rows_equal_the_triu_reference(monkeypatch, mu, nu).shape[0] == 1


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
    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
    def test_1d_cost_equals_the_sum_over_numpy_scalars(self, p):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure.uniform(rng.normal(size=(40, 1)))
        w = rng.uniform(0.1, 1.0, 30)
        nu = DiscreteMeasure(rng.normal(size=(30, 1)), w / w.sum())
        mass, ia, ib = measures._quantile_coupling(mu.weights, nu.weights)
        expected = math.fsum(mass * np.abs(mu.atoms[ia, 0] - nu.atoms[ib, 0]) ** p)
        assert measures._wasserstein_1d(mu, nu, p) == expected

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
            ca, cb = ca / ca[-1], cb / cb[-1]
            prev, terms = 0.0, []
            for lv in np.union1d(ca, cb):
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

    def test_translation_keeps_the_top_quantile_interval(self):
        # The normalized weights' cumulative sum ends above 1 + 1e-15 here; a
        # filter of levels above that lost the top interval, half the mass,
        # and W_1 = W_2 read 0.5000000000000012.
        w = np.random.default_rng(519).random(1000)
        w[-1] = w[:-1].sum()
        x = np.arange(1000.0)[:, None]
        mu = DiscreteMeasure(x, w / w.sum())
        nu = DiscreteMeasure(x + 1.0, mu.weights)
        for p in (1, 2):
            assert wasserstein_p(mu, nu, p) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3000), equal=st.booleans(),
           shift=st.floats(0.25, 4.0), sign=st.sampled_from([-1.0, 1.0]),
           p=st.sampled_from([1, 1.5, 2]))
    def test_translation_costs_shift_power(self, seed, k, equal, shift, sign, p):
        # W_p(mu, mu + s) = |s|^p: the translation is the monotone coupling.
        # Equal weights (an empirical measure) or seeded ones with the last
        # weight above the sum of the others; both shapes have cumulative sums
        # that can end ulps above 1.
        w = np.ones(k)
        if not equal:
            w = np.random.default_rng(seed).random(k)
            w[-1] += w[:-1].sum()
        x = np.arange(float(k))[:, None]
        mu = DiscreteMeasure(x, w / math.fsum(w))
        nu = DiscreteMeasure(x + sign * shift, mu.weights)
        assert wasserstein_p(mu, nu, p) == pytest.approx(shift**p, rel=1e-9)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        # with no check, p = nan returned nan and p = inf returned 0.5 on this pair
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        nu = DiscreteMeasure.uniform([[0.5], [2.0]])
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            wasserstein_p(mu, nu, p)  # quantile coupling
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            wasserstein_lp(mu, nu, p)
        # the same pair on a line in the plane takes the LP
        mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        nu = DiscreteMeasure.uniform([[0.5, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            wasserstein_p(mu, nu, p)

    def test_one_transport_solve(self, monkeypatch):
        solves = spied_solves(monkeypatch)
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0, 0.36], [1.0, 1.0], [2.0, 0.0]], [0.2, 0.5, 0.3])
        wasserstein_p(mu, nu, 2)
        assert len(solves) == 1
        arguments = solves[0][0]
        assert arguments["options"] == {"presolve": "off", "dual_feasibility_tolerance": 1e-10}
        # one plan cell per atom pair, one marginal row per atom
        assert arguments["c"].shape == (6,)
        assert arguments["A_eq"].shape == (5, 6)
        assert arguments["A_eq"].format == "csc"
        assert "A_ub" not in arguments

    def test_p_below_one_rejected(self):
        mu = DiscreteMeasure.dirac([0.0])
        with pytest.raises(ValueError):
            wasserstein_p(mu, mu, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_p(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 1.0]), 2)


def assignment_cost(x, y, p):
    """Independent oracle (Birkhoff): W_p^p of the uniform measures on the
    rows of x and y, repeats included, by an optimal assignment between the
    rows replicated to lcm(len(x), len(y)) each."""
    size = math.lcm(len(x), len(y))
    x, y = np.repeat(x, size // len(x), axis=0), np.repeat(y, size // len(y), axis=0)
    cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1) ** p
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols]) / size


def all_cells_lp(mu, nu, p):
    """Independent oracle: the transport LP on every plan cell, dense."""
    ka, kb = mu.support_size, nu.support_size
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=-1) ** p
    a_eq = np.vstack([np.kron(np.eye(ka), np.ones(kb)), np.kron(np.ones(ka), np.eye(kb))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs",
                  options={"presolve": False, "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def lexsorted(points):
    """The rows in the order a DiscreteMeasure keeps its atoms."""
    return points[np.lexsort(points.T[::-1])]


class TestPricedTransportLP:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), p=st.sampled_from([1, 2]),
           na=st.integers(1, 30), nb=st.integers(1, 30), equal=st.booleans(),
           shape=st.sampled_from(["normal", "lattice", "clusters"]))
    def test_equals_the_assignment_oracle(self, seed, d, p, na, nb, equal, shape):
        # Equal sizes, or unequal ones against the assignment on replicated
        # atoms.  Lattice points repeat and tie, so measures merge atoms and
        # the LPs are degenerate; two clusters at -6 and +6 on the first axis
        # are where pricing rounds are most often needed.
        rng = np.random.default_rng(seed)
        if equal:
            nb = na
        if shape == "lattice":
            x, y = (rng.integers(-2, 3, size=(k, d)).astype(float) for k in (na, nb))
        else:
            x, y = rng.normal(size=(na, d)), rng.normal(size=(nb, d))
        y *= rng.uniform(0.5, 3.0, size=d)
        if shape == "clusters":
            y[:, 0] += np.where(np.arange(nb) < nb // 2, -6.0, 6.0)
        got = wasserstein_lp(DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y), p)
        assert got == pytest.approx(assignment_cost(x, y, p), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d, p", [(2, 1), (2, 2), (3, 1.5), (3, 2)])
    def test_weighted_measures_equal_the_all_cells_lp(self, seed, d, p):
        rng = np.random.default_rng(seed)
        ka, kb = rng.integers(20, 50, size=2)
        mu = DiscreteMeasure(rng.normal(size=(ka, d)), _random_weights(rng, ka))
        nu = DiscreteMeasure(rng.normal(0.5, 1.5, size=(kb, d)), _random_weights(rng, kb))
        assert wasserstein_lp(mu, nu, p) == pytest.approx(all_cells_lp(mu, nu, p), rel=1e-12)

    @staticmethod
    def two_clusters(rng):
        x = rng.normal(size=(70, 2))
        y = rng.normal(size=(70, 2))
        y[:35, 0] -= 6.0
        y[35:, 0] += 6.0
        return x, y

    @staticmethod
    def scaled(rng):
        return rng.normal(size=(70, 2)), rng.normal(size=(70, 2)) * [4.0, 0.25]

    @pytest.mark.parametrize("clouds", ["two_clusters", "scaled"])
    def test_clouds_that_need_pricing_rounds(self, clouds, monkeypatch):
        x, y = (lexsorted(z) for z in getattr(self, clouds)(np.random.default_rng(0)))
        mu, nu = DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y)
        # the first cell set misses the optimal assignment, so some cell
        # outside it prices out at any optimal duals of the first solve
        rows, cols = linear_sum_assignment(np.linalg.norm(x[:, None] - y[None], axis=-1) ** 2)
        assert not _transport_candidates(mu, nu)[rows, cols].all()
        cells = []
        real_linprog = measures.linprog

        def spy(*args, **kwargs):
            cells.append(len(inspect.signature(real_linprog).bind(*args, **kwargs).arguments["c"]))
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(measures, "linprog", spy)
        got = wasserstein_lp(mu, nu, 2)
        assert len(cells) >= 2
        assert all(a < b for a, b in zip(cells, cells[1:]))
        assert cells[-1] < 70 * 70
        assert got == pytest.approx(assignment_cost(x, y, 2), rel=1e-12)

    def test_a_single_atom_on_one_side(self):
        rng = np.random.default_rng(7)
        point = np.array([0.3, -0.2])
        nu = DiscreteMeasure(rng.normal(size=(30, 2)), _random_weights(rng, 30))
        exact = math.fsum(nu.weights * np.sum((nu.atoms - point) ** 2, axis=1))
        mu = DiscreteMeasure.dirac(point)
        assert wasserstein_lp(mu, nu, 2) == pytest.approx(exact, rel=1e-12)
        assert wasserstein_lp(nu, mu, 2) == pytest.approx(exact, rel=1e-12)
        # one atom has zero covariance: its image is the mean shift
        assert np.array_equal(_gaussian_images(mu, nu), [nu.weights @ nu.atoms])

    def test_collinear_atoms(self):
        # atoms on a line have a singular covariance: mu's images are the mean
        # shift, and nu's map onto the line is singular
        rng = np.random.default_rng(8)
        t = rng.normal(size=(30, 1))
        x = t * [1.0, 2.0] + [0.5, 0.0]
        y = rng.normal(size=(30, 2))
        mu, nu = DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y)
        shift = nu.weights @ nu.atoms - mu.weights @ mu.atoms
        assert np.allclose(_gaussian_images(mu, nu), mu.atoms + shift, rtol=0, atol=1e-12)
        for p in (1, 2):
            assert wasserstein_lp(mu, nu, p) == pytest.approx(assignment_cost(x, y, p), rel=1e-12)
            assert wasserstein_lp(nu, mu, p) == pytest.approx(assignment_cost(x, y, p), rel=1e-12)


class TestLinprog:
    @pytest.mark.parametrize("d", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1, 2]))
    # milp passes an option it does not know to HiGHS as it stands, with this warning
    @pytest.mark.filterwarnings("ignore:Unrecognized options detected:RuntimeWarning")
    def test_equals_scipys_milp_and_linprog(self, d, data, p):
        # measures.linprog calls scipy's private HiGHS binding; scipy's public
        # milp and linprog, given each LP that d_bl and wasserstein_lp solve,
        # with the same options, must return the same optimum and, for the
        # transport LP, the same duals.  Indices into a small pool repeat
        # atoms, and spreads past 1 leave d_bl some pairs without a row.
        coord = st.floats(-2.0, 2.0, allow_subnormal=False)
        pool = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=12))
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=25)
        mu, nu = (empirical_measure(ParticleConfig([pool[i] for i in data.draw(index)]))
                  for _ in range(2))
        with pytest.MonkeyPatch.context() as monkeypatch:
            solves = spied_solves(monkeypatch)
            dbl = d_bl(mu, nu)
            dbl_solves = len(solves)
            cost = wasserstein_lp(mu, nu, p)
        # d_bl solves once unless mu = nu; wasserstein_lp at least once
        assert dbl_solves == (mu != nu) and len(solves) > dbl_solves
        for arguments, (fun, dual) in solves:
            # scipy's front-ends take presolve as a bool, and the matrix as a
            # sparse array built from the compressed arrays HiGHS was given
            options = dict(arguments["options"], presolve=False)
            a = arguments.get("A_ub", arguments.get("A_eq"))
            matrix = {"csr": sparse.csr_array, "csc": sparse.csc_array}[a.format](
                (a.data, a.indices, a.indptr), shape=a.shape)
            if "A_ub" in arguments:
                res = milp(arguments["c"], bounds=Bounds(*arguments["bounds"]), options=options,
                           constraints=LinearConstraint(matrix, arguments["b_lb"],
                                                        arguments["b_ub"]))
                assert res.success
            else:
                res = linprog(arguments["c"], A_eq=matrix, b_eq=arguments["b_eq"],
                              bounds=arguments["bounds"], method="highs", options=options)
                assert res.success
                np.testing.assert_allclose(dual, res.eqlin.marginals, rtol=0, atol=1e-12)
            assert abs(fun - res.fun) <= 1e-12
        if dbl_solves:
            assert dbl == max(0.0, -solves[0][1][0])
        assert cost == max(0.0, solves[-1][1][0])

    def test_one_block_of_rows(self):
        a = sparse.csr_array(np.ones((1, 2)))
        with pytest.raises(ValueError, match="exactly one of A_ub and A_eq"):
            measures.linprog(np.ones(2), A_ub=a, b_lb=[0.0], b_ub=[1.0], A_eq=a.tocsc(),
                             b_eq=[1.0], bounds=(0.0, 1.0), options={})
        with pytest.raises(ValueError, match="exactly one of A_ub and A_eq"):
            measures.linprog(np.ones(2), bounds=(0.0, 1.0), options={})
        with pytest.raises(ValueError, match="must be CSR or CSC, got coo"):
            measures.linprog(np.ones(2), A_eq=a.tocoo(), b_eq=[1.0], bounds=(0.0, 1.0),
                             options={})

    @pytest.mark.parametrize("c, b_eq", [(np.ones(3), [1.0]), (np.ones(2), [1.0, 2.0])])
    def test_refuses_vectors_of_the_wrong_length(self, c, b_eq):
        # HiGHS itself solved both, reading 2 of the 3 costs and 1 of the 2 bounds
        a = sparse.csc_array(np.ones((1, 2)))
        with pytest.raises(ValueError, match="could not be broadcast"):
            measures.linprog(c, A_eq=a, b_eq=b_eq, bounds=(0.0, 1.0), options={})

    @pytest.mark.parametrize("format", ["csr", "csc"])
    @pytest.mark.parametrize("indptr, indices, data", [
        ([0, 2], [0, 2, 1], [1.0, 1.0, 1.0]),           # indptr one entry short
        ([0, 2, 3, 3], [0, 2, 1], [1.0, 1.0, 1.0]),     # indptr one entry long
        ([0, 2, 3], [0, 2], [1.0, 1.0, 1.0]),           # indices short of indptr[-1]
        ([0, 2, 3], [0, 2, 1], [1.0, 1.0]),             # data short of indptr[-1]
        ([0, 2, 3], [0, 2], [1.0, 1.0]),                # both short of indptr[-1]
        ([0, 2, 3], [0, 2, 1, 0], [1.0, 1.0, 1.0, 1.0]),  # both past indptr[-1]
    ])
    def test_refuses_compressed_arrays_of_the_wrong_lengths(self, monkeypatch, format, indptr,
                                                               indices, data):
        # HiGHS reads the arrays by the sizes it is told: a model that claimed
        # 2 nonzeros with 1-entry index and value arrays was refused, and a
        # run after it never returned.  Each is refused before HiGHS loads.
        def no_highs(name):
            raise AssertionError(f"{name} loaded")

        monkeypatch.setattr(measures, "_scipy_extension", no_highs)
        # [[1, 0, 1], [0, 1, 0]] row-wise, or its transpose column-wise
        shape = (2, 3) if format == "csr" else (3, 2)
        a = measures._Compressed(format, shape, np.array(indptr), np.array(indices),
                                 np.array(data))
        with pytest.raises(ValueError, match="indptr entries, the last the length"):
            measures.linprog(np.ones(shape[1]), A_ub=a, b_lb=np.zeros(shape[0]),
                             b_ub=np.ones(shape[0]), bounds=(0.0, 1.0), options={})

    def test_passes_the_compressed_arrays_as_they_stand(self):
        # int64 indices and a non-contiguous data view reach HiGHS as int32 and
        # contiguous float64 copies; minimize -x1 - x2 - x3 subject to
        # x1 + x3 <= 1 and x2 <= 1 on [0, 1]^3: the value is -2
        dense = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        for a in (sparse.csr_array(dense), sparse.csc_array(dense)):
            a = measures._Compressed(a.format, a.shape, a.indptr.astype(np.int64),
                                     a.indices.astype(np.int64), np.repeat(a.data, 2)[::2])
            fun, dual = measures.linprog(-np.ones(3), A_ub=a, b_lb=[0.0, 0.0],
                                         b_ub=[1.0, 1.0], bounds=(0.0, 1.0), options={})
            assert fun == -2.0
            assert len(dual) == 2

    @pytest.mark.parametrize("key, value", [("presolve", False), ("presolve", "maybe"),
                                            ("primal_feasibility_tolerance", -1.0),
                                            ("no_such_option", 1)])
    def test_refuses_an_option_highs_refuses(self, key, value):
        a = sparse.csc_array(np.ones((1, 2)))
        with pytest.raises(ValueError, match=f"HiGHS refuses the option {key}"):
            measures.linprog(np.ones(2), A_eq=a, b_eq=[1.0], bounds=(0.0, 1.0),
                             options={key: value})

    def test_refuses_a_status_other_than_optimal(self):
        # x1 + x2 = 3 on the box [0, 1]^2 is infeasible
        a = sparse.csc_array(np.ones((1, 2)))
        with pytest.raises(RuntimeError, match="LP not solved: Infeasible"):
            measures.linprog(np.ones(2), A_eq=a, b_eq=[3.0], bounds=(0.0, 1.0), options={})

    def test_optimum_and_row_duals(self):
        # minimize x1 + 2 x2 subject to 1 <= x1 + x2 <= 2 on x >= 0: x = (1, 0),
        # and the row's dual is the cost of x1, 1
        a = sparse.csr_array(np.ones((1, 2)))
        fun, dual = measures.linprog(np.array([1.0, 2.0]), A_ub=a, b_lb=[1.0], b_ub=[2.0],
                                     bounds=(0.0, math.inf), options={})
        assert fun == 1.0
        assert dual.tolist() == [1.0]


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_sums_equal_the_sums_over_numpy_scalars(self, d):
        # math.fsum reads the terms as a list of floats: the same floats, the same sum
        rng = np.random.default_rng(7 + d)
        w = rng.uniform(0.1, 1.0, 50)
        mu = DiscreteMeasure(rng.normal(size=(50, d)), w / w.sum())
        psi = WeightFunction.norm_power(1.5)
        assert psi_integral(mu, psi) == math.fsum(mu.weights * psi(mu.atoms))
        tail = np.linalg.norm(mu.atoms, axis=1) > 0.8
        assert tail_psi_mass(mu, psi, 0.8) == math.fsum(mu.weights[tail] * psi(mu.atoms[tail]))

    @pytest.mark.parametrize("r", [-1.0, math.nan])
    def test_tail_radius_not_non_negative_refused(self, r):
        # r = nan passed the old check r < 0 and the mass read 0.0
        mu = DiscreteMeasure.uniform([[0.0], [3.0]])
        with pytest.raises(ValueError, match="r must be non-negative"):
            tail_psi_mass(mu, WeightFunction.norm_power(1), r)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_reference_of_non_finite_atoms_refused(self, bad):
        # a NaN atom was accepted and then matched no atom of any measure
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            ReferenceMeasure.finite([[0.0], [bad]])

    def test_finite_reference_is_canonicalized_once(self):
        cloud = [[1.0, 0.0], [0.0, -0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 0.0]]
        ell = ReferenceMeasure.finite(cloud, [1.0, 2.0, 3.0, 4.0, 5.0])
        atoms, weights, index = ell._canon
        # the cloud as given stays; the canonical form merges the copies
        assert ell.atoms.shape == (5, 2)
        np.testing.assert_array_equal(atoms, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(weights, [7.0, 3.0, 5.0])
        assert index == {a.tobytes(): k for k, a in enumerate(atoms)}
        assert not atoms.flags.writeable and not weights.flags.writeable
        assert ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])._canon is None

    def test_lebesgue_box(self):
        ell = ReferenceMeasure.lebesgue_box([(-1.0, 1.0)])
        assert not ell.is_finite and repr(ell) == "ReferenceMeasure(lebesgue_box(d=1))"
        vals = ell.log_density(np.array([[0.0], [2.0]]))
        assert vals[0] == 0.0 and vals[1] == -np.inf

    @pytest.mark.parametrize("bounds", [[[-np.inf, np.inf]], [[np.nan, 1.0]], [[0.0, np.inf]],
                                        [[0.0, 1.0], [np.nan, np.nan]], [[1.0, 1.0]],
                                        [[2.0, 1.0]], [0.0, 1.0], [[0.0, 1.0, 2.0]]])
    def test_box_bounds_refused(self, bounds):
        # non-finite bounds were accepted: mh_sample then failed in numpy's
        # uniform and normalize_pair at a NaN quadrature point
        match = r"^bounds must be a \(d, 2\) array of finite \(low, high\) pairs with low < high$"
        with pytest.raises(ValueError, match=match):
            ReferenceMeasure.lebesgue_box(bounds)
        with pytest.raises(ValueError, match=match):
            ReferenceMeasure.density_on_box(lambda pts: np.zeros(len(pts)), bounds)


def _random_weights(rng, k):
    w = rng.uniform(0.1, 1.0, size=k)
    return w / w.sum()
