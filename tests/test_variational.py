import gc
import json
import math
import warnings
import weakref
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingW, v_quadratic, w_sqdist
from gibbslab import measures, variational
from gibbslab.measures import ReferenceMeasure
from gibbslab.potentials import (
    PotentialPair,
    Region,
    coulomb_kernel,
    masked_interaction,
    power_confinement,
)
from gibbslab.variational import (
    DEFAULT_TOL,
    SCAN_ROW_BUDGET,
    GridSpec,
    _Objective,
    _active_set_qp,
    _block_pivoting_qp,
    _mirror_descent,
    _sublevel_start,
    _tangent_psd_certified,
    _vertex_starts,
    build_objective_I,
    build_objective_J,
    minimize_I,
    minimize_J,
    simplex_scan_oracle,
)

# default_rng(0).uniform(-1, 1, (4, 2)): the fixed 4-node instance of the benchmark
FOUR_NODES = np.array([
    [0.27392337, -0.46042657],
    [-0.91805295, -0.96694473],
    [0.62654048, 0.82551115],
    [0.21327155, 0.45899312],
])
SQUARE = [(-1.0, 1.0), (-1.0, 1.0)]
# minimize_J on the 121-node grid of SQUARE; Frank-Wolfe stopped at 0.5407166668
J_121_VALUE = 0.5406995345353415


def coulomb_pair(d):
    return PotentialPair(power_confinement(2.0), coulomb_kernel(d), dim=d, symmetric=True)


def box(d):
    return ReferenceMeasure.density_on_box(
        lambda x: np.zeros(np.asarray(x).shape[:-1]), np.array([(-1.0, 1.0)] * d))


def sqdist_pair():
    return PotentialPair(v_quadratic, w_sqdist, dim=2, symmetric=True)


# three or four nodes in SQUARE, at least 0.05 apart
NODE_SETS = (st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=4)
             .map(np.array)
             .filter(lambda p: np.min(np.linalg.norm(p[:, None] - p[None], axis=-1)
                                      + 3 * np.eye(len(p))) > 0.05))


def lattice_bracket(obj):
    """The 0.01 lattice oracle's value and its lattice error, the Frank-Wolfe
    gap at the lattice minimizer: a convex f* lies in [value - error, value]."""
    scan = simplex_scan_oracle(obj, obj.nodes, 0.01)
    index = {node.tobytes(): i for i, node in enumerate(obj.nodes)}
    w = np.zeros(obj.k)
    for atom, weight in zip(scan.minimizer.atoms, scan.minimizer.weights):
        w[index[atom.tobytes()]] = weight
    g = obj.grad(w)
    return scan.value, float(w @ g - g.min())


@settings(max_examples=25, deadline=None)
@given(NODE_SETS)
def test_active_set_within_the_lattice_bracket(nodes):
    result = minimize_J(coulomb_pair(2), GridSpec.from_points(nodes))
    obj, _ = build_objective_J(coulomb_pair(2), GridSpec.from_points(nodes))
    oracle, lattice_error = lattice_bracket(obj)
    slack = 1e-9 * max(1.0, abs(oracle))
    certified = _tangent_psd_certified(obj.K)
    assert result.method == ("block_pivoting_qp" if certified else "active_set_qp")
    assert result.converged
    assert oracle - lattice_error - slack <= result.value <= oracle + slack


# the benchmark's certified I solves, pinned so that a change in the arithmetic
# of the objective or of mirror descent shows here
@pytest.mark.parametrize("grid, iterations", [
    (GridSpec.from_points(FOUR_NODES), 15),
    (GridSpec.regular(SQUARE, 0.1), 18),
], ids=["4_nodes", "441_nodes"])
def test_benchmark_I_solves_converge(grid, iterations):
    result = minimize_I(coulomb_pair(2), box(2), grid)
    assert result.method == "mirror_descent"
    assert result.converged and result.local is None
    assert result.iterations == iterations


@settings(max_examples=25, deadline=None)
@given(NODE_SETS)
def test_mirror_descent_within_the_lattice_bracket(nodes):
    # converged is not asserted: see the xfail below
    result = minimize_I(coulomb_pair(2), box(2), GridSpec.from_points(nodes))
    obj, _ = build_objective_I(coulomb_pair(2), box(2), GridSpec.from_points(nodes))
    oracle, lattice_error = lattice_bracket(obj)
    slack = 1e-9 * max(1.0, abs(oracle))
    assert oracle - lattice_error - slack <= result.value <= oracle + slack


@pytest.mark.xfail(strict=True, reason="mirror descent's line search, which tests the "
                   "value alone, stops at gap 1.24e-8 after 20 iterations")
def test_mirror_descent_converges_on_three_nodes():
    nodes = [(-0.7682687750584594, 0.24697951107500082),
             (0.553366228684596, 0.22600660210608092),
             (0.8345954095818053, -0.9208142466715943)]
    result = minimize_I(coulomb_pair(2), box(2), GridSpec.from_points(nodes))
    assert result.local is None
    assert result.converged


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, -1.0]), st.integers(3, 4).flatmap(lambda k: st.tuples(
    st.lists(st.integers(-2, 2), min_size=k, max_size=k),
    st.lists(st.integers(-2, 2), min_size=k, max_size=k))))
def test_active_set_on_a_rank_one_kernel(sign, draw):
    # K = a a^T is singular on the tangent space of every support of three or
    # more nodes, where the KKT system has no unique solution; K = -a a^T is
    # concave, and its minimum lies at the best vertex, the QP's first start
    a, v = (np.array(x, dtype=float) for x in draw)
    obj = _Objective(np.arange(len(a), dtype=float)[:, None], sign * np.outer(a, a),
                     v=v / 2)
    w, _, gap = _active_set_qp(obj.K, obj.v, _vertex_starts(obj.K, obj.v, 1)[0], 100)
    assert gap <= 1e-12
    oracle, lattice_error = lattice_bracket(obj)
    assert oracle - lattice_error - 1e-9 <= obj.value(w) <= oracle + 1e-9


def test_block_pivoting_exact_on_the_121_node_grid():
    result = minimize_J(coulomb_pair(2), GridSpec.regular(SQUARE, 0.2))
    assert result.method == "block_pivoting_qp"
    assert result.convergence_gap <= 1e-12
    assert result.converged
    assert result.local is None
    assert result.value <= J_121_VALUE + 1e-12
    record = json.loads(result.to_json())
    assert record["converged"] is True
    assert set(record) == {f.name for f in fields(variational.MinimizationResult)}
    assert record["minimizer"] == json.loads(result.minimizer.to_json())


def active_set_value(obj):
    """The value and weights of the active-set QP from the best vertex, the
    reference block pivoting is held to on certified kernels."""
    w, _, gap = _active_set_qp(obj.K, obj.v, _vertex_starts(obj.K, obj.v, 1)[0], 50000)
    assert gap <= 1e-12
    return obj.value(w), w


@pytest.mark.parametrize("pair, grid, pivots", [
    (coulomb_pair(1), GridSpec.regular([(-1.5, 1.5)], 0.01), 1),
    (coulomb_pair(2), GridSpec.regular(SQUARE, 0.2), 0),
    (coulomb_pair(2), GridSpec.regular(SQUARE, 0.1), 4),
], ids=["d1_301", "d2_121", "d2_441"])
def test_block_pivoting_equals_the_active_set_on_grids(pair, grid, pivots):
    result = minimize_J(pair, grid)
    obj, _ = build_objective_J(pair, grid)
    value, w = active_set_value(obj)
    assert result.method == "block_pivoting_qp"
    assert result.iterations == pivots
    assert result.local is None
    assert result.converged and result.convergence_gap <= 1e-12
    assert result.value == pytest.approx(value, rel=1e-12)
    np.testing.assert_array_equal(result.minimizer.atoms, obj.nodes[w > 0])
    np.testing.assert_allclose(result.minimizer.weights, w[w > 0], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(lambda k: st.tuples(
    st.lists(st.integers(-3, 3), min_size=k * k, max_size=k * k),
    st.lists(st.integers(-6, 6), min_size=k, max_size=k),
    st.lists(st.booleans(), min_size=k, max_size=k).filter(any))))
def test_block_pivoting_equals_the_active_set(draw):
    # K = A A^T + I is positive definite, so every passive set has a Newton
    # step; from any start the pivots end at the active set's optimum
    a, v, start = draw
    k = len(v)
    A = np.reshape(a, (k, k)).astype(float)
    obj = _Objective(np.arange(k, dtype=float)[:, None], A @ A.T + np.eye(k),
                     v=np.array(v, dtype=float))
    w, pivots, gap = _block_pivoting_qp(obj.K, obj.v, np.array(start), 100)
    value, _ = active_set_value(obj)
    assert pivots < 100
    assert gap <= 1e-12 * max(1.0, np.abs(obj.K).max())
    assert obj.value(w) == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_backup_rule_ends_a_cycle_of_full_swaps(monkeypatch):
    # full swaps from node 3 alone revisit their passive sets without end;
    # swapping one node at a time after BACKUP_SWAPS swaps ends at the optimum
    K = np.array([[30.0, 13.0, 1.0, 16.0, -20.0],
                  [13.0, 24.0, 14.0, -3.0, -20.0],
                  [1.0, 14.0, 14.0, -8.0, -5.0],
                  [16.0, -3.0, -8.0, 17.0, -5.0],
                  [-20.0, -20.0, -5.0, -5.0, 31.0]])
    v = np.array([-1.0, 0.0, 6.0, -6.0, -1.0])
    obj = _Objective(np.arange(5, dtype=float)[:, None], K, v=v)
    start = np.arange(5) == 3
    assert _tangent_psd_certified(K)
    value, optimum = active_set_value(obj)
    w, pivots, gap = _block_pivoting_qp(K, v, start, 100)
    assert pivots == 13 and gap <= 1e-13
    assert obj.value(w) == pytest.approx(value, rel=1e-15)
    np.testing.assert_allclose(w, optimum, rtol=0, atol=1e-15)
    monkeypatch.setattr(variational, "BACKUP_SWAPS", 1000)
    w, pivots, gap = _block_pivoting_qp(K, v, start, 100)
    assert pivots == 100 and gap > 1.0


def test_a_rank_one_kernel_falls_back_to_the_active_set():
    # W(x, y) = xy is positive semidefinite but has rank one, so the tangent
    # Hessian of the five-node start set is singular; J = (1/2) m^2 + m in
    # the mean m, least at m = -1
    pair = PotentialPair(lambda x: x[..., 0], lambda x, y: x[..., 0] * y[..., 0], dim=1,
                         symmetric=True)
    grid = GridSpec.from_points(np.arange(-2.0, 3.0)[:, None])
    obj, _ = build_objective_J(pair, grid)
    assert _tangent_psd_certified(obj.K)
    assert _sublevel_start(obj.K, obj.v).all()
    assert _block_pivoting_qp(obj.K, obj.v, _sublevel_start(obj.K, obj.v), 100) is None
    result = minimize_J(pair, grid)
    assert result.method == "active_set_qp"
    assert result.local is None
    assert result.converged
    assert result.value == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.01])
def test_J_of_the_1d_coulomb_gas_against_its_equilibrium_measure(h):
    # with V = x^2 and W = -|x - y| the minimizer of J is uniform on
    # [-1/2, 1/2], J* = -1/12; the grid minimum lies h^2 / 12 above it, at
    # W_1 = h / 4 from it
    result = minimize_J(coulomb_pair(1), GridSpec.regular([(-1.5, 1.5)], h))
    assert result.method == "block_pivoting_qp" and result.converged
    assert result.value + 1.0 / 12.0 == pytest.approx(h * h / 12.0, rel=1e-9)
    # quantile coupling: atom x holds the quantiles t in [lo, hi] of the
    # cumulative weights, and the uniform law's quantile is t - 1/2, so W_1
    # sums the integrals of |x + 1/2 - t| over [lo, hi]
    order = np.argsort(result.minimizer.atoms[:, 0])
    a = result.minimizer.atoms[order, 0] + 0.5
    hi = np.cumsum(result.minimizer.weights[order])
    lo = hi - result.minimizer.weights[order]
    w1 = np.sum((a - lo) * np.abs(a - lo) - (a - hi) * np.abs(a - hi)) / 2
    assert w1 == pytest.approx(h / 4, rel=1e-9)


def test_pair_of_another_dimension_refused():
    # a d = 1 Coulomb pair on a 2-D grid read only the first coordinate and
    # minimize_J returned -0.0625
    pair = coulomb_pair(1)
    grid = GridSpec.regular(SQUARE, 1.0)
    with pytest.raises(ValueError, match="declared for d = 1, but the grid is in d = 2"):
        build_objective_J(pair, grid)
    with pytest.raises(ValueError, match="declared for d = 1, but the grid is in d = 2"):
        minimize_J(pair, grid)
    with pytest.raises(ValueError, match="declared for d = 1, but the reference is in d = 2"):
        minimize_I(pair, box(2), grid)
    # the reference and the grid are each checked against the pair
    with pytest.raises(ValueError, match="declared for d = 2, but the reference is in d = 1"):
        build_objective_I(coulomb_pair(2), box(1), grid)
    with pytest.raises(ValueError, match="declared for d = 2, but the grid is in d = 1"):
        build_objective_I(coulomb_pair(2), box(2), GridSpec.regular([(-1.0, 1.0)], 0.5))


def test_min_spacing_only_for_a_singular_diagonal(monkeypatch):
    calls = []
    spacing = GridSpec.min_spacing
    monkeypatch.setattr(GridSpec, "min_spacing", lambda grid: calls.append(1) or spacing(grid))
    build_objective_J(coulomb_pair(1), GridSpec.from_points(FOUR_NODES[:, :1]))
    assert calls == []
    obj, _ = build_objective_J(coulomb_pair(2), GridSpec.from_points(FOUR_NODES))
    assert calls == [1]
    assert obj.surrogate["spacing"] == spacing(GridSpec.from_points(FOUR_NODES))


def test_grid_pair_budget(monkeypatch):
    assert len(GridSpec.regular(SQUARE, 0.05).nodes) == 1681
    # 40401 nodes: a (k, k, 2) pair block of 26 GB, refused before the mesh is built
    with pytest.raises(ValueError, match="40401 nodes in d = 2 .* exceeds the budget"):
        GridSpec.regular(SQUARE, 0.01)
    monkeypatch.setattr(variational, "GRID_PAIR_BUDGET", 32)
    assert len(GridSpec.from_points(FOUR_NODES).nodes) == 4      # 4 * 4 * 2 entries
    with pytest.raises(ValueError, match="5 nodes in d = 2 .* 50 entries"):
        GridSpec.from_points(np.vstack([FOUR_NODES, [[0.0, 0.0]]]))
    with pytest.raises(ValueError, match="9 nodes in d = 2"):
        GridSpec.regular(SQUARE, 1.0)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_regular_grid_step_not_positive_and_finite_refused(h):
    # nan and inf failed inside numpy ("arange: cannot compute length"), inf
    # after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid step h must be positive and finite"):
            GridSpec.regular(SQUARE, h)


@pytest.mark.parametrize("bounds", [[(-1.0, math.inf)], [(-math.inf, 1.0)], [(math.nan, 1.0)],
                                    [(-1.0, 1.0), (0.0, math.inf)]])
def test_regular_grid_bounds_not_finite_refused(bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^bounds must be a \(d, 2\) array of finite"):
            GridSpec.regular(bounds, 0.5)


@pytest.mark.parametrize("bounds", [[(1.0, 1.0)], [(1.0, -1.0)], [(-1.0, 1.0), (0.5, 0.0)]])
def test_regular_grid_bounds_not_ordered_refused(bounds):
    with pytest.raises(ValueError, match=r"^bounds must be a \(d, 2\) array of finite"):
        GridSpec.regular(bounds, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_nodes_refused(bad):
    # from_points took a NaN or infinite node
    nodes = [[0.0, 0.0], [1.0, bad]]
    with pytest.raises(ValueError, match="^point coordinates must be finite$"):
        GridSpec.from_points(nodes)
    obj = variational._Objective(np.zeros((2, 2)), np.eye(2), v=np.zeros(2))
    with pytest.raises(ValueError, match="^point coordinates must be finite$"):
        simplex_scan_oracle(obj, nodes, 0.5)


@pytest.mark.parametrize("d, h", [(1, 0.01), (2, 0.2)])
def test_tangent_certificate_accepts_indefinite_coulomb_kernels(d, h):
    obj, _ = build_objective_J(coulomb_pair(d), GridSpec.regular([(-1.0, 1.0)] * d, h))
    assert np.linalg.eigvalsh(obj.K).min() < -1.0     # indefinite on all of R^k
    assert _tangent_psd_certified(obj.K)


def test_tangent_certificate_rejects_a_concave_kernel():
    grid = GridSpec.regular(SQUARE, 0.5)
    obj, _ = build_objective_J(sqdist_pair(), grid)
    assert not _tangent_psd_certified(obj.K)
    result = minimize_J(sqdist_pair(), grid)
    assert result.method == "active_set_qp"
    assert result.local is True
    result_I = minimize_I(sqdist_pair(), box(2), grid)
    assert result_I.local is True


def test_linear_tilt_equals_shifted_confinement():
    grid = GridSpec.regular(SQUARE, 0.25)
    g = np.random.default_rng(5).normal(scale=0.3, size=len(grid.nodes))
    shift = {node.tobytes(): gi for node, gi in zip(grid.nodes, g)}
    base = power_confinement(2.0)

    def V(x):
        x = np.asarray(x, dtype=float)
        return base(x) + np.array([shift[p.tobytes()] for p in x.reshape(-1, 2)]
                                  ).reshape(x.shape[:-1])

    tilted = minimize_J(coulomb_pair(2), grid, tilt=g)
    shifted = minimize_J(PotentialPair(V, coulomb_kernel(2), dim=2, symmetric=True), grid)
    assert tilted.method == shifted.method == "block_pivoting_qp"
    assert tilted.value == pytest.approx(shifted.value, abs=1e-12)
    np.testing.assert_array_equal(tilted.minimizer.atoms, shifted.minimizer.atoms)
    np.testing.assert_allclose(tilted.minimizer.weights, shifted.minimizer.weights,
                               atol=1e-12)


# Frank-Wolfe with away steps from five starts, the solver minimize_J used on
# uncertified kernels before the QP served them, reached these values
@pytest.mark.parametrize("kind, d, h, frank_wolfe_value", [
    ("w1", 1, 0.05, -0.08309375),
    ("w2", 2, 0.1, 0.2351047790),
])
def test_active_set_on_uncertified_masked_kernels(kind, d, h, frank_wolfe_value):
    W = masked_interaction(kind, coulomb_kernel(d), Region.box([[-0.5, 0.5]] * d))
    pair = PotentialPair(power_confinement(2.0), W, dim=d, symmetric=True)
    grid = GridSpec.regular([(-1.0, 1.0)] * d, h)
    assert not _tangent_psd_certified(build_objective_J(pair, grid)[0].K)
    result = minimize_J(pair, grid)
    assert result.method == "active_set_qp"
    assert result.local is True
    assert result.convergence_gap <= 1e-12
    assert result.converged
    assert result.value <= frank_wolfe_value + 1e-9


def test_vertex_starts():
    K = np.array([[0.0, 3.0, 1.0], [3.0, 2.0, 0.0], [1.0, 0.0, 4.0]])
    v = np.array([1.0, 0.0, -1.0])
    # 0.5 diag(K) + v = (1, 1, 1): the first node; K.mean(1) + v = (7/3, 5/3, 2/3)
    assert _vertex_starts(K, v, 1) == [0]
    assert _vertex_starts(K, v, 2) == [0, 2]
    assert _vertex_starts(K, v, 5) == [0, 2, 1]


@pytest.mark.parametrize("solve", [
    lambda grid, tilt: minimize_J(coulomb_pair(2), grid, tilt=tilt),
    lambda grid, tilt: minimize_I(coulomb_pair(2), box(2), grid, tilt=tilt),
], ids=["J", "I"])
@pytest.mark.parametrize("bad", ["column", "nan", "-inf", "object"])
def test_a_malformed_tilt_raises(solve, bad):
    grid = GridSpec.regular(SQUARE, 0.5)
    g = np.zeros(len(grid.nodes))
    if bad == "column":
        g = g[:, None]
    elif bad == "object":
        # a tilt is the linear functional g . w; a non-linear one is refused
        g = SimpleNamespace(value=lambda w: 0.0, grad=lambda w: np.zeros_like(w))
    else:
        g[3] = {"nan": np.nan, "-inf": -np.inf}[bad]
    with pytest.raises(TypeError if bad == "object" else ValueError, match="tilt"):
        solve(grid, g)


def test_linear_tilt_on_I_equals_shifted_confinement():
    grid = GridSpec.regular(SQUARE, 0.25)
    g = np.random.default_rng(6).normal(scale=0.3, size=len(grid.nodes))
    shift = {node.tobytes(): gi for node, gi in zip(grid.nodes, g)}
    base = power_confinement(2.0)

    def V(x):
        x = np.asarray(x, dtype=float)
        return base(x) + np.array([shift[p.tobytes()] for p in x.reshape(-1, 2)]
                                  ).reshape(x.shape[:-1])

    tilted = minimize_I(coulomb_pair(2), box(2), grid, tilt=g)
    shifted = minimize_I(PotentialPair(V, coulomb_kernel(2), dim=2, symmetric=True),
                         box(2), grid)
    # shifting V by g renormalizes the reference: the values differ by the
    # log of its normalizer, sum_i nu_i exp(-g_i)
    nu = build_objective_I(coulomb_pair(2), box(2), grid)[0].nu
    assert tilted.converged and shifted.converged
    assert tilted.local is None and shifted.local is None
    assert tilted.value == pytest.approx(shifted.value - np.log(nu @ np.exp(-g)), abs=1e-10)
    np.testing.assert_array_equal(tilted.minimizer.atoms, shifted.minimizer.atoms)
    np.testing.assert_allclose(tilted.minimizer.weights, shifted.minimizer.weights,
                               atol=1e-8)


def test_linear_tilt_on_J_keeps_the_untilted_support():
    # g = 0 on the untilted support and 1 elsewhere leaves the KKT conditions
    # in place: the gradient on the support is unchanged and rises off it
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    grid = GridSpec.regular([(-1.0, 1.0)], 0.05)
    untilted = minimize_J(pair, grid)
    assert untilted.minimizer.support_size == 21
    g = np.where(np.isin(grid.nodes[:, 0], untilted.minimizer.atoms[:, 0]), 0.0, 1.0)
    tilted = minimize_J(pair, grid, tilt=g)
    assert tilted.method == untilted.method == "block_pivoting_qp"
    assert tilted.converged and tilted.local is None
    np.testing.assert_array_equal(tilted.minimizer.atoms, untilted.minimizer.atoms)
    assert abs(tilted.value - untilted.value) <= 1e-12


def test_single_start_I_matches_best_of_five():
    grid = GridSpec.regular(SQUARE, 0.2)
    result = minimize_I(coulomb_pair(2), box(2), grid)
    assert result.local is None and result.converged
    obj, _ = build_objective_I(coulomb_pair(2), box(2), grid)
    inits = np.random.default_rng(0).dirichlet(np.ones(obj.k), 5)
    best = min(_mirror_descent(obj, w0, DEFAULT_TOL, 20000)[1] for w0 in inits)
    assert result.value == pytest.approx(best, abs=1e-10)


# block pivoting solves the 121-node grid from its start, in 0 pivots, and
# the 441-node grid in 4
@pytest.mark.parametrize("solve", [
    lambda n: minimize_J(coulomb_pair(2), GridSpec.regular(SQUARE, 0.1), max_iter=n),
    lambda n: minimize_I(coulomb_pair(2), box(2), GridSpec.regular(SQUARE, 0.2), max_iter=n),
], ids=["J", "I"])
def test_a_solve_stopped_by_max_iter_is_not_converged(solve):
    result = solve(2)
    assert result.iterations == 2
    assert result.convergence_gap > DEFAULT_TOL
    assert not result.converged
    assert json.loads(result.to_json())["converged"] is False


@pytest.mark.parametrize("k, step", [(2, 1e-3), (3, 1e-3), (4, 0.01)])
def test_scan_oracle_runs_within_its_row_budget(k, step):
    obj, _ = build_objective_J(coulomb_pair(2), GridSpec.from_points(FOUR_NODES[:k]))
    scan = simplex_scan_oracle(obj, obj.nodes, step)
    assert scan.iterations <= SCAN_ROW_BUDGET
    assert scan.converged


def test_scan_oracle_refuses_a_lattice_over_budget():
    obj, _ = build_objective_J(coulomb_pair(2), GridSpec.from_points(FOUR_NODES))
    with pytest.raises(ValueError, match="exceeds the budget"):
        simplex_scan_oracle(obj, obj.nodes, 1e-3)


@pytest.mark.parametrize("pair, certified", [(lambda: coulomb_pair(2), True),
                                             (sqdist_pair, False)],
                         ids=["certified", "uncertified"])
def test_I_ranks_only_the_vertices_it_runs(monkeypatch, pair, certified):
    # a certified solve runs the uniform start alone; an uncertified one runs
    # the uniform weights, nu and three vertices
    counts, starts = [], []
    vertex_starts, mirror_descent = variational._vertex_starts, variational._mirror_descent
    monkeypatch.setattr(variational, "_vertex_starts",
                        lambda K, v, count: counts.append(count) or vertex_starts(K, v, count))
    monkeypatch.setattr(variational, "_mirror_descent",
                        lambda obj, w0, *a: starts.append(w0) or mirror_descent(obj, w0, *a))
    result = minimize_I(pair(), box(2), GridSpec.regular(SQUARE, 0.5))
    assert result.local is (None if certified else True)
    assert counts == ([] if certified else [variational.DEFAULT_STARTS - 2])
    assert len(starts) == (1 if certified else variational.DEFAULT_STARTS)
    np.testing.assert_array_equal(starts[0], np.full(len(starts[0]), 1.0 / len(starts[0])))


@pytest.mark.parametrize("solve", [
    lambda: minimize_I(sqdist_pair(), box(2), GridSpec.regular(SQUARE, 0.5)),
    lambda: minimize_J(sqdist_pair(), GridSpec.regular(SQUARE, 0.5)),
], ids=["I", "J"])
def test_uncertified_solves_are_deterministic(solve):
    first, second = solve(), solve()
    assert first.local is True
    assert (first.value, first.iterations, first.convergence_gap) == (
        second.value, second.iterations, second.convergence_gap)
    np.testing.assert_array_equal(first.minimizer.atoms, second.minimizer.atoms)
    np.testing.assert_array_equal(first.minimizer.weights, second.minimizer.weights)


def test_a_repeated_reference_atom_adds_its_weights():
    # the copies of atom 0 weigh 1 + 1, as rate_I, the exact law and the sampler count them
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    grid = GridSpec.from_points([[0.0], [1.0]])
    repeated = minimize_I(pair, ReferenceMeasure.finite([[0.0], [0.0], [1.0]], [1.0, 1.0, 1.0]),
                          grid)
    merged = minimize_I(pair, ReferenceMeasure.finite([[0.0], [1.0]], [2.0, 1.0]), grid)
    assert repeated.value == pytest.approx(merged.value, abs=1e-12)
    assert repeated.value == pytest.approx(-0.1583, abs=1e-4)
    np.testing.assert_allclose(repeated.minimizer.weights, merged.minimizer.weights,
                               atol=1e-9)
    np.testing.assert_allclose(repeated.minimizer.weights, [0.763, 0.237], atol=1e-3)


def test_a_finite_reference_is_not_merged_again_per_build(monkeypatch):
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    grid = GridSpec.from_points([[-0.0], [1.0], [2.0]])
    ell = ReferenceMeasure.finite([[0.0], [1.0], [-0.0], [3.0]], [1.0, 2.0, 0.5, 1.0])
    expected = build_objective_I(pair, ell, grid)

    def refuse(*args):
        raise AssertionError("a finite reference was merged again")

    # wherever a module may hold the canonicalizer
    for module in (measures, variational):
        monkeypatch.setattr(module, "_merge_atoms", refuse, raising=False)
    obj, feasible = build_objective_I(pair, ell, grid)
    # node 2 is not an atom of ell; the copies of 0 weigh 1 + 0.5
    np.testing.assert_array_equal(feasible, [0, 1])
    np.testing.assert_array_equal(feasible, expected[1])
    np.testing.assert_array_equal(obj.nu, expected[0].nu)
    raw = np.array([1.5, 2.0 * np.exp(-1.0)])
    np.testing.assert_allclose(obj.nu, raw / raw.sum(), rtol=1e-15)


def test_grid_nodes_are_read_only():
    points = np.array(FOUR_NODES)
    grid = GridSpec.from_points(points)
    for nodes in (grid.nodes, GridSpec.regular(SQUARE, 0.5).nodes):
        with pytest.raises(ValueError, match="read-only"):
            nodes[0, 0] = 5.0
    # the grid holds its own copy: the caller's array stays writable
    points[0, 0] = 5.0
    assert grid.nodes[0, 0] == FOUR_NODES[0, 0]


def kernel_build_calls():
    """The W calls one build of a singular kernel makes, whatever the grid's size."""
    W = CountingW(coulomb_kernel(2), refuse_identical=False)
    build_objective_J(PotentialPair(power_confinement(2.0), W, dim=2, symmetric=True),
                      GridSpec.regular(SQUARE, 1.0))
    return W.calls


@pytest.mark.parametrize("h", [0.1, 0.1 / math.sqrt(2)], ids=["h_0.1", "h_0.0707"])
def test_moment_tilts_trace_the_rate_of_the_second_moment(h):
    # the contraction principle for r = int |x|^2 dmu: the minimizer mu_t of
    # J - t int |x|^2 has the moment r_t, and J(mu_t) - J* is the rate of r_t,
    # r - 1/4 - (1/4) log 4r for d = 2 Coulomb with V = |x|^2; on the grid it
    # holds to O(h^2), err / h^2 measured 0.184-0.189, 0.036-0.038 and
    # 0.093-0.095 at t = -1, 0.2 and 0.5.  The four solves on one grid and one
    # pair build the kernel once.
    W = CountingW(coulomb_kernel(2), refuse_identical=False)
    pair = PotentialPair(power_confinement(2.0), W, dim=2, symmetric=True)
    grid = GridSpec.regular([(-1.5, 1.5)] * 2, h)
    moment = np.sum(grid.nodes ** 2, axis=1)
    untilted = minimize_J(pair, grid)
    assert untilted.local is None and untilted.converged
    for t in (-1.0, 0.2, 0.5):
        result = minimize_J(pair, grid, tilt=-t * moment)
        assert result.method == "block_pivoting_qp"
        assert result.local is None and result.converged
        r = result.minimizer.weights @ np.sum(result.minimizer.atoms ** 2, axis=1)
        rate = r - 0.25 - 0.25 * np.log(4 * r)
        assert abs(result.value + t * r - untilted.value - rate) <= 0.25 * h * h
    assert W.calls == kernel_build_calls()


def distinct_points(d):
    """4 to 40 distinct points of the lattice (1/10) Z^d in [-1, 1]^d."""
    coordinate = st.integers(-10, 10)
    return (st.lists(st.tuples(*[coordinate] * d), min_size=4, max_size=40, unique=True)
            .map(lambda p: np.array(p, dtype=float) / 10))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(distinct_points), st.data())
def test_a_kept_kernel_solves_as_a_cold_one(nodes, data):
    # I and J solved on a pair and a grid that already hold a kernel entry
    # give the record, byte for byte, of a cold solve on a fresh pair and grid
    k, d = nodes.shape
    tilts = st.lists(st.floats(-1, 1), min_size=k, max_size=k).map(np.array)
    first, tilt = data.draw(tilts, label="first"), data.draw(tilts, label="tilt")
    solves = [lambda pair, grid, g: minimize_J(pair, grid, tilt=g, max_iter=500),
              lambda pair, grid, g: minimize_I(pair, box(d), grid, tilt=g, max_iter=500)]
    pair, grid = coulomb_pair(d), GridSpec.from_points(nodes)
    for solve in solves:
        solve(pair, grid, first)
    entry = grid._kernels[pair]
    for solve in solves:
        cold = solve(coulomb_pair(d), GridSpec.from_points(nodes), tilt)
        assert solve(pair, grid, tilt).to_json() == cold.to_json()
    assert grid._kernels[pair] is entry and len(grid._kernels) == 1


def test_a_kernel_entry_dies_with_its_pair():
    grid = GridSpec.regular(SQUARE, 0.5)
    pair = coulomb_pair(2)
    minimize_J(pair, grid)
    minimize_I(pair, box(2), grid)
    assert list(grid._kernels.keys()) == [pair]
    K = weakref.ref(grid._kernels[pair].K)
    pair = weakref.ref(pair)
    gc.collect()
    # the entry refers to no pair, so the pair dies, and its entry with it
    assert pair() is None and K() is None
    assert len(grid._kernels) == 0


def test_a_new_W_or_feasible_set_rebuilds_the_kernel():
    grid = GridSpec.regular(SQUARE, 0.5)
    W = CountingW(coulomb_kernel(2), refuse_identical=False)
    pair = PotentialPair(power_confinement(2.0), W, dim=2, symmetric=True)
    expected = minimize_J(pair, grid).to_json()
    entry, calls = grid._kernels[pair], W.calls
    # a V that keeps every node feasible, and the I objective on the box, keep the entry
    pair.V = lambda x: 2.0 * power_confinement(2.0)(x)
    minimize_J(pair, grid)
    minimize_I(pair, box(2), grid)
    assert grid._kernels[pair] is entry and W.calls == calls
    # a V infinite off the first axis drops 20 of the 25 nodes
    pair.V = lambda x: np.where(np.asarray(x)[..., 1] == 0.0, 0.0, np.inf)
    line = minimize_J(pair, grid)
    assert len(grid._kernels[pair].feasible) == 5 and W.calls == 2 * calls
    assert not np.any(line.minimizer.atoms[:, 1])
    pair.V = power_confinement(2.0)
    assert minimize_J(pair, grid).to_json() == expected
    assert W.calls == 3 * calls
    # a new W object, even of the same function, is built again
    entry = grid._kernels[pair]
    pair.W = CountingW(coulomb_kernel(2), refuse_identical=False)
    assert minimize_J(pair, grid).to_json() == expected
    assert grid._kernels[pair] is not entry
    assert pair.W.calls == calls and W.calls == 3 * calls


def test_the_kept_kernel_is_read_only():
    grid = GridSpec.regular(SQUARE, 0.5)
    pair = coulomb_pair(2)
    obj, _ = build_objective_J(pair, grid)
    assert obj.K is grid._kernels[pair].K
    with pytest.raises(ValueError, match="read-only"):
        obj.K[0, 0] = 0.0
    # each objective owns its surrogate record
    obj.surrogate["offset"] = 1.0
    assert build_objective_I(pair, box(2), grid)[0].surrogate["offset"] == 0.25
