import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import v_quadratic, w_sqdist
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
    DEFAULT_STARTS,
    DEFAULT_TOL,
    SCAN_ROW_BUDGET,
    GridSpec,
    _drop_inactive,
    _Objective,
    _active_set_qp,
    _mirror_descent,
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
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=4)
       .map(np.array)
       .filter(lambda p: np.min(np.linalg.norm(p[:, None] - p[None], axis=-1)
                                + 3 * np.eye(len(p))) > 0.05))
def test_active_set_within_the_lattice_bracket(nodes):
    result = minimize_J(coulomb_pair(2), GridSpec.from_points(nodes))
    obj, _ = build_objective_J(coulomb_pair(2), GridSpec.from_points(nodes))
    oracle, lattice_error = lattice_bracket(obj)
    slack = 1e-9 * max(1.0, abs(oracle))
    assert result.method == "active_set_qp"
    assert result.converged
    assert oracle - lattice_error - slack <= result.value <= oracle + slack


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


def test_active_set_exact_on_the_121_node_grid():
    result = minimize_J(coulomb_pair(2), GridSpec.regular(SQUARE, 0.2))
    assert result.method == "active_set_qp"
    assert result.convergence_gap <= 1e-12
    assert result.converged
    assert result.local is None
    assert result.value <= J_121_VALUE + 1e-12
    record = json.loads(result.to_json())
    assert record["converged"] is True
    assert "seeds" not in record


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
    assert tilted.method == shifted.method == "active_set_qp"
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
    W = masked_interaction(kind, coulomb_kernel(d), Region.box([[-0.5, 0.5]] * d),
                           segment_samples=50)
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
@pytest.mark.parametrize("bad", ["column", "nan", "-inf"])
def test_a_malformed_tilt_raises(solve, bad):
    grid = GridSpec.regular(SQUARE, 0.5)
    g = np.zeros(len(grid.nodes))
    if bad == "column":
        g = g[:, None]
    else:
        g[3] = {"nan": np.nan, "-inf": -np.inf}[bad]
    with pytest.raises(ValueError, match="tilt"):
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


class SquaredMean:
    """The non-linear tilt (1/2) (x . w)^2, x the nodes' first coordinate."""

    def __init__(self, nodes):
        self.x = nodes[:, 0]

    def value(self, w):
        return 0.5 * float(self.x @ w) ** 2

    def grad(self, w):
        return float(self.x @ w) * self.x


def test_nonlinear_tilt_on_J_keeps_the_untilted_support():
    # the untilted minimizer is symmetric, so x . w = 0 there and the tilt,
    # >= 0, leaves the minimum and its 21 atoms in place
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    grid = GridSpec.regular([(-1.0, 1.0)], 0.05)
    tilt = SquaredMean(grid.nodes)
    untilted = minimize_J(pair, grid)
    tilted = minimize_J(pair, grid, tilt=tilt)
    assert tilted.method == "mirror_descent" and tilted.converged
    assert untilted.minimizer.support_size == 21
    np.testing.assert_array_equal(tilted.minimizer.atoms, untilted.minimizer.atoms)
    # mirror descent alone leaves two spurious atoms above the measure's drop tolerance
    obj, _ = build_objective_J(pair, grid, tilt)
    inits = [np.full(obj.k, 1.0 / obj.k)]
    for j in _vertex_starts(obj.K, obj.v, DEFAULT_STARTS)[:DEFAULT_STARTS - 1]:
        inits.append(np.full(obj.k, 0.5 / obj.k))
        inits[-1][j] += 0.5
    raw, raw_value, _, _ = min((_mirror_descent(obj, w0, DEFAULT_TOL, 50000) for w0 in inits),
                               key=lambda run: run[1])
    assert np.sum(raw > 1e-15) == 23
    assert abs(tilted.value - raw_value) <= 1e-12
    w = np.zeros(obj.k)
    w[np.searchsorted(obj.nodes[:, 0], tilted.minimizer.atoms[:, 0])] = tilted.minimizer.weights
    assert tilted.value == pytest.approx(obj.value(w), abs=1e-15)


@pytest.mark.parametrize("v, dropped", [([0.0, 2.0, 3.0], True), ([0.0, 2.0, 0.5], False)])
def test_drop_inactive_keeps_a_clean_point_only_if_no_worse(v, dropped):
    # node 2 has weight 5e-10 and a gradient above the least one; dropping it
    # moves its mass to nodes 0 and 1, which lowers the value only when its
    # gradient lies above the mean gradient w . g = 1
    obj = _Objective(np.zeros((3, 1)), np.zeros((3, 3)), v=np.array(v))
    w = np.array([0.5, 0.5 - 5e-10, 5e-10])
    g = obj.grad(w)
    clean, value, gap = _drop_inactive(obj, w, obj.value(w), float(w @ g - g.min()), 1e-8)
    assert bool(clean[2] == 0.0) is dropped
    assert value == obj.value(clean)
    assert bool(value < obj.value(w)) is dropped


def test_single_start_I_matches_best_of_five():
    grid = GridSpec.regular(SQUARE, 0.2)
    result = minimize_I(coulomb_pair(2), box(2), grid)
    assert result.local is None and result.converged
    obj, _ = build_objective_I(coulomb_pair(2), box(2), grid)
    inits = np.random.default_rng(0).dirichlet(np.ones(obj.k), 5)
    best = min(_mirror_descent(obj, w0, DEFAULT_TOL, 20000)[1] for w0 in inits)
    assert result.value == pytest.approx(best, abs=1e-10)


@pytest.mark.parametrize("solve", [
    lambda grid, n: minimize_J(coulomb_pair(2), grid, max_iter=n),
    lambda grid, n: minimize_I(coulomb_pair(2), box(2), grid, max_iter=n),
], ids=["J", "I"])
def test_a_solve_stopped_by_max_iter_is_not_converged(solve):
    result = solve(GridSpec.regular(SQUARE, 0.2), 2)
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


@pytest.mark.parametrize("solve", [
    lambda: minimize_I(sqdist_pair(), box(2), GridSpec.regular(SQUARE, 0.5)),
    lambda: minimize_J(sqdist_pair(), GridSpec.regular(SQUARE, 0.5)),
    lambda: minimize_J(coulomb_pair(1), GridSpec.regular([(-1.0, 1.0)], 0.05),
                       tilt=SquaredMean(GridSpec.regular([(-1.0, 1.0)], 0.05).nodes)),
], ids=["I", "J", "tilted_J"])
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
