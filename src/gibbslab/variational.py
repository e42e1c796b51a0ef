"""Variational minimization of the rate functionals over grid-supported measures.

Measures are discretized on a fixed finite grid; the solvers minimize over
the probability simplex on the grid nodes.  Grid infima upper-approximate the
continuum infima and converge under refinement for the catalog potentials.

On a grid, J(w) = (1/2) w^T K w + v . w is a quadratic on the simplex for
every interaction W, and I adds the relative entropy to the reference.  A
linear tilt g . w (an array) is folded into v when the objective is built;
only a non-linear tilt (an object with ``value`` and ``grad``) stays a
separate term.

A convexity certificate decides how far a solver's answer can be trusted.
Only the curvature along the simplex matters: w^T K w is convex on the
simplex exactly when K is positive semidefinite on its tangent space
{x : 1^T x = 0}.  ``_tangent_psd_certified`` tests that by a Cholesky
factorization of Z^T K Z, with Z = [I; -1^T] a basis of the tangent space.
The Coulomb grid kernels in d = 1 and 2 pass although K itself is indefinite
(smallest eigenvalue -140 on 201 nodes in d = 1); most masked, discontinuous
kernels fail.

Both solvers build their objective and hand it to one driver, ``_solve``,
with one start policy and no randomness: two calls return the same result.
A certified kernel with no non-linear tilt makes the problem convex: one
start suffices and the answer is global (``local=None``).  Otherwise the
driver runs ``DEFAULT_STARTS`` fixed starts, keeps the lowest value and
reports ``local=True``.

* ``minimize_J`` -- pure energy.  Without a non-linear tilt, an exact primal
  active-set QP (``_active_set_qp``) solves the KKT system on the current
  support, from the best vertex and, on uncertified kernels, also from the
  vertices of least gradient at the uniform point.  It ends at the optimum
  of a convex problem, and at a KKT point of any other, up to rounding.  A
  non-linear tilt runs entropic mirror descent from the uniform weights and
  from the midpoints between them and those vertices, and its minimizer
  drops the tiny weights of KKT-inactive nodes.
* ``minimize_I`` -- entropy + interaction, by entropic mirror descent with a
  monotone line-search safeguard, from the uniform weights and, on
  uncertified kernels or under a non-linear tilt, also from the reference
  weights and the midpoints between the uniform weights and the vertices of
  least value or least gradient.
* ``simplex_scan_oracle`` -- exhaustive scan of a weight lattice on at most
  four nodes, the brute-force ground truth the solvers are tested against.

Singular kernels (+inf on the diagonal, e.g. Coulomb in d >= 2) make every
measure with atoms carry infinite energy, a discretization ambiguity the
continuum formulation never meets.  The solvers then run on the
off-diagonal-corrected objective plus a self-energy surrogate
(1/2) w_i^2 * W(a_i, a_i + (h/2) e_1) per node, and the result records the
surrogate so downstream comparisons use the same convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._enum import compositions_array
from .measures import (DiscreteMeasure, ReferenceMeasure, _as_points, _merge_atoms,
                       _squared_distance)
from .potentials import PotentialPair, evaluate_V, evaluate_W, pair_matrix

DEFAULT_TOL = 1e-8
DEFAULT_STARTS = 5
SCAN_NODE_LIMIT = 4
# Most entries of a GridSpec's (k, k, d) pair block.  A build allocates k x k
# arrays.  The catalog kernels and min_spacing sum squared distances one
# coordinate plane at a time, so theirs stay k x k, but a W that forms the node
# differences x_i - x_j (through pair_matrix) makes that block, 8 k^2 d bytes.
# The check runs on k^2 d before any k x k array exists, so a grid too fine
# fails with this message instead of at the allocation.  2^27 entries are
# 1 GiB: 8192 nodes in d = 2, where the 1681-node grid of step 0.05 on
# [-1, 1]^2 needs 45 MB.
# Kernels that sample segments (masked_interaction) make blocks larger still.
GRID_PAIR_BUDGET = 2**27
# Largest weight lattice the scan oracle builds: about 64 MB of int64 rows on
# four nodes.  Step 0.01 on four nodes needs 176851 rows; 1e-3 needs 1.7e8.
SCAN_ROW_BUDGET = 2_000_000
# Relative size of the Frank-Wolfe gap the active-set QP treats as rounding.
QP_ROUNDING = 1e-13
# Weights below this, at nodes whose gradient is above the least one by more
# than tol, are dropped from a mirror-descent minimizer of J.
SUPPORT_DROP_TOL = 1e-9


def _check_pair_budget(k, d):
    if k * k * d > GRID_PAIR_BUDGET:
        raise ValueError(f"a grid of {k} nodes in d = {d} has a (k, k, d) pair block of "
                         f"{k * k * d} entries, which exceeds the budget of {GRID_PAIR_BUDGET}")


class GridSpec:
    """Finite node set for discretizing measures: a regular box grid or an
    explicit point list."""

    def __init__(self, nodes, step=None):
        nodes = _as_points(nodes)
        if len(nodes) < 1:
            raise ValueError("grid needs at least one node")
        _check_pair_budget(*nodes.shape)
        self._nodes = nodes
        self.step = step

    @classmethod
    def regular(cls, bounds, h):
        b = np.asarray(bounds, dtype=float)
        if h <= 0:
            raise ValueError("grid step h must be positive")
        axes = [np.arange(lo, hi + h / 2, h) for lo, hi in b]
        if any(len(a) < 2 for a in axes):
            raise ValueError("each axis needs at least two nodes")
        _check_pair_budget(math.prod(len(a) for a in axes), len(axes))
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(nodes, step=h)

    @classmethod
    def from_points(cls, points):
        return cls(points, step=None)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def dim(self) -> int:
        return self._nodes.shape[1]

    def min_spacing(self) -> float:
        if self.step is not None:
            return self.step
        pts = self._nodes
        if len(pts) < 2:
            return 1.0
        d2 = _squared_distance(pts[:, None, :], pts[None, :, :])
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min()))


@dataclass
class MinimizationResult:
    minimizer: DiscreteMeasure
    value: float
    iterations: int
    convergence_gap: float
    method: str
    converged: bool
    local: bool | None = None
    surrogate: dict | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "iterations": self.iterations,
                "convergence_gap": self.convergence_gap,
                "method": self.method,
                "converged": self.converged,
                "local": self.local,
                "surrogate": self.surrogate,
                "minimizer": json.loads(self.minimizer.to_json()),
            },
            sort_keys=True,
        )


def _fold_tilt(tilt, k):
    """Split ``tilt`` into (g, non-linear tilt).  An array is the linear
    functional g . w on the k feasible nodes, which the builders fold into v;
    an object with ``value`` and ``grad`` stays a separate term."""
    if tilt is None:
        return None, None
    if isinstance(tilt, (list, tuple, np.ndarray)):
        g = np.asarray(tilt, dtype=float)
        if g.shape != (k,):
            raise ValueError(f"tilt of shape {g.shape} does not match the {k} "
                             "feasible nodes")
        if not np.all(np.isfinite(g)):
            raise ValueError("tilt values must be finite")
        return g, None
    if hasattr(tilt, "value") and hasattr(tilt, "grad"):
        return None, tilt
    raise TypeError("tilt must be None, an array, or provide value/grad")


class _Objective:
    """Simplex objective: optional entropy vs nu, quadratic kernel, linear v and
    an optional non-linear tilt."""

    def __init__(self, nodes, kernel, v=None, nu=None, tilt=None, surrogate=None):
        self.nodes = nodes
        self.K = kernel
        self.v = v
        self.nu = nu
        self.tilt = tilt
        self.surrogate = surrogate

    @property
    def k(self):
        return len(self.nodes)

    def value(self, w):
        total = 0.5 * float(w @ (self.K @ w))
        if self.v is not None:
            total += float(self.v @ w)
        if self.nu is not None:
            mask = w > 0
            total += float(np.sum(w[mask] * np.log(w[mask] / self.nu[mask])))
        if self.tilt is not None:
            total += self.tilt.value(w)
        return total

    def grad(self, w):
        g = self.K @ w
        if self.v is not None:
            g = g + self.v
        if self.nu is not None:
            wsafe = np.maximum(w, 1e-300)
            g = g + np.log(wsafe / self.nu) + 1.0
        if self.tilt is not None:
            g = g + self.tilt.grad(w)
        return g

    def value_batch(self, wmat):
        totals = 0.5 * np.einsum("bi,ij,bj->b", wmat, self.K, wmat)
        if self.v is not None:
            totals = totals + wmat @ self.v
        if self.nu is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(wmat > 0, wmat * np.log(wmat / self.nu), 0.0)
            totals = totals + terms.sum(axis=1)
        if self.tilt is not None:
            totals = totals + np.array([self.tilt.value(w) for w in wmat])
        return totals


def _kernel_on_nodes(pair: PotentialPair, nodes, grid: GridSpec):
    """Symmetrized kernel matrix with the diagonal surrogate where singular."""
    K = pair_matrix(pair.W, nodes, nodes)
    surrogate = None
    diag = np.diag(K)
    if np.any(diag == np.inf):
        spacing = grid.min_spacing()
        offset = spacing / 2.0
        probe = nodes.copy()
        probe[:, 0] += offset
        bar = evaluate_W(pair.W, nodes, probe)
        K = K.copy()
        np.fill_diagonal(K, bar)
        surrogate = {"kind": "self-energy", "spacing": spacing, "offset": offset}
    if np.any(~np.isfinite(K)):
        raise ValueError(
            "kernel is infinite off the diagonal on this grid; "
            "the variational solvers only correct diagonal singularities"
        )
    return 0.5 * (K + K.T), surrogate


def _node_reference(ref: ReferenceMeasure, pair: PotentialPair, nodes):
    """Normalized weights of exp(-V) ell restricted to the grid nodes."""
    v_vals = evaluate_V(pair.V, nodes)
    if ref.is_finite:
        # a finite reference may repeat an atom: its copies' weights add up
        atoms, weights = _merge_atoms(ref.atoms + 0.0, ref.weights)
        lookup = {a.tobytes(): w for a, w in zip(atoms, weights)}
        ell_w = np.array([lookup.get((n + 0.0).tobytes(), 0.0) for n in nodes])
    else:
        logdens = np.asarray(ref.log_density(nodes), dtype=float)
        with np.errstate(over="ignore"):
            ell_w = np.exp(logdens)
    with np.errstate(over="ignore"):
        raw = ell_w * np.exp(-v_vals)
    total = raw.sum()
    if not (0.0 < total < np.inf):
        raise ValueError("reference restricted to the grid has no mass")
    return raw / total


def _mirror_descent(obj: _Objective, w0, tol, max_iter):
    w = np.array(w0, dtype=float)
    w = w / w.sum()
    fval = obj.value(w)
    eta = 1.0
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = obj.grad(w)
        gap = float(w @ g - g.min())
        if gap < tol:
            break
        improved = False
        for _ in range(60):
            e = -eta * g
            e -= e.max()
            trial = w * np.exp(e)
            s = trial.sum()
            if s <= 0 or not np.isfinite(s):
                eta *= 0.5
                continue
            trial = trial / s
            ftrial = obj.value(trial)
            if ftrial <= fval:
                w = np.maximum(trial, 1e-300)
                w = w / w.sum()
                fval = ftrial
                eta = min(eta * 1.3, 50.0)
                improved = True
                break
            eta *= 0.5
        if not improved:
            break
    return w, fval, it, gap


def _tangent_hessian(K):
    """Z^T K Z for the basis Z = [I; -1^T] of the tangent space {1^T x = 0}."""
    last = K[:-1, -1]
    return K[:-1, :-1] - last[:, None] - last[None, :] + K[-1, -1]


def _support_step(KS, gS):
    """A step p with 1^T p = 0 on the support, and whether it is the Newton step.

    The Newton step goes to the minimizer of the quadratic on the support's
    affine hull; it solves the KKT system [K_SS 1; 1^T 0] in the tangent basis.
    Where the tangent Hessian is not positive definite (singular, or indefinite
    on a kernel that fails the tangent-space certificate), p is instead a unit
    direction of least curvature, zero or negative, along which the objective
    does not increase; the caller follows it until a weight reaches zero.
    """
    H = _tangent_hessian(KS)
    r = gS[:-1] - gS[-1]
    try:
        y = -cho_solve(cho_factor(H), r)
        newton = True
    except np.linalg.LinAlgError:
        y = np.linalg.eigh(H)[1][:, 0]
        if r @ y > 0:
            y = -y
        newton = False
    return np.append(y, -y.sum()), newton


def _active_set_qp(K, v, start, max_iter):
    """Primal active-set method for (1/2) w^T K w + v . w on the simplex, for
    any symmetric K, from the vertex of node ``start``.

    From the minimizer on the current support it adds the node of least
    gradient; otherwise it steps towards that minimizer and, when the step
    leaves the simplex, stops at the first weight that reaches zero and drops
    that node.  Where the support has no minimizer (the tangent Hessian is
    not positive definite), it follows a direction of least curvature to the
    first weight that reaches zero.  When K is positive semidefinite on the
    tangent space it ends after finitely many steps at the optimum up to
    rounding; on any other K it ends at a KKT point, in general only a local
    minimum.  ``max_iter`` bounds its add and drop steps.  Returns
    (w, iterations, gap).
    """
    floor = QP_ROUNDING * max(1.0, float(np.abs(K).max()), float(np.abs(v).max()))
    w = np.zeros(len(v))
    support = [start]
    w[start] = 1.0
    stationary = True
    it = 0
    while True:
        g = K[:, support] @ w[support] + v
        j = int(np.argmin(g))
        gap = float(w @ g - g[j])
        # a stationary support that holds the least gradient is optimal to rounding
        if gap <= floor or it >= max_iter or (stationary and j in support):
            return w, it, gap
        it += 1
        if stationary:
            support.append(j)
        S = np.array(support)
        p, newton = _support_step(K[np.ix_(S, S)], g[S])
        shrinking = np.flatnonzero(p < 0)
        ratios = w[S[shrinking]] / -p[shrinking]
        alpha, blocking = (1.0 if newton else np.inf), None
        if len(ratios) and ratios.min() < alpha:
            alpha = float(ratios.min())
            blocking = S[shrinking[np.argmin(ratios)]]
        w[S] = np.maximum(w[S] + alpha * p, 0.0)
        if blocking is not None:
            w[blocking] = 0.0
        w /= w.sum()
        support = [i for i in support if w[i] > 0]
        stationary = blocking is None or len(support) == 1


def _finish(obj, best_w, best_val, iterations, gap, method, feasible, all_nodes,
            local, tol):
    weights = np.zeros(len(all_nodes))
    weights[feasible] = best_w
    keep = weights > 0
    minimizer = DiscreteMeasure(all_nodes[keep], weights[keep] / weights[keep].sum())
    return MinimizationResult(
        minimizer=minimizer,
        value=float(best_val),
        iterations=iterations,
        convergence_gap=float(gap),
        method=method,
        converged=bool(gap <= tol),
        local=local,
        surrogate=obj.surrogate,
    )


def build_objective_I(pair: PotentialPair, ref: ReferenceMeasure, grid: GridSpec,
                      tilt=None):
    """Entropy + interaction objective restricted to feasible grid nodes.

    Feasible nodes are those with positive reference weight under exp(-V) ell;
    elsewhere the entropy term is +inf by definition.  Returns the objective
    and the index array of feasible nodes.
    """
    nodes = grid.nodes
    nu_full = _node_reference(ref, pair, nodes)
    feasible = np.flatnonzero(nu_full > 0.0)
    if len(feasible) == 0:
        raise ValueError("empty feasible grid: no node carries reference mass")
    sub = nodes[feasible]
    K, surrogate = _kernel_on_nodes(pair, sub, grid)
    nu = nu_full[feasible]
    nu = nu / nu.sum()
    g, tilt = _fold_tilt(tilt, len(feasible))
    return _Objective(sub, K, v=g, nu=nu, tilt=tilt, surrogate=surrogate), feasible


def build_objective_J(pair: PotentialPair, grid: GridSpec, tilt=None):
    """Pure energy objective on the nodes where the confinement is finite."""
    nodes = grid.nodes
    v_vals = evaluate_V(pair.V, nodes)
    feasible = np.flatnonzero(np.isfinite(v_vals))
    if len(feasible) == 0:
        raise ValueError("all confinement values are infinite on the grid")
    sub = nodes[feasible]
    K, surrogate = _kernel_on_nodes(pair, sub, grid)
    g, tilt = _fold_tilt(tilt, len(feasible))
    v = v_vals[feasible] if g is None else v_vals[feasible] + g
    return _Objective(sub, K, v=v, nu=None, tilt=tilt, surrogate=surrogate), feasible


def _tangent_psd_certified(K) -> bool:
    """True when K is positive semidefinite on the simplex tangent space
    {1^T x = 0}, up to a shift of 1e-10 times its scale.  Then w^T K w is
    convex on the simplex, whatever the sign of K's other eigenvalues."""
    H = _tangent_hessian(K)
    if len(H) == 0:
        return True
    scale = max(1.0, float(np.abs(H).max()))
    try:
        np.linalg.cholesky(H + 1e-10 * scale * np.eye(len(H)))
    except np.linalg.LinAlgError:
        return False
    return True


def _vertex_starts(K, v, count):
    """Start nodes of the QP: the best vertex, then the nodes of least gradient
    K.mean(1) + v at the uniform weights, ``count`` nodes in all."""
    best = int(np.argmin(0.5 * np.diag(K) + v))
    order = np.argsort(K.mean(1) + v, kind="stable")
    return [best] + [int(i) for i in order[order != best][:max(count - 1, 0)]]


def _drop_inactive(obj, w, fval, gap, tol):
    """Zero the KKT-inactive nodes of a minimizer without an entropy term.

    Mirror descent's multiplicative updates never set a weight to zero, so a
    node whose gradient stays above the least one keeps a tiny weight.  Those
    nodes, weight below ``SUPPORT_DROP_TOL`` and gradient above g.min() + tol,
    are dropped and the rest renormalized; the cleaned point replaces w only
    if its value is not above fval by more than 1e-12 relative.
    """
    g = obj.grad(w)
    drop = (w < SUPPORT_DROP_TOL) & (g > g.min() + tol)
    if not drop.any():
        return w, fval, gap
    clean = np.where(drop, 0.0, w)
    clean /= clean.sum()
    value = obj.value(clean)
    if value > fval + 1e-12 * max(1.0, abs(fval)):
        return w, fval, gap
    g = obj.grad(clean)
    return clean, value, float(clean @ g - g.min())


def _solve(obj, feasible, grid, tol, max_iter):
    """The one start policy behind ``minimize_I`` and ``minimize_J``.

    A kernel that passes the tangent-space certificate (not tested under a
    non-linear tilt, which leaves the problem non-quadratic) makes the problem
    convex: one start, and the answer is global (``local=None``).  Otherwise
    ``DEFAULT_STARTS`` starts run and the lowest value is kept, with
    ``local=True``.  A quadratic J runs the active-set QP from the vertices of
    ``_vertex_starts``.  I and a non-linearly tilted J run mirror descent from
    the uniform weights, then nu (I only), then the midpoints between the
    uniform weights and the vertices of ``_vertex_starts``; for I, -log nu is
    added to v, so that the vertices are ranked by I's own vertex values and
    gradient at the uniform weights.  Mirror descent's own values are
    compared, and iterations are summed over the starts.
    """
    certified = obj.tilt is None and _tangent_psd_certified(obj.K)
    count = 1 if certified else DEFAULT_STARTS
    k = obj.k
    v = np.zeros(k) if obj.v is None else obj.v
    if obj.nu is None and obj.tilt is None:
        method = "active_set_qp"
        runs = []
        for start in _vertex_starts(obj.K, v, count):
            w, it, gap = _active_set_qp(obj.K, v, start, max_iter)
            runs.append((w, obj.value(w), it, gap))
    else:
        method = "mirror_descent"
        inits = [np.full(k, 1.0 / k)]
        if obj.nu is not None:
            inits.append(obj.nu)
            v = v - np.log(obj.nu)
        for j in _vertex_starts(obj.K, v, count):
            inits.append(np.full(k, 0.5 / k))
            inits[-1][j] += 0.5
        runs = [_mirror_descent(obj, w0, tol, max_iter) for w0 in inits[:count]]
    w, fval, _, gap = min(runs, key=lambda run: run[1])
    if method == "mirror_descent" and obj.nu is None:
        # J with a non-linear tilt; the entropy of I keeps every weight positive
        w, fval, gap = _drop_inactive(obj, w, fval, gap, tol)
    return _finish(obj, w, fval, sum(run[2] for run in runs), gap, method, feasible,
                   grid.nodes, None if certified else True, tol)


def minimize_I(pair: PotentialPair, ref: ReferenceMeasure, grid: GridSpec,
               tilt=None, tol=DEFAULT_TOL, max_iter=20000) -> MinimizationResult:
    """Minimize entropy + interaction (+ optional tilt) over the grid simplex.

    Entropic mirror descent with a backtracking safeguard, so the objective
    decreases monotonically along every run.  When the kernel passes the
    tangent-space certificate and the tilt is absent or linear, the objective
    is strictly convex: one run from the uniform weights finds the global
    minimum (``local=None``).  Otherwise ``DEFAULT_STARTS`` runs, from the
    uniform weights, the reference weights nu and the midpoints between the
    uniform weights and the vertices of least value or least gradient there,
    keep the lowest value, reported with ``local=True``.  Every start is
    fixed, so two calls return the same result.  ``converged`` says whether
    the final gap is within ``tol``; a run stopped by ``max_iter`` or by a
    failed line search above ``tol`` reports False.
    """
    obj, feasible = build_objective_I(pair, ref, grid, tilt)
    return _solve(obj, feasible, grid, tol, max_iter)


def minimize_J(pair: PotentialPair, grid: GridSpec, tilt=None, tol=DEFAULT_TOL,
               max_iter=50000) -> MinimizationResult:
    """Minimize the pure energy functional (+ optional tilt) over the grid simplex.

    With no tilt or a linear one (folded into V), J is a quadratic on the
    simplex, and the exact active-set QP solves it (``method="active_set_qp"``;
    ``max_iter`` bounds its add and drop steps).  When the kernel passes the
    tangent-space certificate the QP is convex: one run from the best vertex
    ends at the global minimum (``local=None``).  Otherwise the QP runs from
    ``DEFAULT_STARTS`` vertices, the best one and those of least gradient at
    the uniform weights, and keeps the lowest value, a KKT point reported with
    ``local=True``.  A non-linear tilt runs entropic mirror descent from the
    uniform weights and the midpoints between them and the same vertices
    (``local=True``); nodes left with a weight below ``SUPPORT_DROP_TOL`` and
    a gradient above the least one by more than ``tol`` are then dropped,
    unless that raises the value by more than 1e-12 relative.  Every start is
    fixed, so two calls return the same result.  ``converged`` says whether
    the final gap is within ``tol``.
    """
    obj, feasible = build_objective_J(pair, grid, tilt)
    return _solve(obj, feasible, grid, tol, max_iter)


def simplex_scan_oracle(objective, nodes, step) -> MinimizationResult:
    """Exhaustive weight-lattice scan: the brute-force ground truth.

    ``objective`` is an objective with a ``value_batch`` method, as the
    builders above produce, on the points ``nodes``.  Supports at
    most four nodes and lattices of at most ``SCAN_ROW_BUDGET`` weight vectors
    (step 1e-3 on up to three nodes, 0.01 on four); ties resolve to the
    lexicographically first weight vector in lattice order.
    """
    nodes = _as_points(nodes)
    k = len(nodes)
    if k > SCAN_NODE_LIMIT:
        raise ValueError(f"scan oracle supports at most {SCAN_NODE_LIMIT} nodes")
    if not 0 < step <= 1:
        raise ValueError("scan step must lie in (0, 1]")
    resolution = int(round(1.0 / step))
    rows = math.comb(resolution + k - 1, k - 1)
    if rows > SCAN_ROW_BUDGET:
        raise ValueError(f"scan lattice of {rows} weight vectors exceeds the budget "
                         f"of {SCAN_ROW_BUDGET}")
    lattice = compositions_array(resolution, k).astype(float) / resolution
    vals = np.asarray(objective.value_batch(lattice), dtype=float)
    vals = np.where(np.isnan(vals), np.inf, vals)
    if np.all(vals == np.inf):
        raise ValueError("objective is infinite on the entire lattice")
    idx = int(np.argmin(vals))      # argmin returns the first (lexicographic) tie
    return _finish(objective, lattice[idx], vals[idx], len(lattice), 0.0, "simplex_scan",
                   np.arange(k), nodes, None, 0.0)
