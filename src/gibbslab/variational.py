"""Variational minimization of the rate functionals over grid-supported measures.

Measures are discretized on a fixed finite grid; the solvers minimize over
the probability simplex on the grid nodes.  Grid infima upper-approximate the
continuum infima and converge under refinement for the catalog potentials.

On a grid, J(w) = (1/2) w^T K w + v . w is a quadratic on the simplex for
every interaction W, and I adds the relative entropy to the reference.  Every
objective carries its linear term v, zero for an untilted I.  A tilt is the
linear functional g . w, given as the array g and folded into v when the
objective is built: the paper's Laplace and Varadhan checks tilt by
t int psi dmu, which the grid makes linear in w.

A convexity certificate decides how far a solver's answer can be trusted.
Only the curvature along the simplex matters: w^T K w is convex on the
simplex exactly when K is positive semidefinite on its tangent space
{x : 1^T x = 0}.  ``_tangent_psd_certified`` tests that by a Cholesky
factorization of Z^T K Z, with Z = [I; -1^T] a basis of the tangent space.
The Coulomb grid kernels in d = 1 and 2 pass although K itself is indefinite
(smallest eigenvalue -140 on 201 nodes in d = 1); most masked, discontinuous
kernels fail.

Each ``GridSpec`` keeps, per live ``PotentialPair``, a ``_GridKernel``: the
read-only symmetrized kernel on the feasible nodes, its self-energy surrogate,
and the certificate's verdict once a solver has asked for it.  The entries
sit in a ``weakref.WeakKeyDictionary`` on the grid, keyed by the pair; an
entry serves a build while the pair's W object and the feasible node set are
those it was built on, and is rebuilt otherwise (a new W, or a V or
reference that changes the feasible set).  So the solves of a tilt or beta
ladder on one grid build the k x k kernel and factor the tangent Hessian
once.  An entry lives as long as both its pair and its grid, and holds no
reference to the pair.  The grid's nodes are read-only, so an entry cannot
go stale.  It costs k^2 floats per live (pair, grid) couple: 1.5 MB at 441
nodes, 22.6 MB at 1681.

* ``minimize_J`` -- pure energy.
* ``minimize_I`` -- entropy + interaction.
* ``simplex_scan_oracle`` -- exhaustive scan of a weight lattice on at most
  four nodes, the brute-force ground truth the solvers are tested against.
  It scans the lattice one block of rows at a time, the rows of one first
  weight, so it holds at most C(R + k - 2, k - 2) rows for R = 1 / step on
  k >= 3 nodes (5151 at step 0.01 on four, a 0.8 MiB traced peak, against
  18.2 MiB for the 176851 rows of the whole lattice), and the R + 1 rows of
  the whole lattice on two.

Each problem class has one solver policy, ``_solve_J`` and ``_solve_I``,
whose docstrings say which solver runs, from which starts, and what
``iterations`` counts.  Both follow the certificate: a certified kernel makes
the problem convex, one start runs and the answer is global (``local=None``);
otherwise ``DEFAULT_STARTS`` starts run, the lowest value is kept, and
``local=True``.  The starts are fixed, so two calls return the same result.
``max_iter`` bounds each run's pivots, steps or iterations, and
``converged`` says whether the final gap is within ``tol``.

Singular kernels (+inf on the diagonal, e.g. Coulomb in d >= 2) make every
measure with atoms carry infinite energy, a discretization ambiguity the
continuum formulation never meets.  The solvers then run on the
off-diagonal-corrected objective plus a self-energy surrogate
(1/2) w_i^2 * W(a_i, a_i + (h/2) e_1) per node, and the result records the
surrogate so downstream comparisons use the same convention.

Importing this module loads numpy alone.  The one call that needs scipy is
``_support_step``, the step of ``minimize_J``'s two QPs: it calls LAPACK's
``dpotrf`` and ``dpotrs`` from scipy's compiled wrapper
``scipy.linalg._flapack``, which ``measures._scipy_extension`` loads from
its file on the first step, without ``scipy.linalg``.  Those are the calls
``scipy.linalg.cho_factor`` and ``cho_solve`` make, with the same
arguments, so every step is theirs bit for bit.  The certificate,
``minimize_I`` and mirror descent use numpy only.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from ._enum import compositions_array
from .measures import (DiscreteMeasure, ReferenceMeasure, _as_box, _as_points, _grid_points,
                       _record_json, _scipy_extension, _squared_distance)
from .potentials import PotentialPair, _check_dim, evaluate_V, evaluate_W, pair_matrix

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
# [-1, 1]^2 needs 45 MB.  The w3 kernel of masked_interaction forms a few such
# blocks.
GRID_PAIR_BUDGET = 2**27
# Largest weight lattice the scan oracle scans, a bound on its time: 2e6 rows
# took 0.25-0.45 s on two nodes, 0.4-0.7 s on three and 0.3-0.5 s on four, for
# J and I, one thread on a 2-core x86-64 Linux box.  Step 0.01 on four nodes
# needs 176851 rows (about 30 ms); 1e-3 needs 1.7e8.  Memory is not what it
# bounds: the scan holds one ``_lattice_blocks`` block at a time.
SCAN_ROW_BUDGET = 2_000_000
# Relative size of the Frank-Wolfe gap, and of the gradient differences, the
# QPs treat as rounding.
QP_ROUNDING = 1e-13
# Full swaps block pivoting makes without a fall in the count of infeasible
# nodes before it swaps one node at a time (Kim and Park 2011 use 3).
BACKUP_SWAPS = 3


def _check_pair_budget(k, d):
    if k * k * d > GRID_PAIR_BUDGET:
        raise ValueError(f"a grid of {k} nodes in d = {d} has a (k, k, d) pair block of "
                         f"{k * k * d} entries, which exceeds the budget of {GRID_PAIR_BUDGET}")


class GridSpec:
    """Finite node set for discretizing measures: a regular box grid or an
    explicit point list.  The nodes and the step are read-only, and the grid
    keeps the kernel of each live pair solved on it (see the module
    docstring)."""

    def __init__(self, nodes, step=None):
        nodes = _as_points(nodes)
        if len(nodes) < 1:
            raise ValueError("grid needs at least one node")
        _check_pair_budget(*nodes.shape)
        nodes.flags.writeable = False
        self._nodes = nodes
        self._step = step
        self._kernels = weakref.WeakKeyDictionary()

    @classmethod
    def regular(cls, bounds, h):
        # NaN fails the comparison, so it is refused along with 0 and inf
        if not 0 < h < math.inf:
            raise ValueError(f"grid step h must be positive and finite, got {h!r}")
        axes = [np.arange(lo, hi + h / 2, h) for lo, hi in _as_box(bounds)]
        if any(len(a) < 2 for a in axes):
            raise ValueError("each axis needs at least two nodes")
        _check_pair_budget(math.prod(len(a) for a in axes), len(axes))
        return cls(_grid_points(axes), step=h)

    @classmethod
    def from_points(cls, points):
        return cls(points, step=None)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def step(self):
        return self._step

    @property
    def dim(self) -> int:
        return self._nodes.shape[1]

    def min_spacing(self) -> float:
        if self._step is not None:
            return self._step
        pts = self._nodes
        if len(pts) < 2:
            return 1.0
        d2 = _squared_distance(pts[:, None, :], pts[None, :, :])
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min()))

    def _kernel(self, pair: PotentialPair, feasible) -> _GridKernel:
        """The kernel of ``pair`` on the nodes ``feasible``: the entry kept for
        the pair while its W object and feasible nodes are those it was built
        on, else a new entry, which replaces it."""
        entry = self._kernels.get(pair)
        if (entry is None or entry.W is not pair.W
                or not np.array_equal(entry.feasible, feasible)):
            entry = self._kernels[pair] = _GridKernel(pair.W, feasible, self)
        return entry


class _GridKernel:
    """The symmetrized kernel of W on a grid's ``feasible`` nodes, read-only,
    its self-energy surrogate, and the tangent certificate's verdict, computed
    when a solver first asks.  W and ``feasible`` decide whether the entry can
    serve a later build."""

    __slots__ = ("W", "feasible", "K", "surrogate", "_certified")

    def __init__(self, W, feasible, grid: GridSpec):
        self.W = W
        self.feasible = feasible.copy()
        self.K, self.surrogate = _kernel_on_nodes(W, grid.nodes[feasible], grid)
        self.K.flags.writeable = False
        self._certified = None

    def certified(self) -> bool:
        """``_tangent_psd_certified(K)``, computed on the first call."""
        if self._certified is None:
            self._certified = _tangent_psd_certified(self.K)
        return self._certified


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
        """Every field, the minimizer as its own JSON object."""
        return _record_json(self)


def _fold_tilt(tilt, v):
    """The linear term v + g of an objective whose linear term is v on the
    feasible nodes before the tilt g . w; v itself when ``tilt`` is None."""
    if tilt is None:
        return v
    if not isinstance(tilt, (list, tuple, np.ndarray)):
        raise TypeError(f"tilt must be None or an array, got {type(tilt).__name__}")
    g = np.asarray(tilt, dtype=float)
    if g.shape != v.shape:
        raise ValueError(f"tilt of shape {g.shape} does not match the {len(v)} "
                         "feasible nodes")
    if not np.all(np.isfinite(g)):
        raise ValueError("tilt must be finite at every node")
    return v + g


class _Objective:
    """Simplex objective: quadratic kernel and linear v, and an optional
    entropy vs nu.  An objective built on a grid holds the grid's
    ``_GridKernel`` of K, which keeps the certificate's verdict."""

    def __init__(self, nodes, kernel, v, nu=None, surrogate=None, grid_kernel=None):
        self.nodes = nodes
        self.K = kernel
        self.v = v
        self.nu = nu
        self.surrogate = surrogate
        self.grid_kernel = grid_kernel

    @property
    def k(self):
        return len(self.nodes)

    def value(self, w):
        total = 0.5 * float(w @ (self.K @ w)) + float(self.v @ w)
        if self.nu is not None:
            mask = w > 0
            total += float(np.sum(w[mask] * np.log(w[mask] / self.nu[mask])))
        return total

    def grad(self, w):
        g = self.K @ w + self.v
        if self.nu is not None:
            wsafe = np.maximum(w, 1e-300)
            g = g + np.log(wsafe / self.nu) + 1.0
        return g

    def value_batch(self, wmat):
        totals = 0.5 * np.einsum("bi,ij,bj->b", wmat, self.K, wmat) + wmat @ self.v
        if self.nu is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(wmat > 0, wmat * np.log(wmat / self.nu), 0.0)
            totals = totals + terms.sum(axis=1)
        return totals


def _kernel_on_nodes(W, nodes, grid: GridSpec):
    """Symmetrized kernel matrix with the diagonal surrogate where singular."""
    K = pair_matrix(W, nodes, nodes)
    surrogate = None
    diag = np.diag(K)
    if np.any(diag == np.inf):
        spacing = grid.min_spacing()
        offset = spacing / 2.0
        probe = nodes.copy()
        probe[:, 0] += offset
        bar = evaluate_W(W, nodes, probe)
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
        # the reference's distinct atoms carry the summed weights of their copies
        _, weights, index = ref._canon
        slots = [index.get(node.tobytes()) for node in nodes + 0.0]
        ell_w = np.array([0.0 if k is None else weights[k] for k in slots])
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
            # g is finite or +inf, and finite somewhere, so exp(e) lies in
            # [0, 1] and is 1 at the least g; w > 0 sums to 1, so the sum
            # lies in (0, 1]
            trial = w * np.exp(e)
            trial = trial / trial.sum()
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
    lapack = _scipy_extension("scipy.linalg._flapack")
    H = _tangent_hessian(KS)
    r = gS[:-1] - gS[-1]
    # the LAPACK calls of scipy.linalg's cho_factor and cho_solve, made as they
    # make them; info > 0 is where cho_factor raises.  A one-node support
    # gives an empty system, which dpotrs refuses, and the empty step.
    factor, info = lapack.dpotrf(H, lower=0, clean=0)
    newton = info == 0
    if newton:
        y = -lapack.dpotrs(factor, r, lower=0)[0] if len(r) else -r
    else:
        y = np.linalg.eigh(H)[1][:, 0]
        if r @ y > 0:
            y = -y
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
    floor = _qp_floor(K, v)
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


def _qp_floor(K, v):
    """The gradient differences the QPs treat as rounding: ``QP_ROUNDING``
    times the largest entry of |K| and |v|, and at least ``QP_ROUNDING``."""
    return QP_ROUNDING * max(1.0, float(K.max()), float(-K.min()), float(v.max()),
                             float(-v.min()))


def _sublevel_start(K, v):
    """The passive set block pivoting starts from, as a boolean mask.

    From P = all nodes, twice: the gradient g = K[:, P].mean(1) + v at the
    uniform measure on P, and P = {g <= mean of g over P}, the sublevel set
    of that gradient.  The set is never empty, since some node of P lies at
    or below P's mean.  One round leaves P larger than the support, and in
    d = 1 a pivot then drops only the two end nodes (68 pivots on 301 nodes,
    against 1 from two rounds); a third round cuts into the support (79
    pivots on 601 nodes, against 0).
    """
    passive = np.ones(len(v), dtype=bool)
    for _ in range(2):
        g = K[:, passive].mean(1) + v
        passive = g <= g[passive].mean()
    return passive


def _block_pivoting_qp(K, v, passive, max_iter):
    """Block principal pivoting (Judice and Pires 1994; Kim and Park 2011)
    for (1/2) w^T K w + v . w on the simplex, from the boolean mask
    ``passive``, for K positive definite on the tangent space of every
    passive set it meets.

    On the passive set S the weights are e_last + p, p the Newton step of
    ``_support_step`` from the vertex of S's last node, and lambda is the
    common gradient on S; outside S they are 0.  The infeasible nodes are
    those of S with a negative weight and those outside S whose gradient lies
    below lambda by more than ``_qp_floor``.  While their count falls, all of
    them swap sides; after ``BACKUP_SWAPS`` full swaps without a fall, only
    the last infeasible node does (Murty's rule), until the count falls
    below its least value again.  No infeasible node left is the optimum.
    ``max_iter`` bounds the pivots; a run stopped there returns its weights
    clipped at zero and renormalized, with the gap they have.  Returns
    (w, pivots, gap), or None when a passive set's tangent Hessian is not
    positive definite.
    """
    floor = _qp_floor(K, v)
    passive = passive.copy()
    least, backup = len(v) + 1, BACKUP_SWAPS
    pivots = 0
    while True:
        S = np.flatnonzero(passive)
        w_S = np.zeros(len(S))
        if len(S) > 1:
            w_S, newton = _support_step(K[np.ix_(S, S)], K[S, S[-1]] + v[S])
            if not newton:
                return None
        w_S[-1] += 1.0
        g = K[:, S] @ w_S + v
        infeasible = np.zeros(len(v), dtype=bool)
        infeasible[S] = w_S < 0
        infeasible |= ~passive & (g < g[S].mean() - floor)
        count = int(infeasible.sum())
        if count == 0 or pivots >= max_iter:
            break
        pivots += 1
        if count < least:
            least, backup = count, BACKUP_SWAPS
        elif backup > 0:
            backup -= 1
        else:
            infeasible[:np.flatnonzero(infeasible)[-1]] = False
        passive ^= infeasible
    w = np.zeros(len(v))
    w[S] = np.maximum(w_S, 0.0)
    w /= w.sum()
    g = K[:, S] @ w[S] + v
    return w, pivots, float(w @ g - g.min())


def _finish(obj, runs, method, feasible, all_nodes, local, tol):
    """The result of the run of least value among ``runs``, tuples (weights on
    the ``feasible`` nodes, value, iterations, gap), its iterations summed
    over the runs."""
    w, value, _, gap = min(runs, key=lambda run: run[1])
    weights = np.zeros(len(all_nodes))
    weights[feasible] = w
    keep = weights > 0
    minimizer = DiscreteMeasure(all_nodes[keep], weights[keep] / weights[keep].sum())
    return MinimizationResult(
        minimizer=minimizer,
        value=float(value),
        iterations=sum(run[2] for run in runs),
        convergence_gap=float(gap),
        method=method,
        converged=bool(gap <= tol),
        local=local,
        surrogate=obj.surrogate,
    )


def _grid_objective(pair: PotentialPair, grid: GridSpec, feasible, v, nu=None):
    """The objective on the ``feasible`` nodes of ``grid``, with linear term v
    and, for I, the entropy vs nu, on the kernel of ``pair`` the grid keeps;
    the surrogate record is the objective's own copy."""
    kernel = grid._kernel(pair, feasible)
    surrogate = None if kernel.surrogate is None else dict(kernel.surrogate)
    return _Objective(grid.nodes[feasible], kernel.K, v, nu=nu, surrogate=surrogate,
                      grid_kernel=kernel)


def build_objective_I(pair: PotentialPair, ref: ReferenceMeasure, grid: GridSpec,
                      tilt=None):
    """Entropy + interaction objective restricted to feasible grid nodes.

    Feasible nodes are those with positive reference weight under exp(-V) ell;
    elsewhere the entropy term is +inf by definition.  Returns the objective
    and the index array of feasible nodes.  A pair declared for another
    dimension than the reference or the grid is refused.  The kernel is the
    grid's entry for the pair.
    """
    _check_dim(pair, ref.dim, "reference")
    _check_dim(pair, grid.dim, "grid")
    nu_full = _node_reference(ref, pair, grid.nodes)
    feasible = np.flatnonzero(nu_full > 0.0)
    if len(feasible) == 0:
        raise ValueError("empty feasible grid: no node carries reference mass")
    nu = nu_full[feasible]
    nu = nu / nu.sum()
    v = _fold_tilt(tilt, np.zeros(len(feasible)))
    return _grid_objective(pair, grid, feasible, v, nu=nu), feasible


def build_objective_J(pair: PotentialPair, grid: GridSpec, tilt=None):
    """Pure energy objective on the nodes where the confinement is finite.  A
    pair declared for another dimension than the grid is refused.  The kernel
    is the grid's entry for the pair."""
    _check_dim(pair, grid.dim, "grid")
    v_vals = evaluate_V(pair.V, grid.nodes)
    feasible = np.flatnonzero(np.isfinite(v_vals))
    if len(feasible) == 0:
        raise ValueError("all confinement values are infinite on the grid")
    return _grid_objective(pair, grid, feasible, _fold_tilt(tilt, v_vals[feasible])), feasible


def _tangent_psd_certified(K) -> bool:
    """True when K is positive semidefinite on the simplex tangent space
    {1^T x = 0}, up to a shift of 1e-10 times its scale.  Then w^T K w is
    convex on the simplex, whatever the sign of K's other eigenvalues."""
    H = _tangent_hessian(K)
    if len(H) == 0:
        return True
    H.flat[::len(H) + 1] += 1e-10 * max(1.0, float(H.max()), float(-H.min()))
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _vertex_starts(K, v, count):
    """Start nodes of the solvers: the best vertex, then the nodes of least gradient
    K.mean(1) + v at the uniform weights, ``count`` nodes in all."""
    best = int(np.argmin(0.5 * np.diag(K) + v))
    order = np.argsort(K.mean(1) + v, kind="stable")
    return [best] + [int(i) for i in order[order != best][:max(count - 1, 0)]]


def _solve_J(obj, feasible, grid, tol, max_iter):
    """The solver policy of ``minimize_J``: J is a QP on the simplex, and both
    of its solvers solve the KKT system on a support by the Newton step of
    ``_support_step``.

    On a certified kernel, block pivoting (``_block_pivoting_qp``) runs from
    ``_sublevel_start``.  While the count of infeasible nodes falls, all of
    them swap; after ``BACKUP_SWAPS`` full swaps without a fall, one node at
    a time does (Murty's rule), which ends the cycles full swaps alone can
    enter.  Pivoting ends at the optimum up to rounding, in 0 to 8 pivots on
    Coulomb grids of up to 1681 nodes, where the primal active-set QP
    (``_active_set_qp``), adding or dropping one node per step, took 40 to
    638 steps.  A passive set whose tangent Hessian is not positive definite
    (a PSD kernel singular there, such as a rank-one one) hands the problem
    to the active-set QP from the best vertex, and the answer stays global.
    An uncertified J runs the active-set QP from the vertices of
    ``_vertex_starts``, since pivoting can cycle there; each run ends at a
    KKT point up to rounding, in general a local minimum.  ``iterations``
    counts pivots on the pivoting path, and add and drop steps summed over
    the starts on the active-set path; a fallback counts only its active-set
    steps.
    """
    K, v = obj.K, obj.v
    certified = obj.grid_kernel.certified()
    pivoted = _block_pivoting_qp(K, v, _sublevel_start(K, v), max_iter) if certified else None
    if pivoted is not None:
        method, runs = "block_pivoting_qp", [(pivoted[0], obj.value(pivoted[0]), *pivoted[1:])]
    else:
        method = "active_set_qp"
        starts = _vertex_starts(K, v, 1 if certified else DEFAULT_STARTS)
        runs = [(w, obj.value(w), it, gap)
                for w, it, gap in (_active_set_qp(K, v, j, max_iter) for j in starts)]
    return _finish(obj, runs, method, feasible, grid.nodes, None if certified else True, tol)


def _solve_I(obj, feasible, grid, tol, max_iter):
    """The solver policy of ``minimize_I``: entropic mirror descent, whose
    backtracking line search makes the objective fall monotonically along
    every run, from the uniform weights, then nu, then the midpoints between
    the uniform weights and the vertices of ``_vertex_starts``, with -log nu
    added to v so that the vertices are ranked by I's own vertex values and
    gradient at the uniform weights.  A certified kernel runs the uniform
    start alone and ranks no vertex; otherwise ``DEFAULT_STARTS`` starts run,
    and only the vertices among them are ranked.  ``iterations`` sums the
    iterations over the starts.  A run stopped by ``max_iter``, or by a line
    search that fails above ``tol``, reports ``converged=False``.
    """
    certified = obj.grid_kernel.certified()
    k = obj.k
    inits = [np.full(k, 1.0 / k)]
    if not certified:
        inits.append(obj.nu)
        for j in _vertex_starts(obj.K, obj.v - np.log(obj.nu), DEFAULT_STARTS - 2):
            inits.append(np.full(k, 0.5 / k))
            inits[-1][j] += 0.5
    runs = [_mirror_descent(obj, w0, tol, max_iter) for w0 in inits]
    return _finish(obj, runs, "mirror_descent", feasible, grid.nodes,
                   None if certified else True, tol)


def minimize_I(pair: PotentialPair, ref: ReferenceMeasure, grid: GridSpec,
               tilt=None, tol=DEFAULT_TOL, max_iter=20000) -> MinimizationResult:
    """Minimize entropy + interaction (+ optional tilt) over the grid simplex.

    ``tilt`` is None or an array g, the linear functional g . w on the
    feasible nodes of ``build_objective_I``; any other object is refused.
    Returns the minimizer on the grid nodes and its value, with ``local=None``
    when the value is the global minimum and ``local=True`` when it may be a
    local one, ``converged`` when the final gap is within ``tol``, and the
    self-energy ``surrogate`` when W is +inf on the diagonal.  Two calls
    return the same result.  The solver and its starts are ``_solve_I``'s.
    """
    obj, feasible = build_objective_I(pair, ref, grid, tilt)
    return _solve_I(obj, feasible, grid, tol, max_iter)


def minimize_J(pair: PotentialPair, grid: GridSpec, tilt=None, tol=DEFAULT_TOL,
               max_iter=50000) -> MinimizationResult:
    """Minimize the pure energy functional (+ optional tilt) over the grid simplex.

    ``tilt`` is None or an array g, the linear functional g . w on the nodes
    of finite confinement, folded into V; any other object is refused.
    Returns the minimizer on the grid nodes and its value, with ``local=None``
    when the value is the global minimum and ``local=True`` when it may be a
    local one, ``converged`` when the final gap is within ``tol``, and the
    self-energy ``surrogate`` when W is +inf on the diagonal.  Two calls
    return the same result.  The solver and its starts, and what ``method``
    and ``iterations`` report, are ``_solve_J``'s.
    """
    obj, feasible = build_objective_J(pair, grid, tilt)
    return _solve_J(obj, feasible, grid, tol, max_iter)


def _lattice_blocks(resolution, k):
    """The rows of ``compositions_array(resolution, k)``, in their order, one
    block per first entry h = 0..resolution when k >= 3: block h is h
    followed by ``compositions_array(resolution - h, k - 1)``, the run of rows
    whose first entry is h.

    With k <= 2 the one block is the whole lattice, the single vertex or
    resolution + 1 rows.  Blocks of k = 2 would be single rows, and numpy
    evaluates ``value_batch`` on one row by other loops than on many:
    5 of 48 two-node scans then returned a value one ulp off the full
    scan's.  From three nodes on a single-row block is the vertex e_1, whose
    value is exact either way.
    """
    if k <= 2:
        yield compositions_array(resolution, k)
        return
    for h in range(resolution + 1):
        tail = compositions_array(resolution - h, k - 1)
        yield np.hstack([np.full((len(tail), 1), h, dtype=np.int64), tail])


def simplex_scan_oracle(objective, nodes, step) -> MinimizationResult:
    """Exhaustive weight-lattice scan: the brute-force ground truth.

    ``objective`` is an objective with a ``value_batch`` method, as the
    builders above produce, on the points ``nodes``.  Supports at
    most four nodes and lattices of at most ``SCAN_ROW_BUDGET`` weight vectors
    (step 1e-3 on up to three nodes, 0.01 on four); ties resolve to the
    lexicographically first weight vector in lattice order.  The lattice is
    scanned one ``_lattice_blocks`` block at a time, and the running minimum
    moves only to a strictly lower value, so the first tie of the whole
    lattice wins.  ``iterations`` is the lattice size.
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
    best, best_value = None, math.inf
    for block in _lattice_blocks(resolution, k):
        lattice = block.astype(float) / resolution
        vals = np.asarray(objective.value_batch(lattice), dtype=float)
        vals = np.where(np.isnan(vals), np.inf, vals)
        idx = int(np.argmin(vals))      # argmin returns the first (lexicographic) tie
        if vals[idx] < best_value:
            best, best_value = lattice[idx].copy(), vals[idx]
    if best is None:
        raise ValueError("objective is infinite on the entire lattice")
    return _finish(objective, [(best, best_value, rows, 0.0)], "simplex_scan",
                   np.arange(k), nodes, None, 0.0)
