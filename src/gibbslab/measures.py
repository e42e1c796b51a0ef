"""Finitely supported probability measures on R^d and the metrics comparing them.

A :class:`DiscreteMeasure` is the computational stand-in for a probability
measure: a list of distinct atoms in R^d with positive weights summing to one.
Three metrics are provided:

* ``d_bl``    -- bounded-Lipschitz distance, computed as one linear program
  over function values on the union support, solved once by HiGHS without
  presolve.  Its Lipschitz constraints are one ranged row per pair the box
  |f| <= 1/2 does not already satisfy: pairs closer than 1, and in d = 1
  only neighbours, whose rows imply the rest along the line.  d_bl is the
  W_1 transport cost for the truncated metric min(|x - y|, 1).
* ``d_psi``   -- bounded-Lipschitz part plus the discrepancy of psi-integrals,
  the weighted metric that upgrades weak convergence to psi-moment convergence.
  The weak-topology part uses d_bl as a computable surrogate for the
  Levy-Prohorov metric (they induce the same topology, d_w <= 3*sqrt(d_bl)).
* ``wasserstein_p`` -- optimal transport cost with ground cost |x-y|^p.
  Returns the raw cost (no p-th root), via exact quantile coupling in
  dimension one and a transportation LP, with sparse marginal constraints,
  otherwise.

One canonicalizer, ``_merge_atoms``, sorts atoms and merges duplicates, both
for a new measure and for the union support of two measures.

Every pairwise distance the package forms, in the metrics here, in
``potentials.coulomb_kernel`` and in ``GridSpec.min_spacing``, comes from
``_squared_distance``, which sums the squared differences one coordinate plane
at a time: no (..., d) block of differences x - y is ever formed.
"""
from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

WEIGHT_SUM_TOL = 1e-12
# weights below this after merging are dropped and the measure renormalized,
# so entropy terms never see log(0) from stray near-zero mass
WEIGHT_DROP_TOL = 1e-15


def _as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce input to a (k, d) float array; 1-d input is read as k points in R^1."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must be a (k, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected d={dim}, got d={arr.shape[1]}")
    # normalize -0.0 to +0.0 so duplicate detection is stable
    return arr + 0.0


def _squared_distance(x, y) -> np.ndarray:
    """|x - y|^2 of two broadcastable (..., d) point arrays, shape (...).

    The squares are summed over the d coordinate planes in order, each plane
    a (...) array, so no (..., d) difference block is allocated.  The sum
    runs in the order ``np.einsum("...i,...i->...", z, z)`` takes in d <= 2.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"points of dimension {x.shape[-1]} and {y.shape[-1]} do not pair")
    sq = np.square(x[..., 0] - y[..., 0])
    plane = np.empty_like(sq)
    for k in range(1, x.shape[-1]):
        np.subtract(x[..., k], y[..., k], out=plane)
        sq += np.square(plane, out=plane)
    return sq


def _merge_atoms(points: np.ndarray, weights: np.ndarray):
    """Sort points lexicographically and sum the weights of exact duplicates.

    The sort is stable and ``bincount`` adds in index order, so each sum
    runs over the copies of an atom in their input order.
    """
    order = np.lexsort(points.T[::-1])
    points = points[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = np.any(points[1:] != points[:-1], axis=1)
    return points[first], np.bincount(np.cumsum(first) - 1, weights=weights[order])


class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    Atoms are canonicalized at construction: duplicates are merged by summing
    weights, atoms are sorted lexicographically, weights below
    ``WEIGHT_DROP_TOL`` are dropped and the rest renormalized.  Instances are
    immutable; all operations on them are pure functions.
    """

    __slots__ = ("_atoms", "_weights")

    def __init__(self, atoms, weights):
        atoms = _as_points(atoms)
        weights = np.asarray(weights, dtype=float).ravel()
        if len(weights) != len(atoms):
            raise ValueError("atoms and weights must have the same length")
        if len(atoms) == 0:
            raise ValueError("a probability measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atom coordinates must be finite")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be non-negative and finite")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")

        atoms, weights = _merge_atoms(atoms, weights)

        mask = weights > WEIGHT_DROP_TOL
        if not np.any(mask):
            raise ValueError("all weights below drop tolerance")
        atoms = atoms[mask]
        weights = weights[mask]
        weights = weights / math.fsum(weights)

        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @property
    def atoms(self) -> np.ndarray:
        return self._atoms

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def dim(self) -> int:
        return self._atoms.shape[1]

    @property
    def support_size(self) -> int:
        return self._atoms.shape[0]

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        """Point mass at ``point``."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(pt[None, :], [1.0])

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        """Uniform measure on the given points (duplicates merge their mass)."""
        pts = _as_points(points)
        return cls(pts, np.full(len(pts), 1.0 / len(pts)))

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self._atoms.shape == other._atoms.shape
            and np.array_equal(self._atoms, other._atoms)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self):
        return hash((self._atoms.tobytes(), self._weights.tobytes()))

    def __repr__(self):
        return f"DiscreteMeasure(k={self.support_size}, d={self.dim})"

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "atoms": self._atoms.tolist(), "weights": self._weights.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        obj = json.loads(text)
        atoms = _as_points(obj["atoms"], dim=obj["dim"])
        return cls(atoms, obj["weights"])

    def to_csv(self, path) -> None:
        """Write columns x_1..x_d,w with full (17 significant digit) precision."""
        header = ",".join(f"x_{i+1}" for i in range(self.dim)) + ",w"
        lines = [header]
        for a, w in zip(self._atoms, self._weights):
            lines.append(",".join(f"{v:.17g}" for v in a) + f",{w:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class ParticleConfig:
    """Ordered n-tuple of points in R^d, the argument of the energy functional."""

    __slots__ = ("_points",)

    def __init__(self, points):
        pts = _as_points(points)
        if len(pts) < 1:
            raise ValueError("a configuration needs at least one particle")
        if not np.all(np.isfinite(pts)):
            raise ValueError("all coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "_points", pts)

    @classmethod
    def _from_block(cls, block: np.ndarray) -> list["ParticleConfig"]:
        """One configuration per row of a (samples, n, d) float block.

        The block is checked for finiteness once, its -0.0 entries are made
        +0.0 in place, as the constructor does, and it is made read-only;
        each configuration's points are a view of its row.  The caller hands
        the block over and must not write to it again.
        """
        if block.ndim != 3 or block.shape[1] < 1:
            raise ValueError(f"need a (samples, n, d) block with n >= 1, got {block.shape}")
        if not np.all(np.isfinite(block)):
            raise ValueError("all coordinates must be finite")
        block += 0.0
        block.setflags(write=False)
        configs = []
        for row in block:
            config = object.__new__(cls)
            object.__setattr__(config, "_points", row)
            configs.append(config)
        return configs

    def __setattr__(self, name, value):
        raise AttributeError("ParticleConfig is immutable")

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __repr__(self):
        return f"ParticleConfig(n={self.n}, d={self.dim})"


class WeightFunction:
    """Positive continuous weight psi: R^d -> [0, inf) used by the d_psi metric.

    For d_psi to metrize weak convergence plus convergence of psi-integrals,
    psi must grow: its infimum over the sphere of radius c diverges as
    c -> infinity.  That is the caller's to ensure; it is not checked.  The
    norm powers psi(x) = |x|^q with q > 0 satisfy it.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], description: str = ""):
        self._fn = fn
        self.description = description or "custom"

    @classmethod
    def norm_power(cls, q: float) -> "WeightFunction":
        """psi(x) = |x|^q (Euclidean norm)."""
        def fn(points):
            pts = np.asarray(points, dtype=float)
            return np.linalg.norm(pts, axis=-1) ** q
        return cls(fn, description=f"|x|^{q:g}")

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        vals = np.asarray(self._fn(pts), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals < 0):
            raise ValueError(f"weight function '{self.description}' returned negative or NaN values")
        return vals

    def __repr__(self):
        return f"WeightFunction({self.description})"


class ReferenceMeasure:
    """Sigma-finite reference measure, either finite atoms or a density on a box.

    Finite mode stores an atom cloud with arbitrary positive weights (total
    mass need not be one); it is the exact-enumeration workhorse.  Density
    mode stores a log-density against Lebesgue measure on an axis-aligned box
    and is used by the Metropolis sampler.
    """

    __slots__ = ("mode", "atoms", "weights", "log_density", "box", "description")

    def __init__(self, mode, atoms=None, weights=None, log_density=None, box=None,
                 description=""):
        if mode not in ("finite", "density"):
            raise ValueError("mode must be 'finite' or 'density'")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "log_density", log_density)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "description", description)

    def __setattr__(self, name, value):
        raise AttributeError("ReferenceMeasure is immutable")

    @classmethod
    def finite(cls, atoms, weights=None) -> "ReferenceMeasure":
        atoms = _as_points(atoms)
        if weights is None:
            weights = np.ones(len(atoms))
        weights = np.asarray(weights, dtype=float).ravel()
        if len(weights) != len(atoms):
            raise ValueError("atoms and weights must have the same length")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("reference weights must be positive and finite")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        return cls("finite", atoms=atoms, weights=weights,
                   description=f"finite({len(atoms)} atoms)")

    @classmethod
    def lebesgue_box(cls, bounds) -> "ReferenceMeasure":
        """Lebesgue measure restricted to the closed box given by (low, high) per axis."""
        box = np.asarray(bounds, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("bounds must be a (d, 2) array of (low, high) pairs")

        def log_density(points):
            pts = np.asarray(points, dtype=float)
            inside = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=-1)
            return np.where(inside, 0.0, -np.inf)

        return cls("density", log_density=log_density, box=box,
                   description=f"lebesgue_box(d={len(box)})")

    @classmethod
    def density_on_box(cls, log_density, bounds, description="density") -> "ReferenceMeasure":
        box = np.asarray(bounds, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("bounds must be a (d, 2) array of (low, high) pairs")
        return cls("density", log_density=log_density, box=box, description=description)

    @property
    def is_finite(self) -> bool:
        return self.mode == "finite"

    @property
    def dim(self) -> int:
        if self.is_finite:
            return self.atoms.shape[1]
        return self.box.shape[0]

    def __repr__(self):
        return f"ReferenceMeasure({self.description})"


# -----------------------------------------------------------------------------
# operations
# -----------------------------------------------------------------------------
def empirical_measure(config: ParticleConfig) -> DiscreteMeasure:
    """Empirical measure (1/n) sum of Dirac masses at the configuration points."""
    n = config.n
    return DiscreteMeasure(config.points, np.full(n, 1.0 / n))


def psi_integral(mu: DiscreteMeasure, psi: WeightFunction) -> float:
    """Integral of psi against mu: sum of w_i * psi(a_i)."""
    return math.fsum(mu.weights * psi(mu.atoms))


def tail_psi_mass(mu: DiscreteMeasure, psi: WeightFunction, r: float) -> float:
    """psi-mass outside the closed ball of radius r: sum over |a_i| > r of w_i psi(a_i)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    norms = np.linalg.norm(mu.atoms, axis=1)
    mask = norms > r
    if not np.any(mask):
        return 0.0
    return math.fsum(mu.weights[mask] * psi(mu.atoms[mask]))


def _union_support(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union support points with signed weight difference mu - nu."""
    return _merge_atoms(np.vstack([mu.atoms, nu.atoms]),
                        np.concatenate([mu.weights, -nu.weights]))


def d_bl(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Bounded-Lipschitz distance, solved as one linear program.

    Maximizes |integral of f d(mu - nu)| over test functions with
    max(Lip(f), 2*sup|f|) <= 1; only the values of f on the union support
    matter, so the sup is a finite LP with the box |f| <= 1/2 and one ranged
    row -|u - v| <= f_u - f_v <= |u - v| per kept pair.  A pair at distance
    >= 1 keeps no row: the box already gives |f_u - f_v| <= 1 <= |u - v|.
    In d = 1 only neighbours on the sorted support keep rows: by the
    triangle inequality along the line, the neighbour rows imply every other
    pair's.  With no row left, d_bl is the total variation (1/2) sum |mu - nu|.

    The same f are the functions 1-Lipschitz for min(|x - y|, 1), shifted to
    |f| <= 1/2 (a shift does not change the integral against mu - nu), so
    d_bl is the W_1 transport cost for that truncated metric.  The LP is
    solved once, without presolve.  HiGHS accepts an f that breaks a row or
    the box by up to its 1e-7 feasibility tolerance, so when atoms are closer
    than that the value can exceed the optimum by up to about 1e-7: on
    delta_1 against the uniform measure on 0, 1/2 and 2^-24 it returns 5/6,
    against the optimum 5/6 - 2^-24/3.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if mu == nu:
        return 0.0
    pts, signed = _union_support(mu, nu)
    k = len(pts)
    # _merge_atoms sorts the support, so in d = 1 neighbours are consecutive
    if mu.dim == 1:
        iu = np.arange(k - 1)
        ju = iu + 1
    else:
        iu, ju = np.triu_indices(k, 1)
    dists = np.sqrt(_squared_distance(pts[iu], pts[ju]))
    near = dists < 1.0
    iu, ju, dists = iu[near], ju[near], dists[near]
    # row r is f_iu[r] - f_ju[r], ranged in [-dists[r], dists[r]]
    rows = np.tile(np.arange(len(iu)), 2)
    incidence = sparse.csr_array(
        (np.repeat([1.0, -1.0], len(iu)), (rows, np.concatenate([iu, ju]))), shape=(len(iu), k))
    res = milp(c=-signed, constraints=LinearConstraint(incidence, -dists, dists),
               bounds=Bounds(-0.5, 0.5), options={"presolve": False})
    if not res.success:
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return max(0.0, -res.fun)


def d_psi(mu: DiscreteMeasure, nu: DiscreteMeasure, psi: WeightFunction) -> float:
    """Weighted metric: d_bl(mu, nu) + |psi_integral(mu) - psi_integral(nu)|."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    return d_bl(mu, nu) + abs(psi_integral(mu, psi) - psi_integral(nu, psi))


def _wasserstein_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exact transport cost in R^1 via the quantile (monotone) coupling."""
    xa = mu.atoms[:, 0]
    xb = nu.atoms[:, 0]
    ca = np.cumsum(mu.weights)
    cb = np.cumsum(nu.weights)
    levels = np.union1d(ca, cb)
    levels = levels[levels <= 1.0 + 1e-15]
    # levels are distinct and positive, so every interval has positive length
    prev = np.r_[0.0, levels[:-1]]
    mids = 0.5 * (prev + levels)
    qa = xa[np.minimum(np.searchsorted(ca, mids), len(xa) - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mids), len(xb) - 1)]
    return math.fsum((levels - prev) * np.abs(qa - qb) ** p)


def wasserstein_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Transport cost via the transportation linear program on the support product.

    Serves as the exact value in dimension >= 2 and as the independent check
    of the 1-d quantile formula.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if p < 1:
        raise ValueError("p must be >= 1")
    # p = 2 takes the squared distance as it is, with no square root to undo
    cost = _squared_distance(mu.atoms[:, None, :], nu.atoms[None, :, :]) ** (p / 2)
    ka, kb = mu.support_size, nu.support_size
    # plan cell i * kb + j enters the row sum i of mu and the column sum j of nu
    cells = np.arange(ka * kb)
    marginal = np.concatenate([cells // kb, ka + cells % kb])
    a_eq = sparse.coo_array((np.ones(2 * ka * kb), (marginal, np.tile(cells, 2))),
                            shape=(ka + kb, ka * kb))
    # Without presolve, which made the cost inexact: on three atoms with one
    # 6.1e-5 off the line through the others it returned W1 1.2e-9 too high.
    # The dual feasibility tolerance is HiGHS's least, 1e-10: at the default
    # 1e-7 a plan off by 2^-24 in reduced cost passed as optimal, and W1 of
    # uniform{(0, 2^-24), (0, 0)} against uniform{(0, 2^-24), (0.5, 0)} read
    # 1/4 + 2^-25.
    res = linprog(c=cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs",
                  options={"presolve": False, "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return max(0.0, res.fun)


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Optimal transport cost inf over couplings of the integral of |x-y|^p.

    Returns the raw cost without the p-th root (matching the metric display
    that defines the distance as the infimum of the cost integral itself).
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if p < 1:
        raise ValueError("p must be >= 1")
    if mu == nu:
        return 0.0
    if mu.dim == 1:
        return _wasserstein_1d(mu, nu, p)
    return wasserstein_lp(mu, nu, p)


def product_measure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Product measure mu (x) nu as a discrete measure on R^{2d}."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    ka, kb = mu.support_size, nu.support_size
    left = np.repeat(mu.atoms, kb, axis=0)
    right = np.tile(nu.atoms, (ka, 1))
    w = np.outer(mu.weights, nu.weights).ravel()
    return DiscreteMeasure(np.hstack([left, right]), w)
