"""Potential catalog, assumption checkers, and superlinear tightness functions.

Potentials are vectorized callables on point arrays: a confinement ``V`` maps
an array of shape (..., d) to values of shape (...); an interaction ``W`` maps
two such arrays (broadcast against each other) to values.  The extended value
+inf encodes singularities and hard confinement; -inf and NaN are illegal and
raise :class:`PotentialValueError` naming the offending points.

Assumption checkers are sampled, never symbolic: they evaluate a declared
bound on a finite probe plan and report the sampled minima and any violations,
flagged as non-exhaustive.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .measures import DiscreteMeasure, ReferenceMeasure, _squared_distance


class PotentialValueError(ValueError):
    """A potential produced NaN (typically inf - inf) or -inf."""


def _has_nan_or_minus_inf(vals) -> bool:
    """One reduction: the minimum of a non-empty array is NaN if any entry is."""
    return vals.size > 0 and not vals.min() > -np.inf


def evaluate_V(V, points) -> np.ndarray:
    """Evaluate a confinement at (k, d) points, validating extended-real rules."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(V(pts), dtype=float)
    if _has_nan_or_minus_inf(vals):
        idx = np.argwhere(np.isnan(vals) | (vals == -np.inf))[0]
        raise PotentialValueError(
            f"confinement returned {vals[tuple(idx)]} at point {pts[tuple(idx)]}"
        )
    return vals


def evaluate_W(W, x, y) -> np.ndarray:
    """Evaluate an interaction at broadcast point arrays, validating values."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    vals = np.asarray(W(xa, ya), dtype=float)
    if _has_nan_or_minus_inf(vals):
        idx = tuple(np.argwhere(np.isnan(vals) | (vals == -np.inf))[0])
        bx = np.broadcast_arrays(xa, ya)[0][idx]
        by = np.broadcast_arrays(xa, ya)[1][idx]
        raise PotentialValueError(
            f"interaction returned {vals[idx]} at pair ({bx}, {by})"
        )
    return vals


def pair_matrix(W, a_points, b_points) -> np.ndarray:
    """Matrix W(a_i, b_j) over two point sets, shape (k, l)."""
    A = np.asarray(a_points, dtype=float)
    B = np.asarray(b_points, dtype=float)
    return evaluate_W(W, A[:, None, :], B[None, :, :])


class PotentialPair:
    """The pair (V, W) with symmetry flag and declared assumption metadata.

    ``declared_lower_bound_c`` is the claimed uniform lower bound on W, a
    candidate declaration that ``check_assumption_B1`` tests on a probe,
    never derived.  The coupled bound inf [W(x,y) + eps1 (V(x) + V(y))] > c
    is not declared here: ``check_assumption_C1`` takes eps1 and c as
    arguments.  ``symmetric`` is trusted by the samplers, which refuse a
    start where W is seen to be asymmetric.
    """

    __slots__ = ("V", "W", "symmetric", "declared_lower_bound_c", "dim", "name")

    def __init__(self, V, W, dim, symmetric=False, declared_lower_bound_c=None, name=""):
        self.V = V
        self.W = W
        self.dim = int(dim)
        self.symmetric = bool(symmetric)
        self.declared_lower_bound_c = declared_lower_bound_c
        self.name = name or "custom"

    def __repr__(self):
        return f"PotentialPair({self.name}, d={self.dim})"


# -----------------------------------------------------------------------------
# catalog
# -----------------------------------------------------------------------------
def coulomb_kernel(d: int):
    """Coulomb interaction W(x, y) = K(x - y) in dimension d.

    K(z) = -|z| for d = 1, -log|z| for d = 2, and |z|^(2-d) for d > 2.
    The kernel is +inf on the diagonal for d >= 2 and 0 there for d = 1.
    d = 1 reads the single coordinate.  For d >= 2 the kernel is a power or
    log of the squared distance from ``measures._squared_distance``, summed
    one coordinate plane at a time: no (..., d) difference block is formed
    and no square root is taken.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")

    if d == 1:
        def W(x, y):
            return -np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])
    elif d == 2:
        def W(x, y):
            with np.errstate(divide="ignore"):
                return -0.5 * np.log(_squared_distance(x, y))
    else:
        def W(x, y):
            with np.errstate(divide="ignore"):
                return _squared_distance(x, y) ** ((2 - d) / 2)
    return W


def power_confinement(p: float):
    """Confinement V(x) = |x|^p; the exponent must exceed 1."""
    if not p > 1:
        raise ValueError("power confinement requires p > 1")

    def V(x):
        return np.linalg.norm(np.asarray(x), axis=-1) ** p

    return V


@dataclass(frozen=True)
class Region:
    """Axis-aligned box or Euclidean ball, open or closed."""

    kind: str                      # "box" | "ball"
    bounds: np.ndarray | None = None   # (d, 2) for boxes
    center: np.ndarray | None = None   # (d,) for balls
    radius: float = 0.0
    open_: bool = True

    @classmethod
    def box(cls, bounds, open_=True):
        b = np.asarray(bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError("box bounds must be a (d, 2) array")
        return cls("box", bounds=b, open_=open_)

    @classmethod
    def ball(cls, center, radius, open_=True):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return cls("ball", center=c, radius=float(radius), open_=open_)

    @property
    def dim(self):
        return len(self.bounds) if self.kind == "box" else len(self.center)

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.kind == "box":
            if self.open_:
                return np.all((pts > self.bounds[:, 0]) & (pts < self.bounds[:, 1]), axis=-1)
            return np.all((pts >= self.bounds[:, 0]) & (pts <= self.bounds[:, 1]), axis=-1)
        r = np.linalg.norm(pts - self.center, axis=-1)
        return r < self.radius if self.open_ else r <= self.radius

    def strictly_outside_closure(self, points) -> np.ndarray:
        """Membership in the interior of the complement."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "box":
            return np.any((pts < self.bounds[:, 0]) | (pts > self.bounds[:, 1]), axis=-1)
        return np.linalg.norm(pts - self.center, axis=-1) > self.radius


def masked_interaction(kind: str, h, region: Region, segment_samples: int = 1000):
    """Discontinuous interactions gated by a region.

    * ``w1``: h(x, y) when both particles are inside the region, else 0.
    * ``w2``: h(x, y) when both are inside, or both in the interior of the
      complement, else 0.
    * ``w3``: h(x, y) when the straight segment [x, y] misses the (closed)
      region, else 0.  The segment test samples ``segment_samples`` points
      uniformly on [x, y]; the set-theoretic test is not decidable numerically.
    """
    kind = kind.lower()
    if kind not in ("w1", "w2", "w3"):
        raise ValueError("kind must be one of 'w1', 'w2', 'w3'")
    if kind == "w3" and segment_samples < 2:
        raise ValueError("segment test needs at least 2 sample points")

    if kind == "w1":
        def W(x, y):
            vals = np.asarray(h(x, y), dtype=float)
            mask = region.contains(x) & region.contains(y)
            return np.where(mask, vals, 0.0)
    elif kind == "w2":
        def W(x, y):
            vals = np.asarray(h(x, y), dtype=float)
            inside = region.contains(x) & region.contains(y)
            outside = region.strictly_outside_closure(x) & region.strictly_outside_closure(y)
            return np.where(inside | outside, vals, 0.0)
    else:
        ts = np.linspace(0.0, 1.0, segment_samples)

        def W(x, y):
            xa = np.asarray(x, dtype=float)
            ya = np.asarray(y, dtype=float)
            xa, ya = np.broadcast_arrays(xa, ya)
            seg = xa[..., None, :] + ts[:, None] * (ya - xa)[..., None, :]
            hits = region.contains(seg)      # (..., segment_samples)
            vals = np.asarray(h(x, y), dtype=float)
            return np.where(np.any(hits, axis=-1), 0.0, vals)

    return W


# -----------------------------------------------------------------------------
# sampled assumption checks
# -----------------------------------------------------------------------------
# Most violations a report lists as examples; ``violation_count`` has the total.
VIOLATION_EXAMPLES = 20
# Most ordered pairs a probe evaluates; a larger plan is subsampled.
PAIR_LIMIT = 20000


class PairSample(NamedTuple):
    """Pairs of probe points, and how many of the plan's pairs they cover."""

    x: np.ndarray
    y: np.ndarray
    total: int                  # ordered pairs in the plan
    seed: int | None            # subsampling seed; None when every pair is here


class ProbePlan:
    """Finite probe of points/pairs: a regular grid on a box or a seeded cloud."""

    def __init__(self, points, description):
        self._points = np.asarray(points, dtype=float)
        self.description = description

    @classmethod
    def grid(cls, bounds, per_axis=11):
        b = np.asarray(bounds, dtype=float)
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in b]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(pts, f"grid({per_axis}^{len(b)} on box)")

    @classmethod
    def random(cls, bounds, count=500, seed=0):
        b = np.asarray(bounds, dtype=float)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(b[:, 0], b[:, 1], size=(count, len(b)))
        return cls(pts, f"random({count} points, seed={seed})")

    def points(self) -> np.ndarray:
        return self._points

    def pairs(self) -> PairSample:
        """All ordered pairs of probe points, or, over ``PAIR_LIMIT``, that
        many pairs drawn with replacement with seed 0."""
        pts = self._points
        k = len(pts)
        if k * k <= PAIR_LIMIT:
            ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
            return PairSample(pts[ii.ravel()], pts[jj.ravel()], k * k, None)
        seed = 0
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, k, size=PAIR_LIMIT)
        jj = rng.integers(0, k, size=PAIR_LIMIT)
        return PairSample(pts[ii], pts[jj], k * k, seed)


@dataclass
class AssumptionReport:
    """Result of a sampled assumption check; sampled only, never exhaustive.

    ``violations`` lists at most ``VIOLATION_EXAMPLES`` examples and
    ``violation_count`` counts them all.  ``pairs_checked`` of the probe's
    ``pairs_total`` ordered pairs were evaluated; ``sample_seed`` is the seed
    that drew them, None when every pair was checked.
    """

    assumption: str
    minima: dict
    violations: list
    probe: str
    exhaustive: bool = False
    pairs_checked: int = field(default=0, kw_only=True)
    pairs_total: int = field(default=0, kw_only=True)
    sample_seed: int | None = field(default=None, kw_only=True)
    violation_count: int = field(default=0, kw_only=True)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Every field; ``AssumptionReport(**json.loads(text))`` rebuilds the report."""
        return json.dumps(asdict(self), sort_keys=True)


def check_assumption_B1(pair: PotentialPair, probe: ProbePlan) -> AssumptionReport:
    """Sampled check of the uniform lower bound on W against the declared c."""
    xs, ys, total, seed = probe.pairs()
    vals = evaluate_W(pair.W, xs, ys)
    finite = vals[np.isfinite(vals)]
    est = float(finite.min()) if finite.size else np.inf
    violations = []
    count = 0
    c = pair.declared_lower_bound_c
    if c is not None:
        bad = np.flatnonzero(vals < c)
        count = len(bad)
        for i in bad[:VIOLATION_EXAMPLES]:
            violations.append({"x": xs[i].tolist(), "y": ys[i].tolist(), "W": float(vals[i])})
    return AssumptionReport(
        assumption="B1", minima={"W": est}, violations=violations, probe=probe.description,
        violation_count=count, pairs_checked=len(xs), pairs_total=total, sample_seed=seed
    )


def check_assumption_C1(pair: PotentialPair, eps1: float, probe: ProbePlan,
                        declared_c=None, declared_c_prime=None) -> AssumptionReport:
    """Sampled minima of V and of the coupled bound W + eps1 (V(x) + V(y))."""
    if not (0.0 < eps1 < 1.0):
        raise ValueError("eps1 must lie in (0, 1)")
    pts = probe.points()
    v_vals = evaluate_V(pair.V, pts)
    xs, ys, total, seed = probe.pairs()
    coupled = evaluate_W(pair.W, xs, ys) + eps1 * (evaluate_V(pair.V, xs) + evaluate_V(pair.V, ys))
    v_fin = v_vals[np.isfinite(v_vals)]
    c_fin = coupled[np.isfinite(coupled)]
    minima = {
        "V": float(v_fin.min()) if v_fin.size else np.inf,
        "W+eps1(V+V)": float(c_fin.min()) if c_fin.size else np.inf,
    }
    violations = []
    count = 0
    if declared_c_prime is not None:
        bad = np.flatnonzero(v_vals < declared_c_prime)
        count += len(bad)
        for i in bad[:VIOLATION_EXAMPLES]:
            violations.append({"x": pts[i].tolist(), "V": float(v_vals[i])})
    if declared_c is not None:
        bad = np.flatnonzero(coupled < declared_c)
        count += len(bad)
        for i in bad[:VIOLATION_EXAMPLES]:
            violations.append({"x": xs[i].tolist(), "y": ys[i].tolist(),
                               "coupled": float(coupled[i])})
    return AssumptionReport(
        assumption="C1", minima=minima, violations=violations, probe=probe.description,
        violation_count=count, pairs_checked=len(xs), pairs_total=total, sample_seed=seed
    )


# -----------------------------------------------------------------------------
# equivalence transform
# -----------------------------------------------------------------------------
# Midpoint-rule cells per axis for the normalizer on a density reference.
QUADRATURE_PER_AXIS = 256


def _log_normalizer(v2, ell: ReferenceMeasure) -> float:
    """log of the integral of exp(-v2) against ell: an exact sum for finite
    ell, the midpoint rule on QUADRATURE_PER_AXIS cells per axis otherwise."""
    if ell.is_finite:
        vals = evaluate_V(v2, ell.atoms)
        with np.errstate(over="ignore"):
            terms = ell.weights * np.exp(-vals)
        z = math.fsum(terms)
    else:
        box = ell.box
        axes = [np.linspace(lo, hi, QUADRATURE_PER_AXIS + 1) for lo, hi in box]
        mids = [0.5 * (a[1:] + a[:-1]) for a in axes]
        mesh = np.meshgrid(*mids, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        cell = np.prod([(hi - lo) / QUADRATURE_PER_AXIS for lo, hi in box])
        logdens = ell.log_density(pts)
        vals = evaluate_V(v2, pts)
        with np.errstate(over="ignore"):
            z = math.fsum(np.exp(logdens - vals)) * cell
    if not (0.0 < z < np.inf):
        raise ValueError(f"normalizer integral of exp(-V2) is {z}, must be finite and positive")
    return math.log(z)


def normalize_pair(v1, v2, w, ell: ReferenceMeasure, symmetric=False,
                   name="") -> PotentialPair:
    """Equivalent pair (V, W) with exp(-V) ell a probability measure.

    Given a split Vtilde = v1 + v2 with exp(-v2) integrable against ell, the
    transformed pair is

        V(x)    = v2(x) + log Z2,
        W(x, y) = w(x, y) + v1(x) + v1(y) - log Z2,

    with Z2 the integral of exp(-v2) d ell.  The transformed pair generates
    the same n-particle energies up to the finite-n diagonal correction, and
    identical rate-functional differences.
    """
    log_z2 = _log_normalizer(v2, ell)

    def V(x):
        return np.asarray(v2(x), dtype=float) + log_z2

    def W(x, y):
        return (np.asarray(w(x, y), dtype=float)
                + np.asarray(v1(x), dtype=float) + np.asarray(v1(y), dtype=float) - log_z2)

    dim = ell.dim
    return PotentialPair(V, W, dim=dim, symmetric=symmetric,
                         name=name or "normalized")


# -----------------------------------------------------------------------------
# superlinear tightness functions
# -----------------------------------------------------------------------------
class SuperlinearFunction:
    """Convex non-decreasing piecewise-linear function with integer slopes.

    Flat at the value M_1 on [0, M_1], then slope k on [M_k, M_{k+1}] and
    slope K beyond the last breakpoint.  Superlinearity is certified by the
    slope schedule, not by the data it was built from.
    """

    def __init__(self, breakpoints):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 1:
            raise ValueError("need at least one breakpoint")
        if np.any(np.diff(bp) < 0):
            raise ValueError("breakpoints must be non-decreasing")
        if bp[0] <= 0:
            raise ValueError("breakpoints must be positive")
        self.breakpoints = bp
        # value at each breakpoint, accumulated piece by piece
        self.values_at_breakpoints = np.cumsum(
            np.concatenate([bp[:1], np.arange(1, len(bp)) * np.diff(bp)]))

    @property
    def max_slope(self) -> int:
        return len(self.breakpoints)

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("argument must be non-negative")
        bp = self.breakpoints
        idx = np.searchsorted(bp, s, side="right")   # number of breakpoints <= s
        idx = np.minimum(idx, len(bp))
        flat = self.values_at_breakpoints[0]
        out = np.where(
            idx == 0,
            flat,
            self.values_at_breakpoints[np.maximum(idx - 1, 0)]
            + idx * (s - bp[np.maximum(idx - 1, 0)]),
        )
        return out if out.ndim else float(out)


def construct_phi(nu: DiscreteMeasure, psi_bar, lambda_max: int) -> SuperlinearFunction:
    """Breakpoints M_1 <= ... <= M_K with exponential tails below 2^-k.

    Scans the sorted psi_bar-values of nu for the smallest threshold M_k with
    sum over {psi_bar >= M_k} of w * exp(k * psi_bar) < 2^-k.  For finite nu
    the tails are eventually empty, so breakpoints past the largest
    psi_bar-value are placed just above it.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    svals = np.asarray(psi_bar(nu.atoms), dtype=float)
    if np.any(svals < 0) or np.any(~np.isfinite(svals)):
        raise ValueError("psi_bar must be finite and non-negative on the support")
    order = np.argsort(svals)
    s_sorted = svals[order]
    w_sorted = nu.weights[order]
    top = np.nextafter(s_sorted[-1], np.inf)
    # ties: the tail at a repeated value includes the whole tie block
    block_start = np.searchsorted(s_sorted, s_sorted, side="left")

    breakpoints = []
    prev = 0.0
    for k in range(1, lambda_max + 1):
        target = 2.0 ** (-k)
        with np.errstate(over="ignore"):
            terms = w_sorted * np.exp(k * s_sorted)
        # tail(M = s_sorted[j]) includes every atom with value >= s_sorted[j]
        tails = np.cumsum(terms[::-1])[::-1]
        below = tails[block_start] < target
        mk = s_sorted[np.argmax(below)] if below.any() else None
        if mk is None or mk <= 0.0:
            mk = top if mk is None else np.nextafter(0.0, np.inf)
        mk = max(mk, prev)
        breakpoints.append(mk)
        prev = mk
    return SuperlinearFunction(breakpoints)


def phi_moment_check(phi: SuperlinearFunction, nu: DiscreteMeasure, psi_bar) -> dict:
    """Exponential moment of phi(psi_bar) against nu, with its construction bound.

    Returns the integral of exp(phi(psi_bar)) d nu together with the bound
    exp(M_1) + sum of 2^-k over the slope schedule, and asserts the first
    does not exceed the second.
    """
    svals = np.asarray(psi_bar(nu.atoms), dtype=float)
    integral = math.fsum(nu.weights * np.exp(phi(svals)))
    K = phi.max_slope
    bound = math.exp(phi.breakpoints[0]) + math.fsum(2.0 ** (-k) for k in range(1, K + 1))
    if integral > bound:
        raise AssertionError(
            f"moment bound violated: integral {integral!r} exceeds bound {bound!r}"
        )
    return {"integral": integral, "bound": bound}
