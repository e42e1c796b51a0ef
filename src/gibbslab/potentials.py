"""Potential catalog, assumption checkers, and superlinear tightness functions.

Potentials are vectorized callables on point arrays: a confinement ``V`` maps
an array of shape (..., d) to values of shape (...); an interaction ``W`` maps
two such arrays (broadcast against each other) to values.  The extended value
+inf encodes singularities and hard confinement; -inf and NaN are illegal and
raise :class:`PotentialValueError` naming the offending points.

``pair_matrix`` evaluates W on every pair of two point sets.
``offdiag_pair_matrix`` is the one evaluator of the n-particle sums, which
run over i != j only: it gives W(x_i, y_j) for j != i with a zero diagonal,
and W never sees a site paired with itself, where it may be +inf or
undefined.  The sampler's blocks, ``functionals.hamiltonian`` and
``functionals.interaction_energy_offdiag`` all take W from it.

Assumption checkers are sampled, never symbolic: they evaluate a declared
bound on a finite probe plan and report the sampled minima and any violations,
flagged as non-exhaustive.  (B1) and (C1) share the sampled minimum
(``_sampled_min``) and the violation collector (``_violations``).

A :class:`PotentialPair` declares its dimension; the samplers, the exact laws,
the variational builders, the rate functionals, ``functionals.hamiltonian``
and ``coupled_energy``, and the (B1) and (C1) checks refuse a reference, grid,
measure, configuration or probe of another dimension (``_check_dim``).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .measures import (DiscreteMeasure, ReferenceMeasure, _as_box, _grid_points, _record_json,
                       _squared_distance)


class PotentialValueError(ValueError):
    """A potential produced NaN (typically inf - inf) or -inf."""


def _first_nan_or_minus_inf(vals):
    """The index of the first NaN or -inf entry of vals, None when there is
    none.  One reduction decides: the minimum of a non-empty array is NaN if
    any entry is."""
    if vals.size == 0 or vals.min() > -np.inf:
        return None
    return tuple(np.argwhere(np.isnan(vals) | (vals == -np.inf))[0])


def evaluate_V(V, points) -> np.ndarray:
    """Evaluate a confinement at (k, d) points, validating extended-real rules."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(V(pts), dtype=float)
    idx = _first_nan_or_minus_inf(vals)
    if idx is not None:
        raise PotentialValueError(f"confinement returned {vals[idx]} at point {pts[idx]}")
    return vals


def evaluate_W(W, x, y) -> np.ndarray:
    """Evaluate an interaction at broadcast point arrays, validating values."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    vals = np.asarray(W(xa, ya), dtype=float)
    idx = _first_nan_or_minus_inf(vals)
    if idx is not None:
        bx, by = (b[idx] for b in np.broadcast_arrays(xa, ya))
        raise PotentialValueError(f"interaction returned {vals[idx]} at pair ({bx}, {by})")
    return vals


def pair_matrix(W, a_points, b_points) -> np.ndarray:
    """Matrix W(a_i, b_j) over two point sets, shape (k, l)."""
    A = np.asarray(a_points, dtype=float)
    B = np.asarray(b_points, dtype=float)
    return evaluate_W(W, A[:, None, :], B[None, :, :])


@functools.lru_cache(maxsize=1)
def _other_sites(n):
    """The (n, n - 1) index array whose row i lists the sites j != i, kept
    for the last n asked for: a run's sweeps and checks use one n, and a
    cache per n held 229 MB after ``hamiltonian`` at n = 100, 200, ..., 2000.

    Every call shares it, so no caller may write to it.  It is left writable
    because ``np.take`` copies a read-only index array on every call, a copy
    the sampler would pay twice a sweep.
    """
    return np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])


def offdiag_pair_matrix(W, x, y) -> np.ndarray:
    """W(x_i, y_j) for j != i over (..., n, d) sites, shape (..., n, n), with
    a zero diagonal.

    W is called once, on the pairs j != i gathered by ``_other_sites``, so it
    never sees a site paired with itself; n = 1 makes no call.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    *lead, n, _ = x.shape
    out = np.zeros((*lead, n, n))
    if n > 1:
        vals = evaluate_W(W, x[..., :, None, :], np.take(y, _other_sites(n), axis=-2))
        # flattened, the off-diagonal entries in row-major order are the first
        # n of every n + 1 entries after the first: a strided view
        off = out.reshape(*lead, n * n)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :n]
        off[...] = vals.reshape(*lead, n - 1, n)
    return out


class PotentialPair:
    """The pair (V, W) with symmetry flag and declared assumption metadata.

    ``declared_lower_bound_c`` is the claimed uniform lower bound on W, a
    candidate declaration that ``check_assumption_B1`` tests on a probe,
    never derived.  The coupled bound inf [W(x,y) + eps1 (V(x) + V(y))] > c
    is not declared here: ``check_assumption_C1`` takes eps1 and c as
    arguments.  ``symmetric`` is trusted by the samplers, which refuse a
    start where W is seen to be asymmetric.  A pair can be weakly referenced:
    a ``GridSpec`` keeps its kernel on the grid for as long as the pair lives.
    """

    __slots__ = ("V", "W", "symmetric", "declared_lower_bound_c", "dim", "name", "__weakref__")

    def __init__(self, V, W, dim, symmetric=False, declared_lower_bound_c=None, name=""):
        self.V = V
        self.W = W
        self.dim = _integer(dim, "dimension")
        self.symmetric = bool(symmetric)
        self.declared_lower_bound_c = declared_lower_bound_c
        self.name = name or "custom"

    def __repr__(self):
        return f"PotentialPair({self.name}, d={self.dim})"


def _integer(value, name: str, least: int = 1) -> int:
    """value as an int, refused unless it is an integer >= least: ``int``
    would read 2.7 as 2, a kernel power of a non-integer d is no Coulomb
    kernel, and a bool is no dimension or count of particles or sweeps."""
    try:
        k = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        k = None
    if k is None or k < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return k


def _check_dim(pair: PotentialPair, dim: int, what: str) -> None:
    """Refuse an input (``what``: a reference, grid, measure, configuration
    or probe) whose dimension is not the pair's."""
    if pair.dim != dim:
        raise ValueError(f"{pair!r} is declared for d = {pair.dim}, but the {what} "
                         f"is in d = {dim}")


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
    d = _integer(d, "dimension")
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
        """A box of (low, high) per axis; an infinite bound makes a half-space
        or slab."""
        b = np.asarray(bounds, dtype=float)
        # NaN fails the comparison, so it is refused along with low > high
        if not (b.ndim == 2 and b.shape[1] == 2 and (b[:, 0] <= b[:, 1]).all()):
            raise ValueError("box bounds must be a (d, 2) array of (low, high) pairs, "
                             "not NaN, with low <= high")
        return cls("box", bounds=b, open_=open_)

    @classmethod
    def ball(cls, center, radius, open_=True):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        # a NaN radius fails the comparison, so it is refused along with 0
        if not (np.isfinite(c).all() and radius > 0):
            raise ValueError("ball centre must be finite and radius positive")
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
        """Membership in the interior of the complement: not in the closed region."""
        return ~dataclasses.replace(self, open_=False).contains(points)


def _segment_witness(region: Region, x, y) -> np.ndarray:
    """A point of each segment [x, y] that lies in the region if any point of
    the segment does, for broadcast (..., d) endpoints.

    For a ball it is the point of the segment nearest the centre.  For a box
    it is the midpoint of the parameter interval that the closed slabs clip
    from [0, 1]: the segment meets the closed box exactly when the interval
    is not empty, and meets the open box exactly when the interval has an
    interior, whose midpoint it then is.  An axis the segment runs along
    clips nothing; the witness keeps x's coordinate there, which ``contains``
    then judges.  An empty interval gives the endpoint x, outside the region.
    """
    step = y - x
    if region.kind == "ball":
        length = (step * step).sum(-1)
        t = np.divide(((region.center - x) * step).sum(-1), length,
                      out=np.zeros_like(length), where=length > 0)
        t = np.clip(t, 0.0, 1.0)
    else:
        lo, hi = region.bounds.T
        flat = step == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.where(flat, -np.inf, (lo - x) / step)
            tb = np.where(flat, np.inf, (hi - x) / step)
            t0 = np.maximum(np.minimum(ta, tb).max(-1), 0.0)
            t1 = np.minimum(np.maximum(ta, tb).min(-1), 1.0)
            t = np.where(t0 <= t1, 0.5 * (t0 + t1), 0.0)
    return x + t[..., None] * step


def masked_interaction(kind: str, h, region: Region):
    """Discontinuous interactions gated by a region.

    * ``w1``: h(x, y) when both particles are inside the region, else 0.
    * ``w2``: h(x, y) when both are inside, or both in the interior of the
      complement, else 0.
    * ``w3``: h(x, y) when the straight segment [x, y] misses the region, else
      0.  The test is exact up to rounding: ``region.contains`` is asked at
      the point of the segment that ``_segment_witness`` picks, so a segment
      that only touches the boundary meets a closed region and misses an open
      one.  The witness is taken from both ends, and the segment meets the
      region when either does, so the test does not depend on the order of
      x and y.
    """
    kind = kind.lower()
    if kind not in ("w1", "w2", "w3"):
        raise ValueError("kind must be one of 'w1', 'w2', 'w3'")

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
        def W(x, y):
            xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            hits = (region.contains(_segment_witness(region, xa, ya))
                    | region.contains(_segment_witness(region, ya, xa)))
            vals = np.asarray(h(x, y), dtype=float)
            return np.where(hits, 0.0, vals)

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
        b = _as_box(bounds)
        pts = _grid_points([np.linspace(lo, hi, per_axis) for lo, hi in b])
        return cls(pts, f"grid({per_axis}^{len(b)} on box)")

    @classmethod
    def random(cls, bounds, count=500, seed=0):
        b = _as_box(bounds)
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
        """Every field; ``AssumptionReport(**json.loads(text))`` rebuilds the
        report, but for a non-finite number (a +inf minimum), which is written
        as null and reads back as None."""
        return _record_json(self)


def _sampled_min(vals) -> float:
    """The least finite sampled value, +inf when none is finite."""
    finite = vals[np.isfinite(vals)]
    return float(finite.min()) if finite.size else np.inf


def _violations(vals, bound, key, *points):
    """The sampled values below ``bound``: how many, and at most
    ``VIOLATION_EXAMPLES`` of them as {"x": .., "y": .., key: value}, with one
    coordinate per array of ``points``.  No bound gives (0, [])."""
    if bound is None:
        return 0, []
    bad = np.flatnonzero(vals < bound)
    examples = []
    for i in bad[:VIOLATION_EXAMPLES]:
        example = {name: pts[i].tolist() for name, pts in zip("xy", points)}
        example[key] = float(vals[i])
        examples.append(example)
    return len(bad), examples


def check_assumption_B1(pair: PotentialPair, probe: ProbePlan) -> AssumptionReport:
    """Sampled check of the uniform lower bound on W against the declared c.
    A pair declared for another dimension than the probe is refused."""
    _check_dim(pair, probe.points().shape[1], "probe")
    xs, ys, total, seed = probe.pairs()
    vals = evaluate_W(pair.W, xs, ys)
    count, violations = _violations(vals, pair.declared_lower_bound_c, "W", xs, ys)
    return AssumptionReport(
        assumption="B1", minima={"W": _sampled_min(vals)}, violations=violations,
        probe=probe.description, violation_count=count, pairs_checked=len(xs),
        pairs_total=total, sample_seed=seed
    )


def check_assumption_C1(pair: PotentialPair, eps1: float, probe: ProbePlan,
                        declared_c=None, declared_c_prime=None) -> AssumptionReport:
    """Sampled minima of V and of the coupled bound W + eps1 (V(x) + V(y)).
    A pair declared for another dimension than the probe is refused."""
    if not (0.0 < eps1 < 1.0):
        raise ValueError("eps1 must lie in (0, 1)")
    pts = probe.points()
    _check_dim(pair, pts.shape[1], "probe")
    v_vals = evaluate_V(pair.V, pts)
    xs, ys, total, seed = probe.pairs()
    coupled = evaluate_W(pair.W, xs, ys) + eps1 * (evaluate_V(pair.V, xs) + evaluate_V(pair.V, ys))
    minima = {"V": _sampled_min(v_vals), "W+eps1(V+V)": _sampled_min(coupled)}
    count_v, violations_v = _violations(v_vals, declared_c_prime, "V", pts)
    count_c, violations_c = _violations(coupled, declared_c, "coupled", xs, ys)
    return AssumptionReport(
        assumption="C1", minima=minima, violations=violations_v + violations_c,
        probe=probe.description, violation_count=count_v + count_c, pairs_checked=len(xs),
        pairs_total=total, sample_seed=seed
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
        z = math.fsum(terms.tolist())
    else:
        box = ell.box
        axes = [np.linspace(lo, hi, QUADRATURE_PER_AXIS + 1) for lo, hi in box]
        pts = _grid_points([0.5 * (a[1:] + a[:-1]) for a in axes])
        cell = np.prod([(hi - lo) / QUADRATURE_PER_AXIS for lo, hi in box])
        logdens = ell.log_density(pts)
        vals = evaluate_V(v2, pts)
        with np.errstate(over="ignore"):
            z = math.fsum(np.exp(logdens - vals).tolist()) * cell
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
        # NaN fails both comparisons, so it is refused too
        if not (np.diff(bp) >= 0).all():
            raise ValueError("breakpoints must be non-decreasing")
        if not bp[0] > 0:
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
    lambda_max = _integer(lambda_max, "lambda_max")
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
    integral = math.fsum((nu.weights * np.exp(phi(svals))).tolist())
    K = phi.max_slope
    bound = math.exp(phi.breakpoints[0]) + math.fsum(2.0 ** (-k) for k in range(1, K + 1))
    if integral > bound:
        raise AssertionError(
            f"moment bound violated: integral {integral!r} exceeds bound {bound!r}"
        )
    return {"integral": integral, "bound": bound}
