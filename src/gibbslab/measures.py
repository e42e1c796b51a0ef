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
  otherwise.  ``wasserstein_lp`` solves that LP on a shortlist of plan
  cells: for each atom of mu the ``TRANSPORT_NEIGHBOURS`` atoms of nu
  nearest its image under the Gaussian transport map between the two
  measures' means and covariances, for each atom of nu the
  ``TRANSPORT_NEIGHBOURS`` nearest images, and the support of the quantile
  coupling of the atoms sorted by first coordinate, which carries a feasible
  plan.  Then every cell is priced: cells whose reduced cost under the
  solve's duals is below -1e-10 join the shortlist and the LP is solved
  again.  When none is left the duals are feasible for the LP on every cell,
  so by LP duality the shortlist's optimum is the full optimum.  In d = 1 the
  shortlist holds the quantile coupling, so the priced LP is a duality
  certificate of the quantile formula.

One canonicalizer, ``_merge_atoms``, sorts atoms and merges duplicates, both
for a new measure and for the union support of two measures.  It also
canonicalizes a finite :class:`ReferenceMeasure`, once, at construction: the
reference holds its distinct atoms, their summed weights and an index from
atom bytes to position, which the functionals and the variational solvers
read instead of merging the reference again on every call.

Every pairwise distance the package forms, in the metrics here, in
``potentials.coulomb_kernel`` and in ``GridSpec.min_spacing``, comes from
``_squared_distance``, which sums the squared differences one coordinate plane
at a time: no (..., d) block of differences x - y is ever formed.

The package writes all its JSON through one function here, ``_json_text``:
a :class:`DiscreteMeasure`, ``functionals.FunctionalValue`` and, through
``_record_json``, the result records (``MinimizationResult``,
``ChainDiagnostics``, ``AssumptionReport``), every dataclass field under its
own name.  The text is strict JSON with keys sorted: arrays and numpy scalars
become lists and numbers, a :class:`DiscreteMeasure` its own JSON object, a
``SeedSequence`` the entropy, spawn key and pool size that rebuild it, and
every non-finite number null.  A bare ``Infinity``, which a strict parser
refuses, is never written.

Inputs are checked by three functions here.  ``_as_points`` reads every point
array the package takes (atoms, grid nodes, particles) and refuses
coordinates that are not finite.  ``_as_atoms_weights`` reads the atoms and
weights of a :class:`DiscreteMeasure` and of a finite reference, of one
length and at least one atom; the measure then asks for weights >= 0 summing
to 1, the reference for weights > 0.  ``_as_box`` reads every box: a density
reference's (``ReferenceMeasure.density_on_box``, which ``lebesgue_box``
calls), a regular grid's and a probe's; it refuses bounds that are not
finite or not ordered.  ``_grid_points`` builds every product grid.

Importing this module loads numpy alone.  The package uses two of scipy's
compiled modules, which ``_scipy_extension`` loads from their files, each on
its first use, with no package ``__init__`` of scipy's run:
the HiGHS binding ``scipy.optimize._highspy._core`` on the first LP solve,
in ``linprog``, which ``d_bl`` and ``wasserstein_lp`` (so ``wasserstein_p``
in dimension >= 2) solve through, and the LAPACK wrapper
``scipy.linalg._flapack`` on the first Newton step of ``minimize_J``.  Both
paths exist from scipy 1.15, the floor in pyproject.toml.  On a 2-core
x86-64 Linux box, with numpy at 29 MB of RSS, the first ``d_bl`` in a
process took 280 ms and 49 MB more through ``scipy.optimize`` (whose import
loads every solver it has, ``scipy.sparse`` and ``scipy.linalg`` among
them), against 5 ms and 5 MB through the binding alone; a first
``minimize_J`` that took Newton steps took 140-200 ms and 28 MB more
through ``scipy.linalg``, against 7 ms and 4 MB.  The 1-d quantile
coupling, the measures themselves and every other module of the package
need numpy only.

``linprog`` passes the HiGHS model as arrays: the costs, bounds and the
CSR or CSC arrays of a ``_Compressed`` matrix go as they stand, contiguous
float64 and int32, to the binding's array overload of ``passModel``.
Filling the binding's ``HighsLp`` object from lists instead cost 18-31 ms
of the 375 ms that one ``distances`` pass (170 LPs) spent in ``linprog``,
on a 2-core x86-64 Linux box.  HiGHS reads those arrays by the sizes it is
told, so ``linprog`` checks their lengths first.  It sets only the options
its caller names and returns the optimum and the row duals: the checks and
conversions of scipy's ``linprog`` and ``milp``, which call the same
binding, took about half of each solve's time.  The binding is private to
scipy, so the tests compare both metrics with scipy's public ``milp`` and
``linprog`` on the same LPs.  ``linprog`` stays a module attribute so that a
caller can rebind it, to count or time the solves, and read each call's
arguments by name (``c``, ``A_ub``, ``A_eq``) and each matrix's ``shape``,
``data``, ``indices`` and ``indptr``.
"""
from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

WEIGHT_SUM_TOL = 1e-12
# weights below this after merging are dropped and the measure renormalized,
# so entropy terms never see log(0) from stray near-zero mass
WEIGHT_DROP_TOL = 1e-15
# nearest neighbours per atom, both ways, in the first cell set of a transport LP
TRANSPORT_NEIGHBOURS = 12


def _as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce input to a (k, d) float array of finite coordinates; 1-d input
    is read as k points in R^1."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must be a (k, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected d={dim}, got d={arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    # normalize -0.0 to +0.0 so duplicate detection is stable
    return arr + 0.0


def _as_atoms_weights(atoms, weights):
    """Coerce a measure's input to (k, d) finite atoms (``_as_points``) and k
    float weights, k >= 1; the sign of the weights is the caller's rule."""
    atoms = _as_points(atoms)
    weights = np.asarray(weights, dtype=float).ravel()
    if len(weights) != len(atoms):
        raise ValueError("atoms and weights must have the same length")
    if len(atoms) == 0:
        raise ValueError("a measure needs at least one atom")
    return atoms, weights


def _as_box(bounds) -> np.ndarray:
    """Coerce bounds to a (d, 2) float array of (low, high) per axis, every
    bound finite and each low below its high."""
    box = np.asarray(bounds, dtype=float)
    # NaN fails the comparison, so it is refused along with inf
    if not (box.ndim == 2 and box.shape[1] == 2 and np.isfinite(box).all()
            and (box[:, 0] < box[:, 1]).all()):
        raise ValueError("bounds must be a (d, 2) array of finite (low, high) pairs "
                         "with low < high")
    return box


def _grid_points(axes) -> np.ndarray:
    """The product grid of the 1-d arrays ``axes``, one point per row, the
    last axis varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


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
    runs over the copies of an atom in their input order.  When no atom
    repeats, the sorted points and weights are returned as they are, the
    same values the sums would give.
    """
    order = np.lexsort(points.T[::-1])
    points = points[order]
    first = np.zeros(len(points), dtype=bool)
    first[:1] = True
    # a later point is new when it differs from its predecessor in some coordinate plane
    for k in range(points.shape[1]):
        first[1:] |= points[1:, k] != points[:-1, k]
    if first.all():
        return points, weights[order]
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
        atoms, weights = _as_atoms_weights(atoms, weights)
        # NaN fails both comparisons
        if not (weights.min() >= 0.0 and weights.max() < np.inf):
            raise ValueError("weights must be non-negative and finite")
        # fsum reads a list of floats faster than an array's scalars
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        self._canonicalize(atoms, weights)

    def _canonicalize(self, atoms: np.ndarray, weights: np.ndarray) -> "DiscreteMeasure":
        """Merge, drop, renormalize and freeze, and return self: the canonical
        form of input already checked, a (k, d) float array of finite atoms
        with no -0.0 and k >= 1 non-negative finite weights summing to 1
        within ``WEIGHT_SUM_TOL``.  ``__init__`` calls it after checking;
        ``empirical_measure``, whose configuration holds such atoms, calls it
        on a bare instance."""
        atoms, weights = _merge_atoms(atoms, weights)

        if not weights.min() > WEIGHT_DROP_TOL:
            mask = weights > WEIGHT_DROP_TOL
            if not mask.any():
                raise ValueError("all weights below drop tolerance")
            atoms = atoms[mask]
            weights = weights[mask]
        weights = weights / math.fsum(weights.tolist())

        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_weights", weights)
        return self

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
        return _json_text(self)

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


def _plain(value):
    """``value`` as the dicts, lists, strings and numbers JSON writes, a
    non-finite number as None.

    Arrays become lists and numpy scalars numbers; a :class:`DiscreteMeasure`
    becomes its dimension, atoms and weights, and a ``SeedSequence`` the
    entropy, spawn key and pool size that rebuild it.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain(value.tolist())
    if isinstance(value, DiscreteMeasure):
        return {"dim": value.dim, "atoms": value.atoms.tolist(), "weights": value.weights.tolist()}
    if isinstance(value, np.random.SeedSequence):
        return {"entropy": value.entropy, "spawn_key": list(value.spawn_key),
                "pool_size": value.pool_size}
    return value


def _json_text(value) -> str:
    """The package's one JSON writer: strict JSON, keys sorted, with every
    non-finite number written as null (``_plain``).  ``allow_nan=False``
    refuses any infinity or NaN that got past it, rather than writing a bare
    ``Infinity``, which a strict parser refuses."""
    return json.dumps(_plain(value), sort_keys=True, allow_nan=False)


def _record_json(record) -> str:
    """JSON of a dataclass record: every field under its name, through
    ``_json_text``."""
    return _json_text({f.name: getattr(record, f.name) for f in dataclasses.fields(record)})


class ParticleConfig:
    """Ordered n-tuple of points in R^d, the argument of the energy functional."""

    __slots__ = ("_points",)

    def __init__(self, points):
        (config,) = self._from_block(_as_points(points)[None])
        object.__setattr__(self, "_points", config._points)

    @classmethod
    def _from_block(cls, block: np.ndarray) -> list["ParticleConfig"]:
        """One configuration per row of a (samples, n, d) float block.

        The block is checked for finiteness once, its -0.0 entries are made
        +0.0 in place, as the constructor does, and it is made read-only;
        each configuration's points are a view of its row.  The caller hands
        the block over and must not write to it again.
        """
        if block.ndim != 3 or block.shape[1] < 1:
            raise ValueError("a configuration needs at least one particle: need a "
                             f"(samples, n, d) block with n >= 1, got {block.shape}")
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

    A finite reference is canonicalized once, here: ``_canon`` holds its
    distinct atoms in ``_merge_atoms`` order, their summed weights, and a dict
    from an atom's bytes to its position among them.  ``atoms`` and
    ``weights`` keep the cloud as given, repeats and order included.

    ``_gibbs_memo`` is a one-entry memo of ``functionals._gibbs_weights``:
    None, or the confinement V last asked for, the mass of exp(-V) ell and
    the read-only normalized weights on the distinct atoms.  A call with
    another V object replaces the entry, so a reference holds at most one
    set of Gibbs weights.
    """

    __slots__ = ("mode", "atoms", "weights", "log_density", "box", "description", "_canon",
                 "_gibbs_memo")

    def __init__(self, mode, atoms=None, weights=None, log_density=None, box=None,
                 description=""):
        if mode not in ("finite", "density"):
            raise ValueError("mode must be 'finite' or 'density'")
        canon = None
        if mode == "finite":
            distinct, summed = _merge_atoms(atoms, weights)
            distinct.setflags(write=False)
            summed.setflags(write=False)
            canon = (distinct, summed, {a.tobytes(): k for k, a in enumerate(distinct)})
        object.__setattr__(self, "_canon", canon)
        object.__setattr__(self, "_gibbs_memo", None)
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
        """A cloud of at least one atom with positive finite weights, of any
        total mass; weights=None gives every atom weight 1."""
        if weights is None:
            weights = np.ones(len(_as_points(atoms)))
        atoms, weights = _as_atoms_weights(atoms, weights)
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("reference weights must be positive and finite")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        return cls("finite", atoms=atoms, weights=weights,
                   description=f"finite({len(atoms)} atoms)")

    @classmethod
    def lebesgue_box(cls, bounds) -> "ReferenceMeasure":
        """Lebesgue measure restricted to the closed box given by (low, high) per axis."""
        box = _as_box(bounds)

        def log_density(points):
            pts = np.asarray(points, dtype=float)
            inside = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=-1)
            return np.where(inside, 0.0, -np.inf)

        return cls.density_on_box(log_density, box, description=f"lebesgue_box(d={len(box)})")

    @classmethod
    def density_on_box(cls, log_density, bounds, description="density") -> "ReferenceMeasure":
        """A log-density against Lebesgue measure on the closed box of (low, high)
        per axis; every bound must be finite and each low below its high."""
        return cls("density", log_density=log_density, box=_as_box(bounds),
                   description=description)

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
    """Empirical measure (1/n) sum of Dirac masses at the configuration points.

    A configuration's points are finite floats without -0.0 and n >= 1, so
    the measure is canonicalized without checking them again; it equals
    ``DiscreteMeasure(config.points, np.full(n, 1 / n))`` bitwise."""
    n = config.n
    return object.__new__(DiscreteMeasure)._canonicalize(config.points, np.full(n, 1.0 / n))


def psi_integral(mu: DiscreteMeasure, psi: WeightFunction) -> float:
    """Integral of psi against mu: sum of w_i * psi(a_i)."""
    return math.fsum((mu.weights * psi(mu.atoms)).tolist())


def tail_psi_mass(mu: DiscreteMeasure, psi: WeightFunction, r: float) -> float:
    """psi-mass outside the closed ball of radius r: sum over |a_i| > r of w_i psi(a_i)."""
    # NaN fails the comparison, so it is refused too
    if not r >= 0:
        raise ValueError(f"r must be non-negative, got {r!r}")
    norms = np.linalg.norm(mu.atoms, axis=1)
    mask = norms > r
    if not np.any(mask):
        return 0.0
    return math.fsum((mu.weights[mask] * psi(mu.atoms[mask])).tolist())


def _scipy_extension(name: str):
    """scipy's compiled module ``name``, such as ``"scipy.linalg._flapack"``,
    loaded with no package ``__init__`` above it run.

    A module already in ``sys.modules`` is returned as it is.  Otherwise the
    module is loaded from its file under scipy's directory and registered
    under its own name, so that a later ``import scipy.optimize`` or
    ``scipy.linalg`` reuses it: a pybind11 module, such as HiGHS's, cannot be
    loaded twice in one process.  That later import does not bind the module
    as an attribute of its package, so ``scipy.linalg._flapack`` then raises
    AttributeError, while ``from scipy.linalg import _flapack`` and scipy's
    own imports find it.  Where there is no such file, or it does not
    load alone (on a platform where scipy's ``__init__`` must first make its
    shared libraries findable), the module is imported the usual way, and
    that import names what is missing.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.origin), *name.split(".")[1:-1]),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return importlib.import_module(name)
    sys.modules[name] = module
    return module


class _Compressed(NamedTuple):
    """A sparse matrix as HiGHS reads it: ``format`` "csr" (row-wise) or "csc"
    (column-wise), its (rows, cols) ``shape``, and the ``indptr``,
    ``indices`` and ``data`` arrays of that format, as scipy's sparse arrays
    name them."""

    format: str
    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _two_per_line(format: str, shape: tuple, first, second, values) -> _Compressed:
    """The CSR ("csr") or CSC ("csc") matrix whose line r, a row or a column
    as ``format`` says, holds values[0] at first[r] and values[1] at
    second[r], first[r] < second[r].  The indices are int32, the width of
    HiGHS's own indices."""
    lines = len(first)
    indices = np.empty(2 * lines, dtype=np.int32)
    indices[0::2], indices[1::2] = first, second
    return _Compressed(format, shape, np.arange(0, 2 * lines + 1, 2, dtype=np.int32), indices,
                       np.tile(np.asarray(values, dtype=float), lines))


def linprog(c, *, A_ub=None, b_lb=None, b_ub=None, A_eq=None, b_eq=None, bounds, options):
    """Minimize c @ x over bounds[0] <= x <= bounds[1] and one block of rows,
    ranged rows b_lb <= A_ub @ x <= b_ub or equality rows A_eq @ x = b_eq,
    by HiGHS through the binding scipy ships,
    ``scipy.optimize._highspy._core``; scipy's ``linprog`` and ``milp`` call
    the same binding.  ``_scipy_extension`` loads it on the first call
    without ``scipy.optimize`` and its other solvers.

    The matrix is in CSR or CSC format, a ``_Compressed`` or a scipy sparse
    array: anything with a ``format``, ``shape``, ``indptr``, ``indices`` and
    ``data``.  It is passed to HiGHS row-wise or column-wise as it stands,
    as contiguous float64 and int32 arrays, through the binding's array
    overload of ``passModel``.  HiGHS reads those arrays by the sizes it is
    told and checks none of their lengths, so an ``indptr`` that is not one
    entry longer than the lines of its format, or whose last entry is not
    the length of both ``indices`` and ``data``, is refused with a ValueError
    before HiGHS is loaded.  HiGHS prints nothing and takes its defaults but
    for ``options``, a dict of HiGHS option names and values
    (``"presolve": "off"``), each refused with a ValueError if HiGHS refuses
    it.  Returns the objective value and the row duals; any model status
    other than optimal raises a RuntimeError.
    """
    if (A_ub is None) == (A_eq is None):
        raise ValueError("pass exactly one of A_ub and A_eq")
    a, lower, upper = (A_ub, b_lb, b_ub) if A_eq is None else (A_eq, b_eq, b_eq)
    if a.format not in ("csr", "csc"):
        raise ValueError(f"the constraint matrix must be CSR or CSC, got {a.format}")
    rows, cols = a.shape
    lines = rows if a.format == "csr" else cols
    indptr = np.ascontiguousarray(a.indptr, dtype=np.int32)
    indices = np.ascontiguousarray(a.indices, dtype=np.int32)
    data = np.ascontiguousarray(a.data, dtype=float)
    if not (indptr.shape == (lines + 1,) and indptr[-1] == len(indices) == len(data)):
        raise ValueError(f"a {a.format} matrix of shape {a.shape} needs {lines + 1} indptr "
                         f"entries, the last the length of indices and data, got "
                         f"{len(indptr)}, {len(indices)} and {len(data)}")

    def vector(values, size):
        # HiGHS takes a vector of another length without a word, so each is
        # broadcast to its length, which refuses a wrong one
        return np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=float), size))

    highs = _scipy_extension("scipy.optimize._highspy._core")
    formats = {"csr": highs.MatrixFormat.kRowwise, "csc": highs.MatrixFormat.kColwise}
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    for key, value in options.items():
        if solver.setOptionValue(key, value) == highs.HighsStatus.kError:
            raise ValueError(f"HiGHS refuses the option {key} = {value!r}")
    # HiGHS takes no indptr entry past the last line's start, and refuses an
    # empty integrality array: every column is continuous (0)
    status = solver.passModel(cols, rows, len(data), formats[a.format],
                              highs.ObjSense.kMinimize, 0.0, vector(c, cols),
                              vector(bounds[0], cols), vector(bounds[1], cols),
                              vector(lower, rows), vector(upper, rows), indptr[:-1], indices,
                              data, np.zeros(cols, dtype=np.int32))
    if status == highs.HighsStatus.kError:
        raise ValueError("HiGHS refuses the LP")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP not solved: {solver.modelStatusToString(status)}")
    return solver.getInfo().objective_function_value, np.array(solver.getSolution().row_dual)


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
    solved once, without presolve, at HiGHS's least primal feasibility
    tolerance, 1e-10.  HiGHS accepts an f that breaks a row or the box by up
    to that tolerance, so the value can exceed the optimum, by at most 1e-10
    times the total mass of an optimal dual solution, which is at most 2 on
    the box and 1 / delta on the rows, delta the shortest kept distance.
    This needs no close atoms, only a row within the tolerance of the box.
    At HiGHS's default, 1e-7, delta at 2^-24 against delta at 1 returned 1,
    since f = 1/2, -1/2 breaks their one row by 2^-24, and delta_1 against
    the uniform measure on 0, 1/2 and 2^-24 returned 5/6; at 1e-10 they
    return their optima 1 - 2^-24 and 5/6 - 2^-24/3 exactly.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if mu == nu:
        return 0.0
    pts, signed = _union_support(mu, nu)
    k = len(pts)
    # The kept pairs iu[r] < ju[r], in the order of np.triu_indices, are those
    # with squared distance below 1: in binary64 sqrt(x) < 1 exactly when
    # x < 1.  _merge_atoms sorts the support, so in d = 1 neighbours are
    # consecutive; in d >= 2 the pairs come from one (k, k) distance block,
    # whose upper triangle np.nonzero reads row by row.
    if mu.dim == 1:
        sq = _squared_distance(pts[:-1], pts[1:])
        iu = np.flatnonzero(sq < 1.0)
        ju, sq = iu + 1, sq[iu]
    else:
        sq = _squared_distance(pts[:, None], pts[None])
        iu, ju = np.nonzero(np.triu(sq < 1.0, 1))
        sq = sq[iu, ju]
    dists = np.sqrt(sq)
    # row r is f_iu[r] - f_ju[r], ranged in [-dists[r], dists[r]]
    incidence = _two_per_line("csr", (len(iu), k), iu, ju, (1.0, -1.0))
    fun, _ = linprog(-signed, A_ub=incidence, b_lb=-dists, b_ub=dists, bounds=(-0.5, 0.5),
                     options={"presolve": "off", "primal_feasibility_tolerance": 1e-10})
    return max(0.0, -fun)


def d_psi(mu: DiscreteMeasure, nu: DiscreteMeasure, psi: WeightFunction) -> float:
    """Weighted metric: d_bl(mu, nu) + |psi_integral(mu) - psi_integral(nu)|;
    d_bl refuses measures of different dimensions."""
    return d_bl(mu, nu) + abs(psi_integral(mu, psi) - psi_integral(nu, psi))


def _quantile_coupling(wa: np.ndarray, wb: np.ndarray):
    """The quantile (monotone, north-west corner) coupling of two weight
    vectors on atoms in their given order: the mass of each cell it charges
    and that cell's two atom indices.

    Each cumulative sum is divided by its last entry, as numpy's ``choice``
    does, so both end at exactly 1 and the last level closes the top quantile
    interval of both measures: the raw sums of normalized weights end a few
    ulps off 1, each by its own rounding.
    """
    ca = np.cumsum(wa)
    ca /= ca[-1]
    cb = np.cumsum(wb)
    cb /= cb[-1]
    levels = np.union1d(ca, cb)
    # levels are distinct and positive, so every interval has positive length
    prev = np.r_[0.0, levels[:-1]]
    mids = 0.5 * (prev + levels)
    ia = np.minimum(np.searchsorted(ca, mids), len(ca) - 1)
    ib = np.minimum(np.searchsorted(cb, mids), len(cb) - 1)
    return levels - prev, ia, ib


def _wasserstein_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exact transport cost in R^1 via the quantile (monotone) coupling of the
    sorted atoms."""
    mass, ia, ib = _quantile_coupling(mu.weights, nu.weights)
    return math.fsum((mass * np.abs(mu.atoms[ia, 0] - nu.atoms[ib, 0]) ** p).tolist())


def _gaussian_images(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The atoms of mu under the optimal W2 map between Gaussians with the
    weighted means and covariances of mu and nu (Knott and Smith 1984),
    T(x) = m_nu + A (x - m_mu) with
    A = S_mu^{-1/2} (S_mu^{1/2} S_nu S_mu^{1/2})^{1/2} S_mu^{-1/2}.
    When S_mu is singular (one atom, or atoms on a hyperplane) the map is the
    mean shift x - m_mu + m_nu.
    """
    def moments(m):
        mean = m.weights @ m.atoms
        centred = m.atoms - mean
        return mean, centred, (centred * m.weights[:, None]).T @ centred

    mean_mu, centred, cov_mu = moments(mu)
    mean_nu, _, cov_nu = moments(nu)
    lam, vec = np.linalg.eigh(cov_mu)
    if not lam[0] > 1e-12 * lam[-1]:
        return centred + mean_nu
    root = (vec * np.sqrt(lam)) @ vec.T
    inv_root = (vec / np.sqrt(lam)) @ vec.T
    lam_mid, vec_mid = np.linalg.eigh(root @ cov_nu @ root)
    mid_root = (vec_mid * np.sqrt(np.maximum(lam_mid, 0.0))) @ vec_mid.T
    return centred @ (inv_root @ mid_root @ inv_root) + mean_nu


def _transport_candidates(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The (ka, kb) mask of plan cells the first transport LP is solved on.

    Every cell when a side has at most ``TRANSPORT_NEIGHBOURS`` atoms.
    Otherwise, for each atom of mu the ``TRANSPORT_NEIGHBOURS`` atoms of nu
    nearest its Gaussian image (``_gaussian_images``), for each atom of nu
    the ``TRANSPORT_NEIGHBOURS`` nearest images, and the support of the
    quantile coupling of the atoms in their lexicographic order, which is
    sorted by first coordinate.  That support carries a plan with both
    marginals, so the LP on the set is feasible.
    """
    ka, kb, k = mu.support_size, nu.support_size, TRANSPORT_NEIGHBOURS
    if min(ka, kb) <= k:
        return np.ones((ka, kb), dtype=bool)
    near = _squared_distance(_gaussian_images(mu, nu)[:, None, :], nu.atoms[None, :, :])
    mask = np.zeros((ka, kb), dtype=bool)
    np.put_along_axis(mask, np.argpartition(near, k - 1, axis=1)[:, :k], True, axis=1)
    np.put_along_axis(mask, np.argpartition(near, k - 1, axis=0)[:k, :], True, axis=0)
    _, ia, ib = _quantile_coupling(mu.weights, nu.weights)
    mask[ia, ib] = True
    return mask


def wasserstein_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Transport cost via the transportation linear program, solved on a
    shortlist of plan cells and priced over all of them.

    Serves as the exact value in dimension >= 2 and as the independent check
    of the 1-d quantile formula.  The LP is first solved on the cells of
    ``_transport_candidates`` (the shortlist method of Gottschlich and
    Schuhmacher 2014): the nearest neighbours of each atom's image under the
    Gaussian transport map in both directions, and the quantile coupling's
    support, which keeps the restricted LP feasible.  With duals u, v of the
    marginal rows, every cell's reduced cost c_ij - u_i - v_j is priced.
    Cells outside the set below -1e-10, the dual tolerance of the solve, are
    all added and the LP solved again.  When none is left, (u, v) is feasible
    for the dual of the LP on every cell, so by LP duality the restricted
    optimum is the full optimum.  In d = 1 the atoms are sorted, the set holds
    the monotone coupling, and the priced LP is a duality certificate of the
    quantile formula.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if not 1 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p!r}")
    # p = 2 takes the squared distance as it is, with no square root to undo
    cost = _squared_distance(mu.atoms[:, None, :], nu.atoms[None, :, :]) ** (p / 2)
    ka, kb = mu.support_size, nu.support_size
    marginals = np.concatenate([mu.weights, nu.weights])
    # Without presolve, which made the cost inexact: on three atoms with one
    # 6.1e-5 off the line through the others it returned W1 1.2e-9 too high.
    # The dual feasibility tolerance is HiGHS's least, 1e-10: at the default
    # 1e-7 a plan off by 2^-24 in reduced cost passed as optimal, and W1 of
    # uniform{(0, 2^-24), (0, 0)} against uniform{(0, 2^-24), (0.5, 0)} read
    # 1/4 + 2^-25.  Pricing holds the cells outside to the same tolerance.
    dual_tol = 1e-10
    cells = _transport_candidates(mu, nu)
    while True:
        # column r is the plan cell (ia[r], ib[r]): it enters the row sum ia[r]
        # of mu and the column sum ib[r] of nu
        ia, ib = np.nonzero(cells)
        a_eq = _two_per_line("csc", (ka + kb, len(ia)), ia, ka + ib, (1.0, 1.0))
        fun, dual = linprog(cost[ia, ib], A_eq=a_eq, b_eq=marginals, bounds=(0.0, math.inf),
                            options={"presolve": "off", "dual_feasibility_tolerance": dual_tol})
        priced = cost - dual[:ka, None] - dual[None, ka:] < -dual_tol
        priced &= ~cells
        if not priced.any():
            return max(0.0, fun)
        cells |= priced


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Optimal transport cost inf over couplings of the integral of |x-y|^p.

    Returns the raw cost without the p-th root (matching the metric display
    that defines the distance as the infimum of the cost integral itself).
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    if not 1 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p!r}")
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
