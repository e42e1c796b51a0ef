"""Scalar functionals on configurations and discrete measures.

Implements the n-particle energy, the interaction energies with and without
the diagonal, their truncations, relative entropy, the two rate functionals
(entropy + interaction for the speed-n regime, pure energy for faster
speeds), the finite-n off-diagonal energy functional, the coupled-measure
energies, and the star-gap (subtraction of the infimum).

All double sums run over the full support in compensated summation
(``math.fsum``).  A +inf term short-circuits the value to +inf, and the
breakdown records which component diverged; NaN from inf - inf is a hard
error raised by the potential evaluation layer.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import WEIGHT_DROP_TOL, DiscreteMeasure, ParticleConfig, ReferenceMeasure
from .potentials import PotentialPair, evaluate_V, evaluate_W, pair_matrix

NORMALIZATION_TOL = 1e-10
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class FunctionalValue:
    """Extended-real functional value with an optional component breakdown."""

    value: float
    breakdown: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "finite": self.finite,
                           "breakdown": self.breakdown}, sort_keys=True)

    def __float__(self):
        return float(self.value)


def _masked_quadratic(weights_outer: np.ndarray, values: np.ndarray) -> float:
    """Sum of w_ij * v_ij treating zero-weight entries as exact zeros.

    A +inf value with positive weight makes the sum +inf; zero-weight
    entries never contribute, even against infinite values.  When every
    value is below +inf the products are summed as they stand: a zero
    weight adds an exact zero to the compensated sum.
    """
    if values.max() < np.inf:
        return math.fsum((weights_outer * values).ravel().tolist())
    mask = weights_outer > 0.0
    if np.any(mask & (values == np.inf)):
        return np.inf
    sel = mask & np.isfinite(values)
    return math.fsum((weights_outer[sel] * values[sel]).ravel())


def hamiltonian(config: ParticleConfig, pair: PotentialPair) -> float:
    """n-particle energy: mean confinement plus off-diagonal pair interaction.

    (1/n) sum_i V(x_i) + (1/(2 n^2)) sum_{i != j} W(x_i, x_j); the value is
    +inf as soon as any contributing term is +inf.
    """
    pts = config.points
    n = config.n
    v_vals = evaluate_V(pair.V, pts)
    if np.any(v_vals == np.inf):
        return np.inf
    total_v = math.fsum(v_vals) / n
    if n == 1:
        return total_v
    K = pair_matrix(pair.W, pts, pts)
    off = ~np.eye(n, dtype=bool)
    if np.any(K[off] == np.inf):
        return np.inf
    total_w = math.fsum(K[off]) / (2.0 * n * n)
    return total_v + total_w


def interaction_energy(mu: DiscreteMeasure, W) -> float:
    """Full interaction energy: half the double integral of W, diagonal included."""
    K = pair_matrix(W, mu.atoms, mu.atoms)
    outer = np.outer(mu.weights, mu.weights)
    return 0.5 * _masked_quadratic(outer, K)


def interaction_energy_offdiag(mu: DiscreteMeasure, W) -> float:
    """Interaction energy with the diagonal removed (W taken as 0 at x = y)."""
    K = pair_matrix(W, mu.atoms, mu.atoms)
    outer = np.outer(mu.weights, mu.weights)
    np.fill_diagonal(outer, 0.0)
    return 0.5 * _masked_quadratic(outer, K)


def truncated_interaction(mu: DiscreteMeasure, W, M: float) -> dict:
    """Both interaction energies with W replaced by min(W, M).

    Returns ``{"full": .., "offdiag": ..}``; both are finite whenever M is.
    """
    if not math.isfinite(M):
        raise ValueError("truncation level M must be finite")
    K = np.minimum(pair_matrix(W, mu.atoms, mu.atoms), M)
    outer = np.outer(mu.weights, mu.weights)
    full = 0.5 * _masked_quadratic(outer, K)
    outer_off = outer.copy()
    np.fill_diagonal(outer_off, 0.0)
    off = 0.5 * _masked_quadratic(outer_off, K)
    return {"full": full, "offdiag": off}


def relative_entropy(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Kullback-Leibler divergence of mu against nu; +inf unless supp(mu) is
    contained in supp(nu).  Atom matching is exact on canonical coordinates."""
    index = {atom.tobytes(): k for k, atom in enumerate(nu.atoms)}
    return _relative_entropy(mu, nu.dim, index, nu.weights)


def _relative_entropy(mu: DiscreteMeasure, dim, index, weights) -> float:
    """``relative_entropy`` against the measure on R^dim that puts ``weights[k]``
    on the atom whose bytes ``index`` maps to k.  An atom of mu that ``index``
    lacks, or whose weight is 0, is outside the support."""
    if mu.dim != dim:
        raise ValueError("dimension mismatch between measures")
    terms = []
    for atom, w in zip(mu.atoms, mu.weights):
        k = index.get(atom.tobytes())
        if k is None or weights[k] == 0.0:
            return np.inf
        terms.append(w * math.log(w / weights[k]))
    return math.fsum(terms)


def confinement_energy(mu: DiscreteMeasure, V) -> float:
    """Mean confinement: integral of V against mu."""
    vals = evaluate_V(V, mu.atoms)
    mask = mu.weights > 0
    if np.any(mask & (vals == np.inf)):
        return np.inf
    return math.fsum(mu.weights[mask] * vals[mask])


def _gibbs_weights(ref: ReferenceMeasure, V, warn):
    """Weights of exp(-V) ell, normalized, on the distinct atoms of ``ref``.

    Per reference, once, at its construction: the repeated atoms of ell are
    merged and their weights summed (``ref._canon``).  Per call: V is
    evaluated on the distinct atoms, the weights are divided by their total
    mass, then, as ``DiscreteMeasure`` does, weights at or below
    ``WEIGHT_DROP_TOL`` are set to 0 and the rest renormalized.  The result
    is aligned with the distinct atoms.  Warns, for the caller of the public
    function, on every call where the mass misses 1 by more than the
    tolerance.
    """
    if not ref.is_finite:
        raise ValueError("exact Gibbs reference needs a finite reference measure")
    atoms, ell_weights, _ = ref._canon
    vals = evaluate_V(V, atoms)
    with np.errstate(over="ignore"):
        raw = ell_weights * np.exp(-vals)
    total = math.fsum(raw.tolist())
    if not (0.0 < total < np.inf):
        raise ValueError(f"exp(-V) ell has mass {total}; cannot normalize")
    if warn and abs(total - 1.0) > NORMALIZATION_TOL:
        warnings.warn(
            f"exp(-V) ell has mass {total!r}, not 1; normalizing", stacklevel=3
        )
    weights = raw / total
    weights[weights <= WEIGHT_DROP_TOL] = 0.0
    weights /= math.fsum(weights.tolist())
    return weights


def gibbs_reference(ref: ReferenceMeasure, V, warn=True) -> DiscreteMeasure:
    """The probability measure exp(-V) ell on a finite reference.

    Normalizes in all cases; warns (rather than failing) when the declared
    potential misses unit mass by more than the tolerance, since callers may
    legitimately pass an unnormalized confinement.
    """
    weights = _gibbs_weights(ref, V, warn)
    keep = weights > 0.0
    return DiscreteMeasure(ref._canon[0][keep], weights[keep])


def rate_I(mu: DiscreteMeasure, pair: PotentialPair, ref: ReferenceMeasure) -> FunctionalValue:
    """Speed-n rate functional: relative entropy against exp(-V) ell plus
    the full interaction energy.

    The weights of exp(-V) ell are those of ``gibbs_reference``, taken
    without building the measure.  Per reference, once: the distinct atoms
    of ell, their summed weights and the index from an atom to its position,
    all held by ``ref``.  Per call: V on those atoms, the normalized and
    dropped weights (``_gibbs_weights``, with its mass warning), one index
    lookup per atom of mu, and the interaction energy of mu."""
    weights = _gibbs_weights(ref, pair.V, warn=True)
    entropy = _relative_entropy(mu, ref.dim, ref._canon[2], weights)
    if not math.isfinite(entropy):
        return FunctionalValue(np.inf, {"entropy": np.inf, "interaction": None,
                                        "diverged": "entropy"})
    interaction = interaction_energy(mu, pair.W)
    value = entropy + interaction
    breakdown = {"entropy": entropy, "interaction": interaction}
    if interaction == np.inf:
        breakdown["diverged"] = "interaction"
    return FunctionalValue(value, breakdown)


def rate_J(mu: DiscreteMeasure, pair: PotentialPair) -> FunctionalValue:
    """Fast-speed rate functional: half double integral of V(x) + V(y) + W(x, y).

    Evaluated both as the quadratic form and as confinement + interaction;
    the two paths are cross-checked to 1e-12 when finite.
    """
    v_vals = evaluate_V(pair.V, mu.atoms)
    K = pair_matrix(pair.W, mu.atoms, mu.atoms)
    outer = np.outer(mu.weights, mu.weights)
    quad_kernel = v_vals[:, None] + v_vals[None, :] + K
    quadratic = 0.5 * _masked_quadratic(outer, quad_kernel)

    confinement = confinement_energy(mu, pair.V)
    interaction = interaction_energy(mu, pair.W)
    split = confinement + interaction

    if math.isfinite(quadratic) and math.isfinite(split):
        if abs(quadratic - split) > CROSS_CHECK_TOL * max(1.0, abs(quadratic)):
            raise AssertionError(
                f"rate_J cross-check failed: quadratic {quadratic!r} vs split {split!r}"
            )
    breakdown = {"confinement": confinement, "interaction": interaction}
    if confinement == np.inf:
        breakdown["diverged"] = "confinement"
    elif interaction == np.inf:
        breakdown["diverged"] = "interaction"
    return FunctionalValue(quadratic, breakdown)


def rate_J_n_offdiag(mu: DiscreteMeasure, pair: PotentialPair, n: int,
                     beta_n: float) -> FunctionalValue:
    """Finite-n off-diagonal energy: (1 - n/beta_n) * confinement + offdiag interaction."""
    if beta_n <= 0:
        raise ValueError("beta_n must be positive")
    coeff = 1.0 - n / beta_n
    confinement = confinement_energy(mu, pair.V)
    offdiag = interaction_energy_offdiag(mu, pair.W)
    if confinement == np.inf:
        if coeff < 0.0:
            raise ValueError(
                "negative coefficient against infinite confinement (beta_n < n)"
            )
        scaled = np.inf if coeff > 0.0 else 0.0
    else:
        scaled = coeff * confinement
    value = scaled + offdiag
    return FunctionalValue(value, {"confinement": confinement, "coefficient": coeff,
                                   "offdiag_interaction": offdiag})


def coupled_energy(zeta: DiscreteMeasure, pair: PotentialPair) -> dict:
    """Energies of a coupling zeta on R^{2d}.

    frakW is half the integral of W(x, y) against zeta; frakJ adds the two
    confinement marginals inside the same half-integral.
    """
    if zeta.dim % 2 != 0:
        raise ValueError("coupling must live on R^{2d}")
    d = zeta.dim // 2
    xs = zeta.atoms[:, :d]
    ys = zeta.atoms[:, d:]
    w_vals = evaluate_W(pair.W, xs, ys)
    v_x = evaluate_V(pair.V, xs)
    v_y = evaluate_V(pair.V, ys)
    frak_w = 0.5 * _masked_quadratic(zeta.weights, w_vals)
    frak_j = 0.5 * _masked_quadratic(zeta.weights, v_x + v_y + w_vals)
    return {"frakW": frak_w, "frakJ": frak_j}


def star_gap(values, at: int) -> float:
    """values[at] minus the minimum of the sequence (the star normalization)."""
    raw = [float(v) for v in values]
    finite = [v for v in raw if math.isfinite(v)]
    if not finite:
        raise ValueError("all values are infinite; the star gap is undefined")
    return raw[at] - min(finite)
