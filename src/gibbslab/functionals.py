"""Scalar functionals on configurations and discrete measures.

Implements the n-particle energy, the interaction energies with and without
the diagonal, their truncations, relative entropy, the two rate functionals
(entropy + interaction for the speed-n regime, pure energy for faster
speeds), the finite-n off-diagonal energy functional, the coupled-measure
energies, and the star-gap (subtraction of the infimum).

Every extended-real sum here, H_n, the confinement, the interaction
energies, their truncations, J and the coupled energies, goes through one
weighted sum, ``_masked_quadratic``, in compensated summation
(``math.fsum``): a +inf term with positive weight makes the value +inf, and
the breakdown records which component diverged; NaN from inf - inf is a hard
error raised by the potential evaluation layer.  The double sums are
``_half_integral`` of a kernel matrix.  The sums over i != j, H_n and the
off-diagonal interaction energy, plain and truncated, take W from
``potentials.offdiag_pair_matrix``, which never evaluates it at x = y.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import (WEIGHT_DROP_TOL, DiscreteMeasure, ParticleConfig, ReferenceMeasure,
                       _json_text)
from .potentials import (PotentialPair, PotentialValueError, _check_dim, _integer, evaluate_V,
                         evaluate_W, offdiag_pair_matrix, pair_matrix)

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
        """Strict JSON: a non-finite value or breakdown entry is written as
        null, and ``finite`` is false beside a null value."""
        return _json_text({"value": self.value, "finite": self.finite,
                           "breakdown": self.breakdown})

    def __float__(self):
        return float(self.value)


def _masked_quadratic(weights_outer: np.ndarray, values: np.ndarray) -> float:
    """Sum of w * v over two arrays of one shape (weights against values, or
    an outer product of weights against a matrix), treating zero-weight
    entries as exact zeros.

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
    return math.fsum((weights_outer[sel] * values[sel]).tolist())


def hamiltonian(config: ParticleConfig, pair: PotentialPair) -> float:
    """n-particle energy: mean confinement plus off-diagonal pair interaction.

    (1/n) sum_i V(x_i) + (1/(2 n^2)) sum_{i != j} W(x_i, x_j); the value is
    +inf as soon as any contributing term is +inf.  W is never evaluated at
    a site paired with itself.  A pair declared for another dimension than
    the configuration is refused.
    """
    _check_dim(pair, config.dim, "configuration")
    pts, n = config.points, config.n
    v_vals = evaluate_V(pair.V, pts)
    K = offdiag_pair_matrix(pair.W, pts, pts)
    return (_masked_quadratic(np.ones(n), v_vals) / n
            + _masked_quadratic(np.ones_like(K), K) / (2.0 * n * n))


def _half_integral(mu: DiscreteMeasure, K) -> float:
    """(1/2) sum_ij w_i w_j K_ij over the atoms of mu."""
    return 0.5 * _masked_quadratic(np.outer(mu.weights, mu.weights), K)


def interaction_energy(mu: DiscreteMeasure, W) -> float:
    """Full interaction energy: half the double integral of W, diagonal included."""
    return _half_integral(mu, pair_matrix(W, mu.atoms, mu.atoms))


def interaction_energy_offdiag(mu: DiscreteMeasure, W) -> float:
    """Interaction energy with the diagonal removed (W taken as 0 at x = y,
    where it is never evaluated)."""
    return _half_integral(mu, offdiag_pair_matrix(W, mu.atoms, mu.atoms))


def truncated_interaction(mu: DiscreteMeasure, W, M: float) -> dict:
    """Both interaction energies with W replaced by min(W, M).

    Returns ``{"full": .., "offdiag": ..}``, each finite whenever M is.  The
    off-diagonal part takes W from ``offdiag_pair_matrix``, which never
    evaluates it at x = y; "full" is None when W is not defined at some atom
    paired with itself (NaN or -inf there).
    """
    if not math.isfinite(M):
        raise ValueError("truncation level M must be finite")
    K = np.minimum(offdiag_pair_matrix(W, mu.atoms, mu.atoms), M)
    offdiag = _half_integral(mu, K)
    try:
        diagonal = evaluate_W(W, mu.atoms, mu.atoms)
    except PotentialValueError:
        return {"full": None, "offdiag": offdiag}
    np.fill_diagonal(K, np.minimum(diagonal, M))
    return {"full": _half_integral(mu, K), "offdiag": offdiag}


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
    return _masked_quadratic(mu.weights, evaluate_V(V, mu.atoms))


def _gibbs_weights(ref: ReferenceMeasure, V):
    """Weights of exp(-V) ell, normalized, on the distinct atoms of ``ref``.

    Once per reference, at its construction: the repeated atoms of ell are
    merged and their weights summed (``ref._canon``).  Once per reference
    and V: V is evaluated on the distinct atoms, the weights are divided by
    their total mass, then, as ``DiscreteMeasure`` does, weights at or below
    ``WEIGHT_DROP_TOL`` are set to 0 and the rest renormalized.  The mass and
    the read-only result, aligned with the distinct atoms, are kept in
    ``ref._gibbs_memo`` under the V object; a call with another V replaces
    them.  Per call: warns, for the caller of the public function, when the
    mass misses 1 by more than ``NORMALIZATION_TOL``; a mass of 0 or +inf is
    never kept, so every such call raises.
    """
    if not ref.is_finite:
        raise ValueError("exact Gibbs reference needs a finite reference measure")
    memo = ref._gibbs_memo
    if memo is not None and memo[0] is V:
        _, total, weights = memo
    else:
        atoms, ell_weights, _ = ref._canon
        vals = evaluate_V(V, atoms)
        with np.errstate(over="ignore"):
            raw = ell_weights * np.exp(-vals)
        total = math.fsum(raw.tolist())
        if not (0.0 < total < np.inf):
            raise ValueError(f"exp(-V) ell has mass {total}; cannot normalize")
        weights = raw / total
        weights[weights <= WEIGHT_DROP_TOL] = 0.0
        weights /= math.fsum(weights.tolist())
        weights.setflags(write=False)
        # the reference is otherwise immutable; the memo is its one mutable slot
        object.__setattr__(ref, "_gibbs_memo", (V, total, weights))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        warnings.warn(
            f"exp(-V) ell has mass {total!r}, not 1; normalizing", stacklevel=3
        )
    return weights


def gibbs_reference(ref: ReferenceMeasure, V) -> DiscreteMeasure:
    """The probability measure exp(-V) ell on a finite reference.

    Normalizes in all cases; warns (rather than failing) when the declared
    potential misses unit mass by more than the tolerance, since callers may
    legitimately pass an unnormalized confinement.  Its weights are
    ``rate_I``'s, computed once per reference and V (``_gibbs_weights``).
    """
    weights = _gibbs_weights(ref, V)
    keep = weights > 0.0
    return DiscreteMeasure(ref._canon[0][keep], weights[keep])


def rate_I(mu: DiscreteMeasure, pair: PotentialPair, ref: ReferenceMeasure) -> FunctionalValue:
    """Speed-n rate functional: relative entropy against exp(-V) ell plus
    the full interaction energy.

    The weights of exp(-V) ell are those of ``gibbs_reference``, taken
    without building the measure.  Per reference, once: the distinct atoms
    of ell, their summed weights and the index from an atom to its position,
    all held by ``ref``.  Per reference and V, once: V on those atoms and the
    normalized and dropped weights (``_gibbs_weights``, kept on ``ref``).
    Per call: the mass warning, one index lookup per atom of mu, and the
    interaction energy of mu.  A pair declared for another dimension than
    ``ref`` is refused."""
    _check_dim(pair, ref.dim, "reference")
    weights = _gibbs_weights(ref, pair.V)
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

    V and W are evaluated once; the value is summed both as the quadratic
    form and as confinement + interaction, and the two summation orders are
    cross-checked to 1e-12 when finite.  A pair declared for another
    dimension than ``mu`` is refused.
    """
    _check_dim(pair, mu.dim, "measure")
    v_vals = evaluate_V(pair.V, mu.atoms)
    K = pair_matrix(pair.W, mu.atoms, mu.atoms)
    quadratic = _half_integral(mu, v_vals[:, None] + v_vals[None, :] + K)

    confinement = _masked_quadratic(mu.weights, v_vals)
    interaction = _half_integral(mu, K)
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
    """Finite-n off-diagonal energy: (1 - n/beta_n) * confinement + offdiag
    interaction.  A pair declared for another dimension than ``mu`` is refused,
    and n must be an integer >= 1."""
    _check_dim(pair, mu.dim, "measure")
    n = _integer(n, "n")
    if not 0 < beta_n < math.inf:
        raise ValueError(f"beta_n must lie in (0, inf), got {beta_n!r}")
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
    confinement marginals inside the same half-integral.  A pair declared
    for another dimension than the marginals is refused.
    """
    if zeta.dim % 2 != 0:
        raise ValueError("coupling must live on R^{2d}")
    d = zeta.dim // 2
    _check_dim(pair, d, "coupling's marginal")
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
