"""An exact finite-n Gibbs law by plain per-tuple enumeration, for the tests.

``tuple_law`` scores every index tuple by ``functionals.hamiltonian`` and the
log reference weights.  It shares nothing with the package's exact laws but
``hamiltonian``: no per-atom terms, no count table, no compositions.  So it is
the check of the formula that both ``exact_gibbs_law`` and ``exact_count_law``
are built from.
"""
import numpy as np

from gibbslab.functionals import hamiltonian
from gibbslab.measures import ParticleConfig

# one hamiltonian call per tuple: past this the enumeration takes seconds
MAX_TUPLES = 10**5


class EmptyLawError(ValueError):
    """Every tuple has infinite energy."""


def tuple_law(pair, ell, n, beta_n):
    """(tuples, probabilities): the (m^n, n) index tuples of ``np.indices`` in
    lexicographic order and their exact law, proportional to
    exp(-beta_n H_n(t) + sum_i log w_{t_i}) and 0 exactly where H_n is +inf.
    Raises EmptyLawError when every tuple has infinite energy."""
    atoms = np.asarray(ell.atoms, dtype=float)
    m = len(atoms)
    if m**n > MAX_TUPLES:
        raise ValueError(f"{m}^{n} tuples exceed the oracle's {MAX_TUPLES}")
    tuples = np.indices((m,) * n).reshape(n, -1).T
    energy = np.array([hamiltonian(ParticleConfig(atoms[t]), pair) for t in tuples])
    finite = energy < np.inf
    if not finite.any():
        raise EmptyLawError("every tuple has infinite energy")
    log_weight = -beta_n * energy[finite] + np.log(ell.weights)[tuples[finite]].sum(axis=1)
    probs = np.zeros(len(tuples))
    probs[finite] = np.exp(log_weight - log_weight.max())
    return tuples, probs / probs.sum()


def count_marginal(tuples, probs, counts):
    """The tuple law's probabilities summed over the orderings of each row of
    counts."""
    m = counts.shape[1]
    tuple_counts = np.stack([(tuples == a).sum(axis=1) for a in range(m)], axis=1)
    row = {tuple(c): i for i, c in enumerate(counts.tolist())}
    index = [row[tuple(c)] for c in tuple_counts.tolist()]
    return np.bincount(index, weights=probs, minlength=len(counts))
