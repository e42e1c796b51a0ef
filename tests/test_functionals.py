import math

import numpy as np
import pytest

from conftest import (CountingW, strict_json, v_const, v_quadratic, v_wall_from, v_zero,
                      w_nan_on_diagonal, w_sqdist, w_zero)
from gibbslab import functionals, measures
from gibbslab.functionals import (
    WEIGHT_DROP_TOL,
    FunctionalValue,
    coupled_energy,
    gibbs_reference,
    hamiltonian,
    interaction_energy,
    interaction_energy_offdiag,
    rate_I,
    rate_J,
    rate_J_n_offdiag,
    relative_entropy,
    star_gap,
    truncated_interaction,
)
from gibbslab.measures import (
    DiscreteMeasure,
    ParticleConfig,
    ReferenceMeasure,
    empirical_measure,
    product_measure,
)
from gibbslab.potentials import (
    PotentialPair,
    coulomb_kernel,
    evaluate_V,
    pair_matrix,
    power_confinement,
)
from gibbslab.sampler import exact_sample_finite


def hamiltonian_oracle(points, V, W):
    """Direct double-loop summation, independent of the library path."""
    pts = np.atleast_2d(points)
    n = len(pts)
    total = sum(float(V(p)) for p in pts) / n
    for i in range(n):
        for j in range(n):
            if i != j:
                total += float(W(pts[i], pts[j])) / (2 * n * n)
    return total


def quad_pair(dim=1):
    return PotentialPair(v_quadratic, w_sqdist, dim=dim, symmetric=True)


class TestHamiltonian:
    def test_two_particle_value(self):
        cfg = ParticleConfig([[0.0], [1.0]])
        got = hamiltonian(cfg, quad_pair())
        assert got == pytest.approx(0.75, abs=1e-14)
        assert got == pytest.approx(
            hamiltonian_oracle(cfg.points, v_quadratic, w_sqdist), abs=1e-14
        )

    def test_single_particle_no_interaction(self):
        cfg = ParticleConfig([[2.0]])
        assert hamiltonian(cfg, quad_pair()) == pytest.approx(4.0)

    def test_coulomb_coincident_points_diverge(self):
        pair = PotentialPair(v_zero, coulomb_kernel(2), dim=2, symmetric=True)
        cfg = ParticleConfig([[0.5, 0.5], [0.5, 0.5]])
        assert hamiltonian(cfg, pair) == np.inf

    def test_random_configs_match_oracle(self, rng):
        pair = quad_pair()
        for _ in range(10):
            n = rng.integers(1, 6)
            pts = rng.normal(size=(n, 1))
            assert hamiltonian(ParticleConfig(pts), pair) == pytest.approx(
                hamiltonian_oracle(pts, v_quadratic, w_sqdist), abs=1e-12
            )


def test_masked_quadratic_with_inf_equals_the_sum_over_numpy_scalars():
    # +inf only where the weight is zero, so the sum runs over the selected entries
    rng = np.random.default_rng(12)
    w = rng.uniform(0.1, 1.0, 30)
    w[::4] = 0.0
    outer = np.outer(w, w)
    values = rng.normal(size=(30, 30))
    values[::4, 1::3] = np.inf
    sel = (outer > 0.0) & np.isfinite(values)
    assert functionals._masked_quadratic(outer, values) == math.fsum(outer[sel] * values[sel])


class TestOffDiagonalSums:
    """H_n and the off-diagonal interaction energy sum W over i != j only, so
    a W undefined at x = y is never evaluated there."""

    def test_hamiltonian_of_a_w_undefined_on_the_diagonal(self, rng):
        pts = rng.normal(size=(6, 2))
        pair = PotentialPair(v_quadratic, w_nan_on_diagonal, dim=2, symmetric=True)
        assert hamiltonian(ParticleConfig(pts), pair) == pytest.approx(
            hamiltonian_oracle(pts, v_quadratic, w_nan_on_diagonal), abs=1e-12)

    def test_offdiag_energy_of_a_w_undefined_on_the_diagonal(self, rng):
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), np.full(5, 0.2))
        assert math.isfinite(interaction_energy_offdiag(mu, w_nan_on_diagonal))

    def test_no_point_paired_with_itself(self, rng):
        W = CountingW(w_sqdist, refuse_identical=True)
        pts = rng.normal(size=(7, 2))
        hamiltonian(ParticleConfig(pts), PotentialPair(v_quadratic, W, dim=2))
        interaction_energy_offdiag(DiscreteMeasure(pts, np.full(7, 1 / 7)), W)
        rate_J_n_offdiag(DiscreteMeasure(pts, np.full(7, 1 / 7)),
                         PotentialPair(v_quadratic, W, dim=2), 7, 14.0)
        assert W.calls == 3


class TestInteractionEnergies:
    def test_single_atom_full(self):
        mu = DiscreteMeasure.dirac([2.0])
        W = lambda x, y: np.full(np.broadcast(np.asarray(x)[..., 0],
                                              np.asarray(y)[..., 0]).shape, 3.0)
        assert interaction_energy(mu, W) == pytest.approx(1.5)

    def test_zero_kernel(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0], [2.0]])
        assert interaction_energy(mu, w_zero) == 0.0

    def test_two_atom_full(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        assert interaction_energy(mu, w_sqdist) == pytest.approx(0.25)

    def test_offdiag_single_atom_vanishes(self):
        mu = DiscreteMeasure.dirac([2.0])
        assert interaction_energy_offdiag(mu, w_sqdist) == 0.0

    def test_offdiag_two_atoms(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        assert interaction_energy_offdiag(mu, w_sqdist) == pytest.approx(0.25)

    def test_offdiag_finite_under_singular_kernel(self):
        mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        W = coulomb_kernel(2)
        assert interaction_energy(mu, W) == np.inf
        assert math.isfinite(interaction_energy_offdiag(mu, W))

    def test_offdiag_below_full_for_nonneg_diagonal(self, rng):
        for _ in range(10):
            mu = DiscreteMeasure.uniform(rng.normal(size=(4, 1)))
            assert interaction_energy_offdiag(mu, w_sqdist) <= interaction_energy(mu, w_sqdist)


class TestTruncatedInteraction:
    def test_high_level_matches_untruncated(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0], [3.0]])
        res = truncated_interaction(mu, w_sqdist, 100.0)
        assert res["full"] == pytest.approx(interaction_energy(mu, w_sqdist))
        assert res["offdiag"] == pytest.approx(interaction_energy_offdiag(mu, w_sqdist))

    def test_zero_level_kills_nonnegative_kernel(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        res = truncated_interaction(mu, w_sqdist, 0.0)
        assert res["full"] == 0.0 and res["offdiag"] == 0.0

    def test_empirical_diagonal_gap(self, rng):
        # for the empirical measure of n distinct points the diagonal carries
        # mass exactly 1/n; with a singular kernel the truncation clips the
        # diagonal to M, so full - offdiag = M / (2n)
        W = coulomb_kernel(2)
        for n in (2, 4, 7):
            pts = rng.normal(size=(n, 2))
            mu = empirical_measure(ParticleConfig(pts))
            M = 5.0
            res = truncated_interaction(mu, W, M)
            assert res["full"] - res["offdiag"] == pytest.approx(M / (2 * n), abs=1e-12)

    def test_truncation_inequality_randomized(self, rng):
        for _ in range(50):
            k = rng.integers(2, 6)
            w = rng.uniform(0.1, 1, size=k)
            mu = DiscreteMeasure(rng.normal(size=(k, 1)), w / w.sum())
            M = rng.uniform(0.0, 3.0)
            res = truncated_interaction(mu, w_sqdist, M)
            diag_mass = float(np.sum(mu.weights**2))
            assert res["full"] <= res["offdiag"] + 0.5 * M * diag_mass + 1e-12

    def test_monotone_in_level(self, rng):
        mu = DiscreteMeasure.uniform(rng.normal(size=(4, 1)))
        vals = [truncated_interaction(mu, w_sqdist, M)["full"] for M in (0.1, 1.0, 10.0, 1e6)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(interaction_energy(mu, w_sqdist))

    def test_infinite_level_rejected(self):
        mu = DiscreteMeasure.dirac([0.0])
        with pytest.raises(ValueError):
            truncated_interaction(mu, w_sqdist, np.inf)

    @pytest.mark.parametrize("M", [0.05, 100.0])
    def test_w_undefined_on_the_diagonal(self, M):
        # |x - y|^2 log |x - y| is NaN at x = y: the off-diagonal energy is
        # still defined, the full one is not
        pts = np.array([[0.0, 0.0], [0.3, 0.1], [-0.4, 0.9], [1.2, -0.5], [0.7, 0.7]])
        mu = DiscreteMeasure(pts, np.full(5, 0.2))
        res = truncated_interaction(mu, w_nan_on_diagonal, M)
        assert res["full"] is None
        # the oracle: (1/2) sum over i != j of w_i w_j min(W(x_i, x_j), M)
        terms = [0.04 * min(float(w_nan_on_diagonal(pts[i], pts[j])), M)
                 for i in range(5) for j in range(5) if i != j]
        assert res["offdiag"] == pytest.approx(0.5 * math.fsum(terms), abs=1e-15)
        if M == 100.0:
            assert res["offdiag"] == interaction_energy_offdiag(mu, w_nan_on_diagonal)


class TestRelativeEntropy:
    def test_equal_measures(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        assert relative_entropy(mu, mu) == 0.0

    def test_dirac_against_uniform(self):
        mu = DiscreteMeasure.dirac([0.0])
        nu = DiscreteMeasure.uniform([[0.0], [1.0]])
        assert relative_entropy(mu, nu) == pytest.approx(math.log(2))

    def test_unsupported_atom(self):
        mu = DiscreteMeasure.dirac([7.0])
        nu = DiscreteMeasure.uniform([[0.0], [1.0]])
        assert relative_entropy(mu, nu) == np.inf

    def test_joint_convexity_spot_check(self, rng):
        pts = rng.normal(size=(4, 1))
        for _ in range(20):
            w1, w2, q1, q2 = (rng.uniform(0.05, 1, size=4) for _ in range(4))
            mu1 = DiscreteMeasure(pts, w1 / w1.sum())
            mu2 = DiscreteMeasure(pts, w2 / w2.sum())
            nu1 = DiscreteMeasure(pts, q1 / q1.sum())
            nu2 = DiscreteMeasure(pts, q2 / q2.sum())
            t = rng.uniform()
            mix_mu = DiscreteMeasure(pts, t * mu1.weights + (1 - t) * mu2.weights)
            mix_nu = DiscreteMeasure(pts, t * nu1.weights + (1 - t) * nu2.weights)
            lhs = relative_entropy(mix_mu, mix_nu)
            rhs = t * relative_entropy(mu1, nu1) + (1 - t) * relative_entropy(mu2, nu2)
            assert lhs <= rhs + 1e-12


class TestRateI:
    def test_sanov_zero_at_reference(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        pair = PotentialPair(v_const(math.log(2)), w_zero, dim=1)
        mu = gibbs_reference(ell, pair.V)
        out = rate_I(mu, pair, ell)
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_unsupported_measure_diverges(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        pair = PotentialPair(v_const(math.log(2)), w_zero, dim=1)
        out = rate_I(DiscreteMeasure.dirac([9.0]), pair, ell)
        assert out.value == np.inf
        assert out.breakdown["diverged"] == "entropy"

    def test_entropy_plus_interaction(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        pair = PotentialPair(v_const(math.log(2)), w_sqdist, dim=1)
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        out = rate_I(mu, pair, ell)
        assert out.value == pytest.approx(0.25, abs=1e-12)
        assert out.breakdown["entropy"] == pytest.approx(0.0, abs=1e-12)
        assert out.breakdown["interaction"] == pytest.approx(0.25, abs=1e-12)

    def test_pair_of_another_dimension_refused(self):
        # a d = 1 Coulomb pair on a 2-D reference read only the first coordinate
        ell = ReferenceMeasure.finite([[0.0, 0.0], [1.0, 0.5]], [1.0, 1.0])
        pair = PotentialPair(v_zero, coulomb_kernel(1), dim=1)
        with pytest.raises(ValueError, match="declared for d = 1, but the reference is in d = 2"):
            rate_I(DiscreteMeasure.uniform(ell.atoms), pair, ell)

    def test_unnormalized_reference_warns(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        pair = PotentialPair(v_zero, w_zero, dim=1)   # exp(-V) ell has mass 2
        with pytest.warns(UserWarning):
            rate_I(DiscreteMeasure.uniform([[0.0], [1.0]]), pair, ell)

    @pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
    def test_repeated_atom_matches_the_gibbs_reference(self):
        # the copies of 0 weigh 1 + 0.5 in exp(-V) ell
        ell = ReferenceMeasure.finite([[0.0], [1.0], [0.0], [2.0]], [1.0, 2.0, 0.5, 1.5])
        pair = PotentialPair(v_quadratic, w_sqdist, dim=1, symmetric=True)
        nu = gibbs_reference(ell, pair.V)
        assert nu.support_size == 3
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.3, 0.2])
        expected = relative_entropy(mu, nu) + interaction_energy(mu, pair.W)
        assert rate_I(mu, pair, ell).value == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
    def test_dropped_gibbs_weight_diverges_both_ways(self):
        # exp(-40) / 2 ~ 2e-18 falls under WEIGHT_DROP_TOL, so atom 2 leaves
        # the support of exp(-V) ell
        ell = ReferenceMeasure.finite([[0.0], [1.0], [2.0]])
        V = lambda x: np.where(np.asarray(x)[..., 0] > 1.5, 40.0, 0.0)
        pair = PotentialPair(V, w_sqdist, dim=1, symmetric=True)
        nu = gibbs_reference(ell, V)
        assert nu.support_size == 2
        on = DiscreteMeasure.uniform([[0.0], [2.0]])
        assert relative_entropy(on, nu) + interaction_energy(on, pair.W) == np.inf
        assert rate_I(on, pair, ell).value == np.inf
        off = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        expected = relative_entropy(off, nu) + interaction_energy(off, pair.W)
        assert rate_I(off, pair, ell).value == pytest.approx(expected, rel=1e-14, abs=1e-15)


# -- the rate path as it stood when a finite reference was merged on every call --
def merging_gibbs_weights(ref, V):
    """Distinct atoms and normalized weights of exp(-V) ell: V on the atoms as
    given, repeats merged after normalizing, dropped weights removed."""
    with np.errstate(over="ignore"):
        raw = ref.weights * np.exp(-evaluate_V(V, ref.atoms))
    atoms, weights = measures._merge_atoms(ref.atoms, raw / math.fsum(raw))
    keep = weights > WEIGHT_DROP_TOL
    return atoms[keep], weights[keep] / math.fsum(weights[keep])


def merging_relative_entropy(mu, atoms, weights):
    lookup = {atom.tobytes(): w for atom, w in zip(atoms, weights)}
    terms = []
    for atom, w in zip(mu.atoms, mu.weights):
        q = lookup.get(atom.tobytes())
        if q is None:
            return np.inf
        terms.append(w * math.log(w / q))
    return math.fsum(terms)


def masking_quadratic(weights_outer, values):
    mask = weights_outer > 0.0
    if np.any(mask & (values == np.inf)):
        return np.inf
    sel = mask & np.isfinite(values)
    return math.fsum((weights_outer[sel] * values[sel]).ravel())


def merging_rate_I(mu, pair, ref):
    """(value, entropy) of the speed-n rate, per call from the raw reference."""
    entropy = merging_relative_entropy(mu, *merging_gibbs_weights(ref, pair.V))
    if not math.isfinite(entropy):
        return np.inf, entropy
    interaction = 0.5 * masking_quadratic(np.outer(mu.weights, mu.weights),
                                           pair_matrix(pair.W, mu.atoms, mu.atoms))
    return entropy + interaction, entropy


def coulomb_cases(atoms, weights_2d=None):
    """The three shapes of the exact-law benchmark on 10 atoms, n = 6:
    d = 1 at beta_n = n and n^2, and d = 2 Coulomb at beta_n = n."""
    rng = np.random.default_rng(11)
    line = ReferenceMeasure.finite(rng.uniform(-2.0, 2.0, (10, 1)), rng.uniform(0.5, 1.5, 10))
    cloud = ReferenceMeasure.finite(rng.uniform(-1.0, 1.0, (10, 2)), rng.uniform(0.5, 1.5, 10))
    cases = []
    for d, ref, beta in ((1, line, 6.0), (1, line, 36.0), (2, cloud, 6.0)):
        pair = PotentialPair(power_confinement(2.0), coulomb_kernel(d), dim=d, symmetric=True)
        cases.append((pair, atoms(ref, rng), beta))
    return cases


def as_given(ref, rng):
    return ref


def with_repeats(ref, rng):
    """Three atoms copied with fresh weights, the cloud shuffled."""
    pts = np.vstack([ref.atoms, ref.atoms[[1, 4, 4]]])
    w = np.concatenate([ref.weights, rng.uniform(0.5, 1.5, 3)])
    order = rng.permutation(len(pts))
    return ReferenceMeasure.finite(pts[order], w[order])


def with_signed_zeros(ref, rng):
    """Atoms with -0.0 coordinates next to their +0.0 copies."""
    zeros = np.zeros((2, ref.dim))
    zeros[0, 0] = -0.0
    zeros[1, -1] = 0.5
    signed = np.vstack([ref.atoms, zeros, -zeros])
    return ReferenceMeasure.finite(signed, rng.uniform(0.5, 1.5, len(signed)))


@pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
class TestRateIAgainstMergingReference:
    """rate_I on the canonical form a finite reference holds, against the path
    that merged the raw reference on every call."""

    @pytest.mark.parametrize("case", range(3))
    def test_bitwise_on_distinct_atoms(self, case):
        pair, ref, beta = coulomb_cases(as_given)[case]
        for config in exact_sample_finite(pair, ref, 6, beta, seed=case, samples=200):
            mu = empirical_measure(config)
            out = rate_I(mu, pair, ref)
            value, entropy = merging_rate_I(mu, pair, ref)
            assert (out.value, out.breakdown["entropy"]) == (value, entropy)

    @pytest.mark.parametrize("atoms", [with_repeats, with_signed_zeros])
    @pytest.mark.parametrize("case", range(3))
    def test_close_on_repeated_and_signed_zero_atoms(self, case, atoms):
        pair, ref, beta = coulomb_cases(atoms)[case]
        assert len(ref._canon[0]) < len(ref.atoms)
        for config in exact_sample_finite(pair, ref, 6, beta, seed=case, samples=200):
            mu = empirical_measure(config)
            out = rate_I(mu, pair, ref)
            value, entropy = merging_rate_I(mu, pair, ref)
            # copies are summed before normalizing rather than after: the
            # entropy moves in its last bits
            assert out.breakdown["entropy"] == pytest.approx(entropy, rel=1e-14, abs=1e-300)
            if math.isfinite(value):
                # the d = 1 Coulomb interaction is negative and cancels the
                # entropy, so the sum is held to the size of its two parts
                scale = abs(entropy) + abs(out.breakdown["interaction"])
                assert abs(out.value - value) <= 1e-14 * scale
            else:
                assert out.value == value

    def test_gibbs_reference_bitwise_on_distinct_atoms(self):
        for pair, ref, _ in coulomb_cases(as_given):
            atoms, weights = merging_gibbs_weights(ref, pair.V)
            assert gibbs_reference(ref, pair.V) == DiscreteMeasure(atoms, weights)

    def test_merge_once_per_reference(self, monkeypatch):
        pair, ref, beta = coulomb_cases(with_repeats)[0]
        mus = [empirical_measure(c) for c in exact_sample_finite(pair, ref, 6, beta, 3, 20)]
        expected = [rate_I(mu, pair, ref).value for mu in mus]

        def refuse(*args):
            raise AssertionError("a finite reference was merged again")

        # wherever a module may hold the canonicalizer
        for module in (measures, functionals):
            monkeypatch.setattr(module, "_merge_atoms", refuse, raising=False)
        assert [rate_I(mu, pair, ref).value for mu in mus] == expected

    def test_mass_warning_on_every_call(self):
        ell = ReferenceMeasure.finite([[0.0], [1.0]], [1.0, 1.0])
        pair = PotentialPair(v_zero, w_zero, dim=1)   # exp(-V) ell has mass 2
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        for _ in range(3):
            with pytest.warns(UserWarning, match="has mass 2"):
                rate_I(mu, pair, ell)


class CountingV:
    """V wrapper that counts its calls."""

    def __init__(self, V):
        self.V, self.calls = V, 0

    def __call__(self, x):
        self.calls += 1
        return self.V(x)


@pytest.mark.filterwarnings("ignore:exp\\(-V\\) ell has mass")
class TestGibbsWeightsMemo:
    """The weights of exp(-V) ell are computed once per reference and V."""

    def test_once_across_rate_calls(self):
        pair, ref, beta = coulomb_cases(with_repeats)[2]
        V = CountingV(pair.V)
        counted = PotentialPair(V, pair.W, dim=pair.dim, symmetric=True)
        mus = [empirical_measure(c) for c in exact_sample_finite(pair, ref, 6, beta, 5, 200)]
        values = [rate_I(mu, counted, ref).value for mu in mus]
        assert V.calls == 1
        # the memo's weights give the values a fresh reference gives
        fresh = ReferenceMeasure.finite(ref.atoms, ref.weights)
        assert values == [rate_I(mu, pair, fresh).value for mu in mus]

    def test_another_V_gets_its_own_weights(self):
        ref = ReferenceMeasure.finite([[0.0], [1.0], [0.0], [2.0]], [1.0, 2.0, 0.5, 1.5])
        first, second = v_quadratic, v_const(0.3)
        for V in (first, second, first):
            nu = gibbs_reference(ref, V)
            assert ref._gibbs_memo[0] is V
            atoms, weights = merging_gibbs_weights(ref, V)
            np.testing.assert_array_equal(nu.atoms, atoms)
            np.testing.assert_allclose(nu.weights, weights, rtol=1e-14)
        assert gibbs_reference(ref, first) != gibbs_reference(ref, second)

    def test_memoised_weights_are_read_only(self):
        ref = ReferenceMeasure.finite([[0.0], [1.0], [2.0]])
        weights = functionals._gibbs_weights(ref, v_quadratic)
        assert functionals._gibbs_weights(ref, v_quadratic) is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_no_mass_refused_on_every_call(self):
        ref = ReferenceMeasure.finite([[0.0], [1.0]])
        V = CountingV(lambda x: np.full(np.asarray(x).shape[:-1], np.inf))
        pair = PotentialPair(V, w_zero, dim=1)
        for calls in (1, 2):
            with pytest.raises(ValueError, match="has mass 0"):
                rate_I(DiscreteMeasure.dirac([0.0]), pair, ref)
            assert V.calls == calls and ref._gibbs_memo is None


class TestRateJ:
    def test_dirac(self):
        pair = quad_pair()
        out = rate_J(DiscreteMeasure.dirac([2.0]), pair)
        assert out.value == pytest.approx(4.0)   # V(2) + W(2,2)/2 = 4 + 0

    def test_zero_potentials(self):
        pair = PotentialPair(v_zero, w_zero, dim=1)
        assert rate_J(DiscreteMeasure.uniform([[0.0], [5.0]]), pair).value == 0.0

    def test_two_atom_value(self):
        out = rate_J(DiscreteMeasure.uniform([[0.0], [1.0]]), quad_pair())
        assert out.value == pytest.approx(0.75, abs=1e-12)
        assert out.breakdown["confinement"] == pytest.approx(0.5)
        assert out.breakdown["interaction"] == pytest.approx(0.25)

    @pytest.mark.parametrize("diverged", ["confinement", "interaction"])
    def test_breakdown_names_the_diverged_component(self, diverged):
        # a wall at x_0 >= 1 makes the confinement of the second atom +inf; the
        # d = 2 Coulomb kernel makes every interaction with atoms +inf
        if diverged == "confinement":
            V, W, other = v_wall_from(1.0), w_sqdist, "interaction"
        else:
            V, W, other = v_quadratic, coulomb_kernel(2), "confinement"
        mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        out = rate_J(mu, PotentialPair(V, W, dim=2, symmetric=True))
        assert out.value == np.inf and not out.finite
        assert out.breakdown["diverged"] == diverged
        assert out.breakdown[diverged] == np.inf
        assert math.isfinite(out.breakdown[other])

    def test_paths_agree_randomized(self, rng):
        pair = quad_pair()
        for _ in range(30):
            k = rng.integers(1, 6)
            w = rng.uniform(0.1, 1, size=k)
            mu = DiscreteMeasure(rng.normal(size=(k, 1)), w / w.sum())
            out = rate_J(mu, pair)
            split = out.breakdown["confinement"] + out.breakdown["interaction"]
            assert out.value == pytest.approx(split, abs=1e-12)


class TestRateJnOffdiag:
    def test_beta_equals_n(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        out = rate_J_n_offdiag(mu, quad_pair(), n=4, beta_n=4.0)
        assert out.value == pytest.approx(interaction_energy_offdiag(mu, w_sqdist))

    def test_large_beta_limit(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        out = rate_J_n_offdiag(mu, quad_pair(), n=4, beta_n=1e12)
        expected = 0.5 + 0.25
        assert out.value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.0, math.inf, math.nan])
    def test_beta_outside_zero_inf_rejected(self, beta):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"beta_n must lie in \(0, inf\)"):
            rate_J_n_offdiag(mu, quad_pair(), n=4, beta_n=beta)

    @pytest.mark.parametrize("n", [0, -1, True, 2.5])
    def test_particle_count_must_be_an_integer_of_at_least_one(self, n):
        # n = 2.5 returned a value
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        with pytest.raises(ValueError, match="n must be an integer >= 1, got"):
            rate_J_n_offdiag(mu, quad_pair(), n=n, beta_n=4.0)

    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0], ids=["coeff_negative", "coeff_zero",
                                                           "coeff_positive"])
    def test_infinite_confinement(self, beta):
        # the second atom sits on a wall: +inf times 1 - n / beta_n
        pair = PotentialPair(v_wall_from(1.0), w_sqdist, dim=1, symmetric=True)
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        if beta < 4.0:
            with pytest.raises(ValueError, match="negative coefficient against infinite"):
                rate_J_n_offdiag(mu, pair, n=4, beta_n=beta)
            return
        out = rate_J_n_offdiag(mu, pair, n=4, beta_n=beta)
        offdiag = interaction_energy_offdiag(mu, w_sqdist)
        assert out.breakdown["confinement"] == np.inf
        assert out.breakdown["coefficient"] == 1.0 - 4.0 / beta
        assert out.value == (offdiag if beta == 4.0 else np.inf)
        assert out.finite == (beta == 4.0)

    def test_decomposition_identity(self, rng):
        # J_{n,neq}(L_n) = H_n - (1/beta_n) sum_i V(x_i)
        pair = quad_pair()
        for _ in range(50):
            n = int(rng.integers(2, 7))
            beta = float(rng.uniform(0.5, 4.0)) * n**2
            pts = rng.normal(size=(n, 1))
            cfg = ParticleConfig(pts)
            lhs = rate_J_n_offdiag(empirical_measure(cfg), pair, n=n, beta_n=beta).value
            rhs = hamiltonian(cfg, pair) - math.fsum(v_quadratic(pts)) / beta
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCoupledEnergy:
    def test_product_matches_marginal_functionals(self, rng):
        pair = quad_pair()
        mu = DiscreteMeasure.uniform(rng.normal(size=(3, 1)))
        zeta = product_measure(mu, mu)
        out = coupled_energy(zeta, pair)
        assert out["frakW"] == pytest.approx(interaction_energy(mu, w_sqdist), abs=1e-12)
        assert out["frakJ"] == pytest.approx(rate_J(mu, pair).value, abs=1e-12)

    def test_zero_kernel(self):
        pair = PotentialPair(v_quadratic, w_zero, dim=1)
        zeta = product_measure(DiscreteMeasure.dirac([1.0]), DiscreteMeasure.dirac([2.0]))
        assert coupled_energy(zeta, pair)["frakW"] == 0.0

    def test_odd_dimension_rejected(self):
        pair = quad_pair()
        with pytest.raises(ValueError):
            coupled_energy(DiscreteMeasure.dirac([0.0]), pair)


# a d = 1 Coulomb pair on 2-D inputs read only the first coordinate: rate_J
# gave 0.444 on the first measure and hamiltonian 0.5 on the configuration
@pytest.mark.parametrize("evaluate, what", [
    (lambda pair: rate_J(DiscreteMeasure.uniform([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), pair),
     "measure"),
    (lambda pair: rate_J_n_offdiag(DiscreteMeasure.uniform([[0.0, 0.0], [0.0, 1.0]]), pair,
                                   2, 4.0), "measure"),
    (lambda pair: hamiltonian(ParticleConfig([[0.0, 0.0], [0.0, 1.0]]), pair), "configuration"),
    (lambda pair: coupled_energy(DiscreteMeasure.dirac([0.0, 0.0, 0.0, 1.0]), pair),
     "coupling's marginal"),
], ids=["rate_J", "rate_J_n_offdiag", "hamiltonian", "coupled_energy"])
def test_pair_of_another_dimension_refused(evaluate, what):
    pair = PotentialPair(power_confinement(2.0), coulomb_kernel(1), dim=1, symmetric=True)
    with pytest.raises(ValueError, match=f"declared for d = 1, but the {what} is in d = 2"):
        evaluate(pair)


class TestFunctionalValue:
    @pytest.mark.parametrize("value", [1.5, np.inf])
    def test_finite_and_json(self, value):
        # strict JSON: a non-finite value is written as null beside finite = false
        out = FunctionalValue(value, {"entropy": value, "interaction": None})
        assert out.finite == math.isfinite(value)
        written = value if math.isfinite(value) else None
        record = strict_json(out.to_json())
        assert record == {"value": written, "finite": math.isfinite(value),
                          "breakdown": {"entropy": written, "interaction": None}}
        assert float(out) == value


class TestStarGap:
    def test_single_value(self):
        assert star_gap([FunctionalValue(3.0)], at=0) == 0.0

    def test_two_values(self):
        assert star_gap([1.0, 3.0], at=1) == 2.0

    def test_minimizer_index(self):
        assert star_gap([5.0, 2.0, 7.0], at=1) == 0.0

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            star_gap([np.inf, np.inf], at=0)

    def test_infinite_entry_with_finite_min(self):
        assert star_gap([np.inf, 1.0], at=0) == np.inf
