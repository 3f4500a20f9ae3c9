"""State constructors: pure, mixed, pseudo-pure, deviations, gradient prep."""

import math

import numpy as np
import pytest
from conftest import random_density

from lgsim.linalg import SIGMA_X, expm_hermitian, trace_distance
from lgsim.states import (
    KET0,
    KET1,
    classical_mixture,
    deviation,
    gradient_dephase_prepare,
    maximally_mixed,
    pseudo_pure,
    pure_density,
    pure_state,
)


class TestPureStates:
    def test_ket0(self):
        np.testing.assert_allclose(pure_density(KET0), np.diag([1.0, 0.0]), atol=0)

    def test_ket1(self):
        np.testing.assert_allclose(pure_density(KET1), np.diag([0.0, 1.0]), atol=0)

    def test_plus_state(self):
        plus = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        np.testing.assert_allclose(pure_density(plus), np.full((2, 2), 0.5), atol=1e-15)

    def test_projector_is_idempotent(self):
        rho = pure_density([0.6, 0.8j])
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_state([1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            pure_state([1.0, 0.0, 0.0])


class TestMixtures:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(maximally_mixed(), np.diag([0.5, 0.5]), atol=0)

    def test_maximally_mixed_purity(self):
        rho = maximally_mixed()
        assert abs(np.trace(rho @ rho).real - 0.5) < 1e-15

    def test_maximally_mixed_is_even_mixture(self):
        np.testing.assert_allclose(maximally_mixed(), classical_mixture(0.5, 0.5),
                                   atol=0)

    @pytest.mark.parametrize(
        "p0,p1", [(1.0, 0.0), (0.5, 0.5), (0.75, 0.25)]
    )
    def test_classical_mixture_diagonal(self, p0, p1):
        np.testing.assert_allclose(classical_mixture(p0, p1), np.diag([p0, p1]),
                                   atol=0)

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="non-negative"):
            classical_mixture(-0.1, 1.1)

    def test_rejects_unnormalized_populations(self):
        with pytest.raises(ValueError, match="sum"):
            classical_mixture(0.5, 0.6)


class TestPseudoPure:
    def test_pure_limit(self):
        np.testing.assert_allclose(pseudo_pure(1.0, KET0), pure_density(KET0), atol=0)

    def test_half_polarized(self):
        np.testing.assert_allclose(pseudo_pure(0.5, KET0), np.diag([0.75, 0.25]),
                                   atol=1e-15)

    def test_weakly_polarized_excited(self):
        np.testing.assert_allclose(pseudo_pure(0.2, KET1), np.diag([0.4, 0.6]),
                                   atol=1e-15)

    @pytest.mark.parametrize("epsilon", [0.0, -0.2, 1.5])
    def test_rejects_out_of_range_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            pseudo_pure(epsilon, KET0)

    def test_matches_convex_combination(self, rng):
        """pseudo_pure(eps, psi) = (1-eps) I/2 + eps |psi><psi| entrywise."""
        for _ in range(20):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = raw / np.linalg.norm(raw)
            eps = rng.uniform(0.05, 1.0)
            expected = (1 - eps) * maximally_mixed() + eps * pure_density(psi)
            np.testing.assert_allclose(pseudo_pure(eps, psi), expected, atol=1e-15)

    def test_purity_grid(self):
        """Tr(rho^2) = (1 + eps^2) / 2."""
        for eps in np.arange(0.1, 1.05, 0.1):
            rho = pseudo_pure(float(eps), KET0)
            purity = np.trace(rho @ rho).real
            assert abs(purity - (1 + eps * eps) / 2) <= 1e-12


class TestDeviation:
    def test_probe_system_input_state(self):
        rho = np.kron(pure_density(KET0), maximally_mixed())
        expected = np.diag([0.25, 0.25, -0.25, -0.25])
        np.testing.assert_allclose(deviation(rho), expected, atol=1e-15)

    def test_mixed_state_has_zero_deviation(self):
        np.testing.assert_allclose(deviation(maximally_mixed()), np.zeros((2, 2)),
                                   atol=0)

    def test_always_traceless(self, rng):
        for dim in (2, 4):
            rho = random_density(rng, dim)
            assert abs(np.trace(deviation(rho))) <= 1e-14

    def test_reconstructs_exactly(self, rng):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(deviation(rho) + np.eye(4) / 4.0, rho, atol=0)


class TestGradientDephase:
    @pytest.mark.parametrize("n_phases", [2, 3, 5, 8, 360])
    def test_yields_maximally_mixed(self, n_phases):
        rho = gradient_dephase_prepare(n_phases)
        assert trace_distance(rho, maximally_mixed()) <= 1e-12

    def test_two_phases_cancel_exactly(self):
        """The average of exp(i phi) over {0, pi} vanishes."""
        rho = gradient_dephase_prepare(2)
        assert abs(rho[0, 1]) <= 1e-15

    def test_without_gradient_state_stays_pure(self):
        """The pi/2 pulse alone leaves an equator state with |coherence| 1/2."""
        pulse = expm_hermitian(SIGMA_X / 2.0, math.pi / 2.0)
        rho = pulse @ pure_density(KET0) @ pulse.conj().T
        assert abs(abs(rho[0, 1]) - 0.5) <= 1e-15
        np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n_phases", [0, 1, -3, 2.5, math.inf, math.nan])
    def test_rejects_bad_phase_count(self, n_phases):
        with pytest.raises(ValueError, match="n_phases must be an integer >= 2"):
            gradient_dephase_prepare(n_phases)
