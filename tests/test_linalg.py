"""Core linear algebra: products, partial traces, exponentials, fidelities."""

import math

import numpy as np
import pytest
from conftest import random_density, random_hermitian

from lgsim.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    density,
    expm_hermitian,
    kron,
    operator,
    overlap_fidelity,
    partial_trace,
    trace_distance,
    unitary,
)

KET0_PROJ = np.array([[1, 0], [0, 0]], dtype=complex)
KET1_PROJ = np.array([[0, 0], [0, 1]], dtype=complex)
BELL_PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


class TestProducts:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            operator(np.eye(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            operator([[np.nan, 0], [0, 1]])


class TestKron:
    def test_probe_left_ordering(self):
        got = kron(KET0_PROJ, IDENTITY_2 / 2.0)
        np.testing.assert_allclose(got, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4), atol=0)

    def test_zz(self):
        np.testing.assert_allclose(
            kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0
        )

    def test_matches_numpy_kron(self, rng):
        for _ in range(25):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-14)

    def test_broadcasts_stacks_as_numpy_kron_per_matrix(self, rng):
        a = rng.normal(size=(3, 1, 2, 2)) + 1j * rng.normal(size=(3, 1, 2, 2))
        b = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        got = kron(a, b)
        assert got.shape == (3, 5, 4, 4)
        for i, j in np.ndindex(3, 5):
            np.testing.assert_array_equal(got[i, j], np.kron(a[i, 0], b[j]))

    def test_rejects_more_than_two_qubits(self):
        with pytest.raises(ValueError, match="register"):
            kron(np.eye(4), IDENTITY_2)

    def test_trace_factorizes(self, rng):
        """Tr(A (x) B) = Tr(A) Tr(B)."""
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


class TestDaggerTrace:
    def test_hermitian_fixed_point(self):
        np.testing.assert_allclose(dagger(SIGMA_Y), SIGMA_Y, atol=0)

    def test_unitary_inverse(self):
        u = expm_hermitian(SIGMA_X, 0.7)
        np.testing.assert_allclose(dagger(u), expm_hermitian(SIGMA_X, -0.7), atol=1e-15)

    def test_involution(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(dagger(dagger(a)), a, atol=0)


class TestPartialTrace:
    def test_product_state(self):
        rho = kron(KET0_PROJ, KET0_PROJ)
        np.testing.assert_allclose(partial_trace(rho, "system"), KET0_PROJ, atol=1e-15)

    def test_mixed_system_factor(self):
        rho = kron(KET0_PROJ, IDENTITY_2 / 2.0)
        np.testing.assert_allclose(
            partial_trace(rho, "system"), IDENTITY_2 / 2.0, atol=1e-15
        )

    def test_bell_state_reduces_to_mixed(self):
        np.testing.assert_allclose(
            partial_trace(BELL_PHI_PLUS, "probe"), IDENTITY_2 / 2.0, atol=1e-15
        )

    def test_recovers_left_factor(self, rng):
        for _ in range(20):
            ra = random_density(rng, 2)
            rb = random_density(rng, 2)
            np.testing.assert_allclose(
                partial_trace(kron(ra, rb), "probe"), ra, atol=1e-12
            )

    def test_preserves_trace(self, rng):
        rho = random_density(rng, 4)
        reduced = partial_trace(rho, "system")
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-14

    def test_bad_wire(self):
        with pytest.raises(ValueError, match="probe"):
            partial_trace(BELL_PHI_PLUS, "ancilla")


class TestExpmHermitian:
    def test_quarter_turn(self):
        """exp(-i sigma_x pi/2) = -i sigma_x."""
        np.testing.assert_allclose(
            expm_hermitian(SIGMA_X, math.pi / 2), -1j * SIGMA_X, atol=1e-15
        )

    def test_zero_angle(self):
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, 0.0), IDENTITY_2, atol=0)

    def test_eighth_turn(self):
        expected = (IDENTITY_2 - 1j * SIGMA_X) / math.sqrt(2)
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, math.pi / 4), expected,
                                   atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0, 1], [0, 0]]), 1.0)

    def test_always_unitary(self, rng):
        for _ in range(30):
            h = random_hermitian(rng, 2)
            t = rng.uniform(-10, 10)
            u = expm_hermitian(h, t)
            np.testing.assert_allclose(u @ u.conj().T, IDENTITY_2, atol=1e-12)

    def test_group_property(self, rng):
        """exp(-ish) exp(-ith) = exp(-i(s+t)h)."""
        for _ in range(30):
            h = random_hermitian(rng, 2)
            s, t = rng.uniform(-5, 5, size=2)
            lhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
            np.testing.assert_allclose(lhs, expm_hermitian(h, s + t), atol=1e-12)

    def test_scalar_part_contributes_phase(self):
        u = expm_hermitian(IDENTITY_2, 0.4)
        np.testing.assert_allclose(u, np.exp(-0.4j) * IDENTITY_2, atol=1e-15)


class TestTraceDistance:
    def test_self_distance(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(KET0_PROJ, KET1_PROJ) - 1.0) <= 1e-14

    def test_pure_vs_mixed(self):
        """Eigenvalues of the difference are +-1/2, so the distance is 1/2."""
        assert abs(trace_distance(KET0_PROJ, IDENTITY_2 / 2.0) - 0.5) <= 1e-14

    def test_symmetry_and_triangle(self, rng):
        for _ in range(15):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            c = random_density(rng, 4)
            dab = trace_distance(a, b)
            assert abs(dab - trace_distance(b, a)) <= 1e-10
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10
            assert -1e-12 <= dab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(KET0_PROJ, np.eye(4) / 4.0)


class TestOverlapFidelity:
    def test_self_overlap(self):
        delta = np.diag([0.25, 0.25, -0.25, -0.25]).astype(complex)
        assert abs(overlap_fidelity(delta, delta) - 1.0) <= 1e-15

    def test_anti_aligned(self):
        assert abs(overlap_fidelity(SIGMA_Z, -SIGMA_Z) + 1.0) <= 1e-15

    def test_orthogonal_paulis(self):
        assert overlap_fidelity(SIGMA_Z, SIGMA_X) == 0.0

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError, match="zero"):
            overlap_fidelity(np.zeros((2, 2)), SIGMA_Z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-100, 1e-78, 1e-160])
    def test_tiny_matrices_whose_squared_norms_underflow_in_product(self, scale):
        """Tr(a^2) Tr(b^2) is 0 or subnormal while each factor is positive."""
        a = scale * SIGMA_Z
        assert abs(overlap_fidelity(a, a) - 1.0) <= 1e-15
        assert abs(overlap_fidelity(a, -a) + 1.0) <= 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            overlap_fidelity(np.array([[0, 1], [0, 0]]), SIGMA_Z)


class TestConstructors:
    def test_unitary_accepts_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(unitary(h), h, atol=0)

    def test_unitary_rejects_scaled(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary(2.0 * IDENTITY_2)

    def test_density_accepts_random(self, rng):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(density(rho), rho, atol=0)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density(IDENTITY_2)

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            density(np.diag([1.5, -0.5]).astype(complex))
