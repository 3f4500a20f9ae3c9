"""The scattering unitary V, its execution, and the interferometer's readouts."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import random_density, scattering_reference

from lgsim.circuit import (
    _PROBE_HADAMARD,
    HADAMARD,
    _controlled,
    _probe_signal,
    build_scattering_circuit,
    expect_probe_z,
    run,
)
from lgsim.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm_hermitian,
    kron,
    partial_trace,
    trace_distance,
)
from lgsim.nmr import TomographyRecord
from lgsim.states import KET0, maximally_mixed, pure_density

PROBE_Y = kron(SIGMA_Y, IDENTITY_2)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def heisenberg_product(obs, h, theta_k, theta_m):
    """Independent construction of O(theta_m) O(theta_k)."""
    def at(theta):
        u = expm_hermitian(h, theta)
        return u.conj().T @ obs @ u

    return at(theta_m) @ at(theta_k)


class TestEmbed:
    def test_hadamard_on_probe(self):
        np.testing.assert_allclose(
            _PROBE_HADAMARD, kron(HADAMARD, IDENTITY_2), atol=0
        )

    def test_controlled_x_is_cnot(self):
        np.testing.assert_allclose(_controlled(SIGMA_X), CNOT, atol=0)

    def test_zero_phase_evolution_is_identity(self):
        """At zero times V is H C C H, the identity to round-off."""
        for h in (SIGMA_X, SIGMA_Y - 0.4 * SIGMA_Z, 0.7 * IDENTITY_2):
            np.testing.assert_allclose(build_scattering_circuit(h, SIGMA_Z, 0.0, 0.0),
                                       np.eye(4), rtol=0, atol=1e-15)

    def test_embedded_gates_are_unitary(self, rng):
        for _ in range(10):
            theta_k, theta_m = np.sort(rng.uniform(0, 10, size=2))
            v = build_scattering_circuit(SIGMA_X - 0.3 * SIGMA_Z, SIGMA_Y, theta_k, theta_m)
            np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)


class TestGateValidation:
    def test_non_hermitian_generator(self):
        with pytest.raises(ValueError, match="Hermitian"):
            build_scattering_circuit(np.array([[0, 1], [0, 0]]), SIGMA_Z, 0.0, 1.0)

    def test_non_unitary_controlled_gate(self):
        """A Hermitian O that is not unitary never reaches the controlled
        gate: it is refused as not dichotomic."""
        with pytest.raises(ValueError, match="dichotomic"):
            build_scattering_circuit(SIGMA_X, 2.0 * SIGMA_X, 0.0, 1.0)

    def test_non_finite_phase_rejected_on_construction(self):
        """Finite times whose phase theta*|a| overflows are refused by the
        exponential."""
        with pytest.raises(ValueError, match="finite angles"):
            build_scattering_circuit(1e300 * SIGMA_X, SIGMA_Z, 0.0, [0.0, 1e10])

    def test_infinite_measurement_time_rejected(self):
        with pytest.raises(ValueError, match=r"theta_k >= 0, got \(0.0, inf\)"):
            build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, math.inf)

    def test_controlled_gate_keeps_no_reference_to_the_callers_array(self):
        obs = SIGMA_X.copy()
        v = build_scattering_circuit(SIGMA_Y, obs, 0.2, 0.7)
        kept = v.copy()
        obs[:] = 2 * np.eye(2)
        np.testing.assert_array_equal(v, kept)
        with pytest.raises(ValueError, match="dichotomic"):
            build_scattering_circuit(SIGMA_Y, obs, 0.2, 0.7)

    def test_evolve_keeps_no_reference_to_the_callers_generator(self):
        """A generator edited in place after a build gives the edited V."""
        h = SIGMA_X.copy()
        build_scattering_circuit(h, SIGMA_Z, 0.1, 0.3)
        h[:] = SIGMA_Z
        np.testing.assert_array_equal(build_scattering_circuit(h, SIGMA_Z, 0.1, 0.3),
                                      build_scattering_circuit(SIGMA_Z, SIGMA_Z, 0.1, 0.3))

    def test_evolve_keeps_no_reference_to_the_callers_phases(self):
        t = np.array([0.1, 0.2])
        v = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, t)
        t[0] = 1.0
        np.testing.assert_array_equal(
            v, build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, np.array([0.1, 0.2])))

    @pytest.mark.parametrize("phase", [0.3, 2, np.float64(0.3)])
    def test_evolve_keeps_a_number_phase_as_given(self, phase):
        """A number time of any real type gives one 4x4 V, that of its float."""
        v = build_scattering_circuit(SIGMA_X, SIGMA_Z, phase, phase)
        assert v.shape == (4, 4)
        np.testing.assert_array_equal(
            v, build_scattering_circuit(SIGMA_X, SIGMA_Z, float(phase), float(phase)))

    @pytest.mark.parametrize("times", [(0.4, 1.3), (np.linspace(0.0, 1.0, 5), 2.0)],
                             ids=["number", "stack"])
    def test_scattering_unitary_holds_no_signed_zero(self, times):
        """V's zero entries are +0, as the reference's products give them."""
        for h in (SIGMA_X - 0.3 * SIGMA_Z, SIGMA_Y, 0.7 * IDENTITY_2):
            for obs in (SIGMA_Z, SIGMA_X, IDENTITY_2):
                parts = build_scattering_circuit(h, obs, *times).view(float)
                assert not (np.signbit(parts) & (parts == 0.0)).any()

    def test_gate_operators_are_read_only(self):
        """The probe Hadamard every V is built from cannot be written."""
        with pytest.raises(ValueError, match="read-only"):
            _PROBE_HADAMARD[0, 0] = 2.0


@pytest.mark.parametrize("make", [
    lambda: TomographyRecord(np.eye(4)),
], ids=["TomographyRecord"])
def test_objects_holding_arrays_compare_and_hash_by_identity(make):
    """Two equal-valued objects are distinct, hashable and still frozen."""
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b}) == 2
    name = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, name, getattr(b, name))


class TestRun:
    def test_no_effect_circuit(self, rng):
        rho = random_density(rng, 4)
        out = run(build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, 0.0), rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_hadamard_splits_probe(self):
        rho_in = kron(pure_density(KET0), pure_density(KET0))
        out = run(_PROBE_HADAMARD, rho_in)
        plus = pure_density([1 / math.sqrt(2), 1 / math.sqrt(2)])
        np.testing.assert_allclose(out, kron(plus, pure_density(KET0)), atol=1e-15)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            run(_PROBE_HADAMARD, IDENTITY_2 / 2.0)

    def test_preserves_trace_and_positivity(self, rng):
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.4, 1.9)
        for _ in range(20):
            rho = random_density(rng, 4)
            out = run(circ, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            evals = np.linalg.eigvalsh((out + out.conj().T) / 2.0)
            assert evals[0] >= -1e-10

    def test_scattering_output_matches_direct_construction(self, rng):
        """On a pure product input the output is the known interferometer state.

        Built by hand: |out> = (1/2)(|0> (x) V0 (I+U) |psi>
                               + |1> (x) V0 (I-U) |psi>) with V0 the residual
        free evolution and U the two-time operator product; the 1/2 restores
        the normalization.
        """
        theta_k, theta_m = 0.35, 1.2
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, theta_k, theta_m)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = raw / np.linalg.norm(raw)

        u_prod = heisenberg_product(SIGMA_Z, SIGMA_X, theta_k, theta_m)
        v0 = expm_hermitian(SIGMA_X, theta_m)
        branch0 = v0 @ (IDENTITY_2 + u_prod) @ psi
        branch1 = v0 @ (IDENTITY_2 - u_prod) @ psi
        ket = 0.5 * (
            np.kron([1, 0], branch0) + np.kron([0, 1], branch1)
        )
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-12

        out = run(circ, kron(pure_density(KET0), np.outer(psi, psi.conj())))
        np.testing.assert_allclose(out, np.outer(ket, ket.conj()), atol=1e-12)


class TestScatteringCircuit:
    def test_zero_times_read_unity(self):
        """At theta_k = theta_m = 0 the correlator is Tr[rho O O] = 1."""
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, 0.0)
        rho_in = kron(pure_density(KET0), maximally_mixed())
        assert abs(expect_probe_z(run(circ, rho_in)) - 1.0) <= 1e-12

    def test_mixed_system_reads_cosine(self, rng):
        """Probe signal is cos(2 (theta_m - theta_k)) for rho_sys = I/2."""
        for _ in range(10):
            theta_k, theta_m = np.sort(rng.uniform(0, math.pi, size=2))
            circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, theta_k, theta_m)
            rho_in = kron(pure_density(KET0), maximally_mixed())
            got = expect_probe_z(run(circ, rho_in))
            assert abs(got - math.cos(2 * (theta_m - theta_k))) <= 1e-12

    def test_rejects_non_dichotomic_observable(self):
        with pytest.raises(ValueError, match="dichotomic"):
            build_scattering_circuit(SIGMA_X, 0.5 * SIGMA_Z, 0.0, 1.0)

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError, match="theta_m"):
            build_scattering_circuit(SIGMA_X, SIGMA_Z, 1.0, 0.5)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="theta_m"):
            build_scattering_circuit(SIGMA_X, SIGMA_Z, -0.5, 0.5)

    def test_probe_reads_real_part_of_heisenberg_product(self, rng):
        """Circuit expectation equals Re Tr[rho O(t_m) O(t_k)], 100 samples."""
        for _ in range(100):
            rho_sys = random_density(rng, 2)
            theta_k, theta_m = np.sort(rng.uniform(0, 2 * math.pi, size=2))
            circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, theta_k, theta_m)
            got = expect_probe_z(run(circ, kron(pure_density(KET0), rho_sys)))
            u_prod = heisenberg_product(SIGMA_Z, SIGMA_X, theta_k, theta_m)
            want = np.trace(rho_sys @ u_prod).real
            assert abs(got - want) <= 1e-10


class TestNoninvasiveness:
    def test_mixed_state_is_untouched(self):
        """I/2 passes through the circuit unchanged at every time pair."""
        rho_sys = maximally_mixed()
        rho_in = kron(pure_density(KET0), rho_sys)
        phases = np.linspace(0.0, math.pi, 5)
        for a in phases:
            for b in phases:
                lo, hi = (a, b) if a <= b else (b, a)
                circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, lo, hi)
                reduced = partial_trace(run(circ, rho_in), "system")
                assert trace_distance(reduced, rho_sys) <= 1e-12

    def test_pure_state_is_disturbed(self):
        """|0><0| with phase gap pi/4 is kicked to I/2: distance exactly 1/2."""
        rho_sys = pure_density(KET0)
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, math.pi / 4)
        reduced = partial_trace(run(circ, kron(pure_density(KET0), rho_sys)),
                                "system")
        distance = trace_distance(reduced, rho_sys)
        assert distance > 0.1
        assert abs(distance - 0.5) <= 1e-12


class TestProbeReadout:
    def test_z_on_probe_zero(self, rng):
        assert abs(expect_probe_z(kron(pure_density(KET0), random_density(rng, 2)))
                   - 1.0) <= 1e-15

    def test_z_on_probe_one(self, rng):
        rho = kron(np.diag([0.0, 1.0]).astype(complex), random_density(rng, 2))
        assert abs(expect_probe_z(rho) + 1.0) <= 1e-15

    def test_z_on_mixed_probe(self):
        assert expect_probe_z(kron(maximally_mixed(), maximally_mixed())) == 0.0

    def test_y_on_circular_probe(self):
        """On |+> (x-axis) with O = sigma_z under sigma_x, the pair 2 omega
        (t_m - t_k) = pi/2 gives O(t_m) O(t_k) = sigma_y sigma_z = i sigma_x:
        the correlator is i, so the pure probe ends circular, <sigma_y> = +-1
        and <sigma_z> = 0."""
        plus = pure_density([1 / math.sqrt(2), 1 / math.sqrt(2)])
        (y, z), _ = _probe_signal(1.0, SIGMA_Z, 0.0, math.pi / 4, plus, 1.0,
                                  np.stack((PROBE_Y, kron(SIGMA_Z, IDENTITY_2))))
        assert abs(abs(y) - 1.0) <= 1e-12
        assert abs(z) <= 1e-15

    def test_y_on_probe_zero(self):
        """At zero times the circuit is H C C H = I: the pure probe stays |0>."""
        y, _ = _probe_signal(1.0, SIGMA_Z, 0.0, 0.0, maximally_mixed(), 1.0, PROBE_Y)
        assert abs(y) <= 1e-15

    def test_y_vanishes_after_circuit_on_mixed_system(self, rng):
        """Im Tr[rho U] = 0 for rho = I/2 and the Hermitian-product U, read
        off the probe readout by sigma_y (x) I and off the output states."""
        for _ in range(10):
            theta_k, theta_m = np.sort(rng.uniform(0, math.pi, size=2))
            y, _ = _probe_signal(1.0, SIGMA_Z, theta_k, theta_m, maximally_mixed(), 1.0,
                                 PROBE_Y)
            assert abs(y) <= 1e-12
            circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, theta_k, theta_m)
            out = run(circ, kron(pure_density(KET0), maximally_mixed()))
            assert abs(np.trace(PROBE_Y @ out).real) <= 1e-12


class TestCircuitUnitary:
    def test_product_is_unitary(self):
        v = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.3, 0.9)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    def test_order_matters(self):
        """V, which is the reference, against the six gates in reverse order
        (H E_k C E_m C H), which differ from it for this generator."""
        h = SIGMA_X + 0.5 * SIGMA_Z
        v = build_scattering_circuit(h, SIGMA_Z, 0.2, 1.3)
        np.testing.assert_allclose(v, scattering_reference(h, SIGMA_Z, 0.2, 1.3),
                                   rtol=0, atol=1e-15)
        reverse = (_PROBE_HADAMARD @ kron(IDENTITY_2, expm_hermitian(h, 0.2))
                   @ _controlled(SIGMA_Z) @ kron(IDENTITY_2, expm_hermitian(h, 1.1))
                   @ _controlled(SIGMA_Z) @ _PROBE_HADAMARD)
        assert np.max(np.abs(v - reverse)) > 0.1
