"""Gate embedding, circuit execution, and the scattering interferometer."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import random_density

from lgsim.circuit import (
    HADAMARD,
    PROBE,
    SYSTEM,
    Circuit,
    ControlledU,
    Evolve,
    Hadamard,
    build_scattering_circuit,
    circuit_unitary,
    embed,
    expect_probe_y,
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
            embed(Hadamard(PROBE)), kron(HADAMARD, IDENTITY_2), atol=0
        )

    def test_hadamard_on_system(self):
        np.testing.assert_allclose(
            embed(Hadamard(SYSTEM)), kron(IDENTITY_2, HADAMARD), atol=0
        )

    def test_controlled_x_is_cnot(self):
        np.testing.assert_allclose(
            embed(ControlledU(PROBE, SYSTEM, SIGMA_X)), CNOT, atol=0
        )

    def test_controlled_from_system_wire(self):
        got = embed(ControlledU(SYSTEM, PROBE, SIGMA_X))
        expected = kron(IDENTITY_2, np.diag([1.0, 0.0])) + kron(
            SIGMA_X, np.diag([0.0, 1.0])
        )
        np.testing.assert_allclose(got, expected, atol=0)

    def test_zero_phase_evolution_is_identity(self):
        np.testing.assert_allclose(embed(Evolve(SYSTEM, SIGMA_X, 0.0)), np.eye(4),
                                   atol=0)

    def test_embedded_gates_are_unitary(self, rng):
        for _ in range(10):
            gate = Evolve(SYSTEM, SIGMA_X, rng.uniform(0, 10))
            u = embed(gate)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestGateValidation:
    def test_unknown_wire(self):
        with pytest.raises(ValueError, match="wire"):
            Hadamard("ancilla")

    def test_control_equals_target(self):
        with pytest.raises(ValueError, match="distinct"):
            ControlledU(PROBE, PROBE, SIGMA_X)

    def test_non_hermitian_generator(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Evolve(SYSTEM, np.array([[0, 1], [0, 0]]), 1.0)

    def test_non_unitary_controlled_gate(self):
        with pytest.raises(ValueError, match="unitary"):
            ControlledU(PROBE, SYSTEM, 2.0 * SIGMA_X)

    def test_non_finite_phase_rejected_on_construction(self):
        with pytest.raises(ValueError, match="finite angles"):
            Evolve(SYSTEM, SIGMA_X, [0.0, math.nan])

    def test_infinite_measurement_time_rejected(self):
        with pytest.raises(ValueError, match=r"theta_k >= 0, got \(0.0, inf\)"):
            build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, math.inf)

    def test_controlled_gate_keeps_no_reference_to_the_callers_array(self):
        u = SIGMA_X.copy()
        gate = ControlledU(PROBE, SYSTEM, u)
        u[:] = 2 * np.eye(2)
        v = circuit_unitary(Circuit((gate,)))
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-15)

    def test_evolve_keeps_no_reference_to_the_callers_generator(self):
        h = SIGMA_X.copy()
        gate = Evolve(SYSTEM, h, 0.3)
        h[:] = SIGMA_Z
        np.testing.assert_array_equal(embed(gate),
                                      kron(IDENTITY_2, expm_hermitian(SIGMA_X, 0.3)))
        np.testing.assert_array_equal(gate.hamiltonian, SIGMA_X)

    def test_evolve_keeps_no_reference_to_the_callers_phases(self):
        """``phase`` is a read-only copy, and ``embed`` gives the matrix
        formed at construction: both must see the phases given."""
        t = np.array([0.1, 0.2])
        gate = Evolve(SYSTEM, SIGMA_X, t)
        t[0] = 1.0
        np.testing.assert_array_equal(gate.phase, [0.1, 0.2])
        np.testing.assert_allclose(embed(gate),
                                   kron(IDENTITY_2, expm_hermitian(SIGMA_X, [0.1, 0.2])),
                                   rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            gate.phase[0] = 1.0

    @pytest.mark.parametrize("phase", [0.3, 2, np.float64(0.3)])
    def test_evolve_keeps_a_number_phase_as_given(self, phase):
        assert Evolve(SYSTEM, SIGMA_X, phase).phase is phase

    @pytest.mark.parametrize("wire", [PROBE, SYSTEM])
    def test_evolve_matrix_holds_no_signed_zero(self, wire):
        """The blocks off the wire are +0, as the exponential's own zeros are."""
        for h in (SIGMA_X - 0.3 * SIGMA_Z, SIGMA_Y, 0.7 * IDENTITY_2):
            parts = Evolve(wire, h, np.linspace(-2.0, 2.0, 5)).matrix.view(float)
            assert not (np.signbit(parts) & (parts == 0.0)).any()

    def test_gate_operators_are_read_only(self):
        gates = (ControlledU(PROBE, SYSTEM, SIGMA_X.copy()),
                 Evolve(SYSTEM, SIGMA_X.copy(), 1.0))
        for array in (gates[0].u, gates[1].hamiltonian, gates[0].matrix,
                      gates[1].matrix, Hadamard(PROBE).matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 2.0


@pytest.mark.parametrize("make", [
    lambda: Evolve(SYSTEM, SIGMA_X, 0.5),
    lambda: ControlledU(PROBE, SYSTEM, SIGMA_X),
    lambda: Circuit((Hadamard(PROBE), Evolve(SYSTEM, SIGMA_X, 0.5))),
    lambda: TomographyRecord(np.eye(4)),
], ids=["Evolve", "ControlledU", "Circuit", "TomographyRecord"])
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
        out = run(Circuit((Evolve(SYSTEM, SIGMA_X, 0.0),)), rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_hadamard_splits_probe(self):
        rho_in = kron(pure_density(KET0), pure_density(KET0))
        out = run(Circuit((Hadamard(PROBE),)), rho_in)
        plus = pure_density([1 / math.sqrt(2), 1 / math.sqrt(2)])
        np.testing.assert_allclose(out, kron(plus, pure_density(KET0)), atol=1e-15)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run(Circuit(()), np.eye(4) / 4.0)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            run(Circuit((Hadamard(PROBE),)), IDENTITY_2 / 2.0)

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
    def test_length_is_six_gates(self):
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.1, 0.2)
        assert len(circ.gates) == 6

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
        plus_i = pure_density([1 / math.sqrt(2), 1j / math.sqrt(2)])
        assert abs(expect_probe_y(kron(plus_i, maximally_mixed())) - 1.0) <= 1e-12

    def test_y_on_probe_zero(self):
        assert abs(expect_probe_y(kron(pure_density(KET0), maximally_mixed()))) \
            <= 1e-15

    def test_y_vanishes_after_circuit_on_mixed_system(self, rng):
        """Im Tr[rho U] = 0 for rho = I/2 and the Hermitian-product U."""
        for _ in range(10):
            theta_k, theta_m = np.sort(rng.uniform(0, math.pi, size=2))
            circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, theta_k, theta_m)
            out = run(circ, kron(pure_density(KET0), maximally_mixed()))
            assert abs(expect_probe_y(out)) <= 1e-12


class TestCircuitUnitary:
    def test_product_is_unitary(self):
        circ = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.3, 0.9)
        v = circuit_unitary(circ)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    def test_order_matters(self):
        forward = circuit_unitary(
            Circuit((Hadamard(PROBE), ControlledU(PROBE, SYSTEM, SIGMA_X)))
        )
        backward = circuit_unitary(
            Circuit((ControlledU(PROBE, SYSTEM, SIGMA_X), Hadamard(PROBE)))
        )
        assert np.max(np.abs(forward - backward)) > 0.1
