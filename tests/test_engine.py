"""The batched scattering engine: stacked circuits against a per-circuit loop
of ``embed`` and ``@``, stacks against scalar runs, sweeps against per-point
calls, drives of any omega against the oracle, and how many circuits each
entry point runs; properties of K, of the raw probe signal and of ``run`` over random inputs;
the one register-state validator and the stack operations of ``nmr``,
``states`` and the CLI built on it."""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lgsim.circuit
import lgsim.cli
import lgsim.leggett_garg
import lgsim.linalg
import lgsim.nmr
import lgsim.states
from conftest import random_density
from lgsim.circuit import (
    HADAMARD,
    PROBE,
    SYSTEM,
    WIRES,
    Circuit,
    ControlledU,
    Evolve,
    Hadamard,
    _probe_signal,
    build_scattering_circuit,
    circuit_unitary,
    embed,
    expect_probe_y,
    expect_probe_z,
    run,
    scattering_gates,
)
from lgsim.leggett_garg import (
    Evolution,
    LGResult,
    Schedule,
    SweepResult,
    analytic_k,
    correlation_circuit,
    correlation_oracle,
    heisenberg_observable,
    k_value,
    max_disturbance,
    observable_from_state,
    sweep,
)
from lgsim.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _expm_terms,
    density,
    dichotomic_observable,
    expm_hermitian,
    kron,
    partial_trace,
    trace_distance,
    unitary,
)
from lgsim.nmr import (ReadoutNoise, T2Config, TomographyRecord, k_attenuation_check,
                       reconstruct, t2_dephase, tomograph)
from lgsim.states import (
    KET0,
    KET1,
    classical_mixture,
    gradient_dephase_prepare,
    maximally_mixed,
    pseudo_pure,
    pure_density,
    pure_state,
)

SETTINGS = settings(max_examples=30, deadline=None)

direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3
)
times = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(sorted)
omegas = st.floats(0.25, 4.0)
epsilons = st.floats(0.05, 1.0)


def pauli_vector(v) -> np.ndarray:
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def unit_observable(v) -> np.ndarray:
    """n.sigma for the unit vector along ``v``: dichotomic, eigenvalues +-1."""
    return pauli_vector(np.asarray(v) / math.hypot(*v))


@st.composite
def qubit_states(draw):
    radius = draw(st.floats(0.0, 1.0))
    return (IDENTITY_2 + radius * unit_observable(draw(direction))) / 2.0


@st.composite
def generators(draw):
    """A 2x2 Hermitian a0*I + a.sigma with |a0|, |a_i| <= 2."""
    a0, *a = (draw(st.floats(-2.0, 2.0)) for _ in range(4))
    return a0 * IDENTITY_2 + pauli_vector(a)


@SETTINGS
@given(dim=st.sampled_from([2, 4]), angle=st.floats(0.0, 6.0),
       entry=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_unitary_rejects_one_bad_entry(dim, angle, entry):
    u = expm_hermitian(SIGMA_X + 0.3 * SIGMA_Z, angle)
    if dim == 4:
        u = kron(u, HADAMARD)
    checked = unitary(u)
    np.testing.assert_array_equal(checked, u)
    assert checked is not u and not checked.flags.writeable
    bad = u.copy()
    bad[entry[0] % dim, entry[1] % dim] += 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        unitary(bad)


@settings(max_examples=300, deadline=None)
@given(a0=st.floats(-2.0, 2.0), axis=direction, scale_exp=st.floats(-300.0, 150.0),
       angle_exp=st.floats(-300.0, 300.0), sign=st.sampled_from([-1.0, 1.0]))
def test_expm_hermitian_is_unitary_wherever_its_phases_are_finite(
        a0, axis, scale_exp, angle_exp, sign):
    """h = s (a0 I + n.sigma) with log-uniform scale s and angle: unitary to
    1e-14 while |angle| s < 1e307 (so |angle a0 s| < 2e307), a ValueError
    once it passes 1e309, and never a numpy warning."""
    h = 10.0 ** scale_exp * (a0 * IDENTITY_2 + unit_observable(axis))
    angle = sign * 10.0 ** angle_exp
    phase_exp = scale_exp + angle_exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if phase_exp > 309.0:
            with pytest.raises(ValueError, match="finite angles"):
                expm_hermitian(h, angle)
            return
        try:
            u = expm_hermitian(h, angle)
        except ValueError:
            assert phase_exp >= 307.0
            return
    assert np.max(np.abs(u @ u.conj().T - IDENTITY_2)) <= 1e-14


def test_empty_circuit_raises():
    with pytest.raises(ValueError, match="empty"):
        circuit_unitary(Circuit())


@pytest.mark.parametrize("gate", [
    Hadamard(PROBE),
    Hadamard(SYSTEM),
    Evolve(SYSTEM, SIGMA_X, 0.7),
    Evolve(PROBE, SIGMA_Y, np.linspace(0.0, 3.0, 5)),
    ControlledU(PROBE, SYSTEM, SIGMA_Z),
    ControlledU(SYSTEM, PROBE, SIGMA_X),
])
def test_one_gate_circuit_equals_its_embedding(gate):
    np.testing.assert_array_equal(circuit_unitary(Circuit((gate,))), embed(gate))


@SETTINGS
@given(h=generators(), obs=direction.map(unit_observable),
       size=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
def test_circuit_unitary_equals_ordered_matmul(h, obs, size, seed):
    t_k, t_m = np.sort(np.random.default_rng(seed).uniform(0.0, 3.0, (2, size)), axis=0)
    gates = scattering_gates(h, obs, t_k, t_m)
    want = embed(gates[0])
    for gate in gates[1:]:
        want = np.matmul(embed(gate), want)
    got = circuit_unitary(Circuit(gates))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(h=st.one_of(generators(), st.floats(-2.0, 2.0).map(lambda a0: a0 * IDENTITY_2)),
       angle=st.one_of(st.floats(-10.0, 10.0),
                       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)
                       .map(np.array)))
def test_expm_hermitian_equals_the_eigendecomposition(h, angle):
    """exp(-i angle h) against V diag(exp(-i angle E)) V+ from ``eigh``,
    which shares no code with the closed form: any a0, axis and |a| = 0."""
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * np.multiply.outer(angle, energies))
    want = (vectors * phases[..., None, :]) @ vectors.conj().T
    np.testing.assert_allclose(expm_hermitian(h, angle), want, rtol=0, atol=1e-13)


@SETTINGS
@given(h=generators(), angles=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
def test_expm_stack_equals_scalar_calls(h, angles):
    stack = expm_hermitian(h, np.array(angles))
    assert stack.shape == (len(angles), 2, 2)
    for u, angle in zip(stack, angles):
        np.testing.assert_allclose(u, expm_hermitian(h, angle), rtol=0, atol=1e-12)


@SETTINGS
@given(
    h=generators(),
    obs=direction.map(unit_observable),
    rho_sys=qubit_states(),
    eps=epsilons,
    pairs=st.lists(times, min_size=1, max_size=12),
)
def test_stack_equals_scalar_runs(h, obs, rho_sys, eps, pairs):
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    t_k, t_m = np.array(pairs).T
    stacked = run(Circuit(scattering_gates(h, obs, t_k, t_m)), rho_in)
    assert stacked.shape == (len(pairs), 4, 4)
    for out, (a, b) in zip(stacked, pairs):
        single = run(build_scattering_circuit(h, obs, a, b), rho_in)
        np.testing.assert_allclose(out, single, rtol=0, atol=1e-12)


@SETTINGS
@given(
    rho_sys=qubit_states(),
    obs=direction.map(unit_observable),
    omega=omegas,
    pair=times,
    others=st.lists(times, min_size=5, max_size=5),
    eps=epsilons,
)
def test_a_number_call_is_an_entry_of_any_stack(rho_sys, obs, omega, pair, others, eps):
    """Number times give two floats; stacks of shapes (1,), (3,) and (2, 3)
    whose last pair is the same give arrays of that shape, ending in them."""
    evo = Evolution(omega)
    single = correlation_circuit(rho_sys, obs, evo, *pair, eps)
    assert [type(value) for value in single] == [float, float]
    for shape in [(1,), (3,), (2, 3)]:
        t_k, t_m = np.array(others[:math.prod(shape) - 1] + [pair]).T
        stacked = correlation_circuit(rho_sys, obs, evo, t_k.reshape(shape),
                                      t_m.reshape(shape), eps)
        for got, want in zip(stacked, single):
            assert got.shape == shape
            assert abs(got.flat[-1] - want) <= 1e-12


@SETTINGS
@given(
    rho_sys=qubit_states(),
    obs=direction.map(unit_observable),
    omega=omegas,
    pair=times,
    eps=epsilons,
)
def test_circuit_matches_oracle_at_any_omega(rho_sys, obs, omega, pair, eps):
    """H = omega*sigma_x enters once: the circuit applies exp(-i omega t sigma_x)."""
    evo = Evolution(omega)
    _, normalized = correlation_circuit(rho_sys, obs, evo, *pair, eps)
    assert abs(normalized - correlation_oracle(rho_sys, obs, evo, *pair)) <= 1e-10


@SETTINGS
@given(rho_sys=qubit_states(), obs=direction.map(unit_observable), pair=times,
       eps=epsilons)
def test_circuit_matches_oracle_without_a_drive(rho_sys, obs, pair, eps):
    """omega = 0 makes each free evolution exp(0) = I, whose axis term is
    zero: every correlator of a dichotomic observable is then Tr[rho O O] = 1."""
    evo = Evolution(0.0)
    _, normalized = correlation_circuit(rho_sys, obs, evo, *pair, eps)
    assert abs(normalized - correlation_oracle(rho_sys, obs, evo, *pair)) <= 1e-12
    assert abs(normalized - 1.0) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(
    omega=omegas,
    p0=st.floats(0.0, 1.0),
    eps=epsilons,
    bounds=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.01, 2 * math.pi)),
)
def test_sweep_equals_per_point_k_value(omega, p0, eps, bounds):
    evo = Evolution(omega)
    rho_sys = classical_mixture(p0, 1.0 - p0)
    theta_min, width = bounds
    results = sweep(evo, rho_sys, eps, theta_min, theta_min + width, 9, SIGMA_Z)
    dts = np.linspace(theta_min, theta_min + width, 9) / evo.energy_gap
    for r, dt in zip(results, dts.tolist()):
        want = k_value(rho_sys, SIGMA_Z, evo, Schedule(0.0, dt, 2.0 * dt), eps)
        for name in ("theta", "c12", "c23", "c13", "k"):
            assert abs(getattr(r, name) - getattr(want, name)) <= 1e-12, name


@settings(max_examples=15, deadline=None)
@given(
    omega=omegas,
    p0=st.floats(0.0, 1.0),
    eps=epsilons,
    obs=direction.map(unit_observable),
    bounds=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.01, 2 * math.pi)),
    steps=st.integers(2, 80),
)
def test_sweep_points_equal_the_point_list_of_a_fully_stacked_engine(
        omega, p0, eps, obs, bounds, steps):
    """The points of a ``SweepResult`` equal, bitwise, the ``LGResult`` list
    built point by point from correlators whose zero times are stacks too,
    as every time pair was before scalar times stayed scalar."""
    evo = Evolution(omega)
    rho_sys = classical_mixture(p0, 1.0 - p0)
    theta_min, width = bounds
    results = sweep(evo, rho_sys, eps, theta_min, theta_min + width, steps, obs)
    dt = np.linspace(theta_min, theta_min + width, steps) / evo.energy_gap
    zero = np.zeros_like(dt)
    c12, c23, c13 = (correlation_circuit(rho_sys, obs, evo, t_k, t_m, eps)[1].tolist()
                     for t_k, t_m in [(zero, dt), (dt, 2.0 * dt), (zero, 2.0 * dt)])
    want = [LGResult(theta=theta, c12=a, c23=b, c13=c, k=a + b - c)
            for theta, a, b, c in zip((evo.energy_gap * dt).tolist(), c12, c23, c13)]
    assert list(results) == want
    assert [results[i] for i in range(-steps, steps)] == want + want


@pytest.mark.parametrize("omega", [0.25, 0.7, 2.0, 4.0])
def test_sweep_reproduces_the_analytic_curve_away_from_unit_omega(omega):
    results = sweep(Evolution(omega), classical_mixture(0.3, 0.7), 0.6,
                    0.0, 2 * math.pi, 181)
    assert max(abs(r.k - analytic_k(r.theta)) for r in results) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    rho_sys=qubit_states(),
    obs=direction.map(unit_observable),
    omega=omegas,
    eps=epsilons,
    bounds=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.01, 2 * math.pi)),
)
def test_k_obeys_the_luders_bound(rho_sys, obs, omega, eps, bounds):
    """-3 <= K <= 3/2 for any qubit state, dichotomic observable, omega and
    epsilon: the quantum bounds of Budroni & Emary, PRL 113, 050401 (2014)."""
    theta_min, width = bounds
    results = sweep(Evolution(omega), rho_sys, eps, theta_min, theta_min + width,
                    61, obs)
    assert results.k.min() >= -3.0 - 1e-9
    assert results.k.max() <= 1.5 + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    p0=st.floats(0.0, 1.0),
    obs=direction.map(unit_observable),
    omega=omegas,
    eps=epsilons,
    bounds=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.01, 2 * math.pi)),
)
def test_k_does_not_depend_on_the_diagonal_populations(p0, obs, omega, eps, bounds):
    """Re Tr[rho O(t)O(s)] is the same for every qubit state, so a sweep on
    any classical mixture of |0> and |1> equals the one on I/2."""
    evo = Evolution(omega)
    theta_min, width = bounds
    mixed, diagonal = (
        sweep(evo, rho, eps, theta_min, theta_min + width, 41, obs)
        for rho in (maximally_mixed(), classical_mixture(p0, 1.0 - p0))
    )
    for name in ("c12", "c23", "c13", "k"):
        np.testing.assert_allclose(getattr(diagonal, name), getattr(mixed, name),
                                   rtol=0, atol=1e-12, err_msg=name)


@SETTINGS
@given(
    rho_sys=qubit_states(),
    obs=direction.map(unit_observable),
    omega=omegas,
    pairs=st.lists(times, min_size=1, max_size=12),
    eps_pair=st.tuples(epsilons, epsilons),
)
def test_raw_probe_signal_is_linear_in_epsilon(rho_sys, obs, omega, pairs, eps_pair):
    """The I/2 part of the pseudo-pure probe reads 0, so raw / eps is the
    same for any two polarizations."""
    t_k, t_m = np.array(pairs).T
    first, second = (
        correlation_circuit(rho_sys, obs, Evolution(omega), t_k, t_m, eps)[0] / eps
        for eps in eps_pair
    )
    np.testing.assert_allclose(first, second, rtol=0, atol=1e-12)


def test_batch_rejects_a_reversed_pair_anywhere_in_a_stack():
    rho = classical_mixture(0.5, 0.5)
    t_k, t_m = np.array([0.0, 0.5, 0.2]), np.array([0.1, 0.4, 0.3])
    with pytest.raises(ValueError, match="theta_m"):
        correlation_circuit(rho, SIGMA_Z, Evolution(1.0), t_k, t_m)


def test_batch_rejects_a_non_dichotomic_observable():
    with pytest.raises(ValueError, match="dichotomic"):
        correlation_circuit(classical_mixture(0.5, 0.5), 0.5 * SIGMA_Z,
                            Evolution(1.0), 0.0, 1.0)


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls of ``circuit.run`` and of the correlators' probe readout
    ``circuit._probe_signal``, each counted under every name the package
    binds it to."""
    return {name: counting_everywhere(name, monkeypatch)
            for name in ("run", "_probe_signal")}


def test_default_sweep_runs_at_most_four_circuit_stacks(engine_calls):
    """One readout of the (3, 721) stack of C12, C23 and C13, whose traces
    also give the reference (2 when the reference ran a circuit of its own);
    no stack of output states is formed."""
    results = sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0,
                    0.0, 2 * math.pi, 721)
    assert len(results) == 721
    assert len(engine_calls["run"]) == 0
    assert len(engine_calls["_probe_signal"]) == 1


def test_default_sweep_stacks_its_angles_in_two_exponentials(monkeypatch):
    """One circuit of two free evolutions over the (3, 721) stack: each
    stacked phase becomes two weight columns, no scalar exponential is
    built, and the reference builds no exponential of its own."""
    single = counting(lgsim.circuit, "expm_hermitian", monkeypatch)
    stacked = counting(lgsim.circuit, "_expm_terms", monkeypatch)
    sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0, 0.0, 2 * math.pi, 721)
    assert single == []
    assert [np.shape(angle) for _, angle in stacked] == [(3, 721)] * 2


def test_scattering_gates_keep_each_phase_unbroadcast():
    t_m = np.linspace(0.0, 1.0, 5)
    gates = scattering_gates(SIGMA_X, SIGMA_Z, 0.0, t_m)
    assert np.shape(gates[1].phase) == ()
    assert np.shape(gates[3].phase) == (5,)
    assert embed(gates[1]).shape == (4, 4)
    with pytest.raises(ValueError, match=r"theta_k >= 0, got \(0.5, 0.0\)"):
        scattering_gates(SIGMA_X, SIGMA_Z, 0.5, t_m)


def test_k_value_and_correlator_run_one_stack_and_one_reference(engine_calls):
    """Each reads its stack and its reference off the terms of one circuit,
    in one ``_probe_signal`` call (two when the reference ran a circuit of
    its own), with no ``run``."""
    rho = classical_mixture(0.5, 0.5)
    k_value(rho, SIGMA_Z, Evolution(1.0), Schedule(0.0, 0.3, 0.6))
    assert len(engine_calls["_probe_signal"]) == 1
    correlation_circuit(rho, SIGMA_Z, Evolution(1.0), 0.1, 0.4)
    assert len(engine_calls["_probe_signal"]) == 2
    assert len(engine_calls["run"]) == 0


def test_each_correlator_call_builds_its_gates_once(monkeypatch):
    """One ``scattering_gates`` call per correlator, k_value, noise check
    and sweep, whose one (3, steps) stack holds all three correlators: the
    zero-time reference reuses those gates (2, 2, 2 and 4 calls when it
    built a circuit of its own, and the sweep 3 when it built a stack per
    correlator)."""
    calls = []
    for module in (lgsim, lgsim.circuit, lgsim.leggett_garg, lgsim.nmr, lgsim.cli):
        if hasattr(module, "scattering_gates"):
            counting(module, "scattering_gates", monkeypatch, calls)
    rho = classical_mixture(0.5, 0.5)
    entry_points = {
        "correlation_circuit": lambda: correlation_circuit(
            rho, SIGMA_Z, Evolution(1.0), 0.1, 0.4),
        "k_value": lambda: k_value(rho, SIGMA_Z, Evolution(1.0),
                                   Schedule(0.0, 0.3, 0.6)),
        "k_attenuation_check": lambda: k_attenuation_check(
            T2Config(0.1, 0.8, 0.002), math.pi / 3),
        "sweep": lambda: sweep(Evolution(1.0), rho, 1.0, 0.0, 2 * math.pi, 721),
    }
    counts = {}
    for name, call in entry_points.items():
        calls.clear()
        call()
        counts[name] = len(calls)
    assert counts == {"correlation_circuit": 1, "k_value": 1,
                      "k_attenuation_check": 1, "sweep": 1}


@SETTINGS
@given(
    h=generators(),
    obs=direction.map(unit_observable),
    rho_sys=qubit_states(),
    eps=epsilons,
    pairs=st.one_of(times, st.lists(times, min_size=1, max_size=6)
                    .map(lambda p: tuple(np.array(p).T))),
)
@example(h=0.7 * IDENTITY_2, obs=SIGMA_Z, rho_sys=maximally_mixed(), eps=0.5,
         pairs=(0.3, 1.1))  # a multiple of I: each Evolve keeps one column
@example(h=Evolution(0.0).hamiltonian, obs=SIGMA_X, rho_sys=classical_mixture(0.2, 0.8),
         eps=1.0, pairs=(np.array([0.0, 0.4]), np.array([0.5, 2.0])))  # omega = 0
def test_reference_equals_the_six_gate_zero_time_circuit(h, obs, rho_sys, eps, pairs):
    """The reference read off the traces of the circuit of any time pair or
    stack is bitwise the probe signal of the full circuit at zero times."""
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    zero_time, _ = _probe_signal(build_scattering_circuit(h, obs, 0.0, 0.0), rho_in)
    _, reference = _probe_signal(Circuit(scattering_gates(h, obs, *pairs)), rho_in)
    assert reference == zero_time


@pytest.mark.parametrize("h,t_k,t_m", [
    (SIGMA_X, 0.3, 0.8),
    (SIGMA_X + 0.3 * SIGMA_Z, np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 4)),
    (0.0 * SIGMA_X, 0.3, np.array([[0.5, 0.7], [1.0, 2.0]])),
    (0.7 * IDENTITY_2, 0.0, 0.0),
])
def test_scattering_circuits_expand_to_at_most_four_terms(h, t_k, t_m):
    """Past 16 terms ``_expand`` folds the weights into the matrix units, and
    term 0 would no longer be the zero-time circuit the reference reads."""
    _, fixed = lgsim.circuit._expand(Circuit(scattering_gates(h, SIGMA_Z, t_k, t_m)))
    assert len(fixed) <= 4


@SETTINGS
@given(
    h=generators(),
    obs=direction.map(unit_observable),
    rho_sys=qubit_states(),
    eps=epsilons,
    pairs=st.one_of(times, st.lists(times, min_size=1, max_size=6)
                    .map(lambda p: tuple(np.array(p).T)),
                    st.lists(times, min_size=6, max_size=6)
                    .map(lambda p: tuple(np.array(p).T.reshape(2, 2, 3)))),
)
def test_probe_readout_equals_the_trace_of_the_output_states(h, obs, rho_sys, eps,
                                                             pairs):
    """The correlators' readout off the circuit's terms is <sigma_z> of the
    probe in the states ``run`` forms, for number and stacked time pairs."""
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    circuit = Circuit(scattering_gates(h, obs, *pairs))
    want = expect_probe_z(run(circuit, rho_in))
    got, _ = _probe_signal(circuit, rho_in)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_t2_dephase_broadcasts_over_a_stack(rng):
    cfg = T2Config(t2_probe=2.0, t2_system=0.5, duration=0.04)
    stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    out = t2_dephase(stack, cfg)
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[index], t2_dephase(stack[index], cfg))


@pytest.mark.parametrize("shape", [(4,), (2, 2), (3, 4, 2), (3, 2, 2)])
def test_t2_dephase_rejects_non_register_shapes(shape):
    cfg = T2Config(t2_probe=2.0, t2_system=0.5, duration=0.04)
    with pytest.raises(ValueError, match="4x4"):
        t2_dephase(np.zeros(shape, dtype=complex), cfg)


# --------------------------------------------------------------------------
# register states: one validator, stack operations


T2 = T2Config(t2_probe=2.0, t2_system=0.5, duration=0.04)
NO_NOISE = ReadoutNoise(sigma=0.0, seed=0)
REGISTER_ENTRY_POINTS = {
    "run": lambda rho: run(Circuit((Hadamard(PROBE),)), rho),
    "probe readout": expect_probe_z,
    "probe readout y": expect_probe_y,
    "partial_trace": lambda rho: partial_trace(rho, "system"),
    "t2_dephase": lambda rho: t2_dephase(rho, T2),
    "tomograph": lambda rho: tomograph(rho, NO_NOISE),
}


def with_entry(value, index=(1, 2)) -> np.ndarray:
    rho = np.eye(4, dtype=complex) / 4.0
    rho[index] = value
    return rho


@pytest.mark.parametrize("entry", sorted(REGISTER_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [
    with_entry(math.nan),
    with_entry(complex(0.0, math.inf), (3, 3)),
    np.eye(2) / 2.0,
    np.eye(3) / 3.0,
    np.ones(4) / 4.0,
    np.zeros((4, 2)),
], ids=["nan", "inf", "2x2", "3x3", "vector", "4x2"])
def test_register_entry_points_reject_bad_states(entry, bad):
    with pytest.raises(ValueError, match="expects a 4x4 register state"):
        REGISTER_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 4), (4, 4, 4)])
def test_tomograph_rejects_a_stack(shape):
    with pytest.raises(ValueError, match="tomograph expects a 4x4 register state"):
        tomograph(np.broadcast_to(np.eye(4) / 4.0, shape), NO_NOISE)


# Each entry point that takes real numbers: the operand its error names, and
# a call that hands it ``z``.
REAL_ENTRY_POINTS = {
    "expm_hermitian": ("angle", lambda z: expm_hermitian(SIGMA_X, z)),
    "Evolve": ("phase", lambda z: Evolve(SYSTEM, SIGMA_X, [0.1, z])),
    "scattering_gates": ("theta_m", lambda z: scattering_gates(SIGMA_X, SIGMA_Z, 0.0, z)),
    "correlation_circuit": ("theta_k", lambda z: correlation_circuit(
        maximally_mixed(), SIGMA_Z, Evolution(1.0), z, 0.5, 0.5)),
    "heisenberg_observable": ("t", lambda z: heisenberg_observable(
        SIGMA_Z, Evolution(1.0), z)),
    "correlation_oracle": ("t", lambda z: correlation_oracle(
        maximally_mixed(), SIGMA_Z, Evolution(1.0), 0.1, z)),
    "max_disturbance": ("times", lambda z: max_disturbance(
        maximally_mixed(), SIGMA_Z, Evolution(1.0), [0.1, z])),
    "SweepResult": ("c23", lambda z: SweepResult(
        theta=[0.0], c12=[0.5], c23=[z], c13=[-0.5])),
    "TomographyRecord": ("tomography coefficients",
                         lambda z: TomographyRecord(np.eye(4) * z)),
    "build_scattering_circuit": ("theta_k", lambda z: build_scattering_circuit(
        SIGMA_X, SIGMA_Z, z, 0.5)),
    "pseudo_pure": ("epsilon", lambda z: pseudo_pure(z, KET0)),
    "Evolution": ("omega", lambda z: Evolution(omega=z)),
    "classical_mixture": ("p1", lambda z: classical_mixture(0.5, z)),
    "T2Config": ("duration", lambda z: T2Config(3.0, 0.8, z)),
    "ReadoutNoise": ("sigma", lambda z: ReadoutNoise(sigma=z, seed=1)),
    "Schedule": ("t2", lambda z: Schedule(0.0, z, 1.0)),
    "sweep": ("theta_max", lambda z: sweep(Evolution(1.0), maximally_mixed(), 1.0,
                                           0.0, z, 3)),
}


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
@pytest.mark.parametrize("z", [np.array(0.1 + 0.3j), np.complex128(0.1 + 0.3j),
                               0.1 + 0.3j, np.array(0.5 + 0j)],
                         ids=["array", "numpy-scalar", "python", "zero-imaginary"])
def test_real_entry_points_reject_a_complex_input(entry, z):
    """A complex input is refused, naming the operand, where numpy's cast
    would keep the real part with only a ComplexWarning."""
    name, call = REAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be real, got a complex"):
        call(z)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_reconstruct_inverts_noise_free_tomography(seed):
    rho = random_density(np.random.default_rng(seed), 4)
    np.testing.assert_allclose(reconstruct(tomograph(rho, NO_NOISE)), rho,
                               rtol=0, atol=1e-12)


stack_shapes = st.sampled_from([(), (1,), (3,), (2, 3), (40,)])


def random_density_stack(seed, lead) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([random_density(rng, 4) for _ in range(math.prod(lead))]
                    ).reshape(lead + (4, 4))


@SETTINGS
@given(
    h=generators(),
    obs=direction.map(unit_observable),
    pairs=st.lists(times, min_size=1, max_size=12),
    lead=stack_shapes,
    seed=st.integers(0, 2**32 - 1),
)
def test_run_preserves_trace_and_positivity(h, obs, pairs, lead, seed):
    """Each output of a stacked circuit on a register state is again a state:
    unit trace, Hermitian, no eigenvalue below -1e-12."""
    t_k, t_m = np.array(pairs).T
    rho_in = random_density_stack(seed, lead)[..., None, :, :]
    out = run(Circuit(scattering_gates(h, obs, t_k, t_m)), rho_in)
    assert out.shape == lead + (len(pairs), 4, 4)
    np.testing.assert_allclose(np.trace(out, axis1=-2, axis2=-1), 1.0,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, np.swapaxes(out, -1, -2).conj(), rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


@SETTINGS
@given(lead=stack_shapes, seed=st.integers(0, 2**32 - 1),
       d1=st.floats(0.0, 2.0), d2=st.floats(0.0, 2.0),
       t2_probe=st.floats(0.05, 5.0), t2_system=st.floats(0.05, 5.0))
def test_t2_dephase_is_a_semigroup_on_stacks(lead, seed, d1, d2, t2_probe, t2_system):
    rho = random_density_stack(seed, lead)

    def channel(duration):
        return T2Config(t2_probe, t2_system, duration)

    twice = t2_dephase(t2_dephase(rho, channel(d1)), channel(d2))
    np.testing.assert_allclose(twice, t2_dephase(rho, channel(d1 + d2)),
                               rtol=0, atol=1e-12)


@SETTINGS
@given(lead=stack_shapes, seed=st.integers(0, 2**32 - 1),
       keep=st.sampled_from(["probe", "system"]))
def test_partial_trace_of_a_stack_equals_per_state_results(lead, seed, keep):
    rho = random_density_stack(seed, lead)
    reduced = partial_trace(rho, keep)
    assert reduced.shape == lead + (2, 2)
    for index in np.ndindex(lead):
        np.testing.assert_array_equal(reduced[index], partial_trace(rho[index], keep))


PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.0, 0.05]))
def test_tomography_matches_the_per_coefficient_loop(seed, sigma):
    """Against a loop of one trace per Pauli product: the coefficients are
    bitwise equal (the same products and sums); the reconstruction may sum
    its 16 terms in another order."""
    rho = random_density(np.random.default_rng(seed), 4)
    record = tomograph(rho, ReadoutNoise(sigma, seed))
    want = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULIS]
                     for a in PAULIS])
    if sigma > 0.0:
        for i, j in list(np.ndindex(4, 4))[1:]:
            want[i, j] += sigma * np.random.default_rng((seed, i, j)).standard_normal()
    np.testing.assert_array_equal(record.coefficients, want)
    rebuilt = sum(want[i, j] * np.kron(a, b) for (i, a) in enumerate(PAULIS)
                  for (j, b) in enumerate(PAULIS)) / 4.0
    np.testing.assert_allclose(reconstruct(record), rebuilt, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_phases", range(2, 65))
def test_gradient_dephase_prepare_gives_the_maximally_mixed_state(n_phases):
    """Bitwise equal to the ensemble averaged one phase at a time."""
    pulse = expm_hermitian(SIGMA_X / 2.0, math.pi / 2.0)
    rho = pulse @ np.outer(KET0, KET0.conj()) @ pulse.conj().T
    acc = np.zeros((2, 2), dtype=complex)
    for j in range(n_phases):
        rot = expm_hermitian(SIGMA_Z / 2.0, 2.0 * math.pi * j / n_phases)
        acc += rot @ rho @ rot.conj().T
    prepared = gradient_dephase_prepare(n_phases)
    np.testing.assert_array_equal(prepared, acc / n_phases)
    np.testing.assert_allclose(prepared, maximally_mixed(), rtol=0, atol=1e-15)


def counting(module, name, monkeypatch, calls=None) -> list:
    """Replace ``module.name`` by a wrapper that records each call, in
    ``calls`` when given."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_everywhere(name, monkeypatch) -> list:
    """``counting`` of ``name`` in each lgsim module that holds it, into one
    list."""
    calls = []
    for module in (lgsim.linalg, lgsim.states, lgsim.circuit, lgsim.leggett_garg):
        if hasattr(module, name):
            counting(module, name, monkeypatch, calls)
    return calls


def test_gradient_dephase_prepare_makes_two_exponential_calls(monkeypatch):
    calls = counting(lgsim.states, "expm_hermitian", monkeypatch)
    gradient_dephase_prepare(64)
    assert len(calls) == 2


def test_max_disturbance_takes_one_partial_trace(monkeypatch):
    """``noninvasive-check`` runs ``max_disturbance`` once per state, on the
    stack of its 5x5 grid of time pairs."""
    calls = counting(lgsim.leggett_garg, "partial_trace", monkeypatch)
    lgsim.cli._compute(lgsim.cli.parse_config(["noninvasive-check"], environ={}))
    assert [args[0].shape for args in calls] == [(5, 5, 4, 4)] * 2


def test_max_disturbance_takes_one_trace_distance(monkeypatch):
    calls = counting(lgsim.leggett_garg, "trace_distance", monkeypatch)
    lgsim.cli._compute(lgsim.cli.parse_config(["noninvasive-check"], environ={}))
    assert [args[0].shape for args in calls] == [(5, 5, 2, 2)] * 2


@SETTINGS
@given(lead=stack_shapes, seed=st.integers(0, 2**32 - 1),
       dim=st.sampled_from([2, 4]), single=st.booleans())
def test_trace_distance_of_a_stack_equals_per_state_results(lead, seed, dim, single):
    """A stack against a stack, or against one state, gives the per-pair
    floats."""
    rng = np.random.default_rng(seed)
    n = math.prod(lead)
    a = np.array([random_density(rng, dim) for _ in range(n)]).reshape(lead + (dim, dim))
    b = random_density(rng, dim) if single else np.array(
        [random_density(rng, dim) for _ in range(n)]).reshape(lead + (dim, dim))
    got = trace_distance(a, b)
    if not lead:
        assert type(got) is float
    assert np.shape(got) == lead
    for index in np.ndindex(lead):
        want = trace_distance(a[index], b if single else b[index])
        assert abs(np.asarray(got)[index] - want) <= 1e-15


def test_trace_distance_rejects_a_non_hermitian_stack_member():
    stack = np.broadcast_to(np.eye(2) / 2.0, (3, 2, 2)).astype(complex)
    stack[2, 0, 1] = 0.25
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(stack, np.eye(2) / 2.0)


def test_correlation_oracle_validates_the_observable_once(monkeypatch):
    calls = counting(lgsim.leggett_garg, "dichotomic_observable", monkeypatch)
    value = correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(1.3), 0.2, 0.9)
    assert len(calls) == 1
    assert abs(value - math.cos(2 * 1.3 * 0.7)) <= 1e-12


def test_tomography_builds_no_kronecker_products(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    rho = random_density(rng, 4)
    reconstruct(tomograph(rho, ReadoutNoise(sigma=0.05, seed=3)))


@SETTINGS
@given(h=generators(), wire=st.sampled_from(WIRES),
       phase=st.one_of(st.floats(-10.0, 10.0),
                       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
                       st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6)
                       .map(lambda v: np.reshape(v, (2, 3)))))
def test_evolve_embeds_as_the_kronecker_product_of_its_exponential(h, wire, phase):
    one_wire = expm_hermitian(h, phase)
    want = kron(one_wire, IDENTITY_2) if wire == PROBE else kron(IDENTITY_2, one_wire)
    np.testing.assert_array_equal(embed(Evolve(wire, h, phase)), want)


@SETTINGS
@given(h=generators(), angle=st.floats(-10.0, 10.0), control=st.sampled_from(WIRES))
def test_controlled_gate_from_a_nested_list_embeds_as_from_the_array(h, angle, control):
    u = expm_hermitian(h, angle)
    target = SYSTEM if control == PROBE else PROBE
    np.testing.assert_array_equal(embed(ControlledU(control, target, u.tolist())),
                                  embed(ControlledU(control, target, u)))


def test_scattering_gates_validate_each_operand_once(monkeypatch):
    names = ("dichotomic_observable", "unitary", "expm_hermitian", "_expm_terms")
    counts = {name: counting(lgsim.circuit, name, monkeypatch) for name in names}
    gates = scattering_gates(SIGMA_X, SIGMA_Z, 0.0, np.linspace(0.0, 1.0, 5))
    assert {name: len(calls) for name, calls in counts.items()} == {
        "dichotomic_observable": 1, "unitary": 1, "expm_hermitian": 0,
        "_expm_terms": 2}
    assert gates[2] is gates[4]


def test_default_sweep_validation_counts(monkeypatch):
    """Per default sweep on empty memos, whose one ``scattering_gates`` call
    builds one (3, 721) stack: one ``unitary`` (3 with a stack per
    correlator, 8 when each controlled slot had its own gate), 3
    ``is_hermitian`` (the system state, the observable and the generator,
    which the two free evolutions share; 4 when each evolution checked it,
    10 with a stack per correlator, 13 when the reference built a circuit of
    its own, 23 when ``embed`` validated the generator again), one
    ``density`` and one ``dichotomic_observable`` (2 and 5 when the built
    probe state and observable were checked again)."""
    rho = classical_mixture(0.5, 0.5)
    names = ("unitary", "is_hermitian", "density", "dichotomic_observable")
    calls = {name: counting_everywhere(name, monkeypatch) for name in names}
    sweep(Evolution(1.0), rho, 1.0, 0.0, 2 * math.pi, 721)
    assert {name: len(calls[name]) for name in names} == {
        "unitary": 1, "is_hermitian": 3, "density": 1, "dichotomic_observable": 1}


def test_a_repeated_sweep_checks_no_operand_again(monkeypatch):
    """The second of two identical sweeps finds the state, the observable,
    the generator and the controlled unitary in the memos: no
    ``is_hermitian`` and no unitarity residual, with equal columns."""
    first = sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0, 0.0,
                  2 * math.pi, 721)
    misses = [memo.cache_info().misses for memo in lgsim.linalg._MEMOS]
    hermitian = counting_everywhere("is_hermitian", monkeypatch)
    again = sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0, 0.0,
                  2 * math.pi, 721)
    assert hermitian == []
    assert [memo.cache_info().misses for memo in lgsim.linalg._MEMOS] == misses
    for name in ("theta", "c12", "c23", "c13", "k"):
        np.testing.assert_array_equal(getattr(again, name), getattr(first, name))


@settings(max_examples=200, deadline=None)
@given(amplitudes=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
           lambda v: math.hypot(*v) > 1e-3),
       excess=st.floats(0.5e-12, 1e-12), sign=st.sampled_from([-1.0, 1.0]),
       eps=epsilons)
def test_states_from_any_accepted_vector_pass_the_later_checks(amplitudes, excess,
                                                               sign, eps):
    """A vector whose norm is near the edge of ``pure_state``'s tolerance
    gives a projector, a pseudo-pure state and an observable that ``density``
    and ``dichotomic_observable`` accept."""
    re0, im0, re1, im1 = amplitudes
    psi = np.array([re0 + 1j * im0, re1 + 1j * im1])
    psi = psi / np.linalg.norm(psi) * (1.0 + sign * excess)
    try:
        pure_state(psi)
    except ValueError:
        assume(False)
    density(pure_density(psi))
    density(pseudo_pure(eps, psi))
    dichotomic_observable(observable_from_state(psi))


def test_built_gates_run_without_validation(monkeypatch):
    gates = scattering_gates(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, 0.2,
                             np.linspace(0.2, 2.0, 7))
    gates += (Evolve(PROBE, SIGMA_Y, 0.4), ControlledU(SYSTEM, PROBE, SIGMA_X))
    rho = kron(pseudo_pure(0.5, KET0), maximally_mixed())

    def refuse(*args, **kwargs):
        raise AssertionError("validation ran on built gates")

    for name in ("operator", "is_hermitian", "unitary", "expm_hermitian",
                 "_expm_terms", "dichotomic_observable"):
        for module in (lgsim.linalg, lgsim.circuit):
            monkeypatch.setattr(module, name, refuse, raising=False)
    circuit_unitary(Circuit(gates))
    assert run(Circuit(gates), rho).shape == (7, 4, 4)


def loop_run(gates, rho) -> tuple[np.ndarray, np.ndarray]:
    """The circuit unitaries and V rho V+, one circuit of the stack at a
    time, from each gate's ``embed`` and ``@``."""
    embedded = [embed(gate) for gate in gates]
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in embedded), rho.shape[:-2])
    unitaries = np.empty(lead + (4, 4), dtype=complex)
    states = np.empty(lead + (4, 4), dtype=complex)
    for index in np.ndindex(lead):
        v = np.eye(4, dtype=complex)
        for m in embedded:
            v = np.broadcast_to(m, lead + (4, 4))[index] @ v
        unitaries[index] = v
        states[index] = v @ np.broadcast_to(rho, lead + (4, 4))[index] @ v.conj().T
    return unitaries, states


def assert_matches_the_loop(gates, rho, shape):
    want_v, want_rho = loop_run(gates, rho)
    got_v, got_rho = circuit_unitary(Circuit(gates)), run(Circuit(gates), rho)
    assert got_v.shape == got_rho.shape == shape + (4, 4)
    np.testing.assert_allclose(got_v, want_v, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got_rho, want_rho, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (5, 5), (31,), (32,), (64,), (721,)])
def test_stacked_circuits_equal_the_per_circuit_loop(shape, rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2,) + shape), axis=0)
    gates = scattering_gates(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, t_k, t_m)
    assert_matches_the_loop(gates, random_density(rng, 4), shape)


def test_stacked_evolve_of_a_multiple_of_the_identity_has_a_zero_axis_term(rng):
    """A multiple of I keeps the two weight columns of every ``Evolve``: its
    axis term is the zero matrix, weighted by zero."""
    gate = Evolve(SYSTEM, 0.7 * IDENTITY_2, rng.uniform(-3.0, 3.0, 9))
    weights, fixed = gate.terms
    assert weights.shape == (9, 2) and fixed.shape == (2, 4, 4)
    np.testing.assert_array_equal(fixed[0], np.eye(4))
    np.testing.assert_array_equal(fixed[1], np.zeros((4, 4)))
    np.testing.assert_array_equal(weights[:, 1], 0.0)
    gates = (Hadamard(PROBE), gate, ControlledU(PROBE, SYSTEM, SIGMA_X), gate)
    assert_matches_the_loop(gates, random_density(rng, 4), (9,))


def test_many_stacked_evolves_fold_into_the_matrix_units(rng):
    """Five stacked (two-term) evolutions on both wires make 32 products of
    terms, folded into the 16 matrix units; twice as many gates still
    leave 16 terms."""
    def evolve(wire, shape):
        h = np.tensordot(rng.standard_normal(4),
                         np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]), 1)
        return Evolve(wire, h, rng.uniform(-3.0, 3.0, shape))

    gates = (evolve(PROBE, (4, 1)), Hadamard(SYSTEM), evolve(SYSTEM, (3,)),
             ControlledU(SYSTEM, PROBE, SIGMA_Y), evolve(PROBE, (4, 3)),
             evolve(SYSTEM, ()), evolve(SYSTEM, (3,)), evolve(PROBE, (1, 3)))
    assert len(lgsim.circuit._expand(Circuit(gates[:5]))[1]) == 8
    assert len(lgsim.circuit._expand(Circuit(gates[:7]))[1]) == 16
    assert len(lgsim.circuit._expand(Circuit(gates + gates))[1]) == 16
    assert_matches_the_loop(gates, random_density(rng, 4), (4, 3))
    assert_matches_the_loop(gates + gates, random_density(rng, 4), (4, 3))


def test_stacked_circuit_broadcasts_against_a_stack_of_states(rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2, 4, 1)), axis=0)
    gates = scattering_gates(SIGMA_X - 0.4 * SIGMA_Y, SIGMA_Z, t_k, t_m)
    rho = random_density_stack(7, (3,))
    want = loop_run(gates, rho)[1]
    got = run(Circuit(gates), rho)
    assert got.shape == (4, 3, 4, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    one_gate = (Evolve(PROBE, SIGMA_Y, 0.4),)
    rho = random_density_stack(7, (2, 3))
    np.testing.assert_allclose(run(Circuit(one_gate), rho), loop_run(one_gate, rho)[1],
                               rtol=0, atol=1e-14)
    three = scattering_gates(SIGMA_X, SIGMA_Z, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        run(Circuit(three), random_density_stack(7, (2,)))


def test_two_identical_calls_give_identical_bytes(rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2, 721)), axis=0)
    circuit = Circuit(scattering_gates(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, t_k, t_m))
    rho = random_density(rng, 4)
    assert run(circuit, rho).tobytes() == run(circuit, rho).tobytes()
    assert circuit_unitary(circuit).tobytes() == circuit_unitary(circuit).tobytes()


@SETTINGS
@given(h=generators(), angles=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
def test_expm_terms_sum_to_the_exponential(h, angles):
    weights, terms = _expm_terms(h, np.array(angles))
    assert weights.shape == (len(angles), len(terms))
    np.testing.assert_allclose(np.einsum("...b,bij->...ij", weights, terms),
                               expm_hermitian(h, np.array(angles)), rtol=0, atol=1e-14)


# SHA-256 of the five columns' bytes (theta, c12, c23, c13, k), recorded
# when the correlators came to read the probe signal off the circuit's terms;
# "eps-0.3-ket1-subrange" again when the reference came off the same traces.
SWEEP_COLUMN_SHA256 = {
    "default": "49210c714d31990ba94fb28193516dc3efcd2383676e510902dfa5f392bd2a10",
    "eps-0.3-ket1-subrange":
        "6f0e7afd9909edfee087137e401979f86a47969006e4fcc64e1c491ed1729de0",
    "mixture-97-steps":
        "f47e6d396918a6fbb52101eb16cc7058697056a4c6dac23e00c64986462325c0",
}

SWEEP_CASES = {
    "default": lambda: sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0,
                             0.0, 2 * math.pi, 721),
    "eps-0.3-ket1-subrange": lambda: sweep(Evolution(1.0), classical_mixture(0.5, 0.5),
                                           0.3, 0.7, 3.1, 721,
                                           observable_from_state(KET1)),
    "mixture-97-steps": lambda: sweep(Evolution(1.0), classical_mixture(0.2, 0.8), 1.0,
                                      0.0, 2 * math.pi, 97),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_columns_match_their_recorded_digest(case):
    results = SWEEP_CASES[case]()
    digest = hashlib.sha256()
    for name in ("theta", "c12", "c23", "c13", "k"):
        digest.update(getattr(results, name).tobytes())
    assert digest.hexdigest() == SWEEP_COLUMN_SHA256[case], (
        "digests recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on its SkylakeX "
        "and Haswell kernels; other BLAS kernels may round the last bits apart")


FAULTS_PER_SWEEP = """
import math, resource
from lgsim import Evolution, classical_mixture, sweep
rho = classical_mixture(0.5, 0.5)
for i in range(23):
    if i == 3:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(Evolution(1.0), rho, 1.0, 0.0, 2 * math.pi, 721)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_default_sweep_takes_almost_no_page_faults():
    """A sweep that allocated fresh stack-sized temporaries took 470-710
    minor faults, as the allocator handed their pages back between uses.
    The child runs with the allocator's own defaults."""
    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_SWEEP],
                          capture_output=True, env=env, timeout=120, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 100


@pytest.mark.parametrize("size", [721, 64])
def test_stacked_results_survive_later_engine_calls(size):
    """States from ``run`` and unitaries from ``circuit_unitary`` are
    their own call's arrays; later calls leave them, the inputs and the
    gates' read-only terms alone."""
    t = np.linspace(0.0, 3.0, size)
    obs = observable_from_state(KET0)
    circuit = Circuit(scattering_gates(SIGMA_X, obs, 0.5 * t, t))
    rho_in = kron(pseudo_pure(0.7, KET0), classical_mixture(0.3, 0.7))
    rho_in.flags.writeable = False
    state, v = run(circuit, rho_in), circuit_unitary(circuit)
    kept = state.copy(), v.copy()

    other = Circuit(scattering_gates(SIGMA_X + SIGMA_Z, obs, t, 2.0 * t))
    run(other, rho_in)
    circuit_unitary(other)
    for t_k, t_m in [(0.0, t), (t, 2.0 * t)]:
        correlation_circuit(classical_mixture(0.9, 0.1), obs, Evolution(1.3),
                            t_k, t_m, 0.4)
    np.testing.assert_array_equal(state, kept[0])
    np.testing.assert_array_equal(v, kept[1])
    np.testing.assert_array_equal(run(circuit, rho_in), kept[0])
    np.testing.assert_array_equal(circuit_unitary(circuit), kept[1])


@settings(max_examples=200, deadline=None)
@given(omega=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)),
       v=direction, t=st.floats(-10.0, 10.0))
def test_heisenberg_agrees_with_the_closed_form_exponential(omega, v, t):
    """The oracle's exp(-iHt), from an eigendecomposition of H, conjugates
    as the circuit's closed-form exponential does, to round-off."""
    obs, evo = unit_observable(v), Evolution(omega)
    want = (expm_hermitian(evo.hamiltonian, -t) @ obs
            @ expm_hermitian(evo.hamiltonian, t))
    np.testing.assert_allclose(heisenberg_observable(obs, evo, t), want,
                               rtol=0, atol=1e-14)


def test_oracle_runs_without_the_circuit_exponentials(monkeypatch):
    """The oracle is the independent check of the circuit: it still gives
    its values with every closed-form exponential of the package broken."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used a circuit exponential")

    for name in ("expm_hermitian", "_expm_terms"):
        for module in (lgsim.linalg, lgsim.states, lgsim.circuit,
                       lgsim.leggett_garg, lgsim.nmr, lgsim.cli):
            monkeypatch.setattr(module, name, refuse, raising=False)
    value = correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(1.3), 0.2, 0.9)
    assert abs(value - math.cos(2 * 1.3 * 0.7)) <= 1e-12
    rotated = lgsim.leggett_garg.heisenberg_observable(SIGMA_Z, Evolution(0.5), 1.0)
    np.testing.assert_allclose(rotated, math.cos(1.0) * SIGMA_Z + math.sin(1.0) * SIGMA_Y,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
def test_oracle_rejects_a_time_without_finite_phases(t):
    """1e308 is finite, but omega*t overflows at omega = 4."""
    evo = Evolution(4.0)
    message = re.escape(f"finite phases omega*t, got t = {t!r}")
    with pytest.raises(ValueError, match=message):
        lgsim.leggett_garg.heisenberg_observable(SIGMA_Z, evo, t)
    with pytest.raises(ValueError, match=message):
        correlation_oracle(maximally_mixed(), SIGMA_Z, evo, 0.1, t)
