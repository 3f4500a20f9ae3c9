"""The batched scattering engine: stacked circuits against a per-circuit loop
of number-time builds, stacks against scalar runs, sweeps against per-point
calls, drives of any omega against the oracle, and how many circuits each
entry point runs; properties of K, of the raw probe signal and of ``run`` over random inputs;
the one register-state validator and the stack operations of ``nmr``,
``states`` and the CLI built on it."""

import decimal
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
from conftest import random_density, scattering_reference
from lgsim.circuit import (
    _PROBE_HADAMARD,
    HADAMARD,
    _probe_signal,
    build_scattering_circuit,
    expect_probe_z,
    run,
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
    _real,
    density,
    dichotomic_observable,
    expm_hermitian,
    kron,
    partial_trace,
    trace_distance,
)
from lgsim.nmr import (ReadoutNoise, T2Config, TomographyRecord, k_attenuation_check,
                       reconstruct, t2_dephase, tomograph, tomography_fidelity_experiment)
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


@SETTINGS
@given(h=st.one_of(generators(), st.floats(-2.0, 2.0).map(lambda a0: a0 * IDENTITY_2)),
       obs=st.one_of(direction.map(unit_observable),
                     st.sampled_from([IDENTITY_2, -IDENTITY_2])),
       shapes=st.sampled_from([((), ()), ((7,), (7,)), ((), (4,)), ((3, 1), (3, 4))]),
       seed=st.integers(0, 2**32 - 1))
def test_circuit_unitary_equals_ordered_matmul(h, obs, shapes, seed):
    """V against ``scattering_reference``, the six gates multiplied in order
    from numpy primitives alone, which shares no code with the library: the
    Hadamards, the controlled O and the probe (x) system order, for any a0,
    axis or |a| = 0, any dichotomic O and number, stacked or broadcast times."""
    rng = np.random.default_rng(seed)
    t_k, t_m = rng.uniform(0.0, 1.5, shapes[0]), rng.uniform(1.5, 3.0, shapes[1])
    got = build_scattering_circuit(h, obs, t_k, t_m)
    want = scattering_reference(h, obs, t_k, t_m)
    assert got.shape == want.shape == np.broadcast_shapes(*shapes) + (4, 4)
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
    stacked = run(build_scattering_circuit(h, obs, t_k, t_m), rho_in)
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
    stacked phase becomes one stack of real pair columns, read without a
    complex exponential (2 ``expm_hermitian`` calls of shape (3, 721) when the
    readout took the complex weights), and the reference builds nothing of
    its own."""
    names = ("expm_hermitian", "_pair_weights")
    calls = {name: counting_everywhere(name, monkeypatch) for name in names}
    sweep(Evolution(1.0), classical_mixture(0.5, 0.5), 1.0, 0.0, 2 * math.pi, 721)
    assert calls["expm_hermitian"] == []
    assert [np.shape(turn) for turn, in calls["_pair_weights"]] == [(3, 721)] * 2


def test_scattering_gates_keep_each_phase_unbroadcast():
    """A number theta_k against a stack of theta_m gives the stack, each
    entry the number-time V of its pair."""
    t_m = np.linspace(0.0, 1.0, 5)
    v = build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, t_m)
    assert v.shape == (5, 4, 4)
    for got, time in zip(v, t_m):
        np.testing.assert_allclose(got, build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, time),
                                   rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match=r"theta_k >= 0, got \(0.5, 0.0\)"):
        build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.5, t_m)


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


def test_noise_check_reads_both_halves_off_the_traces(engine_calls):
    """The ideal and the dephased signals and the reference in one
    ``_probe_signal`` call on the six gates, by a stack of two readouts (two
    calls when the dephased half read the first five gates on its own); no
    output state is formed."""
    k_attenuation_check(T2Config(3.0, 0.8, 0.01), math.pi / 3)
    assert len(engine_calls["_probe_signal"]) == 1
    assert len(engine_calls["run"]) == 0


# The drives of the readout: omega sigma_x at omega = 0, 1 or drawn.
drives = st.one_of(st.just(0.0), st.just(1.0), omegas)
pair_stacks = st.one_of(times, st.lists(times, min_size=1, max_size=6)
                        .map(lambda p: tuple(np.array(p).T)),
                        st.lists(times, min_size=6, max_size=6)
                        .map(lambda p: tuple(np.array(p).T.reshape(2, 2, 3))))


def reference_readouts(omega, obs, pairs, rho_sys, eps, readouts):
    """Re Tr[R V rho_in V+] for each readout R of the (R, 4, 4) ``readouts``
    on the states ``run`` forms from the reference V of the drive omega
    sigma_x on pseudo-pure probe (x) ``rho_sys``, readout first."""
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    out = run(build_scattering_circuit(omega * SIGMA_X, obs, *pairs), rho_in)
    return np.einsum("rij,...ji->r...", readouts, out).real


@SETTINGS
@given(omega=drives, obs=direction.map(unit_observable), rho_sys=qubit_states(),
       eps=epsilons,
       pairs=st.one_of(times, st.lists(times, min_size=1, max_size=6)
                       .map(lambda p: tuple(np.array(p).T))))
@example(omega=0.0, obs=SIGMA_X, rho_sys=classical_mixture(0.2, 0.8), eps=1.0,
         pairs=(np.array([0.0, 0.4]), np.array([0.5, 2.0])))
def test_reference_equals_the_six_gate_zero_time_circuit(omega, obs, rho_sys, eps, pairs):
    """The reference read off the readout of any time pair or stack is
    bitwise the probe signal of the circuit at zero times, and within 1e-15
    of <sigma_z> of the probe after the six gates at zero times."""
    zero_time, _ = _probe_signal(omega, obs, 0.0, 0.0, rho_sys, eps)
    _, reference = _probe_signal(omega, obs, *pairs, rho_sys, eps)
    assert reference == zero_time
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    want = expect_probe_z(run(build_scattering_circuit(omega * SIGMA_X, obs, 0.0, 0.0),
                              rho_in))
    assert abs(reference - want) <= 1e-15


@SETTINGS
@given(omega=drives, obs=direction.map(unit_observable), rho_sys=qubit_states(),
       eps=epsilons, pairs=pair_stacks)
def test_probe_readout_equals_the_trace_of_the_output_states(omega, obs, rho_sys, eps,
                                                             pairs):
    """The correlators' readout is <sigma_z> of the probe in the states
    ``run`` forms, for number and stacked time pairs."""
    rho_in = kron(pseudo_pure(eps, KET0), rho_sys)
    want = expect_probe_z(run(build_scattering_circuit(omega * SIGMA_X, obs, *pairs), rho_in))
    got, _ = _probe_signal(omega, obs, *pairs, rho_sys, eps)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@SETTINGS
@given(omega=drives, obs=direction.map(unit_observable), rho_sys=qubit_states(),
       eps=epsilons, pairs=pair_stacks, seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([None, 1, 3]))
def test_readout_equals_the_reference_circuit_on_pseudo_pure_registers(
        omega, obs, rho_sys, eps, pairs, seed, count):
    """Every readout, one (4, 4) or a stack of ``count`` random Pauli
    products, is Re Tr[R V rho_in V+] of the reference circuit's output
    states on kron(pseudo_pure(eps, |0>), rho), for the drive omega sigma_x at
    omega = 0, 1 or drawn, on number and broadcast time pairs."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 4, (2, count or 1))
    readouts = kron(PAULIS[picks[0]], PAULIS[picks[1]])
    want = reference_readouts(omega, obs, pairs, rho_sys, eps, readouts)
    got, _ = _probe_signal(omega, obs, *pairs, rho_sys, eps,
                           readouts if count else readouts[0])
    if count is None:
        want = want[0] if np.ndim(got) else float(want[0])
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@SETTINGS
@given(omega=drives, obs=direction.map(unit_observable), rho_sys=qubit_states(),
       eps=epsilons, pairs=pair_stacks, stacked=st.booleans())
def test_cold_and_warm_memos_give_the_same_bits(omega, obs, rho_sys, eps, pairs, stacked):
    """A readout on empty memos and the same readout again, its tensor now
    memoized, agree bitwise; the memoized tensor is read-only."""
    readout = lgsim.linalg._PAULI_BASIS[0, 1:] if stacked else lgsim.circuit._PROBE_Z
    for memo in lgsim.linalg._MEMOS:
        memo.cache_clear()
    cold = _probe_signal(omega, obs, *pairs, rho_sys, eps, readout)
    assert lgsim.circuit._readout_tensor.cache_info().misses == 1
    warm = _probe_signal(omega, obs, *pairs, rho_sys, eps, readout)
    assert lgsim.circuit._readout_tensor.cache_info().hits == 1
    for a, b in zip(cold, warm):
        assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    tensor = lgsim.circuit._readout_tensor(dichotomic_observable(obs).tobytes(),
                                           readout.tobytes(), readout.shape)
    assert tensor.shape == readout.shape[:-2] + (3, 3, 8) and not tensor.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tensor[..., 0, 0, 0] = 0.0


@pytest.mark.parametrize("call", [
    lambda evo: correlation_circuit(maximally_mixed(), SIGMA_Z, evo, 0.0, 1e10),
    lambda evo: correlation_circuit(maximally_mixed(), SIGMA_Z, evo,
                                    np.array([0.0, 1e10]), np.array([1.0, 1.5e10])),
    lambda evo: max_disturbance(maximally_mixed(), SIGMA_Z, evo, [0.0, 1e10]),
    lambda evo: k_value(maximally_mixed(), SIGMA_Z, evo, Schedule(1e10, 2e10, 3e10)),
], ids=["late", "early-in-a-stack", "disturbance", "k_value"])
def test_an_overflowing_phase_names_its_time(call):
    """A phase omega*t past the float range is refused naming omega*t and
    the first time whose phase overflows (it once named ``expm_hermitian``'s
    angles, which the caller never called), as the oracle names its time."""
    with pytest.raises(ValueError, match=r"^the circuit needs finite phases omega\*t, "
                                         r"got t = 10000000000\.0$"):
        call(Evolution(1e300))


@SETTINGS
@given(t2_probe=st.floats(0.05, 5.0), t2_system=st.floats(0.05, 5.0),
       duration=st.floats(0.0, 2.0), theta=st.floats(0.0, 2 * math.pi), eps=epsilons)
def test_dephased_readout_equals_the_dephased_state(t2_probe, t2_system, duration,
                                                    theta, eps):
    """The dephased signals read off the scattering circuit's traces by H
    D(sigma_x (x) I) H, for the probe Hadamard H, equal <sigma_z> of the
    probe after the closing Hadamard on the dephased states ``run`` forms
    from H V, the circuit before that Hadamard (H is its own inverse, and the
    channel D its own adjoint), and
    ``k_attenuation_check``'s noisy K is theirs."""
    cfg = T2Config(t2_probe, t2_system, duration)
    rho_in = kron(pseudo_pure(eps, KET0), maximally_mixed())
    dt = theta / 2.0
    times = (0.0, dt, 0.0), (dt, 2 * dt, 2 * dt)
    before_hadamard = _PROBE_HADAMARD @ build_scattering_circuit(SIGMA_X, SIGMA_Z, *times)
    dephased = t2_dephase(run(before_hadamard, rho_in), cfg)
    want = expect_probe_z(run(_PROBE_HADAMARD, dephased))
    hadamard = kron(HADAMARD, IDENTITY_2)
    got, _ = _probe_signal(1.0, SIGMA_Z, *times, maximally_mixed(), eps,
                           hadamard @ t2_dephase(kron(SIGMA_X, IDENTITY_2), cfg) @ hadamard)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    c12, c23, c13 = want / _probe_signal(1.0, SIGMA_Z, *times, maximally_mixed(), eps)[1]
    # the readouts' round-off, about 1e-15, is divided by the reference eps
    assert abs(k_attenuation_check(cfg, theta, eps)[1] - (c12 + c23 - c13)) <= 1e-14 / eps


@settings(max_examples=100, deadline=None)
@given(t2_probe=st.floats(0.05, 5.0), t2_system=st.floats(0.05, 5.0),
       duration=st.floats(0.0, 2.0), theta=st.floats(0.0, 2 * math.pi), eps=epsilons)
def test_the_ideal_row_of_the_noise_check_is_k_value(t2_probe, t2_system, duration,
                                                     theta, eps):
    """The sigma_z (x) I row of ``k_attenuation_check``'s stack of two
    readouts is bitwise K of that readout alone, as ``k_value`` reads it."""
    k_ideal, _ = k_attenuation_check(T2Config(t2_probe, t2_system, duration), theta, eps)
    want = k_value(maximally_mixed(), SIGMA_Z, Evolution(1.0),
                   Schedule(0.0, theta / 2.0, theta), eps).k
    assert k_ideal == want


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
    "run": lambda rho: run(_PROBE_HADAMARD, rho),
    "probe readout": expect_probe_z,
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
    # the scattering circuit, named on the later time
    "scattering_gates": ("theta_m", lambda z: build_scattering_circuit(
        SIGMA_X, SIGMA_Z, 0.0, z)),
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
                         lambda z: TomographyRecord(np.diag([1.0, z, z, z]))),
    "build_scattering_circuit": ("theta_k", lambda z: build_scattering_circuit(
        SIGMA_X, SIGMA_Z, z, 0.5)),
    "pseudo_pure": ("epsilon", lambda z: pseudo_pure(z, KET0)),
    "Evolution": ("omega", lambda z: Evolution(omega=z)),
    "classical_mixture": ("p1", lambda z: classical_mixture(0.5, z)),
    "T2Config": ("duration", lambda z: T2Config(3.0, 0.8, z)),
    "k_attenuation_check": ("theta", lambda z: k_attenuation_check(
        T2Config(3.0, 0.8, 0.01), z)),
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


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
@pytest.mark.parametrize("z", ["0.5", np.str_("0.5"), np.array("0.5"), b"0.5"],
                         ids=["python", "numpy-scalar", "array", "bytes"])
def test_real_entry_points_reject_a_text_input(entry, z):
    """Text is refused, naming the operand, where numpy's cast would parse
    it as a number; a door mixing it with floats gets a text array."""
    name, call = REAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be real, got a [<|]?[US]"):
        call(z)


# The doors that hand ``z`` on alone: numpy reads ``[0.1, True]`` as floats,
# and ``np.diag`` a diagonal of 1.0 and True too.  The oracle checks each of
# its two times on its own (it once packed them as ``(True, 0.1)``).
SCALAR_DOORS = sorted(set(REAL_ENTRY_POINTS) - {"max_disturbance", "TomographyRecord"})


@pytest.mark.parametrize("entry", SCALAR_DOORS)
@pytest.mark.parametrize("z", [True, np.bool_(False), np.array(True)],
                         ids=["python", "numpy-scalar", "array"])
def test_scalar_doors_reject_a_bool(entry, z):
    name, call = REAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be real, got a bool input"):
        call(z)


# The doors documented as taking a number, each also on its other operand
# where it has one: a one-element array of 0.5 passes every range check there.
NUMBER_DOORS = {
    **{name: REAL_ENTRY_POINTS[name] for name in (
        "Evolution", "Schedule", "T2Config", "ReadoutNoise", "classical_mixture",
        "pseudo_pure", "k_attenuation_check", "sweep")},
    "classical_mixture p0": ("p0", lambda z: classical_mixture(z, 0.5)),
    "sweep theta_min": ("theta_min", lambda z: sweep(Evolution(1.0), maximally_mixed(),
                                                     1.0, z, 1.0, 3)),
}


@pytest.mark.parametrize("entry", sorted(NUMBER_DOORS))
@pytest.mark.parametrize("z", [np.array([0.5]), np.array([[0.5]])], ids=["1", "1x1"])
def test_number_doors_reject_an_array(entry, z):
    """A one-element array is refused, naming the operand, where ``sweep``
    read array bounds as one point of an unequal schedule, ``classical_mixture``
    returned a (1,) array and the dataclasses kept the array."""
    name, call = NUMBER_DOORS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got an array of "
                                         rf"shape {re.escape(str(z.shape))}"):
        call(z)


@pytest.mark.parametrize("z", [True, np.bool_(False), np.array(True)],
                         ids=["python", "numpy-scalar", "array"])
def test_evolve_and_the_oracle_name_a_bool_time_alone(z):
    """A bool earlier time is refused naming the oracle's ``t`` (it was read
    as 1.0)."""
    with pytest.raises(ValueError, match="^t must be real, got a bool input"):
        correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(1.0), z, 0.5)


def test_every_correlator_door_names_a_two_qubit_state():
    """A 4x4 system state is refused naming it, by the oracle as by the
    circuit (the oracle once failed inside a numpy ``matmul``)."""
    rho, evo = np.eye(4) / 4.0, Evolution(1.0)
    calls = (lambda: correlation_oracle(rho, SIGMA_Z, evo, 0.1, 0.2),
             lambda: correlation_circuit(rho, SIGMA_Z, evo, 0.1, 0.2),
             lambda: k_value(rho, SIGMA_Z, evo, Schedule(0.0, 0.1, 0.2)),
             lambda: max_disturbance(rho, SIGMA_Z, evo, [0.0, 0.5]))
    for call in calls:
        with pytest.raises(ValueError, match="^system state must be a single qubit$"):
            call()


# The public names of ``lgsim``: adding or removing one is an API change.
PUBLIC_NAMES = [
    "Evolution", "IDENTITY_2", "KET0", "KET1", "LGResult", "PAULI_LABELS",
    "ReadoutNoise", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "Schedule", "SweepResult",
    "T2Config", "TomographyRecord", "analytic_k", "build_scattering_circuit",
    "classical_mixture", "correlation_circuit", "correlation_oracle", "dagger", "density",
    "deviation", "dichotomic_observable", "expect_probe_z",
    "expm_hermitian", "find_violations", "gradient_dephase_prepare",
    "heisenberg_observable", "k_attenuation_check", "k_value", "kron", "max_disturbance",
    "maximally_mixed", "observable_from_state", "operator", "overlap_fidelity",
    "partial_trace", "pseudo_pure", "pure_density", "pure_state", "reconstruct", "run",
    "sweep", "t2_dephase", "tomograph", "tomography_fidelity_experiment",
    "trace_distance",
]


def test_the_public_names_are_pinned():
    """The package's public names, its submodules aside."""
    names = sorted(name for name, value in vars(lgsim).items()
                   if not name.startswith("_") and not isinstance(value, type(lgsim)))
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("z", [1.5, 3, np.array(1.5), np.int64(3), np.float32(1.5)])
def test_real_gives_a_numpy_float_for_a_number(z):
    assert type(_real(z, "x")) is np.float64
    assert _real(z, "x") == z


@pytest.mark.parametrize("z", [[0.1, 2], np.arange(3), np.ones((2, 0))])
def test_real_gives_a_float_array_for_an_array(z):
    got = _real(z, "x")
    assert type(got) is np.ndarray and got.dtype == float
    np.testing.assert_array_equal(got, z)


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
    out = run(build_scattering_circuit(h, obs, t_k, t_m), rho_in)
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


def holders(name, modules) -> list:
    """The modules of ``modules`` that hold ``name``, at least one: a deleted
    name fails here rather than leave a patch that checks nothing."""
    found = [module for module in modules if hasattr(module, name)]
    assert found, f"no module holds {name!r}"
    return found


def counting_everywhere(name, monkeypatch) -> list:
    """``counting`` of ``name`` in each lgsim module that holds it, into one
    list."""
    calls = []
    for module in holders(name, (lgsim.linalg, lgsim.states, lgsim.circuit,
                                 lgsim.leggett_garg, lgsim.nmr)):
        counting(module, name, monkeypatch, calls)
    return calls


def test_gradient_dephase_prepare_makes_two_exponential_calls(monkeypatch):
    calls = counting(lgsim.states, "expm_hermitian", monkeypatch)
    gradient_dephase_prepare(64)
    assert len(calls) == 2


def test_max_disturbance_makes_one_probe_readout(monkeypatch):
    """``noninvasive-check`` runs ``max_disturbance`` once per state (I/2,
    |0><0| and the ``--populations`` mixture): one ``_probe_signal`` call
    with the three Bloch readouts I (x) sigma_j on the stack of its 5x5 grid
    of time pairs."""
    readouts = counting(lgsim.leggett_garg, "_probe_signal", monkeypatch)
    lgsim.cli._compute(lgsim.cli.parse_config(["noninvasive-check"], environ={}))
    assert [(np.shape(t_m), readout.shape)
            for *_, t_m, _, _, readout in readouts] == [((5, 5), (3, 4, 4))] * 3


def test_max_disturbance_forms_no_output_state(monkeypatch):
    """``max_disturbance`` reads the register's Bloch vectors off the probe
    readout: ``noninvasive-check`` calls no ``run``, ``partial_trace`` or
    ``trace_distance``."""
    def refuse(*args, **kwargs):
        raise AssertionError("max_disturbance formed an output state")

    for name in ("run", "partial_trace", "trace_distance"):
        for module in holders(name, (lgsim, lgsim.linalg, lgsim.circuit, lgsim.leggett_garg)):
            monkeypatch.setattr(module, name, refuse)
    lgsim.cli._compute(lgsim.cli.parse_config(["noninvasive-check"], environ={}))


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
@given(h=generators(),
       phase=st.one_of(st.floats(0.0, 10.0),
                       st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
                       st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6)
                       .map(lambda v: np.reshape(v, (2, 3)))))
def test_evolve_embeds_as_the_kronecker_product_of_its_exponential(h, phase):
    """With O = I the controlled gates are I and V = H E H, the free
    evolution I (x) exp(-i phase h) on the system, to round-off."""
    want = kron(IDENTITY_2, expm_hermitian(h, phase))
    np.testing.assert_allclose(build_scattering_circuit(h, IDENTITY_2, 0.0, phase), want,
                               rtol=0, atol=1e-15)


@SETTINGS
@given(h=generators(), obs=direction.map(unit_observable), pair=times)
def test_controlled_gate_from_a_nested_list_embeds_as_from_the_array(h, obs, pair):
    np.testing.assert_array_equal(build_scattering_circuit(h.tolist(), obs.tolist(), *pair),
                                  build_scattering_circuit(h, obs, *pair))


def test_scattering_gates_validate_each_operand_once(monkeypatch):
    """``build_scattering_circuit`` checks the observable once and no
    unitary (a checked dichotomic observable is unitary); each free evolution
    is one ``expm_hermitian`` call, which checks the generator and its phase
    once."""
    names = ("dichotomic_observable", "expm_hermitian", "_generator", "_real",
             "_pair_weights")
    counts = {name: counting_everywhere(name, monkeypatch) for name in names}
    build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, np.linspace(0.0, 1.0, 5))
    assert {name: len(calls) for name, calls in counts.items()} == {
        "dichotomic_observable": 1, "expm_hermitian": 2, "_generator": 2, "_real": 4,
        "_pair_weights": 0}


def test_default_sweep_validation_counts(monkeypatch):
    """Per default sweep on empty memos, whose one probe readout reads one
    (3, 721) stack off omega, the observable, the times and the system
    state: 2 ``is_hermitian`` (the system state and the observable; 3 when
    the readout took a generator and checked it, 10 with a stack per
    correlator, 13 when the reference built a circuit of its own, 23 when
    ``embed`` validated the generator again), one ``density`` and one
    ``dichotomic_observable`` (2 and 5 when the built probe state and
    observable were checked again).  No controlled gate is checked for
    unitarity (1 when the readout read a ``ControlledU``, 3 with a stack
    per correlator, 8 when each controlled slot had its own gate)."""
    rho = classical_mixture(0.5, 0.5)
    names = ("is_hermitian", "density", "dichotomic_observable")
    calls = {name: counting_everywhere(name, monkeypatch) for name in names}
    sweep(Evolution(1.0), rho, 1.0, 0.0, 2 * math.pi, 721)
    assert {name: len(calls[name]) for name in names} == {
        "is_hermitian": 2, "density": 1, "dichotomic_observable": 1}


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
    """A built V runs on a register state with every validation refused."""
    v = build_scattering_circuit(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, 0.2,
                                 np.linspace(0.2, 2.0, 7))
    rho = kron(pseudo_pure(0.5, KET0), maximally_mixed())

    def refuse(*args, **kwargs):
        raise AssertionError("validation ran on a built circuit")

    for name in ("operator", "is_hermitian", "expm_hermitian", "dichotomic_observable"):
        for module in holders(name, (lgsim.linalg, lgsim.circuit)):
            monkeypatch.setattr(module, name, refuse)
    assert run(v, rho).shape == (7, 4, 4)


def loop_run(h, obs, t_k, t_m, rho) -> tuple[np.ndarray, np.ndarray]:
    """The circuit unitaries and V rho V+, one circuit of the broadcast stack
    at a time, each V from a build on its number times."""
    lead = np.broadcast_shapes(np.shape(t_k), np.shape(t_m), rho.shape[:-2])
    unitaries = np.empty(lead + (4, 4), dtype=complex)
    states = np.empty(lead + (4, 4), dtype=complex)
    for index in np.ndindex(lead):
        v = build_scattering_circuit(h, obs, np.broadcast_to(t_k, lead)[index],
                                     np.broadcast_to(t_m, lead)[index])
        unitaries[index] = v
        states[index] = v @ np.broadcast_to(rho, lead + (4, 4))[index] @ v.conj().T
    return unitaries, states


def assert_matches_the_loop(h, obs, t_k, t_m, rho, shape):
    want_v, want_rho = loop_run(h, obs, t_k, t_m, rho)
    got_v = build_scattering_circuit(h, obs, t_k, t_m)
    got_rho = run(got_v, rho)
    assert got_v.shape == got_rho.shape == shape + (4, 4)
    np.testing.assert_allclose(got_v, want_v, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got_rho, want_rho, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (5, 5), (31,), (32,), (64,), (721,)])
def test_stacked_circuits_equal_the_per_circuit_loop(shape, rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2,) + shape), axis=0)
    assert_matches_the_loop(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, t_k, t_m,
                            random_density(rng, 4), shape)


def test_stacked_evolve_of_a_multiple_of_the_identity_has_a_zero_axis_term(rng):
    """For a multiple of I the axis term of the exponential is the zero
    matrix: each free evolution is its phase times I, and with C C = I the
    circuit is the phase of theta_m times I."""
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2, 9)), axis=0)
    h = 0.7 * IDENTITY_2
    np.testing.assert_allclose(build_scattering_circuit(h, SIGMA_X, t_k, t_m),
                               np.exp(-0.7j * t_m)[:, None, None] * np.eye(4),
                               rtol=0, atol=1e-15)
    assert_matches_the_loop(h, SIGMA_X, t_k, t_m, random_density(rng, 4), (9,))


def test_many_stacked_evolves_equal_the_per_circuit_loop(rng):
    """Stacks of times of several shapes broadcasting together, a number
    time against a stack too."""
    h = np.tensordot(rng.standard_normal(4), np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]), 1)
    obs = unit_observable(rng.standard_normal(3))
    t_k = rng.uniform(0.0, 1.5, (4, 1))
    assert_matches_the_loop(h, obs, t_k, rng.uniform(1.5, 3.0, (1, 3)),
                            random_density(rng, 4), (4, 3))
    assert_matches_the_loop(h, obs, 0.7, rng.uniform(1.5, 3.0, (4, 3)),
                            random_density(rng, 4), (4, 3))


PAULIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       shapes=st.sampled_from([((), ()), ((), (3,)), ((2, 1), (1, 3)), ((4, 3), (4, 3))]),
       count=st.integers(1, 5))
def test_a_stack_of_readouts_equals_each_readout_alone(seed, shapes, count):
    """``_probe_signal`` on a stack of readouts builds one tensor for the
    stack; each readout's ``(signal, reference)`` is bitwise what a call with
    that readout alone returns, for random scattering circuits of the drive
    omega sigma_x (omega = 0, 1 or drawn) with number or stacked times."""
    rng = np.random.default_rng(seed)
    operands = ((0.0, 1.0, rng.uniform(0.25, 4.0))[rng.integers(3)],
                unit_observable(rng.standard_normal(3)),
                rng.uniform(0.0, 1.5, shapes[0]), rng.uniform(1.5, 3.0, shapes[1]),
                random_density(rng, 2), rng.uniform(0.05, 1.0))
    readouts = kron(PAULIS[rng.integers(0, 4, count)], PAULIS[rng.integers(0, 4, count)])
    signals, references = _probe_signal(*operands, readouts)
    assert references.shape == (count,)
    for readout, signal, reference in zip(readouts, signals, references):
        alone, alone_reference = _probe_signal(*operands, readout)
        assert np.asarray(alone).tobytes() == signal.tobytes()
        assert alone_reference == reference


def test_no_library_path_reaches_the_circuit_unitary(monkeypatch, tmp_path):
    """Every measurement is a probe readout of the circuit's operands: with
    ``build_scattering_circuit`` and ``run`` broken everywhere, the
    correlators, K, the sweep, the disturbance, the T2 and tomography checks
    and the five commands still run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a library path formed the circuit unitary")

    for name in ("run", "build_scattering_circuit"):
        for module in holders(name, (lgsim, lgsim.circuit, lgsim.leggett_garg, lgsim.nmr,
                                     lgsim.cli)):
            monkeypatch.setattr(module, name, refuse)
    rho, evo = classical_mixture(0.3, 0.7), Evolution(1.3)
    sweep(evo, rho, 0.5, 0.0, math.pi, 9)
    k_value(rho, SIGMA_Z, evo, Schedule(0.0, 0.4, 0.8), 0.5)
    correlation_circuit(rho, SIGMA_X, evo, 0.2, np.linspace(0.2, 1.0, 3))
    max_disturbance(rho, SIGMA_Z, evo, [0.0, 0.5, 1.0])
    k_attenuation_check(T2Config(3.0, 0.8, 0.01), 1.0, 0.5)
    tomography_fidelity_experiment(0.01, 3)
    for command in lgsim.cli.COMMANDS:
        out = tmp_path / f"{command}.csv"
        assert lgsim.cli.main([command, "--steps", "5", "--output", str(out)]) == 0
        assert out.read_text()


def test_no_measurement_builds_a_gate(monkeypatch, tmp_path):
    """The probe readout takes the circuit's operands: with the exponential
    of every free-evolution gate refused in ``lgsim.circuit``, the
    correlators, K, the sweep, the disturbance, the T2 and tomography checks
    and the five commands still run, and only the reference V fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("a measurement built a gate")

    monkeypatch.setattr(lgsim.circuit, "expm_hermitian", refuse)
    rho, evo = classical_mixture(0.3, 0.7), Evolution(1.3)
    correlation_circuit(rho, SIGMA_X, evo, 0.2, np.linspace(0.2, 1.0, 3))
    k_value(rho, SIGMA_Z, evo, Schedule(0.0, 0.4, 0.8), 0.5)
    sweep(evo, rho, 0.5, 0.0, math.pi, 9)
    max_disturbance(rho, SIGMA_Z, evo, [0.0, 0.5, 1.0])
    k_attenuation_check(T2Config(3.0, 0.8, 0.01), 1.0, 0.5)
    tomography_fidelity_experiment(0.01, 3)
    for command in lgsim.cli.COMMANDS:
        out = tmp_path / f"{command}.csv"
        assert lgsim.cli.main([command, "--steps", "5", "--output", str(out)]) == 0
        assert out.read_text()
    with pytest.raises(AssertionError, match="built a gate"):
        build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.0, 1.0)


def test_stacked_circuit_broadcasts_against_a_stack_of_states(rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2, 4, 1)), axis=0)
    h = SIGMA_X - 0.4 * SIGMA_Y
    rho = random_density_stack(7, (3,))
    want = loop_run(h, SIGMA_Z, t_k, t_m, rho)[1]
    got = run(build_scattering_circuit(h, SIGMA_Z, t_k, t_m), rho)
    assert got.shape == (4, 3, 4, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    rho = random_density_stack(7, (2, 3))
    np.testing.assert_allclose(run(build_scattering_circuit(SIGMA_Y, SIGMA_X, 0.4, 1.0), rho),
                               loop_run(SIGMA_Y, SIGMA_X, 0.4, 1.0, rho)[1],
                               rtol=0, atol=1e-14)
    three = build_scattering_circuit(SIGMA_X, SIGMA_Z, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        run(three, random_density_stack(7, (2,)))


def test_two_identical_calls_give_identical_bytes(rng):
    t_k, t_m = np.sort(rng.uniform(0.0, 3.0, (2, 721)), axis=0)
    circuit = build_scattering_circuit(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, t_k, t_m)
    rho = random_density(rng, 4)
    assert run(circuit, rho).tobytes() == run(circuit, rho).tobytes()
    again = build_scattering_circuit(SIGMA_X + 0.3 * SIGMA_Z, SIGMA_Z, t_k, t_m)
    assert circuit.tobytes() == again.tobytes()


# SHA-256 of the five columns' bytes (theta, c12, c23, c13, k), recorded
# when the correlators came to read the probe signal off real pair weights;
# eps-0.3-ket1-subrange again when the readout came to weigh the register's
# coefficients (1, eps) (x) (Tr rho, r) against one tensor per observable.
SWEEP_COLUMN_SHA256 = {
    "default": "7674fceef4292722211868e37480f1c8a4966b60b188c70fce44805f9fe84840",
    "eps-0.3-ket1-subrange":
        "d1c45eecaef8adbb69d12dc3fe6d1717376ac05c8e6b9600f62307974ae52bfb",
    "mixture-97-steps":
        "93d423daee03f7cd1c79ce5a52f538b30590c5726d8b95c1036224ce2cb9c376",
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


def decimal_cos(x: decimal.Decimal) -> decimal.Decimal:
    """cos ``x`` to 50 digits, by the Taylor series recipe of the ``decimal``
    documentation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(x)
        i, last, total, fact, num, sign = 0, 0, 1, 1, 1, 1
        while total != last:
            last = total
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            total += num / fact * sign
        return total


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_columns_are_accurate_to_1e_15(case):
    """Each digest case is +-sigma_z on a diagonal state under H = sigma_x,
    so each correlator is cos(2 (t_m - t_k)) at the float times (0, dt, 2dt)
    of its row; every column is within 1e-15 of that, evaluated to 50 digits
    (the errors measured were 1.9e-16 to 4.4e-16)."""
    results = SWEEP_CASES[case]()
    dt = results.theta / 2.0
    times = (0.0 * dt, dt, 2.0 * dt)
    for name, (k, m) in (("c12", (0, 1)), ("c23", (1, 2)), ("c13", (0, 2))):
        for got, t_k, t_m in zip(getattr(results, name).tolist(), times[k].tolist(),
                                 times[m].tolist()):
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                gap = 2 * (decimal.Decimal(t_m) - decimal.Decimal(t_k))
                error = abs(decimal.Decimal(got) - decimal_cos(gap))
            assert error <= decimal.Decimal(1e-15), (name, t_k, t_m, float(error))


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
    """States from ``run`` and unitaries from ``build_scattering_circuit``
    are their own call's arrays; later calls leave them and the inputs
    alone."""
    t = np.linspace(0.0, 3.0, size)
    obs = observable_from_state(KET0)
    v = build_scattering_circuit(SIGMA_X, obs, 0.5 * t, t)
    rho_in = kron(pseudo_pure(0.7, KET0), classical_mixture(0.3, 0.7))
    rho_in.flags.writeable = False
    state = run(v, rho_in)
    kept = state.copy(), v.copy()

    run(build_scattering_circuit(SIGMA_X + SIGMA_Z, obs, t, 2.0 * t), rho_in)
    for t_k, t_m in [(0.0, t), (t, 2.0 * t)]:
        correlation_circuit(classical_mixture(0.9, 0.1), obs, Evolution(1.3),
                            t_k, t_m, 0.4)
    np.testing.assert_array_equal(state, kept[0])
    np.testing.assert_array_equal(v, kept[1])
    np.testing.assert_array_equal(run(v, rho_in), kept[0])
    np.testing.assert_array_equal(build_scattering_circuit(SIGMA_X, obs, 0.5 * t, t), kept[1])


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

    for module in holders("expm_hermitian", (lgsim.linalg, lgsim.states, lgsim.circuit,
                                             lgsim.leggett_garg, lgsim.nmr, lgsim.cli)):
        monkeypatch.setattr(module, "expm_hermitian", refuse)
    value = correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(1.3), 0.2, 0.9)
    assert abs(value - math.cos(2 * 1.3 * 0.7)) <= 1e-12
    rotated = lgsim.leggett_garg.heisenberg_observable(SIGMA_Z, Evolution(0.5), 1.0)
    np.testing.assert_allclose(rotated, math.cos(1.0) * SIGMA_Z + math.sin(1.0) * SIGMA_Y,
                               rtol=0, atol=1e-15)


def test_reference_evolutions_are_the_closed_form_exponential(monkeypatch):
    """Each free evolution of the reference circuit is ``expm_hermitian``'s
    closed-form exponential: refused in ``circuit``, the reference cannot be
    built, while every measurement, which reads the circuit's operands,
    still runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the circuit's exponential was refused")

    monkeypatch.setattr(lgsim.circuit, "expm_hermitian", refuse)
    with pytest.raises(AssertionError, match="refused"):
        build_scattering_circuit(SIGMA_X, SIGMA_Z, 0.1, 0.4)
    rho, evo = classical_mixture(0.5, 0.5), Evolution(1.0)
    sweep(evo, rho, 1.0, 0.0, math.pi, 5)
    k_value(rho, SIGMA_Z, evo, Schedule(0.0, 0.3, 0.6))
    correlation_circuit(rho, SIGMA_Z, evo, 0.1, 0.4)
    max_disturbance(rho, SIGMA_Z, evo, [0.0, 0.5])
    k_attenuation_check(T2Config(3.0, 0.8, 0.01), math.pi / 3)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
def test_oracle_rejects_a_time_without_finite_phases(t):
    """1e308 is finite, but omega*t overflows at omega = 4."""
    evo = Evolution(4.0)
    message = re.escape(f"finite phases omega*t, got t = {t!r}")
    with pytest.raises(ValueError, match=message):
        lgsim.leggett_garg.heisenberg_observable(SIGMA_Z, evo, t)
    with pytest.raises(ValueError, match=message):
        correlation_oracle(maximally_mixed(), SIGMA_Z, evo, 0.1, t)


@settings(max_examples=200, deadline=None)
@given(rho_sys=qubit_states(), obs=direction.map(unit_observable),
       omega=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)),
       t_k=st.floats(-10.0, 10.0), t_m=st.floats(-10.0, 10.0))
def test_oracle_is_the_trace_of_the_heisenberg_product(rho_sys, obs, omega, t_k, t_m):
    """Read in H's eigenbasis, the oracle is Re Tr[rho O(t_m) O(t_k)] of the
    two Heisenberg observables, to round-off, at any times and drive."""
    evo = Evolution(omega)
    later = heisenberg_observable(obs, evo, t_m)
    earlier = heisenberg_observable(obs, evo, t_k)
    want = np.trace(rho_sys @ later @ earlier).real
    got = correlation_oracle(rho_sys, obs, evo, t_k, t_m)
    assert type(got) is float
    assert abs(got - want) <= 1e-14


@SETTINGS
@given(rho_sys=qubit_states(), obs=direction.map(unit_observable), omega=omegas,
       t_k=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       t_m=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
def test_a_stacked_oracle_is_one_call_per_pair(rho_sys, obs, omega, t_k, t_m):
    """Times that broadcast give the broadcast shape, each entry the number
    call on its pair."""
    evo = Evolution(omega)
    stacked = correlation_oracle(rho_sys, obs, evo, np.reshape(t_k, (3, 1)), t_m)
    assert stacked.shape == (3, 2)
    for (i, j), got in np.ndenumerate(stacked):
        assert abs(got - correlation_oracle(rho_sys, obs, evo, t_k[i], t_m[j])) <= 1e-15
    assert correlation_oracle(rho_sys, obs, evo, t_k[0], [t_m[0]]).shape == (1,)


def test_the_oracle_takes_one_eigh_per_drive(monkeypatch):
    """H's eigenbasis is memoized per omega: two oracle calls, one of them on
    a stack, and one Heisenberg observable on the same drive take one
    ``eigh``, and another drive one more."""
    calls = counting(np.linalg, "eigh", monkeypatch)
    correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(1.3), 0.2, 0.9)
    correlation_oracle(classical_mixture(0.9, 0.1), SIGMA_X, Evolution(1.3),
                       [0.1, 0.2], 0.9)
    heisenberg_observable(SIGMA_Y, Evolution(1.3), 0.5)
    assert len(calls) == 1
    correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(0.7), 0.2, 0.9)
    assert len(calls) == 2


@pytest.mark.parametrize("t_k, t_m, named", [
    ([0.1, math.inf], [math.nan, 0.2], math.nan),
    ([0.1, math.inf], [0.3, 0.2], math.inf),
    (-math.inf, [0.3, 1e308], 1e308),
])
def test_a_stacked_oracle_names_a_bad_later_time_first(t_k, t_m, named):
    """In a stack too, the first time whose phases are not finite is named,
    every later time before any earlier one."""
    with pytest.raises(ValueError, match=re.escape(f"got t = {named!r}")):
        correlation_oracle(maximally_mixed(), SIGMA_Z, Evolution(4.0), t_k, t_m)
