"""The two-wire scattering circuit and its execution.

The register has exactly two named wires: ``probe`` (the ancilla, always the
left Kronecker factor) and ``system``.  A circuit is an ordered list of gates
drawn from three kinds: a Hadamard on one wire, a free evolution
exp(-i*phase*h) on one wire, and a controlled unitary between the wires.
Running a circuit conjugates the input density matrix by the ordered product
of the embedded 4x4 gate unitaries.  Gates validate on construction and keep
what they built from the checked operands, read-only: an ``Evolve`` a copy
of its generator, a ``ControlledU`` of its unitary, every gate its embedding
as ``terms``.
``circuit_unitary`` and ``run`` trust them and check nothing again.

An ``Evolve`` gate may carry an array of phases of shape S: the circuit is
then a stack, ``embed``, ``circuit_unitary`` and ``run`` return shape
S + (4, 4) and the readouts shape S.  Each gate keeps its embedding as
``terms``, a weighted sum of fixed 4x4 matrices: every ``Evolve`` keeps two
weight columns over I and n.sigma (``linalg._expm_terms``), every other gate
one fixed matrix of weight 1.  A circuit is then the sum over products of one
term per gate, whose B <= 16 fixed matrices are multiplied once each whatever
the stack size, and whose weights are products of columns;
``circuit_unitary`` is one (S, B) x (B, 16) gemm.  ``run`` conjugates the
input by that unitary; the correlators form no state: ``_probe_signal``
reads the signal and the zero-time reference off one matrix of traces.

The probe readout of the interferometer built by ``build_scattering_circuit``
returns Re Tr[rho_sys O(t_m) O(t_k)]: a Hadamard splits the probe, the two
controlled copies of the observable interleaved with free evolutions apply
the two-time operator product to one interferometer arm only, and the closing
Hadamard maps the accumulated relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (IDENTITY_2, SIGMA_Y, SIGMA_Z, _expm_terms, _generator, _real,
                     _register, dagger, dichotomic_observable, expm_hermitian, kron,
                     unitary)

PROBE = "probe"
SYSTEM = "system"
WIRES = (PROBE, SYSTEM)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

# The weight of a Hadamard or controlled gate: its one fixed matrix as it stands.
_ONE = np.ones(1)
# The 16 matrix units of the 4x4 operator space, as fixed matrices.
_UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)


def _check_wire(wire: str) -> None:
    if wire not in WIRES:
        raise ValueError(f"unknown wire {wire!r}; expected one of {WIRES}")


def _on_wire(wire: str, one_wire: np.ndarray) -> np.ndarray:
    """One-wire operators (or a stack of them) tensored with I on the other wire."""
    if wire == PROBE:
        return kron(one_wire, IDENTITY_2)
    return kron(IDENTITY_2, one_wire)


_HADAMARD_ON = {wire: _on_wire(wire, HADAMARD[None]) for wire in WIRES}


def _keep(gate, weights: np.ndarray, fixed: np.ndarray) -> None:
    """Set the gate's ``terms``, read-only: its embedding is
    sum_b weights[..., b] fixed[b], weights of the gate's stack shape
    S + (B,) over B fixed 4x4 matrices."""
    for array in (weights, fixed):
        array.flags.writeable = False
    object.__setattr__(gate, "terms", (weights, fixed))


@dataclass(frozen=True)
class Hadamard:
    wire: str
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_wire(self.wire)
        _keep(self, _ONE, _HADAMARD_ON[self.wire])


@dataclass(frozen=True, eq=False)
class Evolve:
    """Free evolution exp(-i * phase * hamiltonian) on one wire (``phase``
    may be an array: a stack of gates).  Construction checks
    ``hamiltonian`` and ``phase`` as ``expm_hermitian`` does, keeps the
    generator as the read-only copy that check returns, and an array phase
    as a read-only float copy, so later writes to the caller's arrays cannot
    reach the gate; its ``terms`` are the two weight columns of
    ``linalg._expm_terms`` for any phase or generator: I and n.sigma."""

    wire: str
    hamiltonian: np.ndarray
    phase: float | np.ndarray
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        _check_wire(self.wire)
        h = _generator(self.hamiltonian)[0]
        object.__setattr__(self, "hamiltonian", h)
        if not isinstance(self.phase, (int, float)):  # an array: keep a copy
            object.__setattr__(self, "phase", np.array(_real(self.phase, "phase")))
            self.phase.flags.writeable = False
        weights, one_wire = _expm_terms(h, self.phase)
        _keep(self, weights, _on_wire(self.wire, one_wire))


@dataclass(frozen=True, eq=False)
class ControlledU:
    """U on ``target`` when ``control`` is |1>; ``u`` is kept as the
    read-only copy ``unitary`` returns, so later writes to the caller's
    array cannot reach the gate."""

    control: str
    target: str
    u: np.ndarray
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        _check_wire(self.control)
        _check_wire(self.target)
        if self.control == self.target:
            raise ValueError("control and target must be distinct wires")
        u = unitary(self.u)
        object.__setattr__(self, "u", u)
        if self.control == PROBE:
            embedded = kron(_P0, IDENTITY_2) + kron(_P1, u)
        else:
            embedded = kron(IDENTITY_2, _P0) + kron(u, _P1)
        _keep(self, _ONE, embedded[None])


Gate = Hadamard | Evolve | ControlledU


@dataclass(frozen=True, eq=False)
class Circuit:
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


def embed(gate: Gate) -> np.ndarray:
    """The 4x4 unitary a gate applies to the full register (a stack of them
    for an ``Evolve`` with an array of phases).

    Single-wire gates are tensored with the identity on the other wire; a
    controlled gate becomes |0><0|_c (x) I + |1><1|_c (x) U with the factor
    order fixed by probe = left.  An ``Evolve`` embeds the exponential
    ``expm_hermitian`` makes anew, not its ``terms``, so ``embed`` stays a
    reference independent of the engine; other gates give their one term.
    """
    if isinstance(gate, Evolve):
        return _on_wire(gate.wire, expm_hermitian(gate.hamiltonian, gate.phase))
    return gate.terms[1][0]


def _expand(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The circuit unitary as ``(weights, fixed)``, in the form of a gate's
    ``terms``.

    The product of two gates' sums is the sum of the products of one term
    from each: the weights multiply, their stacks broadcasting, and the fixed
    matrices multiply once each, whatever the stack size (a weight ``_ONE``
    is not multiplied through).  Past 16 terms (the dimension of the 4x4
    operator space) the weights are folded into the 16 matrix units, so no
    circuit holds more than 32 terms at a time.
    """
    if not circuit.gates:
        raise ValueError("cannot execute an empty circuit")
    first, *rest = circuit.gates
    weights, fixed = first.terms
    for gate in rest:
        w, m = gate.terms
        fixed = (m @ fixed[:, None]).reshape(-1, 4, 4)
        if weights is _ONE:
            weights = w
        elif w is not _ONE:
            weights = weights[..., :, None] * w[..., None, :]
            weights = weights.reshape(weights.shape[:-2] + (len(fixed),))
        if len(fixed) > 16:
            weights, fixed = weights @ fixed.reshape(-1, 16), _UNITS
    return weights, fixed


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the embedded gates (first gate acts first)."""
    weights, fixed = _expand(circuit)
    return (weights @ fixed.reshape(-1, 16)).reshape(weights.shape[:-1] + (4, 4))


def run(circuit: Circuit, rho_in: np.ndarray) -> np.ndarray:
    """V rho V+ for the circuit unitary V of ``circuit_unitary``.

    The input may be a stack of states of shape S + (4, 4); it broadcasts
    against a stacked circuit.  Trace and positivity of the input carry over
    exactly, up to round-off.
    """
    rho_in = _register(rho_in, "run")
    v = circuit_unitary(circuit)
    return v @ rho_in @ dagger(v)


def _probe_signal(circuit: Circuit, rho_in: np.ndarray):
    """``(signal, reference)`` for one checked state, with no state formed.
    The signal ``expect_probe_z(run(circuit, rho_in))`` is Re sum_bc w_b T_bc
    conj(w_c) for V = sum_b w_b M_b and the fixed B^2 traces
    T_bc = Tr[(sigma_z (x) I) M_b rho M_c+]; the reference is Re T_00, whose
    M_0 (each gate's term 0) is the circuit at zero phases when B <= 16.
    ``einsum`` sums the traces, so T_00 rounds alike on every BLAS kernel."""
    weights, fixed = _expand(circuit)
    probed = (_PROBE_Z @ fixed @ rho_in).reshape(-1, 16)
    traces = np.einsum("bi,ci->bc", probed, fixed.reshape(-1, 16).conj())
    value = np.einsum("...b,...b->...", weights @ traces, weights.conj()).real
    return (float(value) if value.ndim == 0 else value), float(traces[0, 0].real)


def build_scattering_circuit(
    h: np.ndarray, obs: np.ndarray, theta_k: float, theta_m: float
) -> Circuit:
    """Interferometer measuring the two-time correlator of ``obs``.

    ``theta_k`` and ``theta_m`` are the earlier and later measurement times
    against the generator ``h``, checked as given by ``scattering_gates``:
    the free evolutions are exp(-i*theta*h), so
    for H = omega*sigma_x they are plain times, not phases omega*t.  The
    controlled two-time operator product is decomposed into free evolutions
    interleaved with two controlled copies of the dichotomic observable; the
    trailing uncontrolled evolution that would complete the Heisenberg
    conjugation acts after the last controlled gate and cannot affect the
    probe readout, so it is dropped.
    """
    return Circuit(scattering_gates(h, obs, theta_k, theta_m))


def scattering_gates(h: np.ndarray, obs: np.ndarray, theta_k, theta_m):
    """The six gates of ``build_scattering_circuit`` for a stack of (theta_k, theta_m).

    ``theta_k`` and ``theta_m`` are real numbers or arrays that broadcast
    against each other; the gates then describe one circuit per pair.
    ``obs`` is validated once, into the one ``ControlledU`` both controlled
    slots hold (each ``Evolve`` checks ``h``), and the ordering
    0 <= theta_k <= theta_m < inf in one vectorised test on the broadcast
    pair.  Each ``Evolve`` keeps its own phase un-broadcast, so a number
    theta_k against a stack of theta_m embeds as one 4x4 matrix rather than
    a stack of equal ones.
    """
    obs = dichotomic_observable(obs)
    theta_k = _real(theta_k, "theta_k")
    theta_m = _real(theta_m, "theta_m")
    low, high = np.broadcast_arrays(theta_k, theta_m)
    bad = ~((0.0 <= low) & (low <= high) & (high < math.inf))
    if bad.any():
        raise ValueError(f"need inf > theta_m >= theta_k >= 0, got "
                         f"({low[bad][0]}, {high[bad][0]})")
    controlled = ControlledU(PROBE, SYSTEM, obs)
    return (
        Hadamard(PROBE),
        Evolve(SYSTEM, h, theta_k),
        controlled,
        Evolve(SYSTEM, h, theta_m - theta_k),
        controlled,
        Hadamard(PROBE),
    )


_PROBE_Z = kron(SIGMA_Z, IDENTITY_2)
_PROBE_Y = kron(SIGMA_Y, IDENTITY_2)


def _probe_readout(rho: np.ndarray, probe_pauli: np.ndarray):
    """Re Tr[rho probe_pauli] for one state (a float) or a stack (an array);
    ``probe_pauli`` is a Pauli on the probe tensored with I on the system."""
    value = np.einsum("...ij,ji->...", _register(rho, "probe readout"),
                      probe_pauli).real
    return float(value) if value.ndim == 0 else value


def expect_probe_z(rho: np.ndarray):
    """<sigma_z> of the probe wire; the real part of the scattering signal."""
    return _probe_readout(rho, _PROBE_Z)


def expect_probe_y(rho: np.ndarray):
    """<sigma_y> of the probe wire; carries the imaginary part of the signal."""
    return _probe_readout(rho, _PROBE_Y)
