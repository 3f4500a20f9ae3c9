"""The two-wire scattering circuit and its execution.

The register has exactly two named wires: ``probe`` (the ancilla, always the
left Kronecker factor) and ``system``.  A circuit is an ordered list of gates
drawn from three kinds: a Hadamard on one wire, a free evolution
exp(-i*phase*h) on one wire, and a controlled unitary between the wires.
Running a circuit conjugates the input density matrix by the ordered product
of the embedded 4x4 gate unitaries.  Gates validate on construction and keep
what they built from the checked operands, read-only: a ``ControlledU`` a
copy of its unitary, every gate its embedding as ``terms``.  ``embed``,
``circuit_unitary`` and ``run`` trust them and check nothing again.

An ``Evolve`` gate may carry an array of phases of shape S: the circuit is
then a stack, ``embed``, ``circuit_unitary`` and ``run`` return shape
S + (4, 4) and the readouts shape S.  No stack of matrices is multiplied.
Each gate keeps its embedding as ``terms``, a weighted sum of fixed 4x4
matrices: a stacked ``Evolve`` has two weight columns over I and n.sigma
(``linalg._expm_terms``), every other gate one fixed matrix of weight 1.
A circuit is then the sum over products of one term per gate, whose B <= 16
fixed matrices are multiplied once each whatever the stack size, and whose
weights are products of columns; ``circuit_unitary`` is one
(S, B) x (B, 16) gemm and ``run`` one (S, B^2) x (B^2, 16) gemm.  A single
circuit is the case B = 1 of the same code.

The probe readout of the interferometer built by ``build_scattering_circuit``
returns Re Tr[rho_sys O(t_m) O(t_k)]: a Hadamard splits the probe, the two
controlled copies of the observable interleaved with free evolutions apply
the two-time operator product to one interferometer arm only, and the closing
Hadamard maps the accumulated relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    IDENTITY_2,
    SIGMA_Y,
    SIGMA_Z,
    _expm_terms,
    _register,
    dagger,
    dichotomic_observable,
    expm_hermitian,
    kron,
    unitary,
)

PROBE = "probe"
SYSTEM = "system"
WIRES = (PROBE, SYSTEM)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

# The weight of a gate that is not stacked: its one fixed matrix as it stands.
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


@dataclass(frozen=True)
class Evolve:
    """Free evolution exp(-i * phase * hamiltonian) on one wire (``phase``
    may be an array: a stack of gates).  Construction checks
    ``hamiltonian`` and ``phase`` as ``expm_hermitian`` does; a number phase
    keeps the embedded exponential as its one term, an array the two weight
    columns of ``linalg._expm_terms`` (one when the generator is a multiple
    of I).  ``one_wire`` is the exponential that ``expm_hermitian`` returns,
    made on first read and kept read-only."""

    wire: str
    hamiltonian: np.ndarray
    phase: float | np.ndarray
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_wire(self.wire)
        if np.ndim(self.phase):
            weights, one_wire = _expm_terms(self.hamiltonian, self.phase)
        else:
            weights, one_wire = _ONE, expm_hermitian(self.hamiltonian, self.phase)[None]
        _keep(self, weights, _on_wire(self.wire, one_wire))

    @cached_property
    def one_wire(self) -> np.ndarray:
        one_wire = expm_hermitian(self.hamiltonian, self.phase)
        one_wire.flags.writeable = False
        return one_wire


@dataclass(frozen=True)
class ControlledU:
    """U on ``target`` when ``control`` is |1>; ``u`` is kept as a read-only
    copy, checked by ``unitary``, so later writes to the caller's array
    cannot reach the gate."""

    control: str
    target: str
    u: np.ndarray
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_wire(self.control)
        _check_wire(self.target)
        if self.control == self.target:
            raise ValueError("control and target must be distinct wires")
        u = unitary(np.array(self.u, dtype=complex))
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if self.control == PROBE:
            embedded = kron(_P0, IDENTITY_2) + kron(_P1, u)
        else:
            embedded = kron(IDENTITY_2, _P0) + kron(u, _P1)
        _keep(self, _ONE, embedded[None])


Gate = Hadamard | Evolve | ControlledU


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


def embed(gate: Gate) -> np.ndarray:
    """The 4x4 unitary a gate applies to the full register (a stack of them
    for an ``Evolve`` with an array of phases).

    Single-wire gates are tensored with the identity on the other wire; a
    controlled gate becomes |0><0|_c (x) I + |1><1|_c (x) U with the factor
    order fixed by probe = left.  The gates' operators were checked when the
    gates were built, so nothing is validated here.
    """
    if isinstance(gate, Evolve):
        return _on_wire(gate.wire, gate.one_wire)
    return gate.terms[1][0]


def _expand(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The circuit unitary as ``(weights, fixed)``, in the form of a gate's
    ``terms``.

    The product of two gates' sums is the sum over all pairs of terms: the
    weights multiply, their stacks broadcasting, and the fixed matrices
    multiply once each, whatever the stack size.  Past 16 terms (the
    dimension of the 4x4 operator space) the weights are folded into the 16
    matrix units, so no circuit holds more than 32 terms at a time.
    """
    if not circuit.gates:
        raise ValueError("cannot execute an empty circuit")
    first, *rest = circuit.gates
    weights, fixed = first.terms
    for gate in rest:
        gate_weights, gate_fixed = gate.terms
        weights = weights[..., :, None] * gate_weights[..., None, :]
        fixed = (gate_fixed @ fixed[:, None]).reshape(-1, 4, 4)
        weights = weights.reshape(weights.shape[:-2] + (len(fixed),))
        if len(fixed) > 16:
            weights, fixed = _weigh(weights, fixed.reshape(-1, 16)), _UNITS
    return weights, fixed


def _weigh(weights: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """sum_b weights[..., b] fixed[..., b, :] for flattened 4x4 matrices
    ``fixed``, leading axes broadcast; one gemm over the whole stack when
    ``fixed`` is one set of matrices."""
    if fixed.ndim == 2:
        flat = weights.reshape(-1, weights.shape[-1]) @ fixed
        return flat.reshape(weights.shape[:-1] + (16,))
    return np.matmul(weights[..., None, :], fixed)[..., 0, :]


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the embedded gates (first gate acts first)."""
    weights, fixed = _expand(circuit)
    return _weigh(weights, fixed.reshape(-1, 16)).reshape(weights.shape[:-1] + (4, 4))


def run(circuit: Circuit, rho_in: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 input state by the circuit unitary.

    The input may be a stack of states of shape S + (4, 4); it broadcasts
    against a stacked circuit.  With V = sum_b w_b M_b, the output
    V rho V+ = sum_bc w_b conj(w_c) M_b rho M_c+ weighs the B^2 fixed
    matrices M_b rho M_c+ (a stack of them for a stack of states).  Trace
    and positivity of the input carry over exactly, up to round-off.
    """
    rho_in = _register(rho_in, "run")
    weights, fixed = _expand(circuit)
    pairs = weights[..., :, None] * weights.conj()[..., None, :]
    conjugated = (fixed @ rho_in[..., None, :, :])[..., :, None, :, :] @ dagger(fixed)
    count = len(fixed) ** 2
    out = _weigh(pairs.reshape(pairs.shape[:-2] + (count,)),
                 conjugated.reshape(conjugated.shape[:-4] + (count, 16)))
    return out.reshape(out.shape[:-1] + (4, 4))


def build_scattering_circuit(
    h: np.ndarray, obs: np.ndarray, theta_k: float, theta_m: float
) -> Circuit:
    """Interferometer measuring the two-time correlator of ``obs``.

    ``theta_k`` and ``theta_m`` are the earlier and later measurement times
    against the generator ``h``: the free evolutions are exp(-i*theta*h), so
    for H = omega*sigma_x they are plain times, not phases omega*t.  The
    controlled two-time operator product is decomposed into free evolutions
    interleaved with two controlled copies of the dichotomic observable; the
    trailing uncontrolled evolution that would complete the Heisenberg
    conjugation acts after the last controlled gate and cannot affect the
    probe readout, so it is dropped.
    """
    return Circuit(scattering_gates(h, obs, float(theta_k), float(theta_m)))


def scattering_gates(h: np.ndarray, obs: np.ndarray, theta_k, theta_m):
    """The six gates of ``build_scattering_circuit`` for a stack of time pairs.

    ``theta_k`` and ``theta_m`` are numbers or arrays that broadcast against
    each other; the gates then describe one circuit per pair.  ``obs`` is
    validated once, into the one ``ControlledU`` both controlled slots hold
    (each ``Evolve`` checks ``h``), and the ordering
    0 <= theta_k <= theta_m < inf in one vectorised test on the broadcast
    pair.  Each ``Evolve`` keeps its own phase un-broadcast, so a number
    (such as the theta_k = 0 of a sweep's C12 and C13) embeds as one 4x4
    matrix rather than a stack of equal ones.
    """
    obs = dichotomic_observable(obs)
    theta_k = np.asarray(theta_k, dtype=float)
    theta_m = np.asarray(theta_m, dtype=float)
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
