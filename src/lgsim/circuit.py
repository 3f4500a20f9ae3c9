"""The two-wire scattering circuit and its execution.

The register has exactly two named wires: ``probe`` (the ancilla, always the
left Kronecker factor) and ``system``.  A circuit is an ordered list of gates
drawn from three kinds: a Hadamard on one wire, a free evolution
exp(-i*phase*h) on one wire, and a controlled unitary between the wires.
Running a circuit conjugates the input density matrix by the ordered product
of the embedded 4x4 gate unitaries.  Gates validate on construction and keep
the checked operator, read-only: an ``Evolve`` its one-wire exponential, a
``ControlledU`` a copy of its unitary.  ``embed``, ``circuit_unitary``
and ``run`` trust them and check nothing again.

An ``Evolve`` gate may carry an array of phases of shape S: the circuit is
then a stack, ``embed``, ``circuit_unitary`` and ``run`` return shape
S + (4, 4) and the readouts shape S, so N circuits cost a few products of
whole stacks (``linalg._product``).  A stack of at least
``linalg._STACK_KERNEL_MIN`` matrices executes in a workspace that lives for
one call: each ``circuit_unitary`` or ``run`` call allocates one block of
three stack-sized buffers and writes the stacked embeddings and the
products into them in turn, in place of a fresh stack-sized array per step.
What a call returns is a view of its own block, which no later call writes.
``run`` conjugates the circuit unitary in place for every stack; only the
products of smaller stacks and of single circuits take ``@`` and allocate.

The probe readout of the interferometer built by ``build_scattering_circuit``
returns Re Tr[rho_sys O(t_m) O(t_k)]: a Hadamard splits the probe, the two
controlled copies of the observable interleaved with free evolutions apply
the two-time operator product to one interferometer arm only, and the closing
Hadamard maps the accumulated relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _STACK_KERNEL_MIN,
    IDENTITY_2,
    SIGMA_Y,
    SIGMA_Z,
    _product,
    _register,
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


def _check_wire(wire: str) -> None:
    if wire not in WIRES:
        raise ValueError(f"unknown wire {wire!r}; expected one of {WIRES}")


@dataclass(frozen=True)
class Hadamard:
    wire: str

    def __post_init__(self):
        _check_wire(self.wire)


@dataclass(frozen=True)
class Evolve:
    """Free evolution exp(-i * phase * hamiltonian) on one wire (``phase``
    may be an array: a stack of gates).  ``one_wire`` is that exponential,
    made by ``expm_hermitian`` on construction, which checks ``hamiltonian``
    and ``phase`` and no unitarity; it is kept read-only."""

    wire: str
    hamiltonian: np.ndarray
    phase: float | np.ndarray
    one_wire: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_wire(self.wire)
        one_wire = expm_hermitian(self.hamiltonian, self.phase)
        one_wire.flags.writeable = False
        object.__setattr__(self, "one_wire", one_wire)


@dataclass(frozen=True)
class ControlledU:
    """U on ``target`` when ``control`` is |1>; ``u`` is kept as a read-only
    copy, checked by ``unitary``, so later writes to the caller's array
    cannot reach the gate."""

    control: str
    target: str
    u: np.ndarray

    def __post_init__(self):
        _check_wire(self.control)
        _check_wire(self.target)
        if self.control == self.target:
            raise ValueError("control and target must be distinct wires")
        u = unitary(np.array(self.u, dtype=complex))
        u.flags.writeable = False
        object.__setattr__(self, "u", u)


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
    return _embed(gate, None)


def _embed(gate: Gate, out: np.ndarray | None) -> np.ndarray:
    """``embed``, writing the stack of an ``Evolve`` with an array of phases
    into the 1-d buffer ``out`` when one is given."""
    if isinstance(gate, ControlledU):
        if gate.control == PROBE:
            return kron(_P0, IDENTITY_2) + kron(_P1, gate.u)
        return kron(IDENTITY_2, _P0) + kron(gate.u, _P1)
    if isinstance(gate, Hadamard):
        one_wire = HADAMARD
    elif isinstance(gate, Evolve):
        one_wire = gate.one_wire
    else:
        raise TypeError(f"unknown gate kind: {gate!r}")
    if one_wire.ndim == 2:
        out = None
    if gate.wire == PROBE:
        return kron(one_wire, IDENTITY_2, out=out)
    return kron(IDENTITY_2, one_wire, out=out)


def _buffers(circuit: Circuit, *states: np.ndarray) -> Iterator[np.ndarray | None]:
    """Where executing ``circuit`` on ``states`` writes its stacks, one buffer
    per ``next``: the three 1-d buffers of one block in turn, each with room
    for the circuit's stack of 4x4 matrices broadcast against the stacks of
    ``states``, so the next buffer is never one of the last two, which hold
    the operands of the next write.  None forever when that stack is smaller
    than ``_STACK_KERNEL_MIN`` and its products take ``@``."""
    lead = np.broadcast_shapes(
        *(g.one_wire.shape[:-2] for g in circuit.gates if isinstance(g, Evolve)),
        *(rho.shape[:-2] for rho in states),
    )
    size = math.prod(lead)
    if size < _STACK_KERNEL_MIN:
        return itertools.repeat(None)
    return itertools.cycle(np.empty((3, 16 * size), dtype=complex))


def _unitary(circuit: Circuit, buffers: Iterator[np.ndarray | None]) -> np.ndarray:
    """``circuit_unitary``, with each stacked embedding and product written
    into the next of ``buffers``."""
    if not circuit.gates:
        raise ValueError("cannot execute an empty circuit")
    first, *rest = circuit.gates
    v = _embed(first, next(buffers))
    for gate in rest:
        u = _embed(gate, next(buffers))
        v = _product(u, v, out=next(buffers))
    return v


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the embedded gates (first gate acts first)."""
    return _unitary(circuit, _buffers(circuit))


def run(circuit: Circuit, rho_in: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 input state by the circuit unitary.

    The input may be a stack of states of shape S + (4, 4); it broadcasts
    against a stacked circuit.  Trace and positivity of the input carry over
    exactly, up to round-off in the products.
    """
    rho_in = _register(rho_in, "run")
    buffers = _buffers(circuit, rho_in)
    v = _unitary(circuit, buffers)
    half = _product(v, rho_in, out=next(buffers))
    # v is this call's own array, read no more: conjugated, its transpose is V+
    np.conj(v, out=v)
    return _product(half, np.swapaxes(v, -1, -2), out=next(buffers))


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
