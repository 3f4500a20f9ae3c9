"""The two-wire scattering circuit and its execution.

The register has exactly two named wires: ``probe`` (the ancilla, always the
left Kronecker factor) and ``system``.  A circuit is an ordered list of gates
drawn from three kinds: a Hadamard on one wire, a free evolution
exp(-i*phase*h) on one wire, and a controlled unitary between the wires.
Gates validate on construction and keep what they built from the checked
operands, read-only: an ``Evolve`` a copy of its generator, a ``ControlledU``
of its unitary, and every gate its ``matrix``, the 4x4 unitary it applies to
the register (a stack for an ``Evolve`` of an array of phases; an
``Evolve`` forms the exponential of ``expm_hermitian`` on construction).
Nothing later checks them again.

An ``Evolve`` gate may carry an array of phases of shape S: the circuit is
then a stack, ``embed``, ``circuit_unitary`` and ``run`` return shape
S + (4, 4) and the readouts shape S.  Every measurement of the package is a
probe readout: ``_probe_signal`` reads Re Tr[R V rho V+] of the scattering
circuit for a readout R, or a stack of them, off its operands (h, O and the
two times), building no gate and forming no state, by a 3x3 real matrix and
one real bilinear form over the pair weights of the two free evolutions.
``build_scattering_circuit`` builds the same circuit as six gates, the
reference: ``circuit_unitary`` is the plain ordered product of ``embed``,
each gate's ``matrix``, and ``run`` is V rho V+ of it, sharing with the
readout only the operand checks.  No other library function calls either.

The probe readout of the interferometer built by ``build_scattering_circuit``
returns Re Tr[rho_sys O(t_m) O(t_k)]: a Hadamard splits the probe, the two
controlled copies of the observable interleaved with free evolutions apply
the two-time operator product to one interferometer arm only, and the closing
Hadamard maps the accumulated relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (IDENTITY_2, SIGMA_Y, SIGMA_Z, _closed_form, _generator,
                     _pair_weights, _real, _register, _turns, dagger, dichotomic_observable,
                     kron, unitary)

PROBE = "probe"
SYSTEM = "system"
WIRES = (PROBE, SYSTEM)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_PROBE_Z = kron(SIGMA_Z, IDENTITY_2)
_PROBE_Y = kron(SIGMA_Y, IDENTITY_2)

# An Evolve's pair weights w_b conj(w_c) in its 2-term index (b, c) are
# sum_a u_a P_a over its real pair columns u (``linalg._pair_weights``) and
# these P_a; at zero phase u = (1, 0, 0).
_PAIR_BASIS = np.stack((_P0, _P1, -SIGMA_Y))
# The pairs of the scattering circuit's two free evolutions: a (9, 16) map from
# their pair index to the pair (b, c) of products, the first gate's index slowest.
_PAIR_BASIS_2 = np.einsum("apq,brs->abprqs", _PAIR_BASIS, _PAIR_BASIS).reshape(9, 16)
_PAIR_BASIS_2.flags.writeable = False


def _check_wire(wire: str) -> None:
    if wire not in WIRES:
        raise ValueError(f"unknown wire {wire!r}; expected one of {WIRES}")


def _on_wire(wire: str, one_wire: np.ndarray) -> np.ndarray:
    """One-wire operators (or a stack of them) tensored with I on the other wire."""
    if wire == PROBE:
        return kron(one_wire, IDENTITY_2)
    return kron(IDENTITY_2, one_wire)


_HADAMARD_ON = {wire: _on_wire(wire, HADAMARD) for wire in WIRES}
_PROBE_HADAMARD = _HADAMARD_ON[PROBE]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, which a gate keeps, made read-only."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Hadamard:
    wire: str
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_wire(self.wire)
        object.__setattr__(self, "matrix", _read_only(_HADAMARD_ON[self.wire]))


@dataclass(frozen=True, eq=False)
class Evolve:
    """Free evolution exp(-i * phase * hamiltonian) on one wire (``phase``
    may be an array: a stack of gates).  Construction checks
    ``hamiltonian`` and ``phase`` (a number too) once each, as
    ``expm_hermitian`` does, naming ``phase``, and keeps the generator as the
    read-only copy that check returns, an array phase as a read-only float
    copy, and its ``matrix``, the exponential of ``expm_hermitian`` formed
    from the checked pair by ``linalg._closed_form`` and embedded (shape
    S + (4, 4)), so later writes to the caller's arrays cannot reach the
    gate."""

    wire: str
    hamiltonian: np.ndarray
    phase: float | np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_wire(self.wire)
        generator = _generator(self.hamiltonian)
        object.__setattr__(self, "hamiltonian", generator[0])
        phase = _real(self.phase, "phase")
        if not isinstance(self.phase, (int, float)):  # an array: keep a copy
            phase = _read_only(np.array(phase))
            object.__setattr__(self, "phase", phase)
        # + 0.0 turns the -0 of kron's products 0 * x off the wire into +0
        matrix = _on_wire(self.wire, _closed_form(generator, phase)) + 0.0
        object.__setattr__(self, "matrix", _read_only(matrix))


@dataclass(frozen=True, eq=False)
class ControlledU:
    """U on ``target`` when ``control`` is |1>; ``u`` is kept as the
    read-only copy ``unitary`` returns, so later writes to the caller's
    array cannot reach the gate."""

    control: str
    target: str
    u: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "matrix", _read_only(embedded))


Gate = Hadamard | Evolve | ControlledU


@dataclass(frozen=True, eq=False)
class Circuit:
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


def embed(gate: Gate) -> np.ndarray:
    """The 4x4 unitary a gate applies to the full register (a stack of them
    for an ``Evolve`` with an array of phases): the ``matrix`` the gate
    formed on construction.

    Single-wire gates are tensored with the identity on the other wire; a
    controlled gate becomes |0><0|_c (x) I + |1><1|_c (x) U with the factor
    order fixed by probe = left.
    """
    return gate.matrix


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The ordered product embed(g_n) @ ... @ embed(g_1) of the gates (the
    first gate acts first), stacked circuits broadcasting."""
    if not circuit.gates:
        raise ValueError("cannot execute an empty circuit")
    return functools.reduce(lambda v, m: m @ v, map(embed, circuit.gates))


def run(circuit: Circuit, rho_in: np.ndarray) -> np.ndarray:
    """V rho V+ for the circuit unitary V of ``circuit_unitary``.

    The input may be a stack of states of shape S + (4, 4); it broadcasts
    against a stacked circuit.  Trace and positivity of the input carry over
    exactly, up to round-off.
    """
    rho_in = _register(rho_in, "run")
    v = circuit_unitary(circuit)
    return v @ rho_in @ dagger(v)


def _time_order(theta_k, theta_m):
    """The times as floats (``_real``), checked for 0 <= theta_k <= theta_m
    < inf in one vectorised test, whose mask broadcasts the pair; only a
    failed test broadcasts the times themselves, to name the first bad pair."""
    theta_k = _real(theta_k, "theta_k")
    theta_m = _real(theta_m, "theta_m")
    ok = (0.0 <= theta_k) & (theta_k <= theta_m) & (theta_m < math.inf)
    if not ok.all():
        low, high = np.broadcast_arrays(theta_k, theta_m)
        raise ValueError(f"need inf > theta_m >= theta_k >= 0, got "
                         f"({low[~ok][0]}, {high[~ok][0]})")
    return theta_k, theta_m


def _probe_signal(h, obs, theta_k, theta_m, rho_in: np.ndarray,
                  readout: np.ndarray = _PROBE_Z):
    """``(signal, reference)`` of ``build_scattering_circuit(h, obs,
    theta_k, theta_m)`` on one checked state, building no gate: Re
    Tr[readout V rho V+] (``expect_probe_z(run(...))`` for the default
    sigma_z (x) I) and its value at zero phases.

    V = sum_b w_b M_b over the four products M_b = H C E_m C E_k H of the
    probe Hadamard H, the controlled observable C and one fixed term, I or
    n.sigma, of each free evolution E, the early index slowest.  Each free
    evolution enters only through the real columns u of its pair weights
    (``linalg._pair_weights``), as w_b conj(w_c) = sum_a u_a P_a over
    ``_PAIR_BASIS``, so the traces T_bc = Tr[readout M_b rho M_c+] are
    summed once against ``_PAIR_BASIS_2`` into a real 3x3 G, and G against
    both columns in one bilinear ``einsum``.  The reference is G_00 = Re
    T_00 (every u = (1, 0, 0)).  Every sum is an ``einsum``, which rounds
    alike on every BLAS kernel.  A stack of R readouts (R, 4, 4) shares the
    M_b and their traces and returns R signals (R,) + S and R references,
    each bitwise what that readout alone returns; one readout of one circuit
    returns floats.
    """
    obs = dichotomic_observable(obs)
    theta_k, theta_m = _time_order(theta_k, theta_m)
    _, a0, norm, one_wire = _generator(h)
    early, late = (_pair_weights(_turns(phase, a0, norm)[0])
                   for phase in (theta_k, theta_m - theta_k))
    evolve = _on_wire(SYSTEM, one_wire)
    controlled = kron(_P0, IDENTITY_2) + kron(_P1, obs)
    fixed = (_PROBE_HADAMARD @ (controlled @ (evolve[None] @ (
        controlled @ (evolve[:, None] @ _PROBE_HADAMARD))))).reshape(4, 4, 4)
    lead = readout.shape[:-2]
    probed = (readout[..., None, :, :] @ fixed @ rho_in).reshape(lead + (4, 16))
    traces = np.einsum("...bi,ci->...bc", probed, fixed.reshape(4, 16).conj())
    # the real part copied contiguous: einsum sums a strided operand in another order
    traces = np.einsum("ax,...x->...a", _PAIR_BASIS_2,
                       traces.reshape(lead + (16,))).real.copy().reshape(lead + (3, 3))
    axes = list(range(2, traces.ndim))
    signal = np.einsum(traces, axes + [0, 1], early, [0, ...], late, [1, ...],
                       axes + [...])
    return tuple(v if v.ndim else float(v) for v in (signal, traces[..., 0, 0]))


def build_scattering_circuit(h: np.ndarray, obs: np.ndarray, theta_k, theta_m) -> Circuit:
    """Interferometer measuring the two-time correlator of ``obs``, as the
    six gates ``_probe_signal`` reads without building them.

    ``theta_k`` and ``theta_m`` are the earlier and later measurement times
    against the generator ``h``, numbers or arrays that broadcast together
    (one circuit per pair); the free evolutions are exp(-i*theta*h), so for
    H = omega*sigma_x they are plain times, not phases omega*t.  ``obs`` is
    checked once, into the one ``ControlledU`` both controlled slots hold.
    Each ``Evolve`` keeps its own phase un-broadcast, so a number theta_k
    against a stack of theta_m embeds as one 4x4 matrix.  The trailing
    uncontrolled evolution that would complete the Heisenberg conjugation
    acts after the last controlled gate and cannot affect the probe readout,
    so it is dropped.
    """
    obs = dichotomic_observable(obs)
    theta_k, theta_m = _time_order(theta_k, theta_m)
    controlled = ControlledU(PROBE, SYSTEM, obs)
    return Circuit((Hadamard(PROBE), Evolve(SYSTEM, h, theta_k), controlled,
                    Evolve(SYSTEM, h, theta_m - theta_k), controlled, Hadamard(PROBE)))


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
