"""The two-wire scattering circuit: its unitary, its execution and its readout.

The register has exactly two wires: ``probe`` (the ancilla, always the left
Kronecker factor) and ``system``.  The one circuit of the package is the
scattering interferometer: a probe Hadamard H, the free evolution E_k to the
earlier time, a controlled copy C of the dichotomic observable O, the free
evolution E_m to the later time, C again and a closing H.

Every measurement of the package is a probe readout: ``_probe_signal`` reads
Re Tr[R V rho V+] of that circuit for a readout R, or a stack of them, off its
operands (h, O and the two times), forming neither V nor a state, by a 3x3
real matrix and one real bilinear form over the pair weights of the two free
evolutions.  ``build_scattering_circuit`` forms V itself, the reference, and
``run`` is V rho V+; they share with the readout only the operand checks, and
no other library function calls either.  Number times give one (4, 4) V and
arrays of times a stack S + (4, 4), whose readouts have shape S.

The probe readout of the interferometer returns Re Tr[rho_sys O(t_m) O(t_k)]:
the Hadamard splits the probe, the two controlled copies of the observable
interleaved with free evolutions apply the two-time operator product to one
interferometer arm only, and the closing Hadamard maps the accumulated
relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (IDENTITY_2, SIGMA_Y, SIGMA_Z, _generator, _pair_weights, _real,
                     _register, _turns, dagger, dichotomic_observable, expm_hermitian, kron)

PROBE = "probe"
SYSTEM = "system"

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_PROBE_HADAMARD = kron(HADAMARD, IDENTITY_2)
_PROBE_HADAMARD.flags.writeable = False

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_PROBE_Z = kron(SIGMA_Z, IDENTITY_2)
_PROBE_Y = kron(SIGMA_Y, IDENTITY_2)

# A free evolution's pair weights w_b conj(w_c) in its 2-term index (b, c) are
# sum_a u_a P_a over its real pair columns u (``linalg._pair_weights``) and
# these P_a; at zero phase u = (1, 0, 0).
_PAIR_BASIS = np.stack((_P0, _P1, -SIGMA_Y))
# The pairs of the scattering circuit's two free evolutions: a (9, 16) map from
# their pair index to the pair (b, c) of products, the early evolution's index slowest.
_PAIR_BASIS_2 = np.einsum("apq,brs->abprqs", _PAIR_BASIS, _PAIR_BASIS).reshape(9, 16)
_PAIR_BASIS_2.flags.writeable = False


def _controlled(obs: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) O: ``obs`` on the system when the probe is |1>."""
    return kron(_P0, IDENTITY_2) + kron(_P1, obs)


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
    theta_k, theta_m)`` on one checked state, forming neither V nor a state:
    Re Tr[readout V rho V+] (``expect_probe_z(run(...))`` for the default
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
    evolve = kron(IDENTITY_2, one_wire)
    controlled = _controlled(obs)
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


def build_scattering_circuit(h: np.ndarray, obs: np.ndarray, theta_k, theta_m) -> np.ndarray:
    """The unitary V = H C E_m C E_k H of the interferometer measuring the
    two-time correlator of ``obs``, which ``_probe_signal`` reads without
    forming it: (4, 4), or S + (4, 4) for times of broadcast shape S.

    ``theta_k`` and ``theta_m`` are the earlier and later measurement times
    against the generator ``h``, numbers or arrays that broadcast together
    (one circuit per pair); the free evolutions are E_k = exp(-i*theta_k*h)
    and E_m = exp(-i*(theta_m - theta_k)*h) on the system, so for
    H = omega*sigma_x they are plain times, not phases omega*t.  In V, H is
    the probe Hadamard and C the controlled ``obs``, checked once.  The trailing
    uncontrolled evolution that would complete the Heisenberg conjugation
    acts after the last controlled gate and cannot affect the probe readout,
    so it is dropped.
    """
    obs = dichotomic_observable(obs)
    theta_k, theta_m = _time_order(theta_k, theta_m)
    controlled = _controlled(obs)
    # + 0.0 turns the -0 of kron's products 0 * x off the system into +0
    early, late = (kron(IDENTITY_2, expm_hermitian(h, phase)) + 0.0
                   for phase in (theta_k, theta_m - theta_k))
    return _PROBE_HADAMARD @ (controlled @ (late @ (controlled @ (
        early @ _PROBE_HADAMARD))))


def run(v: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """V rho V+ for the register unitary ``v`` (4, 4), or a stack S + (4, 4)
    such as ``build_scattering_circuit`` returns.

    The input may be a stack of states of shape S + (4, 4); it broadcasts
    against a stacked ``v``.  Trace and positivity of the input carry over
    exactly, up to round-off.
    """
    rho_in = _register(rho_in, "run")
    return v @ rho_in @ dagger(v)


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
