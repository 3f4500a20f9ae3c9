"""The two-wire scattering circuit: its unitary, its execution and its readout.

The register has exactly two wires, the probe (the ancilla, always the left
Kronecker factor) and the system.  The one circuit of the package is the
scattering interferometer: a probe Hadamard H, the free evolution E_k to the
earlier time, a controlled copy C of the dichotomic observable O, the free
evolution E_m to the later time, C again and a closing H.

Every measurement of the package is ``_probe_signal``, Re Tr[R V rho_in V+]
of that circuit under the drive omega*sigma_x on pseudo-pure probe (x) rho,
for a readout R or a stack of them: one memoized real tensor per (O, R)
against the register's coefficients and the two evolutions' pair weights.
``build_scattering_circuit`` forms V for any generator, the reference, and
``run`` is V rho V+; no library function calls either.

The probe readout of the interferometer returns Re Tr[rho O(t_m) O(t_k)]:
the Hadamard splits the probe, the two controlled copies of the observable
interleaved with free evolutions apply the two-time operator product to one
interferometer arm only, and the closing Hadamard maps the accumulated
relative phase onto <sigma_z> of the probe.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import (_MEMO_SIZE, _MEMOS, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                     _pair_weights, _qubit_state, _real, _register, dagger,
                     dichotomic_observable, expm_hermitian, kron)
from .states import _polarization

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_PROBE_HADAMARD = kron(HADAMARD, IDENTITY_2)
_PROBE_HADAMARD.flags.writeable = False

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_PROBE_Z = kron(SIGMA_Z, IDENTITY_2)
_PAULIS = np.stack((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z))

# A free evolution exp(-i phase sigma_x) = cos(phase) I - i sin(phase) sigma_x
# on the system: its fixed terms, and its pair weights w_b conj(w_c) in the
# term index (b, c), sum_a u_a P_a over its real pair columns u
# (``linalg._pair_weights``) and these P_a; at zero phase u = (1, 0, 0).
_EVOLVE = kron(IDENTITY_2, np.stack((IDENTITY_2, SIGMA_X)))
_EVOLVE_HADAMARD = _EVOLVE @ _PROBE_HADAMARD
_PAIR_BASIS = np.stack((_P0, _P1, -SIGMA_Y))
# The pairs of the scattering circuit's two free evolutions: a (9, 16) map from
# their pair index to the pair (c, b) of products, the early evolution's index slowest.
_PAIR_BASIS_2 = np.einsum("apq,brs->abqspr", _PAIR_BASIS, _PAIR_BASIS).reshape(9, 16)
# The register terms (sigma_p (x) sigma_j) / 4, p = 0, z and j = 0, x, y, z,
# transposed and flattened: Tr[A S] = A.ravel() . S.T.ravel().  The pseudo-pure
# probe (x) rho is their sum weighed by (1, eps) (x) (Tr rho, r).
_REGISTER_TERMS = kron(_PAULIS[[0, 3], None], _PAULIS[None]).swapaxes(-1, -2) / 4.0
_REGISTER_TERMS = _REGISTER_TERMS.reshape(8, 16)
_CONTROL_0 = kron(_P0, IDENTITY_2)


def _controlled(obs: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) O: ``obs`` on the system when the probe is |1>."""
    return _CONTROL_0 + kron(_P1, obs)


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


def _drive_phase(omega: float, t):
    """omega * t for the checked times ``t`` of a free evolution; names the
    first time whose phase is not finite."""
    with np.errstate(over="ignore"):  # past the float range
        phase = omega * t
    finite = np.isfinite(phase)
    if not finite.all():
        raise ValueError(f"the circuit needs finite phases omega*t, got t = "
                         f"{float(np.broadcast_to(t, np.shape(phase))[~finite][0])!r}")
    return phase


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _readout_tensor(obs: bytes, readout: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """The read-only real G, S + (3, 3, 8) for readouts S + (4, 4), per
    register term S_s, of the bytes of a checked O and of the readouts: V =
    sum_b w_b M_b over the products M_b = H C E_m C E_k H of one fixed term,
    I or sigma_x, per evolution, and G sums Tr[readout M_b S_s M_c+] against
    ``_PAIR_BASIS_2``; the readout is Re sum_ac G_ac u_a v_c."""
    controlled = _controlled(np.frombuffer(obs, dtype=complex).reshape(2, 2))
    readout = np.frombuffer(readout, dtype=complex).reshape(shape)
    fixed = (_PROBE_HADAMARD @ (controlled @ (
        _EVOLVE[None] @ (controlled @ _EVOLVE_HADAMARD)[:, None]))).reshape(4, 4, 4)
    lead = shape[:-2]
    # M_c+ readout M_b, flattened to (c, b) and its entries
    probed = dagger(fixed)[:, None] @ (readout[..., None, :, :] @ fixed)[..., None, :, :, :]
    traces = np.einsum("...xq,sq->...xs", probed.reshape(lead + (16, 16)), _REGISTER_TERMS)
    tensor = np.einsum("ax,...xs->...as", _PAIR_BASIS_2, traces).real.copy()
    tensor = tensor.reshape(lead + (3, 3, 8))
    tensor.flags.writeable = False
    return tensor


_MEMOS.append(_readout_tensor)


def _probe_signal(omega: float, obs, theta_k, theta_m, rho_sys, probe_eps: float,
                  readout: np.ndarray = _PROBE_Z):
    """``(signal, reference)``: Re Tr[readout V rho_in V+] of the circuit of
    the drive omega*sigma_x on pseudo-pure probe (``probe_eps``) (x)
    ``rho_sys`` (``expect_probe_z(run(...))`` for sigma_z (x) I), and its
    value at zero times, G_00.  G is ``_readout_tensor`` against the
    register's coefficients (1, eps) (x) (Tr rho, r), r the Bloch vector,
    and the signal G against both pair columns in one ``einsum``.  R stacked
    readouts give R signals (R,) + S, each bitwise that readout's alone."""
    rho_sys = _qubit_state(rho_sys)
    probe_eps = _polarization(probe_eps)
    obs = dichotomic_observable(obs)
    theta_k, theta_m = _time_order(theta_k, theta_m)
    early, late = (_pair_weights(_drive_phase(omega, t)) for t in (theta_k, theta_m - theta_k))
    readout = np.ascontiguousarray(readout, dtype=complex)
    tensor = _readout_tensor(obs.tobytes(), readout.tobytes(), readout.shape)
    bloch = np.einsum("jik,ki->j", _PAULIS, rho_sys).real
    register = np.multiply.outer((1.0, probe_eps), bloch).ravel()
    traces = np.einsum("...s,s->...", tensor, register)
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


def expect_probe_z(rho: np.ndarray):
    """<sigma_z> of the probe wire, Re Tr[rho (sigma_z (x) I)], for one
    register state (a float) or a stack (an array); the scattering signal."""
    value = np.einsum("...ij,ji->...", _register(rho, "probe readout"), _PROBE_Z).real
    return float(value) if value.ndim == 0 else value
