"""Constructors for the states used in the experiment.

Covers pure states and their projectors, classical diagonal mixtures, the
maximally mixed state (both directly and through a simulated gradient-crusher
preparation), the pseudo-pure probe states that model low spin polarization,
and the traceless deviation matrices that tomography actually reports.
Constructors check their arguments and return what they build unchecked;
``pure_state`` normalizes, so states built from any vector it accepts are valid.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (IDENTITY_2, SIGMA_X, SIGMA_Z, TRACE_TOL, _real, dagger,
                     expm_hermitian, operator)
from .linalg import density  # noqa: F401  (still importable from here)


def pure_state(amplitudes) -> np.ndarray:
    """Validate a single-qubit state vector (two amplitudes, unit norm to
    1e-12); return it normalized."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError(f"pure state needs exactly 2 amplitudes, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("state amplitudes must be finite")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TRACE_TOL:
        raise ValueError(f"state vector must be normalized, got norm {norm:.12g}")
    return psi / norm


KET0 = pure_state([1.0, 0.0])
KET1 = pure_state([0.0, 1.0])


def pure_density(psi) -> np.ndarray:
    """Projector |psi><psi| of a normalized single-qubit state."""
    psi = pure_state(psi)
    return np.outer(psi, psi.conj())


def maximally_mixed() -> np.ndarray:
    """The single-qubit infinite-temperature state I/2."""
    return IDENTITY_2 / 2.0


def classical_mixture(p0: float, p1: float) -> np.ndarray:
    """Diagonal mixture p0 |0><0| + p1 |1><1|."""
    if not (_real(p0, "p0") >= 0.0 and _real(p1, "p1") >= 0.0):
        raise ValueError(f"populations must be non-negative, got ({p0}, {p1})")
    if abs(p0 + p1 - 1.0) > TRACE_TOL:
        raise ValueError(f"populations must sum to 1, got {p0 + p1!r}")
    return np.diag([p0, p1]).astype(complex)


def pseudo_pure(epsilon: float, psi) -> np.ndarray:
    """Pseudo-pure state (1 - eps) I/2 + eps |psi><psi|.

    ``epsilon`` models the net polarization of the probe ensemble and must
    lie in (0, 1]: at 0 the probe carries no signal and every downstream
    normalization would divide by zero.
    """
    if not 0.0 < _real(epsilon, "epsilon") <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return (1.0 - epsilon) * IDENTITY_2 / 2.0 + epsilon * pure_density(psi)


def deviation(rho) -> np.ndarray:
    """Traceless part rho - I/dim of a unit-trace state.

    This is the quantity an NMR tomography experiment reports; the identity
    background is unobservable.
    """
    rho = operator(rho)
    dim = rho.shape[0]
    return rho - np.eye(dim, dtype=complex) / dim


def gradient_dephase_prepare(n_phases: int) -> np.ndarray:
    """Prepare I/2 from |0><0| the way a gradient crusher does.

    A pi/2 rotation about x takes the Bloch vector of |0> to the equator;
    the field gradient is modeled as an equal-weight ensemble of ``n_phases``
    z-rotations at angles 2*pi*j/n_phases.  For any n_phases >= 2 the uniform
    average of exp(+-i*phi) over that grid vanishes exactly, so the returned
    ensemble state is I/2 to machine precision.  Skipping the averaging (a
    single phase) would leave a pure equator state instead.
    """
    if not 2 <= n_phases < math.inf or int(n_phases) != n_phases:
        raise ValueError(f"n_phases must be an integer >= 2, got {n_phases}")
    pulse = expm_hermitian(SIGMA_X / 2.0, math.pi / 2.0)
    rho = pulse @ np.outer(KET0, KET0.conj()) @ pulse.conj().T
    rot = expm_hermitian(SIGMA_Z / 2.0, 2.0 * math.pi * np.arange(n_phases) / n_phases)
    return (rot @ rho @ dagger(rot)).sum(axis=0) / n_phases
