"""NMR-specific machinery: T2 dephasing and Pauli-basis state tomography.

The dephasing channel damps computational-basis coherences with per-wire
transverse relaxation times; it exists to check that decoherence over the
protocol duration is negligible against the ideal K.  The tomography half
measures the 16 two-qubit Pauli coefficients of a register state, optionally
perturbed by seeded Gaussian readout noise, and reconstructs the state from
a record; the private ``_tomography`` runs that chain on the register of a
pseudo-pure probe and I/2, the one place the package forms that register,
giving the deviation-matrix fidelity.  ``k_attenuation_check`` reads its
ideal and dephased K off one probe readout of the scattering circuit.

Randomness is never global: each noisy coefficient draws from a generator
keyed by (seed, row, column), so records are reproducible bit for bit and
concurrent experiments only need distinct seeds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import _PROBE_HADAMARD, _probe_signal
from .leggett_garg import _REFERENCE_FLOOR, SweepResult, _check_reference
from .linalg import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _number, _real, _register,
                     is_hermitian, kron, overlap_fidelity)
from .states import KET0, deviation, maximally_mixed, pseudo_pure

PAULI_LABELS = ("I", "x", "y", "z")
_PAULIS = np.stack((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z))
# _PAULI_BASIS[i, j] = sigma_i (x) sigma_j, probe Pauli first.
_PAULI_BASIS = kron(_PAULIS[:, None], _PAULIS[None, :])


@dataclass(frozen=True)
class T2Config:
    """Transverse relaxation times (seconds) and the protocol duration."""

    t2_probe: float
    t2_system: float
    duration: float

    def __post_init__(self):
        if not _number(self.t2_probe, "t2_probe") > 0.0:
            raise ValueError(f"t2_probe must be positive, got {self.t2_probe}")
        if not _number(self.t2_system, "t2_system") > 0.0:
            raise ValueError(f"t2_system must be positive, got {self.t2_system}")
        if not 0.0 <= _number(self.duration, "duration") < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")


def t2_dephase(rho: np.ndarray, cfg: T2Config) -> np.ndarray:
    """Per-qubit phase damping of a 4x4 state in the computational basis.

    Coherences between probe basis states are multiplied by
    exp(-duration/t2_probe), between system basis states by
    exp(-duration/t2_system); elements off-diagonal in both wires pick up the
    product.  Diagonal entries (populations) are untouched, so trace and
    Hermiticity are preserved exactly, and applying the channel twice with
    duration d equals applying it once with 2d.  The factor is real and
    symmetric, so the channel is its own adjoint, Tr[A D(rho)] = Tr[D(A) rho],
    and dephases a readout as a state.  A stack (..., 4, 4) is dephased state by state.
    """
    rho = _register(rho, "t2_dephase")
    f_probe = math.exp(-cfg.duration / cfg.t2_probe)
    f_system = math.exp(-cfg.duration / cfg.t2_system)
    one = np.array([[1.0, f_probe], [f_probe, 1.0]])
    two = np.array([[1.0, f_system], [f_system, 1.0]])
    return rho * kron(one, two)


def k_attenuation_check(
    cfg: T2Config, theta: float, probe_eps: float = 1.0
) -> tuple[float, float]:
    """K at one theta point of H = sigma_x and O = sigma_z (the observable of
    |0>) on I/2, with and without dephasing before readout.

    The channel acts just before the closing probe Hadamard of each correlator
    circuit, where the signal still lives in the probe coherence; after that
    Hadamard the signal sits in populations and phase damping could no longer
    touch it.  Both values are normalized to the ideal reference, so the
    noisy/ideal ratio equals the probe coherence factor exp(-duration/t2_probe).

    Both halves are read off one ``circuit._probe_signal`` call on the
    drive sigma_x, O, the times, I/2 and eps, building no gate and forming
    no state, by the readouts sigma_z (x) I and H D(sigma_x (x) I) H, whose
    readout tensor is memoized per T2Config: the closing probe Hadamard H
    (``circuit._PROBE_HADAMARD``) is its own inverse and turns sigma_z into
    sigma_x, and the channel D is its own adjoint.  Both K are
    the ``k`` column of a two-row ``SweepResult``, formed there from the
    correlators checked against the ideal reference.

    Returns ``(k_ideal, k_noisy)``.
    """
    if not 0.0 <= _number(theta, "theta") < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
    dt = theta / 2.0  # the energy gap of sigma_x is 2

    # the three correlators of the (0, dt, 2dt) schedule, theta = gap * dt
    dephased = _PROBE_HADAMARD @ t2_dephase(_PAULI_BASIS[1, 0], cfg) @ _PROBE_HADAMARD
    signals, references = _probe_signal(1.0, SIGMA_Z, (0.0, dt, 0.0),
                                        (dt, 2.0 * dt, 2.0 * dt), maximally_mixed(),
                                        probe_eps, np.stack((_PAULI_BASIS[3, 0], dephased)))
    c12, c23, c13 = (signals / _check_reference(references[0])).T
    return tuple(SweepResult((theta, theta), c12, c23, c13).k.tolist())


@dataclass(frozen=True)
class ReadoutNoise:
    """Gaussian perturbation of strength ``sigma`` per Pauli coefficient."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= _number(self.sigma, "sigma") < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class TomographyRecord:
    """The 16 coefficients c[i, j] = Tr[rho (sigma_i (x) sigma_j)].

    Rows index the probe Pauli, columns the system Pauli, both in the order
    I, x, y, z.  ``c[0, 0]`` is the trace and stays exact even when readout
    noise is injected.  The table is kept as a read-only copy, so later
    writes to the caller's array cannot reach the record.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(_real(self.coefficients, "tomography coefficients"))
        if c.shape != (4, 4):
            raise ValueError("tomography record needs a 4x4 coefficient table")
        if not np.isfinite(c).all():
            raise ValueError("tomography coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def coefficient(self, probe_label: str, system_label: str) -> float:
        i = PAULI_LABELS.index(probe_label)
        j = PAULI_LABELS.index(system_label)
        return float(self.coefficients[i, j])


def tomograph(rho: np.ndarray, noise: ReadoutNoise) -> TomographyRecord:
    """Measure all 16 Pauli coefficients of a 4x4 state.

    With ``noise.sigma > 0`` every coefficient except the trace gets an
    independent Gaussian perturbation drawn from a generator keyed by
    ``(seed, i, j)``, so identical (sigma, seed) pairs reproduce the record
    exactly.  Noise that overflows a coefficient past the float range
    raises ``NoiseOverflow``, naming ``sigma``.
    """
    rho = _register(rho, "tomograph", stack=False)
    if not is_hermitian(rho):
        raise ValueError("tomograph expects a Hermitian register state")
    c = np.trace(rho @ _PAULI_BASIS, axis1=-2, axis2=-1).real
    if noise.sigma > 0.0:
        with np.errstate(over="ignore"):  # an overflow is raised below
            for i, j in np.ndindex(4, 4):
                if (i, j) != (0, 0):
                    rng = np.random.default_rng((noise.seed, i, j))
                    c[i, j] += noise.sigma * rng.standard_normal()
        if not np.isfinite(c).all():
            raise NoiseOverflow(f"readout noise sigma = {float(noise.sigma)!r} overflows a "
                                f"tomography coefficient past the float range")
    return TomographyRecord(c)


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Invert a record: rho_hat = (1/4) sum_ij c[i,j] sigma_i (x) sigma_j.

    Hermitian by construction.  Noisy records can reconstruct to a matrix
    with small negative eigenvalues; it is returned as-is, with no positivity
    repair, exactly as a raw tomography result would be reported.
    """
    return np.einsum("ij,ijkl->kl", record.coefficients, _PAULI_BASIS) / 4.0


class DeviationVanished(ValueError):
    """The probe's eps is below the floor, where round-off spoils the
    deviation matrix."""


class NoiseOverflow(ValueError):
    """The readout noise's sigma overflows a tomography coefficient."""


def _tomography(probe_eps: float, noise: ReadoutNoise) -> tuple[TomographyRecord, float]:
    """Tomograph (pseudo-pure probe of polarization ``probe_eps``) (x) I/2
    with ``noise`` and reconstruct it: the record and the normalized
    Hilbert-Schmidt overlap of the measured with the ideal deviation matrix.
    Below the correlators' reference floor, 5e-7, round-off in the register
    spoils the deviation matrix (noise-free, the fidelity reads below 1 under
    about 1e-11 and the matrix is zero under about 1e-16), so such an eps
    raises ``DeviationVanished``."""
    rho = kron(pseudo_pure(probe_eps, KET0), maximally_mixed())
    if probe_eps < _REFERENCE_FLOOR:
        raise DeviationVanished(f"deviation matrix lost to round-off: probe polarization "
                                f"{probe_eps!r} < {_REFERENCE_FLOOR:g}; cannot compare")
    record = tomograph(rho, noise)
    return record, overlap_fidelity(deviation(reconstruct(record)), deviation(rho))


def tomography_fidelity_experiment(noise_sigma: float, seed: int) -> float:
    """Fidelity between a tomographed and the ideal input deviation matrix.

    Prepares |0><0| (x) I/2 (pure probe, maximally mixed system), tomographs
    it with the given readout noise, reconstructs, and returns the normalized
    Hilbert-Schmidt overlap between the measured and the ideal deviation
    matrices.  Noise-free runs return exactly 1.
    """
    return _tomography(1.0, ReadoutNoise(sigma=noise_sigma, seed=seed))[1]
