"""NMR-specific machinery: T2 dephasing and Pauli-basis state tomography.

The dephasing channel damps computational-basis coherences with per-wire
transverse relaxation times; it exists to check that decoherence over the
protocol duration is negligible against the ideal K.  The tomography half
measures the 16 two-qubit Pauli coefficients of a register state, optionally
perturbed by seeded Gaussian readout noise, and reconstructs the state from
a record, which is how the fidelity between a measured and an ideal input
deviation matrix is obtained.

Randomness is never global: each noisy coefficient draws from a generator
keyed by (seed, row, column), so records are reproducible bit for bit and
concurrent experiments only need distinct seeds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, expect_probe_z, run, scattering_gates
from .leggett_garg import Evolution, observable_from_state, reference_signal
from .linalg import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _register,
                     is_hermitian, kron, overlap_fidelity)
from .states import KET0, deviation, maximally_mixed, pseudo_pure, pure_density

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
        if not self.t2_probe > 0.0:
            raise ValueError(f"t2_probe must be positive, got {self.t2_probe}")
        if not self.t2_system > 0.0:
            raise ValueError(f"t2_system must be positive, got {self.t2_system}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")


def t2_dephase(rho: np.ndarray, cfg: T2Config) -> np.ndarray:
    """Per-qubit phase damping of a 4x4 state in the computational basis.

    Coherences between probe basis states are multiplied by
    exp(-duration/t2_probe), between system basis states by
    exp(-duration/t2_system); elements off-diagonal in both wires pick up the
    product.  Diagonal entries (populations) are untouched, so trace and
    Hermiticity are preserved exactly, and applying the channel twice with
    duration d equals applying it once with 2d.  A stack of states, shaped
    (..., 4, 4), is dephased state by state.
    """
    rho = _register(rho, "t2_dephase")
    f_probe = math.exp(-cfg.duration / cfg.t2_probe)
    f_system = math.exp(-cfg.duration / cfg.t2_system)
    one = np.array([[1.0, f_probe], [f_probe, 1.0]])
    two = np.array([[1.0, f_system], [f_system, 1.0]])
    return rho * np.kron(one, two)


def k_attenuation_check(
    cfg: T2Config, theta: float, probe_eps: float = 1.0
) -> tuple[float, float]:
    """K at one theta point, with and without dephasing before readout.

    The channel is applied to the register state just before the closing
    probe Hadamard of each correlator circuit, where the signal still lives
    in the probe coherence; after that Hadamard the signal sits in
    populations and phase damping could no longer touch it.  Both values are
    normalized to the ideal reference, so the noisy/ideal ratio equals the
    probe coherence factor exp(-duration/t2_probe).

    The three pre-readout states run as one stack; the closing Hadamard then
    acts on the clean and the dephased stack together.

    Returns ``(k_ideal, k_noisy)``.
    """
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
    evo = Evolution(omega=1.0)
    obs = observable_from_state(KET0)
    rho_in = kron(pseudo_pure(probe_eps, KET0), maximally_mixed())
    h, dt = evo.hamiltonian, theta / evo.energy_gap

    # the three correlators of the (0, dt, 2dt) schedule, theta = gap * dt
    gates = scattering_gates(h, obs, (0.0, dt, 0.0), (dt, 2.0 * dt, 2.0 * dt))
    reference = reference_signal(rho_in, obs, evo)

    before_readout = run(Circuit(gates[:-1]), rho_in)
    stacked = np.stack((before_readout, t2_dephase(before_readout, cfg)))
    signals = expect_probe_z(run(Circuit(gates[-1:]), stacked)) / reference
    k_ideal, k_noisy = (signals[:, 0] + signals[:, 1] - signals[:, 2]).tolist()
    return k_ideal, k_noisy


@dataclass(frozen=True)
class ReadoutNoise:
    """Gaussian perturbation of strength ``sigma`` per Pauli coefficient."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class TomographyRecord:
    """The 16 coefficients c[i, j] = Tr[rho (sigma_i (x) sigma_j)].

    Rows index the probe Pauli, columns the system Pauli, both in the order
    I, x, y, z.  ``c[0, 0]`` is the trace and stays exact even when readout
    noise is injected.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (4, 4):
            raise ValueError("tomography record needs a 4x4 coefficient table")
        if not np.isfinite(c).all():
            raise ValueError("tomography coefficients must be finite")
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
    exactly.
    """
    rho = _register(rho, "tomograph", stack=False)
    if not is_hermitian(rho):
        raise ValueError("tomograph expects a Hermitian register state")
    c = np.trace(rho @ _PAULI_BASIS, axis1=-2, axis2=-1).real
    if noise.sigma > 0.0:
        for i, j in np.ndindex(4, 4):
            if (i, j) != (0, 0):
                rng = np.random.default_rng((noise.seed, i, j))
                c[i, j] += noise.sigma * rng.standard_normal()
    return TomographyRecord(c)


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Invert a record: rho_hat = (1/4) sum_ij c[i,j] sigma_i (x) sigma_j.

    Hermitian by construction.  Noisy records can reconstruct to a matrix
    with small negative eigenvalues; it is returned as-is, with no positivity
    repair, exactly as a raw tomography result would be reported.
    """
    return np.einsum("ij,ijkl->kl", record.coefficients, _PAULI_BASIS) / 4.0


def tomography_fidelity_experiment(noise_sigma: float, seed: int) -> float:
    """Fidelity between a tomographed and the ideal input deviation matrix.

    Prepares |0><0| (x) I/2 (pure probe, maximally mixed system), tomographs
    it with the given readout noise, reconstructs, and returns the normalized
    Hilbert-Schmidt overlap between the measured and the ideal deviation
    matrices.  Noise-free runs return exactly 1.
    """
    rho = np.kron(pure_density(KET0), maximally_mixed())
    record = tomograph(rho, ReadoutNoise(sigma=noise_sigma, seed=seed))
    measured = deviation(reconstruct(record))
    ideal = deviation(rho)
    return overlap_fidelity(measured, ideal)
