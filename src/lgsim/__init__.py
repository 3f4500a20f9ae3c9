"""Exact density-matrix simulation of a probe-qubit scattering circuit that
measures two-time correlation functions of a single qubit and evaluates the
Leggett-Garg quantity K = C12 + C23 - C13, including the NMR-side machinery:
maximally mixed state preparation, pseudo-pure probes with reference
normalization, T2 dephasing, and Pauli-basis tomography."""

from .circuit import build_scattering_circuit, expect_probe_z, run
from .leggett_garg import (
    Evolution,
    LGResult,
    Schedule,
    SweepResult,
    analytic_k,
    correlation_circuit,
    correlation_oracle,
    dichotomic_observable,
    find_violations,
    heisenberg_observable,
    k_value,
    max_disturbance,
    observable_from_state,
    sweep,
)
from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    density,
    expm_hermitian,
    kron,
    operator,
    overlap_fidelity,
    partial_trace,
    trace_distance,
)
from .nmr import (
    PAULI_LABELS,
    ReadoutNoise,
    T2Config,
    TomographyRecord,
    k_attenuation_check,
    reconstruct,
    t2_dephase,
    tomograph,
    tomography_fidelity_experiment,
)
from .states import (
    KET0,
    KET1,
    classical_mixture,
    deviation,
    gradient_dephase_prepare,
    maximally_mixed,
    pseudo_pure,
    pure_density,
    pure_state,
)

__version__ = "0.1.0"
