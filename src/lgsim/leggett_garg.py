"""Two-time correlators and the Leggett-Garg quantity K.

Correlators are available through two independent routes: the scattering
circuit (the simulated experiment, including the pseudo-pure probe and its
reference normalization) and a direct Heisenberg-picture trace that serves as
the oracle the circuit is validated against.  All circuit correlators run
through ``correlation_batch``, as stacks of time pairs sharing one reference.
``k_value`` assembles K = C12 + C23 - C13 from circuit correlators for an
equally spaced three-measurement schedule, and ``sweep`` does so over a theta
grid, returning the curve as the columns of one ``SweepResult``;
``analytic_k`` evaluates the closed-form prediction 2 cos(theta) - cos(2 theta),
where theta is the dimensionless phase (energy gap) x (spacing) accumulated
between consecutive measurements.

hbar = 1 throughout: times, frequencies and energies enter only through
phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .circuit import Circuit, expect_probe_z, run, scattering_gates
from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    density,
    dichotomic_observable,
    expm_hermitian,
    kron,
)
from .states import KET0, pseudo_pure, pure_state

# Guard band above the bound K = 1, so the exact K = 1 boundary at theta = 0
# is never flagged as a violation.
_VIOLATION_GUARD = 1e-12
_BISECT_TOL = 1e-9
_REFERENCE_FLOOR = 1e-15


def observable_from_state(psi0) -> np.ndarray:
    """The projector-valued observable 2 |psi0><psi0| - I.

    A +1 outcome means the system is still in ``psi0``, a -1 outcome that it
    has left it.  For |0> this is sigma_z, for |1> it is -sigma_z.
    """
    psi0 = pure_state(psi0)
    return 2.0 * np.outer(psi0, psi0.conj()) - IDENTITY_2


@dataclass(frozen=True)
class Evolution:
    """Fixed transverse drive H = omega * sigma_x (hbar = 1).

    The eigenvalues are +-omega, so the energy gap between them is 2*omega.
    """

    omega: float

    def __post_init__(self):
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.omega * SIGMA_X

    @property
    def energy_gap(self) -> float:
        return 2.0 * self.omega


@dataclass(frozen=True)
class Schedule:
    """Three measurement times with equal spacing t2 - t1 = t3 - t2."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t1 <= self.t2 <= self.t3:
            raise ValueError(
                f"need t1 <= t2 <= t3, got ({self.t1}, {self.t2}, {self.t3})"
            )
        # t1 + dt rounds on the scale of the times, so the tolerance does too
        tol = 1e-12 * max(1.0, abs(self.t1), abs(self.t3))
        if abs((self.t2 - self.t1) - (self.t3 - self.t2)) > tol:
            raise ValueError("schedule spacing must be equal: t2-t1 != t3-t2")

    @property
    def dt(self) -> float:
        return self.t2 - self.t1


@dataclass(frozen=True)
class LGResult:
    """A plain row of a ``SweepResult``, which checked its values: theta =
    gap * spacing, the three correlators, and K."""

    theta: float
    c12: float
    c23: float
    c13: float
    k: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """K over theta as five read-only float columns of equal length, the one
    validated record of every K the library returns: theta finite and >= 0,
    |c| <= 1 + 1e-10 and k = c12 + c23 - c13 to 1e-12, checked once and
    vectorised, naming the first bad value.  ``len``, integer indexing and
    iteration give ``LGResult`` rows; a slice gives another ``SweepResult``.
    """

    theta: np.ndarray
    c12: np.ndarray
    c23: np.ndarray
    c13: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            column = np.array(getattr(self, field.name), dtype=float)
            if column.ndim != 1 or len(column) != len(self.theta):
                raise ValueError("sweep columns must be 1-d and of equal length")
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)
        _first_bad("theta must be finite and >= 0, got",
                   self.theta, (0.0 <= self.theta) & (self.theta < math.inf))
        for name in ("c12", "c23", "c13"):
            column = getattr(self, name)
            _first_bad(f"|{name}| exceeds 1:", column, np.abs(column) <= 1.0 + 1e-10)
        _first_bad("k is inconsistent with c12 + c23 - c13:", self.k,
                   np.abs(self.k - (self.c12 + self.c23 - self.c13)) <= 1e-12)

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepResult(*(getattr(self, f.name)[index] for f in fields(self)))
        return LGResult(*(float(getattr(self, f.name)[index]) for f in fields(self)))

    def __iter__(self):
        columns = (getattr(self, f.name).tolist() for f in fields(self))
        return (LGResult(*point) for point in zip(*columns))


def _first_bad(message: str, column: np.ndarray, ok: np.ndarray) -> None:
    """Raise ``message`` with the first value of ``column`` where ``ok`` fails."""
    if not ok.all():
        raise ValueError(f"{message} {float(column[np.argmin(ok)])!r}")


def heisenberg_observable(obs, evo: Evolution, t: float) -> np.ndarray:
    """O(t) = exp(+iHt) O exp(-iHt); stays Hermitian and dichotomic.

    Convention: for O = sigma_z under H = omega*sigma_x this gives
    cos(2*omega*t)*sigma_z + sin(2*omega*t)*sigma_y.  The sign of the sigma_y
    term is convention-dependent and drops out of every reported quantity.
    """
    return _heisenberg(dichotomic_observable(obs), evo, t)


def _heisenberg(obs: np.ndarray, evo: Evolution, t: float) -> np.ndarray:
    """``heisenberg_observable`` for an already validated ``obs``."""
    forward = expm_hermitian(evo.hamiltonian, t)
    return forward.conj().T @ obs @ forward


def correlation_oracle(
    rho_sys, obs, evo: Evolution, t_k: float, t_m: float
) -> float:
    """Re Tr[rho_sys O(t_m) O(t_k)] computed directly in the Heisenberg picture.

    This is the brute-force route the circuit is checked against; it never
    touches the probe or the circuit machinery.  ``obs`` is validated once
    for both times.
    """
    rho_sys = density(rho_sys)
    obs = dichotomic_observable(obs)
    product = _heisenberg(obs, evo, t_m) @ _heisenberg(obs, evo, t_k)
    return float(np.trace(rho_sys @ product).real)


def correlation_batch(
    rho_sys,
    obs,
    evo: Evolution,
    pairs,
    probe_eps: float = 1.0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two-time correlators measured through the scattering circuit, in stacks.

    ``pairs`` holds ``(t_k, t_m)`` times under H = omega*sigma_x, numbers or
    arrays that broadcast together; each pair runs as one stack.  The probe
    enters as the pseudo-pure state (1-eps) I/2 + eps |0><0|, so the raw
    signal is scaled by eps.  As in the experiment, raw values are normalized
    to the signal of the zero-time circuit, whose correlator is exactly 1
    because O^2 = I; that reference runs once per call, however many pairs.
    Returns ``(raw, normalized)`` per pair; normalized matches the oracle.
    """
    rho_sys = density(rho_sys)
    if rho_sys.shape[0] != 2:
        raise ValueError("system state must be a single qubit")
    rho_in = kron(pseudo_pure(probe_eps, KET0), rho_sys)
    reference = reference_signal(rho_in, obs, evo)
    raws = [_probe_signal(rho_in, obs, evo, t_k, t_m) for t_k, t_m in pairs]
    return [(raw, raw / reference) for raw in raws]


def _probe_signal(rho_in, obs, evo: Evolution, t_k, t_m):
    gates = scattering_gates(evo.hamiltonian, obs, t_k, t_m)
    return expect_probe_z(run(Circuit(gates), rho_in))


def reference_signal(rho_in, obs, evo: Evolution) -> float:
    """Probe signal of the zero-time circuit on the register state ``rho_in``,
    which raw correlators are divided by; raises ValueError when it is too
    small to divide by (a probe polarization near 0)."""
    reference = _probe_signal(rho_in, obs, evo, 0.0, 0.0)
    if not abs(reference) >= _REFERENCE_FLOOR:
        raise ValueError(f"reference signal vanished: |signal| = {abs(reference):.3g} "
                         f"< {_REFERENCE_FLOOR:g}; cannot normalize")
    return reference


def correlation_circuit(
    rho_sys,
    obs,
    evo: Evolution,
    t_k: float,
    t_m: float,
    probe_eps: float = 1.0,
) -> tuple[float, float]:
    """``correlation_batch`` for the single pair ``(t_k, t_m)``."""
    return correlation_batch(rho_sys, obs, evo, [(t_k, t_m)], probe_eps)[0]


def analytic_k(theta):
    """Closed-form prediction K(theta) = 2 cos(theta) - cos(2 theta), for a
    number or elementwise for an array of thetas."""
    return 2.0 * np.cos(theta) - np.cos(2.0 * theta)


def k_value(
    rho_sys,
    obs,
    evo: Evolution,
    schedule: Schedule,
    probe_eps: float = 1.0,
) -> LGResult:
    """K = C12 + C23 - C13 from normalized circuit correlators, as the row of
    a one-point ``SweepResult``."""
    t1, t2, t3 = schedule.t1, schedule.t2, schedule.t3
    [(_, normalized)] = correlation_batch(
        rho_sys, obs, evo, [((t1, t2, t1), (t2, t3, t3))], probe_eps
    )
    c12, c23, c13 = normalized[:, None]
    theta = [evo.energy_gap * schedule.dt]
    return SweepResult(theta, c12, c23, c13, c12 + c23 - c13)[0]


def sweep(
    evo: Evolution,
    rho_sys,
    probe_eps: float,
    theta_min: float,
    theta_max: float,
    steps: int,
    obs=None,
) -> SweepResult:
    """Evaluate K on a uniform theta grid, endpoints included.

    theta is the canonical parameter; the measurement spacing is recovered as
    theta / energy_gap, with measurements taken at times (0, dt, 2*dt).
    ``obs`` defaults to the observable built from |0>, i.e. sigma_z.  Each
    correlator runs as one stack over the whole grid, all three against one
    reference; the columns equal per-point ``k_value`` calls.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not 0.0 <= theta_min < math.inf:
        raise ValueError(f"theta_min must be finite and >= 0, got {theta_min!r}")
    if not theta_min < theta_max < math.inf:
        raise ValueError(
            f"theta_max must be finite and > theta_min, got ({theta_min}, {theta_max})"
        )
    if evo.omega <= 0.0:
        raise ValueError("sweep needs omega > 0 to map theta onto a time spacing")
    obs = observable_from_state(KET0) if obs is None else obs
    dt = np.linspace(theta_min, theta_max, steps) / evo.energy_gap
    stacks = correlation_batch(
        rho_sys, obs, evo, [(0.0, dt), (dt, 2.0 * dt), (0.0, 2.0 * dt)], probe_eps
    )
    c12, c23, c13 = (normalized for _, normalized in stacks)
    return SweepResult(evo.energy_gap * dt, c12, c23, c13, c12 + c23 - c13)


def find_violations(
    results: SweepResult, *, k_fn=analytic_k
) -> list[tuple[float, float]]:
    """Maximal theta intervals where K exceeds the classical bound 1.

    Reads the ``theta`` and ``k`` columns of ``results``, which must be
    sorted by theta.  Grid membership uses K > 1 + 1e-12, so the exact K = 1
    boundary is never flagged.  Interval endpoints falling between grid
    points are refined by bisecting ``k_fn`` (the continuation of the swept
    curve) down to 1e-9, or down to adjacent floats where those are farther
    apart.
    """
    thetas, ks = results.theta, results.k
    if not len(thetas):
        raise ValueError("find_violations needs at least one sweep point")
    if (np.diff(thetas) <= 0.0).any():
        raise ValueError("results must be sorted by strictly increasing theta")

    # Padded with False on both sides, the mask changes value exactly at the
    # first index of each run and one past its last.
    above = np.concatenate(([False], ks > 1.0 + _VIOLATION_GUARD, [False]))
    edges = np.flatnonzero(np.diff(above)).tolist()
    thetas = thetas.tolist()
    n = len(thetas)
    intervals: list[tuple[float, float]] = []
    for first, stop in zip(edges[::2], edges[1::2]):
        lo = thetas[first]
        if first > 0:
            lo = _bisect_crossing(k_fn, thetas[first - 1], lo)
        hi = thetas[stop - 1]
        if stop < n:
            hi = _bisect_crossing(k_fn, thetas[stop], hi)
        intervals.append((lo, hi))
    return intervals


def _bisect_crossing(k_fn, outside: float, inside: float) -> float:
    """Locate K = 1 between a non-violating and a violating point."""
    a, b = outside, inside
    while abs(b - a) > _BISECT_TOL:
        mid = 0.5 * a + 0.5 * b  # a + b would overflow past about 9e307
        if mid in (a, b):
            break
        k = k_fn(mid)
        if not math.isfinite(k):
            raise ValueError(f"k_fn is not finite at theta = {mid!r}: {float(k)!r}")
        a, b = (a, mid) if k > 1.0 else (mid, b)
    return 0.5 * a + 0.5 * b
