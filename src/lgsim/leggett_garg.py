"""Two-time correlators and the Leggett-Garg quantity K.

Correlators are available through two independent routes: the scattering
circuit (the simulated experiment, including the pseudo-pure probe and its
reference normalization) and a direct Heisenberg-picture trace that serves as
the oracle the circuit is validated against; the oracle takes its propagator
from an eigendecomposition of H and shares no code with the circuit.  The
one circuit correlator is ``correlation_circuit``, for a time pair or a stack
of them, on the register ``_probe_register`` builds.  It reads the signal
and the zero-time reference off one matrix of traces of the circuit's terms
(``circuit._probe_signal``), forming no state.  ``max_disturbance``, the
paper's noninvasiveness check, runs a grid of time pairs on that register.
``k_value`` assembles K = C12 + C23 - C13 for an equally spaced schedule and
``sweep`` over a theta grid, each in one ``correlation_circuit`` call on a
(3, N) stack, returning the curve as the columns of one ``SweepResult``;
``analytic_k`` evaluates the closed-form prediction 2 cos(theta) - cos(2 theta),
where theta is the dimensionless phase (energy gap) x (spacing) accumulated
between consecutive measurements.

hbar = 1 throughout: times, frequencies and energies enter only through
phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, _probe_signal, run, scattering_gates
from .linalg import (IDENTITY_2, SIGMA_X, _real, dagger, density, dichotomic_observable,
                     kron, partial_trace, trace_distance)
from .states import KET0, pseudo_pure, pure_density

# Guard band above the bound K = 1, so the exact K = 1 boundary at theta = 0
# is never flagged as a violation.
_VIOLATION_GUARD = 1e-12
_BISECT_TOL = 1e-9
# Normalized correlators carry round-off of about 2.5e-16 / |reference|: the
# floor keeps it below 5e-10 and passes eps = 1e-6 (references just under 1e-6).
_REFERENCE_FLOOR = 5e-7


def observable_from_state(psi0) -> np.ndarray:
    """The projector-valued observable 2 |psi0><psi0| - I.

    A +1 outcome means the system is still in ``psi0``, a -1 outcome that it
    has left it.  For |0> this is sigma_z, for |1> it is -sigma_z.
    """
    return 2.0 * pure_density(psi0) - IDENTITY_2


@dataclass(frozen=True)
class Evolution:
    """Fixed transverse drive H = omega * sigma_x (hbar = 1).

    The eigenvalues are +-omega, so the energy gap between them is 2*omega.
    """

    omega: float

    def __post_init__(self):
        if not 0.0 <= _real(self.omega, "omega") < math.inf:
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
            if not math.isfinite(_real(getattr(self, name), name)):
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


# The columns of a ``SweepResult``, in field order; all but ``k`` are given.
_COLUMNS = ("theta", "c12", "c23", "c13", "k")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """K over theta as five read-only float columns of equal length, the one
    validated record of every K the library returns: theta finite and >= 0
    and |c| <= 1 + 1e-10, checked once and vectorised, naming the first bad
    value, and k = c12 + c23 - c13, formed here (the one place K is formed)
    from the checked columns.  ``len``, integer indexing and iteration give
    ``LGResult`` rows; a slice gives another ``SweepResult``.
    """

    theta: np.ndarray
    c12: np.ndarray
    c23: np.ndarray
    c13: np.ndarray
    k: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in _COLUMNS[:-1]:
            column = np.array(_real(getattr(self, name), name))
            if column.ndim != 1 or len(column) != len(self.theta):
                raise ValueError("sweep columns must be 1-d and of equal length")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        _first_bad("theta must be finite and >= 0, got",
                   self.theta, (0.0 <= self.theta) & (self.theta < math.inf))
        for name in ("c12", "c23", "c13"):
            column = getattr(self, name)
            _first_bad(f"|{name}| exceeds 1:", column, np.abs(column) <= 1.0 + 1e-10)
        object.__setattr__(self, "k", self.c12 + self.c23 - self.c13)
        self.k.flags.writeable = False

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepResult(*(getattr(self, name)[index] for name in _COLUMNS[:-1]))
        return LGResult(*(float(getattr(self, name)[index]) for name in _COLUMNS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return (LGResult(*point) for point in zip(*columns))


def _first_bad(message: str, column: np.ndarray, ok: np.ndarray) -> None:
    """Raise ``message`` with the first value of ``column`` where ``ok`` fails."""
    if not ok.all():
        raise ValueError(f"{message} {float(column[np.argmin(ok)])!r}")


def heisenberg_observable(obs, evo: Evolution, t) -> np.ndarray:
    """O(t) = exp(+iHt) O exp(-iHt); stays Hermitian and dichotomic.

    ``t`` is a real time, or an array of them (a stack t.shape + (2, 2)).
    exp(-iHt) comes from one ``eigh`` H = V E V+ as I + V (exp(-iEt) - 1) V+,
    exactly I at t = 0.  A time whose phases E*t are not finite is named.

    Convention: for O = sigma_z under H = omega*sigma_x this gives
    cos(2*omega*t)*sigma_z + sin(2*omega*t)*sigma_y.  The sign of the sigma_y
    term is convention-dependent and drops out of every reported quantity.
    """
    obs = dichotomic_observable(obs)
    energies, vectors = np.linalg.eigh(evo.hamiltonian)
    t = _real(t, "t")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        phases = t[..., None] * energies
    bad = ~np.isfinite(phases).all(axis=-1)
    if bad.any():
        raise ValueError(f"the oracle needs finite phases omega*t, got t = "
                         f"{float(t[bad][0])!r}")
    turns = np.expm1(-1j * phases)[..., None, :]
    forward = IDENTITY_2 + (vectors * turns) @ dagger(vectors)
    return dagger(forward) @ obs @ forward


def correlation_oracle(rho_sys, obs, evo: Evolution, t_k: float, t_m: float) -> float:
    """Re Tr[rho_sys O(t_m) O(t_k)] computed directly in the Heisenberg picture.

    This is the brute-force route the circuit is checked against; it never
    touches the probe or the circuit machinery: one ``heisenberg_observable``
    call at both times.
    """
    rho_sys = density(rho_sys)
    later, earlier = heisenberg_observable(obs, evo, (t_m, t_k))
    return float(np.trace(rho_sys @ (later @ earlier)).real)


def _probe_register(rho_sys, probe_eps: float) -> np.ndarray:
    """The register state every correlator circuit runs on: the pseudo-pure
    probe (1-eps) I/2 + eps |0><0| (x) the checked single-qubit ``rho_sys``."""
    rho_sys = density(rho_sys)
    if rho_sys.shape[0] != 2:
        raise ValueError("system state must be a single qubit")
    return kron(pseudo_pure(probe_eps, KET0), rho_sys)


class ReferenceVanished(ValueError):
    """The reference is below the floor: the probe's eps is too small."""


def _check_reference(reference: float) -> float:
    """``reference``, the zero-time probe signal raw correlators are divided
    by; raises ``ReferenceVanished`` below the floor."""
    if not abs(reference) >= _REFERENCE_FLOOR:
        raise ReferenceVanished(f"reference signal vanished: |signal| = "
                                f"{abs(reference):.3g} < {_REFERENCE_FLOOR:g}; "
                                f"cannot normalize")
    return reference


def correlation_circuit(rho_sys, obs, evo: Evolution, t_k, t_m,
                        probe_eps: float = 1.0):
    """Two-time correlators measured through the scattering circuit.

    ``t_k`` and ``t_m`` are times under H = omega*sigma_x, numbers or arrays
    that broadcast together; arrays run as one stack of circuits.  The probe
    enters as the pseudo-pure state (1-eps) I/2 + eps |0><0|, so the raw
    signal is scaled by eps.  As in the experiment, raw values are normalized
    to the signal of the zero-time circuit, whose correlator is exactly 1
    because O^2 = I, read off the raw signal's own traces.  Returns
    ``(raw, normalized)``, floats for number times and arrays of the
    broadcast shape otherwise; normalized matches the oracle.
    """
    rho_in = _probe_register(rho_sys, probe_eps)
    circuit = Circuit(scattering_gates(evo.hamiltonian, obs, t_k, t_m))
    raw, reference = _probe_signal(circuit, rho_in)
    return raw, raw / _check_reference(reference)


def max_disturbance(rho_sys, obs, evo: Evolution, times, probe_eps: float = 1.0) -> float:
    """The largest trace distance between the system state after the
    scattering circuit (the probe traced out) and ``rho_sys`` before it, over
    every pair drawn from ``times`` (the earlier as t_k), run as one stack on
    the register of ``correlation_circuit``; zero, to round-off, for I/2."""
    times = _real(times, "times")
    if not times.size:
        raise ValueError("max_disturbance needs at least one time in times")
    rho_in = _probe_register(rho_sys, probe_eps)
    a, b = np.meshgrid(times, times)
    gates = scattering_gates(evo.hamiltonian, obs, np.minimum(a, b), np.maximum(a, b))
    reduced = partial_trace(run(Circuit(gates), rho_in), "system")
    return float(np.max(trace_distance(reduced, rho_sys)))


def analytic_k(theta):
    """Closed-form prediction K(theta) = 2 cos(theta) - cos(2 theta), for a
    number or elementwise for an array of thetas."""
    return 2.0 * np.cos(theta) - np.cos(2.0 * theta)


def k_value(rho_sys, obs, evo: Evolution, schedule: Schedule,
            probe_eps: float = 1.0) -> LGResult:
    """K = C12 + C23 - C13 from normalized circuit correlators, as the row of
    a one-point ``SweepResult``."""
    times = [[schedule.t1], [schedule.t2], [schedule.t3]]
    return _k_curve(rho_sys, obs, evo, probe_eps, times)[0]


def _k_curve(rho_sys, obs, evo: Evolution, probe_eps: float, times) -> SweepResult:
    """K at theta = gap * (t2 - t1) for the measurement times (t1, t2, t3) =
    ``times``, of shape (3, N), from one ``correlation_circuit`` call on the
    (3, N) stack of the time pairs of C12, C23 and C13."""
    times = np.asarray(times, dtype=float)
    _, (c12, c23, c13) = correlation_circuit(rho_sys, obs, evo, times[[0, 1, 0]],
                                             times[[1, 2, 2]], probe_eps)
    theta = evo.energy_gap * (times[1] - times[0])
    return SweepResult(theta, c12, c23, c13)


def sweep(evo: Evolution, rho_sys, probe_eps: float, theta_min: float,
          theta_max: float, steps: int, obs=None) -> SweepResult:
    """Evaluate K on a uniform theta grid, endpoints included.

    theta is the canonical parameter; the measurement spacing is recovered as
    theta / energy_gap, with measurements taken at times (0, dt, 2*dt).
    ``obs`` defaults to the observable built from |0>, i.e. sigma_z.  As in
    ``k_value``, the three correlators run as one ``correlation_circuit``
    call, here on a (3, steps) stack; the columns equal per-point ``k_value``.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not 0.0 <= _real(theta_min, "theta_min") < math.inf:
        raise ValueError(f"theta_min must be finite and >= 0, got {theta_min!r}")
    if not theta_min < _real(theta_max, "theta_max") < math.inf:
        raise ValueError(f"theta_max must be finite and > theta_min, "
                         f"got ({theta_min}, {theta_max})")
    if evo.omega <= 0.0:
        raise ValueError("sweep needs omega > 0 to map theta onto a time spacing")
    obs = observable_from_state(KET0) if obs is None else obs
    dt = np.linspace(theta_min, theta_max, steps) / evo.energy_gap
    return _k_curve(rho_sys, obs, evo, probe_eps, np.array([0.0, 1.0, 2.0])[:, None] * dt)


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
