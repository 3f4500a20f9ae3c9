"""Two-time correlators and the Leggett-Garg quantity K.

Correlators are available through two independent routes: the scattering
circuit (the simulated experiment, including the pseudo-pure probe and its
reference normalization) and a direct Heisenberg-picture trace that serves as
the oracle the circuit is validated against.  The oracle shares no code with
the circuit: it reads H in its eigenbasis, from one ``np.linalg.eigh`` per
drive omega (memoized with the checks of ``linalg``), where each time enters
only through elementwise phase factors, so ``correlation_oracle`` takes a
time pair or a stack of them in one contraction.  The one circuit correlator
is ``correlation_circuit``, for a time pair or a stack of them, on the
pseudo-pure probe (x) the system state.  It reads the signal and the
zero-time reference off one probe readout (``circuit._probe_signal``, which
takes omega, O, the times, the system state and eps), building no gate and
forming no state.  ``max_disturbance``, the paper's noninvasiveness check,
runs a grid of time pairs through the same readout and reads the system's
Bloch vector off it.
``k_value`` assembles K = C12 + C23 - C13 for an equally spaced schedule and
``sweep`` over a theta grid, each in one ``correlation_circuit`` call on a
(3, N) stack, returning the curve as the columns of one ``SweepResult``;
``analytic_k`` evaluates the closed-form prediction 2 cos(theta) - cos(2 theta),
where theta is the dimensionless phase (energy gap) x (spacing) accumulated
between consecutive measurements.  ``find_violations`` reads the intervals
where a swept K exceeds 1 off its grid and the closed-form roots of K - 1.

hbar = 1 throughout: times, frequencies and energies enter only through
phases.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# No function here calls ``run``; the benchmark's tracer tests it is patched here too.
from .circuit import _probe_signal, run  # noqa: F401
from .linalg import (_MEMO_SIZE, _MEMOS, _PAULI_BASIS, _PAULIS, IDENTITY_2, SIGMA_X,
                     _first_bad, _number, _qubit_state, _real, dagger,
                     dichotomic_observable, kron)
from .states import KET0, _normalizable, _polarization, pure_density

# Guard band above the bound K = 1, so the exact K = 1 boundary at theta = 0
# is never flagged as a violation.
_VIOLATION_GUARD = 1e-12


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
        if not 0.0 <= _number(self.omega, "omega") < math.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.omega * SIGMA_X

    @property
    def energy_gap(self) -> float:
        return 2.0 * self.omega


@dataclass(frozen=True)
class Schedule:
    """Measurement times 0 <= t1 <= t2 <= t3 with t2 - t1 = t3 - t2."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            if not 0.0 <= _number(getattr(self, name), name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
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


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _eigenbasis(evo: Evolution):
    """H = V diag(E) V+ from one ``np.linalg.eigh``, memoized per drive (an
    ``Evolution`` hashes and compares by its omega), as the read-only
    ``(rates, V, V+, to_basis)``: the rates -iE, whose exp(rates * t) is
    exp(-iEt), and the (4, 4) map V+ (x) V^T of a flattened 2x2 X onto the
    flattened V+ X V."""
    energies, vectors = np.linalg.eigh(evo.hamiltonian)
    vectors_h = dagger(vectors).copy()
    basis = (-1j * energies, vectors, vectors_h, kron(vectors_h, vectors.T))
    for array in basis:
        array.flags.writeable = False
    return basis


_MEMOS.append(_eigenbasis)


def _phases(rates: np.ndarray, t) -> np.ndarray:
    """The phases -iE*t, shape t.shape + (len(E),), of the times ``t``
    (checked by ``_real`` as ``t``); names the first time whose phases are
    not finite."""
    t = _real(t, "t")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        phases = t[..., None] * rates
    _first_bad("the oracle needs finite phases omega*t, got t =", t,
               np.isfinite(phases).all(axis=-1))
    return phases


def heisenberg_observable(obs, evo: Evolution, t) -> np.ndarray:
    """O(t) = exp(+iHt) O exp(-iHt); stays Hermitian and dichotomic.

    ``t`` is a real time, or an array of them (a stack t.shape + (2, 2)).
    exp(-iHt) is I + V (exp(-iEt) - 1) V+ in the oracle's memoized
    eigenbasis H = V E V+, exactly I at t = 0.  A time whose phases E*t are
    not finite is named.

    Convention: for O = sigma_z under H = omega*sigma_x this gives
    cos(2*omega*t)*sigma_z + sin(2*omega*t)*sigma_y.  The sign of the sigma_y
    term is convention-dependent and drops out of every reported quantity.
    """
    obs = dichotomic_observable(obs)
    rates, vectors, vectors_h, _ = _eigenbasis(evo)
    turns = np.expm1(_phases(rates, t))[..., None, :]
    forward = IDENTITY_2 + (vectors * turns) @ vectors_h
    return dagger(forward) @ obs @ forward


def correlation_oracle(rho_sys, obs, evo: Evolution, t_k, t_m):
    """Re Tr[rho_sys O(t_m) O(t_k)] computed directly in the Heisenberg picture.

    This is the brute-force route the circuit is checked against; it never
    touches the probe or the circuit machinery.  In the memoized eigenbasis
    H = V E V+ (one ``eigh`` per drive), with rho' = V+ rho V and O' = V+ O V,
    the correlator is Re sum_lij rho'_li O'_ij O'_jl e^{i(d_ij t_m + d_jl t_k)}
    for the gaps d_ij = E_i - E_j: the phase factors exp(-iEt) of each time,
    taken elementwise, and one ``einsum``, with no operator product per time.
    ``t_k`` and ``t_m`` are numbers or arrays that broadcast together, each
    checked as its time ``t`` on its own; a time whose phases are not finite
    is named, t_m first.  Returns a float for numbers and an array of the
    broadcast shape otherwise.
    """
    rho_sys = _qubit_state(rho_sys)
    obs = dichotomic_observable(obs)
    rates, _, _, to_basis = _eigenbasis(evo)
    rho_e = (to_basis @ rho_sys.ravel()).reshape(2, 2)
    obs_e = (to_basis @ obs.ravel()).reshape(2, 2)
    t_m, t_k = _real(t_m, "t"), _real(t_k, "t")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        # exp(-iEt) with the level first, so each elementwise pass runs over the times
        late = np.exp(np.multiply.outer(rates, t_m))
        early = np.exp(np.multiply.outer(rates, t_k))
        # e^{i d_ij t_m} e^{i d_jl t_k} = conj(late_i) late_j conj(early_j) early_l
        value = np.einsum("li,i...,ij,j...,j...,jl,l...->...", rho_e, late.conj(), obs_e,
                          late, early.conj(), obs_e, early).real
    # Checked once, on the value, not per time: only a phase that is not
    # finite gives NaN, and ``_phases`` then names its time, t_m first.
    if np.isnan(value).any():
        _phases(rates, t_m)
        _phases(rates, t_k)
    return value if value.ndim else float(value)


def correlation_circuit(rho_sys, obs, evo: Evolution, t_k, t_m,
                        probe_eps: float = 1.0):
    """Two-time correlators measured through the scattering circuit.

    ``t_k`` and ``t_m`` are times under H = omega*sigma_x, numbers or arrays
    that broadcast together; arrays run as one stack of circuits.  The probe
    enters as the pseudo-pure state (1-eps) I/2 + eps |0><0|, so the raw
    signal is scaled by eps.  As in the experiment, raw values are normalized
    to the signal of the zero-time circuit, whose correlator is exactly 1
    because O^2 = I, read off the same readout.  A time whose phase omega*t
    overflows is named, and so is an eps below the floor 5e-7
    (``states._normalizable``).  Returns ``(raw, normalized)``, floats for
    number times and arrays of the broadcast shape otherwise; normalized
    matches the oracle.
    """
    probe_eps = _normalizable(probe_eps)
    raw, reference = _probe_signal(evo.omega, obs, t_k, t_m, rho_sys, probe_eps)
    return raw, raw / reference


def max_disturbance(rho_sys, obs, evo: Evolution, times, probe_eps: float = 1.0) -> float:
    """The largest trace distance between the system state after the
    scattering circuit (the probe traced out) and ``rho_sys`` before it, over
    every pair drawn from ``times`` (the earlier as t_k), run as one stack on
    the register of ``correlation_circuit``; zero, to round-off, for I/2.
    For qubits that is half the distance |s - r| of the system's Bloch
    vectors (Nielsen & Chuang 9.2.1): s_j = Re Tr[(I (x) sigma_j) rho_out]
    after the circuit, from one ``_probe_signal`` call on the three
    readouts, and r_j = Tr[sigma_j rho_sys] before it; no output state is
    formed."""
    times = _real(times, "times")
    if not times.size:
        raise ValueError("max_disturbance needs at least one time in times")
    _first_bad("times must be finite and >= 0, got", times, (0.0 <= times) & (times < math.inf))
    rho_sys = _qubit_state(rho_sys)
    a, b = np.meshgrid(times, times)
    after, _ = _probe_signal(evo.omega, obs, np.minimum(a, b), np.maximum(a, b),
                             rho_sys, _polarization(probe_eps), _PAULI_BASIS[0, 1:])
    before = np.einsum("jik,ki->j", _PAULIS[1:], rho_sys).real
    return float(0.5 * np.linalg.norm(after - before[:, None, None], axis=0).max())


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
    if not 0.0 <= _number(theta_min, "theta_min") < math.inf:
        raise ValueError(f"theta_min must be finite and >= 0, got {theta_min!r}")
    if not theta_min < _number(theta_max, "theta_max") < math.inf:
        raise ValueError(f"theta_max must be finite and > theta_min, "
                         f"got ({theta_min}, {theta_max})")
    if evo.omega <= 0.0:
        raise ValueError("sweep needs omega > 0 to map theta onto a time spacing")
    obs = observable_from_state(KET0) if obs is None else obs
    with np.errstate(over="ignore"):  # linspace's step overflows near the float limit
        dt = np.linspace(theta_min, theta_max, steps) / evo.energy_gap
    return _k_curve(rho_sys, obs, evo, probe_eps, np.array([0.0, 1.0, 2.0])[:, None] * dt)


def find_violations(results: SweepResult) -> list[tuple[float, float]]:
    """Maximal theta intervals where K exceeds the classical bound 1.

    Reads the ``theta`` and ``k`` columns of ``results``, which must be
    sorted by theta.  Grid membership uses K > 1 + 1e-12, so the exact K = 1
    boundary is never flagged.  An edge between grid points is a root of
    K - 1 = (1 - n_x^2) 2 cos(theta) (1 - cos(theta)), which holds under
    H = omega sigma_x for every state and observable n.sigma (Leggett & Garg,
    PRL 54, 857 (1985)): the largest root pi/2 + k pi or 2 k pi at or below
    the first violating point, or the smallest at or above the last, kept
    inside that point's gap to its neighbour.  On a grid of spacing pi/2 or
    more a lower edge can stop at a tangent 2 k pi, where K only touches 1,
    though K also exceeds 1 on the half-period below it (no grid point there
    tells the two apart): sweep at spacing below pi/2 for the full region.
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
            root = max((math.floor(lo / math.pi - 0.5) + 0.5) * math.pi,
                       math.floor(lo / math.tau) * math.tau)
            lo = min(lo, max(thetas[first - 1], root))
        hi = thetas[stop - 1]
        if stop < n:
            root = min((math.ceil(hi / math.pi - 0.5) + 0.5) * math.pi,
                       math.ceil(hi / math.tau) * math.tau)
            hi = max(hi, min(thetas[stop], root))
        intervals.append((lo, hi))
    return intervals
