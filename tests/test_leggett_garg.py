"""Correlators, the K quantity, the theta sweep, violation intervals, and
the noninvasiveness check."""

import math

import numpy as np
import pytest
from conftest import random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim.circuit import build_scattering_circuit, run
from lgsim.leggett_garg import (
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
from lgsim.linalg import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron, partial_trace,
                          trace_distance)
from lgsim.states import (KET0, KET1, classical_mixture, maximally_mixed, pseudo_pure,
                          pure_density)

EVO = Evolution(omega=1.0)
SZ = observable_from_state(KET0)

directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3)


def pauli(v) -> np.ndarray:
    """n.sigma for the unit vector n along ``v``."""
    x, y, z = np.asarray(v) / math.hypot(*v)
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


class TestObservable:
    def test_from_ground_state(self):
        np.testing.assert_allclose(observable_from_state(KET0), SIGMA_Z, atol=0)

    def test_from_excited_state(self):
        np.testing.assert_allclose(observable_from_state(KET1), -SIGMA_Z, atol=0)

    def test_from_plus_state(self):
        plus = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        np.testing.assert_allclose(observable_from_state(plus), SIGMA_X, atol=1e-15)

    def test_rejects_non_involutory(self):
        with pytest.raises(ValueError, match="square"):
            dichotomic_observable(0.5 * SIGMA_Z)


class TestEvolution:
    def test_hamiltonian_is_transverse(self):
        np.testing.assert_allclose(Evolution(2.5).hamiltonian, 2.5 * SIGMA_X, atol=0)

    def test_energy_gap(self):
        assert Evolution(0.7).energy_gap == 1.4

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError, match="omega"):
            Evolution(-1.0)

    def test_rejects_nan_frequency(self):
        with pytest.raises(ValueError, match="omega"):
            Evolution(math.nan)

    def test_rejects_infinite_frequency(self):
        with pytest.raises(ValueError, match="omega must be finite"):
            Evolution(math.inf)


class TestSchedule:
    def test_spacing(self):
        assert Schedule(0.0, 0.3, 0.6).dt == 0.3

    def test_degenerate_schedule_allowed(self):
        assert Schedule(0.0, 0.0, 0.0).dt == 0.0

    def test_rejects_unequal_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Schedule(0.0, 0.3, 0.7)

    @pytest.mark.parametrize("t1", [1e5, 1e6, 1e7])
    def test_equal_spacing_late_in_the_evolution(self, t1):
        """t1 + dt rounds on the scale of t1, so the spacing check does too;
        K there agrees with the oracle."""
        dt = 0.1
        schedule = Schedule(t1, t1 + dt, t1 + 2 * dt)
        oracle = [correlation_oracle(maximally_mixed(), SZ, EVO, a, b)
                  for a, b in ((schedule.t1, schedule.t2), (schedule.t2, schedule.t3),
                               (schedule.t1, schedule.t3))]
        k = k_value(maximally_mixed(), SZ, EVO, schedule).k
        assert abs(k - (oracle[0] + oracle[1] - oracle[2])) <= 1e-14

    @pytest.mark.parametrize("times", [(0.0, 1.0, 2.5), (1e5, 1e5 + 0.1, 1e5 + 0.2001)])
    def test_rejects_unequal_spacing_at_any_scale(self, times):
        with pytest.raises(ValueError, match="spacing"):
            Schedule(*times)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="t1 <= t2"):
            Schedule(0.5, 0.3, 0.1)

    def test_rejects_a_negative_time(self):
        """k_value runs its circuits from t1 >= 0; a negative t1 is refused
        at the door, naming it, not later under the circuit's own names."""
        with pytest.raises(ValueError, match=r"^t1 must be finite and >= 0, got -1\.0$"):
            Schedule(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("times,name", [
        ((0.0, math.inf, math.inf), "t2"),
        ((-math.inf, 0.0, math.inf), "t1"),
        ((0.0, 0.5, math.nan), "t3"),
    ])
    def test_rejects_non_finite_times_naming_the_first(self, times, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Schedule(*times)


class TestLGResult:
    """A plain row: the checks are ``SweepResult``'s (``TestSweepResult``)."""

    def test_consistent_record(self):
        LGResult(theta=1.0, c12=0.5, c23=0.5, c13=-0.5, k=1.5)


class TestHeisenbergObservable:
    def test_no_evolution(self):
        np.testing.assert_allclose(heisenberg_observable(SZ, EVO, 0.0), SZ, atol=0)

    def test_rotation_of_sigma_z(self, rng):
        """O(t) = cos(2wt) sigma_z + sin(2wt) sigma_y under the convention here."""
        for _ in range(10):
            t = rng.uniform(0, 5)
            got = heisenberg_observable(SIGMA_Z, EVO, t)
            want = math.cos(2 * t) * SIGMA_Z + math.sin(2 * t) * SIGMA_Y
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_commuting_observable_is_static(self, rng):
        t = rng.uniform(0, 5)
        np.testing.assert_allclose(
            heisenberg_observable(SIGMA_X, EVO, t), SIGMA_X, atol=1e-12
        )

    def test_stays_dichotomic(self, rng):
        got = heisenberg_observable(SIGMA_Z, EVO, rng.uniform(0, 5))
        np.testing.assert_allclose(got @ got, np.eye(2), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(v=directions, omega=st.floats(0.0, 4.0),
           times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
    def test_an_array_of_times_equals_one_call_per_time(self, v, omega, times):
        obs, evo = pauli(v), Evolution(omega)
        stack = heisenberg_observable(obs, evo, np.reshape(times, (-1, 1)))
        assert stack.shape == (len(times), 1, 2, 2)
        for t, got in zip(times, stack[:, 0]):
            np.testing.assert_array_equal(got, heisenberg_observable(obs, evo, t))


class TestCorrelationOracle:
    def test_equal_times_give_unity(self, rng):
        rho = random_density(rng, 2)
        t = rng.uniform(0, 3)
        assert abs(correlation_oracle(rho, SZ, EVO, t, t) - 1.0) <= 1e-12

    def test_mixed_state_cosine(self, rng):
        """C = cos(gap * spacing) for rho = I/2."""
        for _ in range(10):
            t_k, t_m = np.sort(rng.uniform(0, 3, size=2))
            got = correlation_oracle(maximally_mixed(), SZ, EVO, t_k, t_m)
            assert abs(got - math.cos(2.0 * (t_m - t_k))) <= 1e-12

    def test_landmark_value(self):
        """cos(pi/3) = 1/2 at gap * spacing = pi/3."""
        got = correlation_oracle(maximally_mixed(), SZ, EVO, 0.0, math.pi / 6)
        assert abs(got - 0.5) <= 1e-12


NON_HERMITIAN = [[2, 1], [0, -1]]


@pytest.mark.parametrize("rho_sys, message", [
    (NON_HERMITIAN, "Hermitian"),
    (2.0 * maximally_mixed(), "unit trace"),
    (np.diag([1.5, -0.5]), "negative eigenvalue"),
])
def test_correlators_reject_a_system_state_that_is_no_density(rho_sys, message):
    """Both routes validate the system state as a density matrix; at one time
    a non-Hermitian matrix gave C = 0.825 and K = 1.288."""
    with pytest.raises(ValueError, match=message):
        correlation_oracle(rho_sys, SZ, EVO, 0.1, 0.4)
    with pytest.raises(ValueError, match=message):
        correlation_circuit(rho_sys, SZ, EVO, 0.1, 0.4)
    with pytest.raises(ValueError, match=message):
        k_value(rho_sys, SZ, EVO, Schedule(0.0, 0.3, 0.6))


def test_circuit_correlator_rejects_a_register_as_system_state():
    with pytest.raises(ValueError, match="single qubit"):
        correlation_circuit(np.eye(4) / 4.0, SZ, EVO, 0.1, 0.4)


class TestMaxDisturbance:
    """The noninvasiveness check against the maximum over the per-pair
    scalar route: one circuit, one ``run`` and one trace distance a pair."""

    @staticmethod
    def per_pair(rho, obs, evo, times, eps):
        rho_in = kron(pseudo_pure(eps, KET0), rho)
        return max(
            trace_distance(partial_trace(run(build_scattering_circuit(
                evo.hamiltonian, obs, min(a, b), max(a, b)), rho_in), "system"), rho)
            for a in times for b in times)

    @settings(max_examples=60, deadline=None)
    @given(state=st.tuples(directions, st.floats(0.0, 1.0)), v=directions,
           omega=st.floats(0.0, 4.0), eps=st.floats(0.05, 1.0),
           times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5))
    def test_equals_the_maximum_over_per_pair_scalar_runs(self, state, v, omega,
                                                          eps, times):
        rho = (IDENTITY_2 + state[1] * pauli(state[0])) / 2.0
        obs, evo = pauli(v), Evolution(omega)
        got = max_disturbance(rho, obs, evo, times, probe_eps=eps)
        assert type(got) is float
        assert abs(got - self.per_pair(rho, obs, evo, times, eps)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(v=directions, omega=st.floats(0.0, 4.0), eps=st.floats(0.05, 1.0),
           times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6))
    def test_leaves_the_maximally_mixed_state_alone(self, v, omega, eps, times):
        assert max_disturbance(maximally_mixed(), pauli(v), Evolution(omega), times,
                               eps) <= 1e-12

    def test_a_pure_state_is_flipped(self):
        """At gap * t = pi/2 the circuit takes |0><0| to |1><1|."""
        times = np.linspace(0.0, math.pi, 5)
        assert abs(max_disturbance(pure_density(KET0), SZ, EVO, times) - 1.0) <= 1e-12

    @pytest.mark.parametrize("times", [[], np.zeros(0), np.zeros((2, 0))])
    def test_empty_times_are_named(self, times):
        with pytest.raises(ValueError, match="at least one time in times"):
            max_disturbance(maximally_mixed(), SZ, EVO, times)

    def test_rejects_a_negative_time(self):
        with pytest.raises(ValueError, match=r"^times must be finite and >= 0, got -0\.1$"):
            max_disturbance(maximally_mixed(), SZ, EVO, [-0.1, 0.5])

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_a_bad_time_is_named(self, bad, shape):
        """The first time that is negative or not finite is named as
        ``times``, a 2-d ``times`` too, before any circuit is built."""
        times = np.full(math.prod(shape), 0.5)
        times[1:] = bad
        with pytest.raises(ValueError, match=f"^times must be finite and >= 0, got {bad!r}$"):
            max_disturbance(maximally_mixed(), SZ, EVO, times.reshape(shape))

    def test_exported_from_the_package(self):
        import lgsim

        assert lgsim.max_disturbance is max_disturbance


class TestCorrelationCircuit:
    def test_zero_times(self):
        raw, normalized = correlation_circuit(maximally_mixed(), SZ, EVO, 0.0, 0.0,
                                              probe_eps=1.0)
        assert abs(raw - 1.0) <= 1e-12
        assert abs(normalized - 1.0) <= 1e-12

    def test_half_polarized_probe(self):
        """raw = eps * C and normalization recovers C; theta = pi/3 here."""
        raw, normalized = correlation_circuit(
            maximally_mixed(), SZ, EVO, 0.0, math.pi / 6, probe_eps=0.5
        )
        assert abs(raw - 0.25) <= 1e-12
        assert abs(normalized - 0.5) <= 1e-12

    def test_quarter_cycle_null(self):
        raw, normalized = correlation_circuit(
            maximally_mixed(), SZ, EVO, 0.0, math.pi / 4, probe_eps=1.0
        )
        assert abs(raw) <= 1e-12
        assert abs(normalized) <= 1e-12

    def test_vanishing_reference_is_an_error(self):
        with pytest.raises(ValueError, match="probe polarization 1e-20 < 5e-07"):
            correlation_circuit(maximally_mixed(), SZ, EVO, 0.0, 0.1,
                                probe_eps=1e-20)

    def test_reference_floor_passes_eps_1e_6_and_rejects_1e_7(self):
        """Round-off in the probe's I/2 part, independent of eps, spoils
        smaller probe polarizations."""
        rho = classical_mixture(0.3, 0.7)
        _, normalized = correlation_circuit(rho, SZ, EVO, 0.2, 0.9, probe_eps=1e-6)
        assert abs(normalized - correlation_oracle(rho, SZ, EVO, 0.2, 0.9)) <= 1e-8
        with pytest.raises(ValueError, match="probe polarization 1e-07 < 5e-07"):
            correlation_circuit(rho, SZ, EVO, 0.2, 0.9, probe_eps=1e-7)

    def test_at_the_floor_normalized_values_stay_within_5e_10_of_the_oracle(self, rng):
        """The probe's I/2 part leaves a residue of up to about 8e-17 in the
        signal whatever eps is; at the floor eps = 5e-7 it keeps normalized
        correlators within 5e-10 of the oracle, over random states, dichotomic
        observables, omega = 0, 1 or drawn, and time pairs in [0, 4 pi]."""
        for case in range(300):
            rho = random_density(rng, 2)
            axis = rng.normal(size=3)
            obs = np.tensordot(axis / np.linalg.norm(axis), (SIGMA_X, SIGMA_Y, SIGMA_Z), 1)
            evo = Evolution((0.0, 1.0, rng.uniform(0.0, 3.0))[case % 3])
            t_k, t_m = np.sort(rng.uniform(0.0, 4 * math.pi, (2, 10)), axis=0)
            _, normalized = correlation_circuit(rho, obs, evo, t_k, t_m, 5e-7)
            np.testing.assert_allclose(normalized, correlation_oracle(rho, obs, evo, t_k, t_m),
                                       rtol=0, atol=5e-10)

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(50):
            rho = random_density(rng, 2)
            t_k, t_m = np.sort(rng.uniform(0, 4, size=2))
            eps = rng.uniform(0.05, 1.0)
            _, normalized = correlation_circuit(rho, SZ, EVO, t_k, t_m, eps)
            oracle = correlation_oracle(rho, SZ, EVO, t_k, t_m)
            assert abs(normalized - oracle) <= 1e-10

    def test_raw_signal_linear_in_epsilon(self):
        """raw(eps) = eps * raw(1)."""
        t_k, t_m = 0.2, 0.9
        raw_full, _ = correlation_circuit(maximally_mixed(), SZ, EVO, t_k, t_m, 1.0)
        for eps in np.arange(0.1, 1.05, 0.1):
            raw, _ = correlation_circuit(maximally_mixed(), SZ, EVO, t_k, t_m,
                                         float(eps))
            assert abs(raw - eps * raw_full) <= 1e-12


class TestKValue:
    def test_maximum_violation_point(self):
        dt = math.pi / 6  # theta = gap * dt = pi/3
        res = k_value(maximally_mixed(), SZ, EVO, Schedule(0.0, dt, 2 * dt), 1.0)
        assert abs(res.k - 1.5) <= 1e-12
        assert abs(res.theta - math.pi / 3) <= 1e-15

    def test_zero_spacing_boundary(self):
        res = k_value(maximally_mixed(), SZ, EVO, Schedule(0.0, 0.0, 0.0), 1.0)
        assert abs(res.k - 1.0) <= 1e-12

    def test_half_cycle_minimum(self):
        dt = math.pi / 2  # theta = pi
        res = k_value(maximally_mixed(), SZ, EVO, Schedule(0.0, dt, 2 * dt), 1.0)
        assert abs(res.k + 3.0) <= 1e-12

    def test_origin_independent(self):
        """Only the spacing matters, not the absolute start time."""
        dt = 0.45
        early = k_value(maximally_mixed(), SZ, EVO, Schedule(0.0, dt, 2 * dt), 1.0)
        late = k_value(maximally_mixed(), SZ, EVO,
                       Schedule(1.3, 1.3 + dt, 1.3 + 2 * dt), 1.0)
        assert abs(early.k - late.k) <= 1e-12

    @pytest.mark.parametrize(
        "rho_factory",
        [
            lambda: pure_density(KET0),
            lambda: pure_density(KET1),
            maximally_mixed,
            lambda: classical_mixture(0.3, 0.7),
            lambda: classical_mixture(0.1, 0.9),
        ],
    )
    def test_k_is_independent_of_mixedness(self, rho_factory):
        """Diagonal mixtures of |0> and |1> all reproduce the analytic K."""
        rho = rho_factory()
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            dt = theta / 2.0
            res = k_value(rho, SZ, EVO, Schedule(0.0, dt, 2 * dt), 1.0)
            assert abs(res.k - analytic_k(theta)) <= 1e-10


class TestAnalyticK:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (math.pi / 3, 1.5),
            (0.0, 1.0),
            (math.pi / 2, 1.0),
            (math.pi, -3.0),
            (5 * math.pi / 3, 1.5),
        ],
    )
    def test_landmarks(self, theta, expected):
        assert abs(analytic_k(theta) - expected) <= 1e-12

    def test_increment_bounded_by_derivative(self, rng):
        """|K(t+h) - K(t)| <= 4h from |dK/dt| = |-2 sin t + 2 sin 2t| <= 4."""
        h = 1e-3
        for theta in np.linspace(0.0, 2 * math.pi, 13):
            dt_theta = (theta + h) / 2.0
            dt_base = theta / 2.0
            k_hi = k_value(maximally_mixed(), SZ, EVO,
                           Schedule(0.0, dt_theta, 2 * dt_theta), 1.0).k
            k_lo = k_value(maximally_mixed(), SZ, EVO,
                           Schedule(0.0, dt_base, 2 * dt_base), 1.0).k
            assert abs(k_hi - k_lo) <= 4.0 * h


class TestSweep:
    def test_three_point_grid(self):
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 3)
        thetas = [r.theta for r in results]
        np.testing.assert_allclose(thetas, [0.0, math.pi, 2 * math.pi], atol=1e-15)
        np.testing.assert_allclose([r.k for r in results], [1.0, -3.0, 1.0],
                                   atol=1e-10)

    def test_matches_analytic_pointwise(self):
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 49)
        for r in results:
            assert abs(r.k - analytic_k(r.theta)) <= 1e-10

    def test_correlators_bounded(self):
        results = sweep(EVO, maximally_mixed(), 0.4, 0.0, 2 * math.pi, 49)
        for r in results:
            assert max(abs(r.c12), abs(r.c23), abs(r.c13)) <= 1.0 + 1e-10
            assert -3.0 - 1e-9 <= r.k <= 1.5 + 1e-9

    def test_rejects_single_step(self):
        with pytest.raises(ValueError, match="steps"):
            sweep(EVO, maximally_mixed(), 1.0, 0.0, 1.0, 1)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="theta"):
            sweep(EVO, maximally_mixed(), 1.0, 1.0, 1.0, 10)

    def test_rejects_frozen_evolution(self):
        with pytest.raises(ValueError, match="omega"):
            sweep(Evolution(0.0), maximally_mixed(), 1.0, 0.0, 1.0, 10)

    @pytest.mark.parametrize("theta_min,theta_max,name", [
        (0.0, math.inf, "theta_max"),
        (0.0, math.nan, "theta_max"),
        (1.0, 0.5, "theta_max"),
        (math.inf, math.inf, "theta_min"),
        (math.nan, 1.0, "theta_min"),
        (-0.1, 1.0, "theta_min"),
    ])
    def test_rejects_bad_bounds_naming_the_argument(self, theta_min, theta_max, name):
        """Checked before any arithmetic: no RuntimeWarning (an error in these
        tests) and no message about the circuit's time pairs."""
        with pytest.raises(ValueError, match=name):
            sweep(EVO, maximally_mixed(), 1.0, theta_min, theta_max, 10)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "10", None, 1, -4])
    def test_rejects_steps_that_are_not_an_integer_of_at_least_two(self, steps):
        with pytest.raises(ValueError, match="steps"):
            sweep(EVO, maximally_mixed(), 1.0, 0.0, 1.0, steps)

    def test_accepts_a_numpy_integer_step_count(self):
        assert len(sweep(EVO, maximally_mixed(), 1.0, 0.0, 1.0, np.int64(5))) == 5

    def test_returns_read_only_columns(self):
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 9)
        assert isinstance(results, SweepResult)
        for name in ("theta", "c12", "c23", "c13", "k"):
            column = getattr(results, name)
            assert column.shape == (9,) and column.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0


def columns(n, **overrides):
    """Valid sweep columns of length ``n`` (K = 1.5 throughout), with
    ``overrides`` replacing whole columns."""
    values = {"theta": np.linspace(0.0, 1.0, n), "c12": np.full(n, 0.5),
              "c23": np.full(n, 0.5), "c13": np.full(n, -0.5)}
    values.update(overrides)
    return values


class TestSweepResult:
    def test_points_are_lg_results(self):
        results = SweepResult(**columns(4))
        assert len(results) == 4
        assert results[1] == LGResult(theta=1 / 3, c12=0.5, c23=0.5, c13=-0.5, k=1.5)
        assert results[-1].theta == 1.0
        assert list(results) == [results[i] for i in range(4)]
        assert all(type(field) is float for field in vars(results[0]).values())

    def test_slices_are_sweep_results(self):
        results = SweepResult(**columns(7))
        part = results[::3]
        assert isinstance(part, SweepResult)
        np.testing.assert_array_equal(part.theta, results.theta[::3])
        assert list(part) == list(results)[::3]

    @pytest.mark.parametrize("name,column,message", [
        ("theta", [0.0, math.nan, 1.0], "theta must be finite and >= 0, got nan"),
        ("theta", [0.0, 0.5, math.inf], "theta must be finite and >= 0, got inf"),
        ("theta", [-1e-3, 0.5, 1.0], "theta must be finite and >= 0, got -0.001"),
        ("c12", [0.5, 1.25, 0.5], r"\|c12\| exceeds 1: 1.25"),
        ("c23", [0.5, 0.5, math.nan], r"\|c23\| exceeds 1: nan"),
        ("c13", [-1.5, -0.5, -0.5], r"\|c13\| exceeds 1: -1.5"),
        ("theta", [0.0, -math.inf, 1.0], "theta must be finite and >= 0, got -inf"),
        ("c12", [math.nan, 0.5, 0.5], r"\|c12\| exceeds 1: nan"),
        ("c13", [-0.5, math.nan, -0.5], r"\|c13\| exceeds 1: nan"),
    ])
    def test_rejects_a_bad_column_naming_field_and_first_value(self, name, column,
                                                               message):
        with pytest.raises(ValueError, match=message):
            SweepResult(**columns(3, **{name: column}))

    @settings(max_examples=50, deadline=None)
    @given(c=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_k_is_formed_from_the_correlators(self, c):
        """k is bitwise c12 + c23 - c13 and read-only; it cannot be passed."""
        c12, c23, c13 = (np.full(2, value) for value in c)
        results = SweepResult(np.zeros(2), c12, c23, c13)
        assert results.k.tobytes() == (c12 + c23 - c13).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            results.k[0] = 0.0
        with pytest.raises(TypeError):
            SweepResult(np.zeros(2), c12, c23, c13, k=c12 + c23 - c13)
        with pytest.raises(TypeError):
            SweepResult(np.zeros(2), c12, c23, c13, c12 + c23 - c13)

    @pytest.mark.parametrize("override", [{"c13": np.full(2, -0.5)},
                                          {"theta": np.zeros((3, 1))}])
    def test_rejects_ragged_or_stacked_columns(self, override):
        with pytest.raises(ValueError, match="1-d and of equal length"):
            SweepResult(**columns(3, **override))

    def test_columns_are_read_only_copies(self):
        theta = np.linspace(0.0, 1.0, 3)
        results = SweepResult(**columns(3, theta=theta))
        theta[0] = 5.0
        assert results.theta[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            results.k[0] = 0.0
        with pytest.raises(AttributeError):
            results.k = np.zeros(3)

    def test_exported_from_the_package(self):
        import lgsim

        assert lgsim.SweepResult is SweepResult


class TestFindViolations:
    def test_full_cycle_has_two_regions(self):
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 181)
        intervals = find_violations(results)
        assert len(intervals) == 2
        (lo1, hi1), (lo2, hi2) = intervals
        assert abs(lo1 - 0.0) <= 1e-6
        assert abs(hi1 - math.pi / 2) <= 1e-6
        assert abs(lo2 - 3 * math.pi / 2) <= 1e-6
        assert abs(hi2 - 2 * math.pi) <= 1e-6

    def test_no_violation_below_threshold(self):
        results = sweep(EVO, maximally_mixed(), 1.0, 2.0, 4.0, 21)
        assert find_violations(results) == []

    def test_single_point_gives_degenerate_interval(self):
        point = SweepResult(**columns(1, theta=[math.pi / 3]))
        intervals = find_violations(point)
        assert intervals == [(math.pi / 3, math.pi / 3)]

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            find_violations(SweepResult(**columns(0)))

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError, match="sorted"):
            find_violations(SweepResult(**columns(2, theta=[1.0, 0.5])))

    def test_edges_stay_finite_near_the_float_limit(self):
        """Past 9e307 every grid gap holds roots of K - 1 a float apart; the
        upper edge is the nearest, the last violating point itself."""
        results = sweep(EVO, maximally_mixed(), 1.0, 9.5e307, 9.51e307, 9)
        assert find_violations(results) == [(9.5e307, 9.505e307)]

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
           ends_on_a_turn=st.booleans())
    def test_edges_match_a_bisection_of_the_closed_form(self, steps, ends_on_a_turn):
        """On grids of spacing 0.01-1.0 (each gap holds at most one root of
        K - 1), sometimes ending where K touches 1 at a multiple of 2 pi."""
        thetas = np.cumsum(steps)
        if ends_on_a_turn:
            turn = math.tau * math.ceil(thetas[-1] / math.tau)
            thetas = np.append(thetas[:-1] + (turn - thetas[-1]), turn)
        results = SweepResult(thetas, np.cos(thetas), np.cos(thetas), np.cos(2 * thetas))
        got = find_violations(results)
        want = bisected_violations(results)
        assert len(got) == len(want)
        for edges, wanted in zip(got, want):
            for edge, target in zip(edges, wanted):
                # K - 1 grows as (theta - 2 pi k)^2 where it only touches 1
                tol = 1e-7 if math.isclose(math.cos(target), 1.0, abs_tol=1e-9) else 1e-8
                assert abs(edge - target) <= tol

    def test_takes_no_second_argument(self):
        """A stale positional threshold or continuation raises."""
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 11)
        with pytest.raises(TypeError):
            find_violations(results, 1.0)
        with pytest.raises(TypeError):
            find_violations(results, k_fn=analytic_k)

    def test_coarse_grid_gets_the_root_nearest_the_violating_point(self):
        """Spacing 1.25 pi: the gap after 3.75 pi holds 4 pi, where K touches
        1, and 4.5 pi, where it crosses; the edge is the nearer, 4 pi."""
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 20 * math.pi, 17)
        lo, hi = find_violations(results)[0]
        assert lo == pytest.approx(3.5 * math.pi, abs=1e-12)
        assert hi == pytest.approx(4.0 * math.pi, abs=1e-12)
        assert analytic_k(4.0 * math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_reads_no_continuation(self, monkeypatch):
        """The edges of the default sweep come with no call to ``analytic_k``
        and no cosine at all."""
        def refuse(theta):
            raise AssertionError("find_violations evaluated K off the grid")

        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 2 * math.pi, 721)
        monkeypatch.setattr("lgsim.leggett_garg.analytic_k", refuse)
        monkeypatch.setattr(np, "cos", refuse)
        assert find_violations(results) == [(0.0, 0.5 * math.pi), (1.5 * math.pi, 2 * math.pi)]

    def test_boundary_point_not_flagged(self):
        """K = 1 exactly (theta = 0) sits on the bound, not above it.

        Near zero K - 1 grows as theta^2, so both grid points of a [0, 1e-9]
        sweep stay inside the guard band and no interval is reported.
        """
        results = sweep(EVO, maximally_mixed(), 1.0, 0.0, 1e-9, 2)
        assert find_violations(results) == []

    def test_guard_band_spares_a_k_just_above_the_bound(self):
        """The only K above 1 is 1 + 1e-13, at the last grid point: inside
        the 1e-12 guard band, so no interval is reported."""
        c23 = np.array([0.5, 0.4, 0.3, 0.2, 0.5 + 1e-13])
        results = SweepResult(np.linspace(0.0, 1.0, 5), np.full(5, 0.5), c23, np.zeros(5))
        assert (results.k[:-1] <= 1.0).all() and results.k[-1] > 1.0
        assert find_violations(results) == []

    def test_edges_near_1e7_sit_on_the_crossings(self):
        """Near theta = 1e7 adjacent floats lie about 1.9e-9 apart; each
        interior edge still has K within 1e-7 of the bound."""
        results = sweep(EVO, maximally_mixed(), 1.0, 1e7, 1e7 + 10, 721)
        intervals = find_violations(results)
        assert intervals
        for lo, hi in intervals:
            for end in (lo, hi):
                if end not in (results.theta[0], results.theta[-1]):
                    assert abs(analytic_k(end) - 1.0) < 1e-7


def bisected_violations(results):
    """``find_violations`` as a walk over the points, one run at a time, each
    interior edge bisected on ``analytic_k`` to 1e-9: the reference the
    closed-form edges are checked against."""
    def bisect(outside, inside):
        a, b = outside, inside
        while abs(b - a) > 1e-9:
            mid = 0.5 * a + 0.5 * b
            if mid in (a, b):
                break
            a, b = (a, mid) if analytic_k(mid) > 1.0 else (mid, b)
        return 0.5 * a + 0.5 * b

    thetas = results.theta.tolist()
    above = (results.k > 1.0 + 1e-12).tolist()
    intervals = []
    i, n = 0, len(thetas)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo = bisect(thetas[i - 1], thetas[i]) if i > 0 else thetas[i]
        hi = bisect(thetas[j + 1], thetas[j]) if j + 1 < n else thetas[j]
        intervals.append((lo, hi))
        i = j + 1
    return intervals
