"""T2 dephasing channel and Pauli-basis tomography with readout noise."""

import math

import numpy as np
import pytest
from conftest import random_density

from lgsim.leggett_garg import SweepResult
from lgsim.nmr import (
    NoiseOverflow,
    ReadoutNoise,
    T2Config,
    TomographyRecord,
    k_attenuation_check,
    reconstruct,
    t2_dephase,
    tomograph,
    tomography_fidelity_experiment,
)
from lgsim.states import KET0, maximally_mixed, pure_density

# The experimental setting this models: hydrogen probe T2 = 3 s, carbon
# system T2 = 0.8 s, full protocol about 10 ms.
EXPERIMENT_T2 = T2Config(t2_probe=3.0, t2_system=0.8, duration=0.01)

BELL_PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2.0
NO_NOISE = ReadoutNoise(sigma=0.0, seed=0)


def coherent_register(rng):
    """A random 4x4 density matrix with nonzero coherences everywhere."""
    return random_density(rng, 4)


class TestT2Config:
    def test_rejects_nonpositive_t2(self):
        with pytest.raises(ValueError, match="positive"):
            T2Config(t2_probe=0.0, t2_system=1.0, duration=0.01)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            T2Config(t2_probe=1.0, t2_system=1.0, duration=-0.01)

    @pytest.mark.parametrize("field", ["t2_probe", "t2_system", "duration"])
    def test_rejects_nan_naming_the_field(self, field):
        values = {"t2_probe": 1.0, "t2_system": 1.0, "duration": 0.01, field: math.nan}
        with pytest.raises(ValueError, match=field):
            T2Config(**values)

    def test_rejects_an_infinite_duration(self):
        """With an infinite T2 too, duration / t2 would be NaN."""
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            T2Config(t2_probe=math.inf, t2_system=math.inf, duration=math.inf)


class TestT2Dephase:
    def test_zero_duration_is_identity(self, rng):
        rho = coherent_register(rng)
        cfg = T2Config(t2_probe=3.0, t2_system=0.8, duration=0.0)
        np.testing.assert_allclose(t2_dephase(rho, cfg), rho, atol=0)

    def test_system_coherence_factor(self, rng):
        """10 ms against T2 = 0.8 s damps system coherences by e^-0.0125."""
        rho = coherent_register(rng)
        out = t2_dephase(rho, EXPERIMENT_T2)
        factor = out[0, 1] / rho[0, 1]  # same probe index, system 0 vs 1
        assert abs(factor - math.exp(-0.0125)) <= 1e-12
        assert abs(factor - 0.987578) <= 1e-6

    def test_probe_coherence_factor(self, rng):
        """10 ms against T2 = 3 s damps probe coherences by e^(-1/300)."""
        rho = coherent_register(rng)
        out = t2_dephase(rho, EXPERIMENT_T2)
        factor = out[0, 2] / rho[0, 2]  # probe 0 vs 1, same system index
        assert abs(factor - math.exp(-0.01 / 3.0)) <= 1e-12
        assert abs(factor - 0.996672) <= 1e-6

    def test_double_coherences_get_product_factor(self, rng):
        rho = coherent_register(rng)
        out = t2_dephase(rho, EXPERIMENT_T2)
        factor = out[0, 3] / rho[0, 3]  # both wires flip basis state
        expected = math.exp(-0.01 / 3.0) * math.exp(-0.0125)
        assert abs(factor - expected) <= 1e-12

    def test_populations_untouched(self, rng):
        rho = coherent_register(rng)
        out = t2_dephase(rho, EXPERIMENT_T2)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=0)

    def test_preserves_trace_and_hermiticity(self, rng):
        rho = coherent_register(rng)
        out = t2_dephase(rho, EXPERIMENT_T2)
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-15)

    def test_multiplicative_in_duration(self, rng):
        rho = coherent_register(rng)
        once = T2Config(t2_probe=2.0, t2_system=0.5, duration=0.04)
        twice = T2Config(t2_probe=2.0, t2_system=0.5, duration=0.08)
        np.testing.assert_allclose(
            t2_dephase(t2_dephase(rho, once), once), t2_dephase(rho, twice),
            atol=1e-12,
        )


class TestKAttenuation:
    def test_infinite_t2_changes_nothing(self):
        cfg = T2Config(t2_probe=math.inf, t2_system=math.inf, duration=0.01)
        k_ideal, k_noisy = k_attenuation_check(cfg, math.pi / 3)
        assert abs(k_noisy - k_ideal) <= 1e-12

    def test_experimental_parameters_are_negligible(self):
        """The drop at theta = pi/3 equals the probe factor e^(-1/300) < 2%."""
        k_ideal, k_noisy = k_attenuation_check(EXPERIMENT_T2, math.pi / 3)
        ratio = k_noisy / k_ideal
        assert abs(k_ideal - 1.5) <= 1e-12
        assert abs(ratio - 0.9966722160545233) <= 1e-12
        assert ratio >= 0.98

    def test_long_exposure_kills_the_signal(self):
        cfg = T2Config(t2_probe=3.0, t2_system=0.8, duration=10.0)
        k_ideal, k_noisy = k_attenuation_check(cfg, math.pi / 3)
        assert abs(k_noisy - math.exp(-10.0 / 3.0) * k_ideal) <= 1e-12
        assert k_noisy < 0.1 * k_ideal

    @pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_bad_theta_naming_it(self, theta):
        with pytest.raises(ValueError, match=f"theta must be finite and >= 0, got {theta}"):
            k_attenuation_check(EXPERIMENT_T2, theta)

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_vanishing_reference_is_an_error(self, eps):
        with pytest.raises(ValueError, match="reference signal vanished"):
            k_attenuation_check(EXPERIMENT_T2, math.pi / 3, eps)

    def test_both_k_are_the_k_column_of_one_checked_record(self, monkeypatch):
        """The ideal and the dephased K pass the checks of one two-row
        ``SweepResult`` at (theta, theta), as every K the library returns."""
        records = []
        check = SweepResult.__post_init__

        def counted(record):
            check(record)
            records.append(record)

        monkeypatch.setattr(SweepResult, "__post_init__", counted)
        k_ideal, k_noisy = k_attenuation_check(EXPERIMENT_T2, math.pi / 3)
        assert len(records) == 1
        assert records[0].theta.tolist() == [math.pi / 3] * 2
        assert records[0].k.tolist() == [k_ideal, k_noisy]


class TestReadoutNoise:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ReadoutNoise(sigma=-0.1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ReadoutNoise(sigma=0.1, seed=-1)

    def test_rejects_nan_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ReadoutNoise(sigma=math.nan, seed=0)

    def test_rejects_infinite_sigma(self):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ReadoutNoise(sigma=math.inf, seed=0)

    @pytest.mark.parametrize("seed", [math.nan, math.inf, 1.5, 3.0, True, -1])
    def test_rejects_a_non_integral_seed_naming_it(self, seed):
        """Floats (3.0 included), bools and negative ints are refused on
        construction, before ``tomograph`` hands the seed to numpy."""
        with pytest.raises(ValueError, match=r"seed must be a non-negative integer"):
            ReadoutNoise(sigma=0.1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 3, np.int64(3)])
    def test_accepts_an_int_seed(self, seed):
        assert ReadoutNoise(sigma=0.1, seed=seed).seed == seed
        np.testing.assert_array_equal(
            tomograph(BELL_PHI_PLUS, ReadoutNoise(0.1, seed)).coefficients,
            tomograph(BELL_PHI_PLUS, ReadoutNoise(0.1, int(seed))).coefficients)


class TestTomograph:
    def test_probe_system_input_state(self):
        """|0><0| (x) I/2 has c_II = c_zI = 1 and nothing else."""
        rho = np.kron(pure_density(KET0), maximally_mixed())
        record = tomograph(rho, NO_NOISE)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0  # II
        expected[3, 0] = 1.0  # zI
        np.testing.assert_allclose(record.coefficients, expected, atol=1e-15)
        assert record.coefficient("z", "I") == 1.0

    def test_bell_state_correlations(self):
        record = tomograph(BELL_PHI_PLUS, NO_NOISE)
        assert abs(record.coefficient("I", "I") - 1.0) <= 1e-15
        assert abs(record.coefficient("x", "x") - 1.0) <= 1e-15
        assert abs(record.coefficient("y", "y") + 1.0) <= 1e-15
        assert abs(record.coefficient("z", "z") - 1.0) <= 1e-15

    def test_same_seed_reproduces_record(self, rng):
        rho = coherent_register(rng)
        noise = ReadoutNoise(sigma=0.05, seed=123)
        a = tomograph(rho, noise)
        b = tomograph(rho, noise)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_different_seeds_differ(self, rng):
        rho = coherent_register(rng)
        a = tomograph(rho, ReadoutNoise(sigma=0.05, seed=1))
        b = tomograph(rho, ReadoutNoise(sigma=0.05, seed=2))
        assert np.max(np.abs(a.coefficients - b.coefficients)) > 0.0

    def test_trace_coefficient_stays_exact_under_noise(self, rng):
        rho = coherent_register(rng)
        record = tomograph(rho, ReadoutNoise(sigma=0.5, seed=7))
        assert record.coefficient("I", "I") == pytest.approx(1.0, abs=1e-12)

    def test_record_shape_validated(self):
        with pytest.raises(ValueError, match="4x4"):
            TomographyRecord(np.zeros((3, 3)))

    def test_record_keeps_no_reference_to_the_callers_table(self):
        c = np.eye(4)
        record = TomographyRecord(c)
        c[1, 1] = 7.0
        assert record.coefficient("x", "x") == 1.0
        with pytest.raises(ValueError, match="read-only"):
            record.coefficients[1, 1] = 7.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_record_rejects_non_finite_coefficients(self, value):
        c = np.zeros((4, 4))
        c[0, 0], c[2, 3] = 1.0, value
        with pytest.raises(ValueError, match="finite"):
            TomographyRecord(c)

    @pytest.mark.parametrize("sigma", [np.finfo(float).max, float(np.finfo(float).max)])
    def test_noise_past_the_float_range_raises_naming_sigma(self, sigma):
        rho = np.kron(pure_density(KET0), maximally_mixed())
        with pytest.raises(NoiseOverflow, match="sigma = 1.7976931348623157e"):
            tomograph(rho, ReadoutNoise(sigma=sigma, seed=42))
        assert issubclass(NoiseOverflow, ValueError)

    def test_rejects_a_non_hermitian_matrix(self):
        """Its coefficients would lose their imaginary parts, and the
        reconstruction land 0.5 away from the input."""
        rho = np.zeros((4, 4))
        rho[0, 1] = 1.0
        with pytest.raises(ValueError, match="tomograph expects a Hermitian"):
            tomograph(rho, NO_NOISE)


class TestReconstruct:
    def test_round_trip_without_noise(self, rng):
        for _ in range(100):
            rho = random_density(rng, 4)
            recovered = reconstruct(tomograph(rho, NO_NOISE))
            np.testing.assert_allclose(recovered, rho, atol=1e-12)

    def test_trace_only_record_is_maximally_mixed(self):
        c = np.zeros((4, 4))
        c[0, 0] = 1.0
        np.testing.assert_allclose(reconstruct(TomographyRecord(c)), np.eye(4) / 4.0,
                                   atol=0)

    def test_reconstruction_is_hermitian(self, rng):
        rho = coherent_register(rng)
        recovered = reconstruct(tomograph(rho, ReadoutNoise(sigma=0.1, seed=5)))
        np.testing.assert_allclose(recovered, recovered.conj().T, atol=1e-14)


class TestFidelityExperiment:
    def test_noise_free_fidelity_is_unity(self):
        assert abs(tomography_fidelity_experiment(0.0, seed=0) - 1.0) <= 1e-12

    def test_moderate_noise_brackets_high_fidelity(self):
        fids = [tomography_fidelity_experiment(0.03, seed) for seed in range(100)]
        mean = float(np.mean(fids))
        assert 0.98 <= mean <= 1.0
        assert all(0.0 < f < 1.0 + 1e-12 for f in fids)

    def test_nan_noise_is_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            tomography_fidelity_experiment(math.nan, seed=1)

    def test_heavy_noise_destroys_fidelity(self):
        fids = [tomography_fidelity_experiment(1.0, seed) for seed in range(5)]
        assert all(f < 0.9 for f in fids)
