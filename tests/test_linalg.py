"""Core linear algebra: products, partial traces, exponentials, fidelities."""

import math
import sys
import threading

import numpy as np
import pytest
from conftest import random_density, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import linalg
from lgsim.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    density,
    dichotomic_observable,
    expm_hermitian,
    kron,
    operator,
    overlap_fidelity,
    partial_trace,
    trace_distance,
    unitary,
)

KET0_PROJ = np.array([[1, 0], [0, 0]], dtype=complex)
KET1_PROJ = np.array([[0, 0], [0, 1]], dtype=complex)
BELL_PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


class TestProducts:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            operator(np.eye(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            operator([[np.nan, 0], [0, 1]])


class TestKron:
    def test_probe_left_ordering(self):
        got = kron(KET0_PROJ, IDENTITY_2 / 2.0)
        np.testing.assert_allclose(got, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4), atol=0)

    def test_zz(self):
        np.testing.assert_allclose(
            kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0
        )

    def test_matches_numpy_kron(self, rng):
        for _ in range(25):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-14)

    def test_broadcasts_stacks_as_numpy_kron_per_matrix(self, rng):
        a = rng.normal(size=(3, 1, 2, 2)) + 1j * rng.normal(size=(3, 1, 2, 2))
        b = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        got = kron(a, b)
        assert got.shape == (3, 5, 4, 4)
        for i, j in np.ndindex(3, 5):
            np.testing.assert_array_equal(got[i, j], np.kron(a[i, 0], b[j]))

    def test_rejects_more_than_two_qubits(self):
        with pytest.raises(ValueError, match="register"):
            kron(np.eye(4), IDENTITY_2)

    def test_trace_factorizes(self, rng):
        """Tr(A (x) B) = Tr(A) Tr(B)."""
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


class TestDaggerTrace:
    def test_hermitian_fixed_point(self):
        np.testing.assert_allclose(dagger(SIGMA_Y), SIGMA_Y, atol=0)

    def test_unitary_inverse(self):
        u = expm_hermitian(SIGMA_X, 0.7)
        np.testing.assert_allclose(dagger(u), expm_hermitian(SIGMA_X, -0.7), atol=1e-15)

    def test_involution(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(dagger(dagger(a)), a, atol=0)


class TestPartialTrace:
    def test_product_state(self):
        rho = kron(KET0_PROJ, KET0_PROJ)
        np.testing.assert_allclose(partial_trace(rho, "system"), KET0_PROJ, atol=1e-15)

    def test_mixed_system_factor(self):
        rho = kron(KET0_PROJ, IDENTITY_2 / 2.0)
        np.testing.assert_allclose(
            partial_trace(rho, "system"), IDENTITY_2 / 2.0, atol=1e-15
        )

    def test_bell_state_reduces_to_mixed(self):
        np.testing.assert_allclose(
            partial_trace(BELL_PHI_PLUS, "probe"), IDENTITY_2 / 2.0, atol=1e-15
        )

    def test_recovers_left_factor(self, rng):
        for _ in range(20):
            ra = random_density(rng, 2)
            rb = random_density(rng, 2)
            np.testing.assert_allclose(
                partial_trace(kron(ra, rb), "probe"), ra, atol=1e-12
            )

    def test_preserves_trace(self, rng):
        rho = random_density(rng, 4)
        reduced = partial_trace(rho, "system")
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-14

    def test_bad_wire(self):
        with pytest.raises(ValueError, match="probe"):
            partial_trace(BELL_PHI_PLUS, "ancilla")


class TestExpmHermitian:
    def test_quarter_turn(self):
        """exp(-i sigma_x pi/2) = -i sigma_x."""
        np.testing.assert_allclose(
            expm_hermitian(SIGMA_X, math.pi / 2), -1j * SIGMA_X, atol=1e-15
        )

    def test_zero_angle(self):
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, 0.0), IDENTITY_2, atol=0)

    def test_eighth_turn(self):
        expected = (IDENTITY_2 - 1j * SIGMA_X) / math.sqrt(2)
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, math.pi / 4), expected,
                                   atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0, 1], [0, 0]]), 1.0)

    @pytest.mark.parametrize("angle", [0.0, 1e-300, 1.0])
    def test_overflowing_generator_raises_for_every_angle(self, angle):
        """a0 and |a| of diag(1e308, -1e308) overflow; each phase is then not
        finite, and the check that says so runs without a numpy warning."""
        for _ in range(2):
            with pytest.raises(ValueError, match="needs finite angles"):
                expm_hermitian(np.diag([1e308, -1e308]), angle)

    def test_always_unitary(self, rng):
        for _ in range(30):
            h = random_hermitian(rng, 2)
            t = rng.uniform(-10, 10)
            u = expm_hermitian(h, t)
            np.testing.assert_allclose(u @ u.conj().T, IDENTITY_2, atol=1e-12)

    def test_group_property(self, rng):
        """exp(-ish) exp(-ith) = exp(-i(s+t)h)."""
        for _ in range(30):
            h = random_hermitian(rng, 2)
            s, t = rng.uniform(-5, 5, size=2)
            lhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
            np.testing.assert_allclose(lhs, expm_hermitian(h, s + t), atol=1e-12)

    def test_scalar_part_contributes_phase(self):
        u = expm_hermitian(IDENTITY_2, 0.4)
        np.testing.assert_allclose(u, np.exp(-0.4j) * IDENTITY_2, atol=1e-15)


class TestTraceDistance:
    def test_self_distance(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(KET0_PROJ, KET1_PROJ) - 1.0) <= 1e-14

    def test_pure_vs_mixed(self):
        """Eigenvalues of the difference are +-1/2, so the distance is 1/2."""
        assert abs(trace_distance(KET0_PROJ, IDENTITY_2 / 2.0) - 0.5) <= 1e-14

    def test_symmetry_and_triangle(self, rng):
        for _ in range(15):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            c = random_density(rng, 4)
            dab = trace_distance(a, b)
            assert abs(dab - trace_distance(b, a)) <= 1e-10
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10
            assert -1e-12 <= dab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(KET0_PROJ, np.eye(4) / 4.0)


class TestOverlapFidelity:
    def test_self_overlap(self):
        delta = np.diag([0.25, 0.25, -0.25, -0.25]).astype(complex)
        assert abs(overlap_fidelity(delta, delta) - 1.0) <= 1e-15

    def test_anti_aligned(self):
        assert abs(overlap_fidelity(SIGMA_Z, -SIGMA_Z) + 1.0) <= 1e-15

    def test_orthogonal_paulis(self):
        assert overlap_fidelity(SIGMA_Z, SIGMA_X) == 0.0

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError, match="zero"):
            overlap_fidelity(np.zeros((2, 2)), SIGMA_Z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-100, 1e-78, 1e-160])
    def test_tiny_matrices_whose_squared_norms_underflow_in_product(self, scale):
        """Tr(a^2) Tr(b^2) is 0 or subnormal while each factor is positive."""
        a = scale * SIGMA_Z
        assert abs(overlap_fidelity(a, a) - 1.0) <= 1e-15
        assert abs(overlap_fidelity(a, -a) + 1.0) <= 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            overlap_fidelity(np.array([[0, 1], [0, 0]]), SIGMA_Z)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]),
           s=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
           t=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
    def test_is_scale_free(self, seed, dim, s, t):
        """Each operand is divided by its largest part, so no scale in
        [1e-300, 1e300] overflows or underflows the squares."""
        rng = np.random.default_rng(seed)
        a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        assert abs(overlap_fidelity(s * a, t * b) - overlap_fidelity(a, b)) <= 1e-15
        assert overlap_fidelity(a, a) == 1.0
        assert overlap_fidelity(s * a, s * a) == 1.0


class TestConstructors:
    def test_unitary_accepts_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(unitary(h), h, atol=0)

    def test_unitary_rejects_scaled(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary(2.0 * IDENTITY_2)

    def test_density_accepts_random(self, rng):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(density(rho), rho, atol=0)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density(IDENTITY_2)

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            density(np.diag([1.5, -0.5]).astype(complex))


def _checks(rng):
    """Each memoized check with an operand it accepts."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (
        (density, random_density(rng, 4)),
        (dichotomic_observable, SIGMA_X.copy()),
        (unitary, np.linalg.qr(z)[0]),
        (lambda h: expm_hermitian(h, 0.7), random_hermitian(rng, 2)),
    )


@pytest.fixture
def hermitian_checks(monkeypatch):
    """The calls of ``is_hermitian`` made inside ``lgsim.linalg``."""
    calls = []
    original = linalg.is_hermitian

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "is_hermitian", counted)
    return calls


class TestCheckMemo:
    def test_equal_bytes_in_a_new_array_are_not_checked_again(self, rng,
                                                               hermitian_checks):
        for check, operand in _checks(rng):
            hermitian_checks.clear()
            first = check(operand)
            again = check(operand.copy())
            from_list = check(operand.tolist())
            assert len(hermitian_checks) == (check is not unitary)
            np.testing.assert_array_equal(again, first)
            np.testing.assert_array_equal(from_list, first)

    def test_two_evolutions_on_one_generator_check_it_once(self, hermitian_checks):
        expm_hermitian(SIGMA_X + 0.3 * SIGMA_Z, 0.2)
        expm_hermitian(SIGMA_X + 0.3 * SIGMA_Z, np.linspace(0.0, 1.0, 5))
        assert len(hermitian_checks) == 1

    def test_an_operand_edited_in_place_is_checked_again(self):
        rho = np.eye(2, dtype=complex) / 2.0
        density(rho)
        rho[0, 1] = 0.25
        with pytest.raises(ValueError, match="density matrix must be Hermitian"):
            density(rho)
        h = SIGMA_X.copy()
        expm_hermitian(h, 0.3)
        h[0, 1] = 2.0
        with pytest.raises(ValueError, match="generator must be 2x2 Hermitian"):
            expm_hermitian(h, 0.3)
        obs = SIGMA_Z.copy()
        dichotomic_observable(obs)
        obs[1, 1] = 0.5
        with pytest.raises(ValueError, match="observable must be dichotomic"):
            dichotomic_observable(obs)

    @pytest.mark.parametrize("bad, message", [
        (np.full((2, 2), math.nan), "operator entries must be finite"),
        (np.array([[0.5, math.inf], [0.0, 0.5]]), "operator entries must be finite"),
        (np.eye(3) / 3.0, "operator dimension must be 2 or 4, got 3"),
        (np.ones((2, 3)), r"operator must be a square matrix, got shape \(2, 3\)"),
        (np.ones(2), r"operator must be a square matrix, got shape \(2,\)"),
        (np.eye(4) / 4.0, "observable must be 2x2 Hermitian"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "observable must be 2x2 Hermitian"),
    ])
    def test_rejected_inputs_raise_every_time_and_are_not_kept(self, bad, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                dichotomic_observable(bad)
            with pytest.raises(ValueError, match=message.replace("observable", "generator")):
                expm_hermitian(bad, 0.1)
        assert all(memo.cache_info().currsize == 0 for memo in linalg._MEMOS)

    def test_results_are_read_only_copies_of_the_same_bits(self, rng):
        signed_zeros = (dichotomic_observable, np.array([[-0.0, 1.0], [1.0, -0.0]]))
        for check, operand in (*_checks(rng)[:3], signed_zeros):
            operand = operand.astype(complex)
            for _ in range(2):
                checked = check(operand)
                assert checked is not operand and not checked.flags.writeable
                assert checked.tobytes() == operand.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    checked[0, 0] = 0.0
        _, a0, norm, terms = linalg._generator(SIGMA_X)
        assert (a0, norm) == (0.0, 1.0) and not terms.flags.writeable

    def test_each_memo_holds_at_most_its_fixed_size(self, rng):
        for _ in range(3 * linalg._MEMO_SIZE):
            density(random_density(rng, 2))
        sizes = [memo.cache_info().currsize for memo in linalg._MEMOS]
        assert max(sizes) == linalg._MEMO_SIZE

    def test_concurrent_checks_of_more_operands_than_the_memo_holds(self, rng):
        """Threads that evict each other's entries still get each operand's
        own checked bits, and every bad operand raises."""
        goods = [random_density(rng, 2) for _ in range(2 * linalg._MEMO_SIZE)]
        bads = [g + np.array([[0.0, 1.0], [0.0, 0.0]]) for g in goods[:8]]
        failures = []

        def work(offset):
            try:
                for round_ in range(20):
                    for i, good in enumerate(goods):
                        j = (i + offset + round_) % len(goods)
                        if density(goods[j]).tobytes() != goods[j].tobytes():
                            failures.append(j)
                    for bad in bads:
                        try:
                            density(bad)
                        except ValueError:
                            continue
                        failures.append("accepted")
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
