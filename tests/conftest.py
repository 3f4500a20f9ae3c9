import numpy as np
import pytest

from lgsim import linalg


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the memos of the checks in ``lgsim.linalg`` before each test, so
    call counts do not depend on which tests ran before."""
    for memo in linalg._MEMOS:
        memo.cache_clear()


def scattering_reference(h, obs, theta_k, theta_m) -> np.ndarray:
    """V = H C E_m C E_k H of the scattering circuit from numpy primitives
    alone, one circuit at a time: ``np.kron`` with the probe on the left, the
    Hadamard, |0><0| and |1><1| written out, and exp(-i theta h) from
    ``np.linalg.eigh(h)``.  (4, 4) for number times, S + (4, 4) for times
    of broadcast shape S."""
    hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))
    controlled = (np.kron(np.diag([1.0, 0.0]), np.eye(2))
                  + np.kron(np.diag([0.0, 1.0]), obs))
    energies, vectors = np.linalg.eigh(h)

    def evolve(theta):
        one_wire = (vectors * np.exp(-1j * theta * energies)) @ vectors.conj().T
        return np.kron(np.eye(2), one_wire)

    theta_k, theta_m = np.broadcast_arrays(theta_k, theta_m)
    v = np.empty(theta_k.shape + (4, 4), dtype=complex)
    for index in np.ndindex(theta_k.shape):
        t_k, t_m = theta_k[index], theta_m[index]
        v[index] = hadamard @ controlled @ evolve(t_m - t_k) @ controlled @ evolve(t_k) @ hadamard
    return v
