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
