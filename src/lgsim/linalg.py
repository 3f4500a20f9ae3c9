"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package is a plain ``numpy`` array of ``complex`` entries;
states, gates and observables are 2x2 or 4x4 matrices.  The constructors
``operator``, ``unitary``, ``density`` and ``dichotomic_observable``, and
``expm_hermitian`` for its generator and phases, validate once, on entry into
the library; Hermitian operands all pass the one private ``_hermitian`` check.
What is built from checked inputs, the exponential included, is not checked
again, and the operations below assume valid inputs and stay pure.  All values
are immutable by convention, so the whole module is safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

# Entrywise tolerance for Hermiticity / unitarity checks.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
# Smallest admissible eigenvalue of a density matrix (round-off slack
# accumulated by 4x4 products).
POSITIVITY_TOL = 1e-10

# Smallest stack ``_product`` hands to its stacked kernels (the crossover
# against numpy's per-matrix ``@`` lies between 8 and 64 matrices).
_STACK_KERNEL_MIN = 32

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def operator(entries, *, stack: bool = False) -> np.ndarray:
    """Coerce ``entries`` to a square complex matrix of dimension 2 or 4, or
    with ``stack`` to a ``(..., n, n)`` stack of such matrices.

    Rejects non-square shapes, dimensions other than 2 and 4 (the register
    here is never larger than one probe plus one system qubit) and non-finite
    entries.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if m.shape[-1] not in (2, 4):
        raise ValueError(f"operator dimension must be 2 or 4, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def _register(rho, what: str, *, stack: bool = True) -> np.ndarray:
    """Coerce a 4x4 register state, or with ``stack`` a ``(..., 4, 4)`` stack
    of them, to a complex array with finite entries; ``what`` names the
    caller in the error."""
    rho = np.asarray(rho, dtype=complex)
    shape = rho.shape[-2:] if stack else rho.shape
    if shape != (4, 4) or not np.isfinite(rho).all():
        raise ValueError(f"{what} expects a 4x4 register state with finite entries")
    return rho


def _hermitian(entries, what: str, dim: int | None = None) -> np.ndarray:
    """Coerce ``entries`` with ``operator`` and raise unless it is Hermitian,
    and of dimension ``dim`` when given; ``what`` names the operand."""
    m = operator(entries)
    if (dim is not None and m.shape[0] != dim) or not is_hermitian(m):
        size = f"{dim}x{dim} " if dim else ""
        raise ValueError(f"{what} must be {size}Hermitian")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """Whether the matrix, or every matrix of the stack, ``m`` is Hermitian."""
    return bool(np.max(np.abs(m - dagger(m))) <= HERMITIAN_TOL)


def unitary(entries) -> np.ndarray:
    """Validate that ``entries`` is unitary (U U+ = I entrywise to 1e-12)."""
    u = operator(entries)
    residual = np.max(np.abs(u @ dagger(u) - np.eye(len(u))))
    if not residual <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (|UU+ - I| = {residual:.3e})")
    return u


def density(entries) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive.

    Positivity is checked with slack ``-1e-10`` on the smallest eigenvalue to
    absorb round-off from repeated 4x4 products.
    """
    rho = _hermitian(entries, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr:.12g}")
    lowest = np.linalg.eigvalsh(rho)[0]
    if lowest < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def dichotomic_observable(entries) -> np.ndarray:
    """Validate a 2x2 Hermitian observable with O^2 = I (eigenvalues +-1)."""
    obs = _hermitian(entries, "observable", 2)
    if np.max(np.abs(obs @ obs - IDENTITY_2)) > HERMITIAN_TOL:
        raise ValueError("observable must be dichotomic (square to the identity)")
    return obs


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for matrices or stacks of matrices whose leading axes broadcast.

    numpy's ``@`` on a stack calls BLAS once per matrix, which at 2x2 and 4x4
    costs far more than the arithmetic.  Here a single matrix against a stack
    is one gemm: on the rows of the stack when the single matrix is on the
    right, on the stack laid out contraction index first when it is on the
    left.  Two stacks accumulate over the contraction index with the stack
    as the innermost, contiguous axis.  Single matrices and stacks of fewer
    than ``_STACK_KERNEL_MIN`` matrices, where the fixed cost of these
    kernels exceeds the per-matrix calls, use ``@``.  Stacked results may be
    strided views in either layout.
    """
    if max(a.size, b.size) < _STACK_KERNEL_MIN * a.shape[-1] * b.shape[-1]:
        return a @ b
    if b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    if a.ndim == 2:
        bt = b.transpose(_matrix_axes_first(b.ndim))
        out = (a @ bt.reshape(bt.shape[0], -1)).reshape(a.shape[:1] + bt.shape[1:])
        return out.transpose(_matrix_axes_last(out.ndim))
    # pad both stacks to one rank so their trailing (stack) axes broadcast
    rank = max(a.ndim, b.ndim)
    at = a.reshape((1,) * (rank - a.ndim) + a.shape).transpose(_matrix_axes_first(rank))
    bt = b.reshape((1,) * (rank - b.ndim) + b.shape).transpose(_matrix_axes_first(rank))
    # No copies of the operands, and the only temporary is one row of the
    # result: fresh stack-sized temporaries cost more in page faults than
    # the arithmetic does.
    out = np.multiply(at[:, 0, None], bt[None, 0], order="C")
    term = np.empty_like(out[0])
    for i, row in enumerate(out):
        for k in range(1, at.shape[1]):
            row += np.multiply(at[i, k], bt[k], out=term)
    return out.transpose(_matrix_axes_last(rank))


def _matrix_axes_first(ndim: int) -> tuple[int, ...]:
    """Axis order that moves the two matrix axes of a stack to the front."""
    return (ndim - 2, ndim - 1, *range(ndim - 2))


def _matrix_axes_last(ndim: int) -> tuple[int, ...]:
    """The inverse of ``_matrix_axes_first``."""
    return (*range(2, ndim), 0, 1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` as the left (probe-side) factor.

    Either factor may be a stack of matrices; leading axes broadcast.  The
    register is capped at two qubits, so the result may not exceed
    dimension 4.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[-1] * b.shape[-1]
    if n > 4:
        raise ValueError(
            f"kron result dimension {n} exceeds the two-qubit register"
        )
    # einsum beats np.kron by a wide margin at these fixed small sizes
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (n, n))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(a, dtype=complex), -1, -2).conj()


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of one wire of a two-qubit register, or of each
    register state of a ``(..., 4, 4)`` stack.

    ``keep`` selects the wire whose state is returned: ``"probe"`` is the
    left Kronecker factor, ``"system"`` the right.
    """
    rho = _register(rho, "partial_trace")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "probe":
        return np.einsum("...isjs->...ij", r)
    if keep == "system":
        return np.einsum("...sisj->...ij", r)
    raise ValueError(f"keep must be 'probe' or 'system', got {keep!r}")


def expm_hermitian(h: np.ndarray, angle) -> np.ndarray:
    """exp(-i * angle * h) for a 2x2 Hermitian generator, in closed form.

    ``angle`` is a number, or an array of shape S giving a stack of shape
    S + (2, 2).  Writing h = a0*I + a.sigma, the exponential is
    exp(-i*angle*a0) * (cos(angle*|a|) I - i sin(angle*|a|) (a/|a|).sigma),
    which is exact for a single qubit; no series or scaling-and-squaring is
    involved.  The phases angle*|a| and angle*a0 must be finite; |a| is taken
    by ``math.hypot``, so the result is unitary to round-off and not checked.
    """
    h = _hermitian(h, "generator", 2)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    ax, ay = h[0, 1].real, -h[0, 1].imag
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        a0 = (h[0, 0].real + h[1, 1].real) / 2.0
        az = (h[0, 0].real - h[1, 1].real) / 2.0
        norm = math.hypot(ax, ay, az)
        turn, shift = angle * norm, angle * a0
    if not (np.isfinite(turn).all() and np.isfinite(shift).all()):
        raise ValueError("expm_hermitian needs finite angles, angle*|a| and angle*a0")
    phase = np.cos(shift) - 1j * np.sin(shift)
    if norm == 0.0:
        return phase * IDENTITY_2
    axis = (ax / norm) * SIGMA_X + (ay / norm) * SIGMA_Y + (az / norm) * SIGMA_Z
    return phase * (np.cos(turn) * IDENTITY_2 - 1j * np.sin(turn) * axis)


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 2x2 or 4x4 matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and the matching eigenvectors as columns of a unitary
    matrix.
    """
    return np.linalg.eigh(_hermitian(h, "eig_hermitian matrix"))


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Half the sum of |eigenvalues| of (a - b); in [0, 1] for states.

    ``a`` and ``b`` may be ``(..., n, n)`` stacks whose leading axes
    broadcast: the result is then an array over those axes, from one
    eigenvalue call.  A single pair gives a float.
    """
    a, b = operator(a, stack=True), operator(b, stack=True)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    diff = a - b
    if not is_hermitian(diff):
        raise ValueError("trace_distance requires Hermitian inputs")
    distance = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(distance) if distance.ndim == 0 else distance


def overlap_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized Hilbert-Schmidt overlap Tr(ab) / sqrt(Tr(a^2) Tr(b^2)).

    Defined for any pair of nonzero Hermitian matrices, in particular for
    traceless deviation matrices where state fidelities do not apply.  The
    value lies in [-1, 1].
    """
    a, b = _hermitian(a, "overlap_fidelity a"), _hermitian(b, "overlap_fidelity b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        na, nb = np.trace(a @ a).real, np.trace(b @ b).real
        squares = float(na * nb)
    if not math.isfinite(squares):
        raise ValueError(f"overlap_fidelity overflows: Tr(a^2) Tr(b^2) = {squares!r}")
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("overlap_fidelity is undefined for a zero matrix")
    return float(np.trace(a @ b).real / math.sqrt(squares))
