"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package is a plain ``numpy`` array of ``complex`` entries;
states, gates and observables are 2x2 or 4x4 matrices.  The constructors
``operator``, ``unitary``, ``density`` and ``dichotomic_observable``, and
``expm_hermitian`` for its generator and phases, validate once, on entry into
the library; Hermitian operands all pass the one private ``_hermitian`` check.
What is built from checked inputs, the exponential included, is not checked
again, and the operations below assume valid inputs and stay pure.  All values
are immutable by convention, so the whole module is safe for concurrent use.
Besides the exponential itself, ``_expm_terms`` gives a stack of exponentials
as two weight columns over the fixed terms I and n.sigma, the form in which
``circuit`` executes stacked circuits without multiplying stacks of matrices.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Entrywise tolerance for Hermiticity / unitarity checks.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
# Smallest admissible eigenvalue of a density matrix (round-off slack
# accumulated by 4x4 products).
POSITIVITY_TOL = 1e-10

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
    # one broadcast product beats np.kron and einsum at these small sizes
    res = a[..., :, None, :, None] * b[..., None, :, None, :]
    return res.reshape(res.shape[:-4] + (n, n))


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
    phase, cos, sin, axis = _expm_parts(h, angle)
    phase = phase[..., None, None]
    if axis is None:
        return phase * IDENTITY_2
    return phase * (cos[..., None, None] * IDENTITY_2 - 1j * sin[..., None, None] * axis)


def _expm_terms(h: np.ndarray, angle) -> tuple[np.ndarray, np.ndarray]:
    """``expm_hermitian(h, angle)`` as ``(weights, terms)``: weights of shape
    S + (B,) over B fixed 2x2 matrices, the exponential being
    sum_b weights[..., b] terms[b].

    The terms are I and the unit axis (a/|a|).sigma, weighted by
    exp(-i*angle*a0) cos(angle*|a|) and -i exp(-i*angle*a0) sin(angle*|a|);
    for |a| = 0 the one term I carries the phase.  The checks are those of
    ``expm_hermitian``; the sums equal its entries to round-off.
    """
    phase, cos, sin, axis = _expm_parts(h, angle)
    if axis is None:
        return phase[..., None], IDENTITY_2[None]
    return np.stack([phase * cos, -1j * phase * sin], axis=-1), np.stack([IDENTITY_2, axis])


def _expm_parts(h, angle):
    """Check a generator and its phases for ``expm_hermitian``: the phase
    factor exp(-i*angle*a0), cos and sin of angle*|a| (arrays of the shape of
    ``angle``) and the unit axis (a/|a|).sigma, which is None (and cos and
    sin with it) when |a| = 0."""
    h = _hermitian(h, "generator", 2)
    angle = np.asarray(angle, dtype=float)
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
        return phase, None, None, None
    axis = (ax / norm) * SIGMA_X + (ay / norm) * SIGMA_Y + (az / norm) * SIGMA_Z
    return phase, np.cos(turn), np.sin(turn), axis


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
    if squares >= sys.float_info.min:
        norm = math.sqrt(squares)
    else:  # the product underflowed (lost digits or became 0), the factors not
        norm = math.sqrt(na) * math.sqrt(nb)
    return float(np.trace(a @ b).real / norm)
