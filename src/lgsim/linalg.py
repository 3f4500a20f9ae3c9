"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package is a plain ``numpy`` array of ``complex`` entries;
states, gates and observables are 2x2 or 4x4 matrices.  The constructors
``operator``, ``density`` and ``dichotomic_observable``, and
``expm_hermitian`` for a generator and its phases, validate once, on entry into
the library; Hermitian operands pass the one private ``_hermitian`` check,
real ones (angles, times, tables, scalar parameters) the one ``_real``
check, which passes only integer and float input, casting nothing else
(``_number``, at a door that takes a number, also refuses an array).
``density``, ``dichotomic_observable`` and the generator check
``_generator`` are memoized per process: after ``operator``'s shape and
finite checks, each keys on the operand's complex bytes and shape in a
bounded, thread-safe ``functools.lru_cache`` and returns the checked matrix
as a read-only copy, so an operand passed again is not checked again, and
one edited in place is checked anew.  ``_MEMOS`` lists every memo of the
package, these and the readout's and the oracle's, for ``cache_clear``.
What is built from checked inputs, the exponential included, is not checked
again, and the operations below assume valid inputs and stay pure.  Values
are immutable by convention (the memoized checks return read-only arrays),
so the whole module is safe for concurrent use.
``expm_hermitian`` is the one closed form of the exponential, the only one
in the package (``circuit.build_scattering_circuit`` forms its free
evolutions with it); it refuses an angle whose phases are not finite.
``_PAULI_BASIS`` is the package's one two-qubit Pauli basis, and
``_first_bad`` its one message naming an input's first bad value.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Entrywise tolerance for Hermiticity checks.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
# Smallest admissible eigenvalue of a density matrix (round-off slack
# accumulated by 4x4 products).
POSITIVITY_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Entries kept by each memoized check: a working set of a few states,
# observables and generators, not a table that grows with the inputs.
_MEMO_SIZE = 32
# The caches of the package's memos, for ``cache_clear``.
_MEMOS = []


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


def _real(values, what: str):
    """``values`` as floats, a NumPy float for a number or a 0-d input; any but
    integer or float input (complex, bool, text) raises ValueError naming ``what``."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be real, got a {values.dtype} input")
    return values.astype(float, copy=False)[()]


def _first_bad(message: str, values, ok) -> None:
    """Raise ValueError ``message`` with the first entry of ``values``, broadcast
    to the mask ``ok``, where ``ok`` fails, in C order."""
    if not ok.all():
        raise ValueError(f"{message} {float(np.broadcast_to(values, ok.shape)[~ok][0])!r}")


def _number(value, what: str):
    """``_real`` at a door that takes a number: an array raises, naming ``what``."""
    value = _real(value, what)
    if np.ndim(value):
        raise ValueError(f"{what} must be a number, got an array of shape {value.shape}")
    return value


def _memo(check):
    """Run ``check`` once per distinct operand: the wrapper coerces its input
    with ``operator`` (so a malformed or non-finite input is never hashed
    and never cached, and raises every time), then looks the operand up by
    its complex bytes and shape in an ``lru_cache`` of ``_MEMO_SIZE``
    entries.  ``check`` receives a read-only copy and returns what it
    checked; an input it rejects is not cached."""

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def checked(data: bytes, shape: tuple[int, ...]):
        return check(np.frombuffer(data, dtype=complex).reshape(shape))

    @functools.wraps(check)
    def memoized(entries):
        m = operator(entries)
        return checked(m.tobytes(), m.shape)

    _MEMOS.append(checked)
    return memoized


def _hermitian(m: np.ndarray, what: str, dim: int | None = None) -> np.ndarray:
    """Raise unless the operator ``m`` (coerced by ``operator``) is
    Hermitian, and of dimension ``dim`` when given; ``what`` names the
    operand."""
    if (dim is not None and m.shape[0] != dim) or not is_hermitian(m):
        size = f"{dim}x{dim} " if dim else ""
        raise ValueError(f"{what} must be {size}Hermitian")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """Whether the matrix, or every matrix of the stack, ``m`` is Hermitian."""
    return bool(abs(m - dagger(m)).max() <= HERMITIAN_TOL)


@_memo
def density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive; returns
    it as a read-only copy.

    Positivity is checked with slack ``-1e-10`` on the smallest eigenvalue to
    absorb round-off from repeated 4x4 products.
    """
    _hermitian(rho, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr:.12g}")
    lowest = np.linalg.eigvalsh(rho)[0]
    if lowest < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def _qubit_state(rho_sys) -> np.ndarray:
    """``rho_sys`` checked by ``density`` and as a single qubit: the door
    check of the system state, for the oracle and the circuit alike."""
    rho_sys = density(rho_sys)
    if rho_sys.shape[0] != 2:
        raise ValueError("system state must be a single qubit")
    return rho_sys


@_memo
def dichotomic_observable(obs: np.ndarray) -> np.ndarray:
    """Validate a 2x2 Hermitian observable with O^2 = I (eigenvalues +-1);
    returns it as a read-only copy."""
    _hermitian(obs, "observable", 2)
    if abs(obs @ obs - IDENTITY_2).max() > HERMITIAN_TOL:
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
    # one broadcast product beats numpy's kron and einsum at these small sizes
    res = a[..., :, None, :, None] * b[..., None, :, None, :]
    return res.reshape(res.shape[:-4] + (n, n))


_PAULIS = np.stack((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z))
# _PAULI_BASIS[i, j] = sigma_i (x) sigma_j, i, j = 0, x, y, z, probe Pauli first.
_PAULI_BASIS = kron(_PAULIS[:, None], _PAULIS[None, :])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(a, dtype=complex).conj().swapaxes(-1, -2)


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
    exp(-i*angle*a0) * (cos(angle*|a|) I - i sin(angle*|a|) n.sigma) with the
    unit axis n = a/|a| (n.sigma the zero matrix for |a| = 0), which is exact
    for a single qubit; no series or scaling-and-squaring is involved.  The
    generator check, a0, |a| (by ``math.hypot``, so the exponential is unitary
    to round-off, unchecked) and the read-only terms I and n.sigma come from
    the memoized ``_generator``, once per distinct generator.  A real angle
    (``_real``) passes if angle*|a| and angle*a0 are finite.
    """
    a0, norm, terms = _generator(h)
    angle = _real(angle, "angle")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        turn, shift = angle * norm, angle * a0
    if not (np.isfinite(turn).all() and np.isfinite(shift).all()):
        raise ValueError("expm_hermitian needs finite angles, angle*|a| and angle*a0")
    phase = np.exp(-1j * shift)
    weights = np.empty(phase.shape + (2,), dtype=complex)
    np.multiply(phase, np.cos(turn), out=weights[..., 0])
    np.multiply(-1j * phase, np.sin(turn), out=weights[..., 1])
    return (weights @ terms.reshape(-1, 4)).reshape(weights.shape[:-1] + (2, 2))


@_memo
def _generator(h: np.ndarray):
    """The checked 2x2 Hermitian generator h = a0*I + a.sigma of
    ``expm_hermitian``, as ``(a0, |a|, terms)``: the read-only fixed terms I
    and the unit axis (a/|a|).sigma, the zero matrix for |a| = 0.  a0 or |a|
    may overflow to inf (the axis is then NaN), which every phase then
    rejects."""
    _hermitian(h, "generator", 2)
    ax, ay = h[0, 1].real, -h[0, 1].imag
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range
        a0 = (h[0, 0].real + h[1, 1].real) / 2.0
        az = (h[0, 0].real - h[1, 1].real) / 2.0
        norm = math.hypot(ax, ay, az)
        ax, ay, az = (x / (norm or 1.0) for x in (ax, ay, az))
        terms = np.stack((IDENTITY_2, ax * SIGMA_X + ay * SIGMA_Y + az * SIGMA_Z))
    terms.flags.writeable = False
    return a0, norm, terms


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
    value lies in [-1, 1] at any scale: Tr(ab) = sum Re a_ij Re b_ij +
    Im a_ij Im b_ij is taken over the parts of each operand divided by its
    largest |part|, so each Tr(m^2) lies in [1, 32].
    """
    a = _hermitian(operator(a), "overlap_fidelity a")
    b = _hermitian(operator(b), "overlap_fidelity b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    a, b = (np.ascontiguousarray(m).view(float) for m in (a, b))  # Re, Im pairs
    scale_a, scale_b = abs(a).max(), abs(b).max()
    if scale_a == 0.0 or scale_b == 0.0:
        raise ValueError("overlap_fidelity is undefined for a zero matrix")
    a, b = a / scale_a, b / scale_b
    return float(np.vdot(a, b) / math.sqrt(np.vdot(a, a) * np.vdot(b, b)))
