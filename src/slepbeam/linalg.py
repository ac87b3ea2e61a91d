"""Dense symmetric/Hermitian eigen machinery built on cyclic Jacobi rotations.

Everything is value-in/value-out on small dense matrices (order <= 128 in
practice, the largest array designed).  numpy supplies the array arithmetic
only; the factorizations and eigensolvers are implemented here so that
ordering, sign conventions, and failure modes are fully pinned down and
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "NotPositiveDefiniteError",
    "EigenDecomposition",
    "hermitize",
    "eigh_symmetric",
    "eigh_hermitian",
    "cholesky",
    "quadratic_form",
    "generalized_eigh",
]

SWEEP_LIMIT = 100
# converged when the largest off-diagonal magnitude drops below this times
# the Frobenius norm of the input
CONVERGENCE_FACTOR = 1e-13


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without reaching the off-diagonal threshold."""


class NotPositiveDefiniteError(ValueError):
    """A Cholesky pivot was not strictly positive."""


def _require_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def hermitize(entries) -> np.ndarray:
    """Complex square matrix made exactly Hermitian.

    Off-diagonal pairs are replaced by (x + conj(y)) / 2, which is an exact
    mirror in floating point because the two sums share their operands;
    diagonal imaginary parts are dropped.
    """
    a = np.array(entries, dtype=complex)
    _require_square(a)
    a = 0.5 * (a + a.conj().T)
    idx = np.arange(a.shape[0])
    a[idx, idx] = a.diagonal().real
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending, orthonormal eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh_symmetric(matrix) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric real matrix."""
    return _eigh(matrix, float, "symmetric")


def eigh_hermitian(matrix) -> EigenDecomposition:
    """Full eigendecomposition of an exactly Hermitian complex matrix."""
    return _eigh(matrix, complex, "Hermitian")


def _eigh(matrix, dtype, word: str) -> EigenDecomposition:
    a = np.array(matrix, dtype=dtype)
    _require_square(a)
    if not np.array_equal(a, a.conj().T):
        raise ValueError(f"matrix is not exactly {word}")
    values, vectors = _jacobi(a)
    return _ordered(values, vectors)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a working copy; handles float64 and complex128 alike."""
    n = a.shape[0]
    vectors = np.eye(n, dtype=a.dtype)
    if n == 1:
        return np.array([a[0, 0].real]), vectors
    threshold = CONVERGENCE_FACTOR * np.linalg.norm(a, "fro")
    iu, ju = np.triu_indices(n, 1)
    for _ in range(SWEEP_LIMIT):
        if np.max(np.abs(a[iu, ju])) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, vectors, p, q, threshold)
    else:
        raise ConvergenceError(
            f"no convergence after {SWEEP_LIMIT} sweeps (order {n}); "
            "input is likely not numerically Hermitian"
        )
    return a.diagonal().real.copy(), vectors


def _rotate(a, vectors, p, q, threshold):
    apq = a[p, q]
    magnitude = abs(apq)
    if magnitude <= threshold:
        return
    # Factor the off-diagonal phase out, then the 2x2 block is real symmetric
    # with off-diagonal |apq| and the classic rotation angle applies.
    phase = apq / magnitude
    app = a[p, p].real
    aqq = a[q, q].real
    tau = (aqq - app) / (2.0 * magnitude)
    if tau >= 0.0:
        t = 1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = -1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    phase_c = np.conj(phase)

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - (s * phase_c) * col_q
    a[:, q] = s * col_p + (c * phase_c) * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - (s * phase) * row_q
    a[q, :] = s * row_p + (c * phase) * row_q
    # The doubly-transformed 2x2 block is rewritten in closed form so the
    # annihilated pair is exactly zero and the diagonal stays exactly real.
    a[p, p] = c * c * app - 2.0 * c * s * magnitude + s * s * aqq
    a[q, q] = s * s * app + 2.0 * c * s * magnitude + c * c * aqq
    a[p, q] = 0.0
    a[q, p] = 0.0

    vec_p = vectors[:, p].copy()
    vec_q = vectors[:, q].copy()
    vectors[:, p] = c * vec_p - (s * phase_c) * vec_q
    vectors[:, q] = s * vec_p + (c * phase_c) * vec_q


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry (lowest index on ties) has Re > 0."""
    for k in range(vectors.shape[1]):
        column = vectors[:, k]
        lead = column[int(np.argmax(np.abs(column)))]
        if lead.real < 0.0 or (lead.real == 0.0 and lead.imag < 0.0):
            vectors[:, k] = -column
    return vectors


def _ordered(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(
        eigenvalues=values[order],
        eigenvectors=_fix_signs(vectors[:, order].copy()),
    )


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L L^H equal to the given Hermitian PD matrix."""
    raw = np.asarray(matrix)
    _require_square(raw)
    a = np.array(raw, dtype=complex if np.iscomplexobj(raw) else float)
    if not np.array_equal(a, a.conj().T):
        raise ValueError("matrix is not exactly Hermitian")
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j].real - np.real(lower[j, :j] @ lower[j, :j].conj())
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"not positive definite: pivot {j} is {pivot:.6e}"
            )
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j].conj()
            ) / ljj
    return lower


def _solve_lower(lower: np.ndarray, rhs) -> np.ndarray:
    x = np.array(rhs, dtype=np.result_type(lower.dtype, np.asarray(rhs).dtype))
    for i in range(lower.shape[0]):
        x[i] = (x[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x


def _solve_upper(upper: np.ndarray, rhs) -> np.ndarray:
    x = np.array(rhs, dtype=np.result_type(upper.dtype, np.asarray(rhs).dtype))
    for i in reversed(range(upper.shape[0])):
        x[i] = (x[i] - upper[i, i + 1 :] @ x[i + 1 :]) / upper[i, i]
    return x


def quadratic_form(weights, matrix) -> float:
    """Row-convention quadratic form v M v^H (real part; M Hermitian)."""
    v = np.asarray(weights)
    return float(np.real(v @ (np.asarray(matrix) @ v.conj())))


def generalized_eigh(a, b) -> tuple[np.ndarray, np.ndarray]:
    """All stationary values of the quotient (v A v^H) / (v B v^H), B PD.

    Returns ``(values, vectors)`` with values descending; column k of
    ``vectors`` is a unit-norm weight vector attaining ``values[k]`` in the
    row convention used throughout this package.  Solved by the Cholesky
    reduction B = L L^H followed by the Hermitian eigenproblem of
    L^-1 A L^-H.
    """
    a_c = np.array(a, dtype=complex)
    b_c = np.array(b, dtype=complex)
    _require_square(a_c)
    if a_c.shape != b_c.shape:
        raise ValueError(f"order mismatch: {a_c.shape} vs {b_c.shape}")
    if not np.array_equal(a_c, a_c.conj().T):
        raise ValueError("numerator matrix is not exactly Hermitian")
    lower = cholesky(b_c)
    y = _solve_lower(lower, a_c)
    reduced = hermitize(_solve_lower(lower, y.conj().T))
    dec = eigh_hermitian(reduced)
    raw = _solve_upper(lower.conj().T, dec.eigenvectors)
    raw /= np.linalg.norm(raw, axis=0, keepdims=True)
    # Column eigenvectors maximize u^H A u; the row form v A v^H needs conj(u).
    vectors = _fix_signs(raw.conj())
    return dec.eigenvalues.copy(), vectors
