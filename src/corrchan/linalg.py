"""Dense complex-matrix kernel: Hermitian eigendecomposition, PSD square root
and density-matrix validation.

All matrices are plain complex numpy arrays. Only Hermitian eigenproblems of
dimension <= 64 arise in this package, so everything is backed by LAPACK's
Hermitian drivers through numpy.
"""

import numpy as np

from .errors import NumericError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
NOT_PSD_THRESHOLD = -1e-6
EIG_HERMITICITY_TOL = 1e-8


def hermiticity_residual(m: np.ndarray) -> float:
    """Max entrywise deviation of M from its adjoint."""
    return float(np.abs(m - m.conj().T).max())


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns, so that
    M @ V = V @ diag(w).

    Raises:
        ValidationError: input not Hermitian within 1e-8.
        NumericError: the iteration failed to converge.
    """
    res = hermiticity_residual(m)
    if res > EIG_HERMITICITY_TOL:
        raise ValidationError("hermiticity", res)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    return w[::-1], v[:, ::-1]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root R of a Hermitian PSD matrix, R @ R = M.

    Eigenvalues in [-1e-6, 0) are treated as round-off and clamped to zero;
    anything below that threshold is a genuine violation.
    """
    w, v = eig_hermitian(m)
    if w.min() < NOT_PSD_THRESHOLD:
        raise ValidationError("positive semidefiniteness", float(w.min()))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check that M is a valid density matrix of dimension 2 or 4.

    Verifies hermiticity (1e-10), unit trace (1e-10) and positivity
    (smallest eigenvalue >= -1e-9). Returns the input array on success;
    raises ValidationError naming the violated invariant otherwise.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("squareness", 0.0, f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise ValidationError("dimension", float(m.shape[0]),
                              f"density matrices must be 2x2 or 4x4, got {m.shape[0]}x{m.shape[0]}")
    res = hermiticity_residual(m)
    if res > HERMITICITY_TOL:
        raise ValidationError("hermiticity", res)
    trace_res = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
    if trace_res > TRACE_TOL:
        raise ValidationError("unit trace", float(trace_res))
    smallest = float(np.linalg.eigvalsh(m).min())
    if smallest < MIN_EIGENVALUE:
        raise ValidationError("positivity", smallest)
    return m
