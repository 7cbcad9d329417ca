"""Dense complex-matrix kernel: density-matrix validation and the LAPACK
call wrapper.

All matrices are plain complex numpy arrays. Every function takes one matrix
of shape (d, d) or a stack of shape (..., d, d); a stack goes through numpy's
batched LAPACK drivers in one call, and a check on a stack fails when any of
its matrices fails, carrying the residual of the worst one. A LAPACK failure
raises NumericError.
"""

import numpy as np

from .errors import NumericError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9


def lapack(fn, *args):
    """Call a numpy.linalg routine; its LinAlgError becomes a NumericError."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{fn.__name__} failed: {exc}") from exc


def hermiticity_residual(m: np.ndarray) -> float:
    """Max entrywise deviation of M from its adjoint, over the whole stack."""
    return float(np.abs(m - np.conjugate(m.swapaxes(-1, -2))).max())


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check that M, or every matrix of a stack, is a density matrix of
    dimension 2 or 4.

    Verifies that there is at least one matrix, finiteness, hermiticity
    (1e-10), unit trace (1e-10) and positivity (smallest eigenvalue
    >= -1e-9, from one `eigvalsh` of the whole stack). Returns the input
    array on success; raises ValidationError naming the violated invariant
    otherwise, a rejection for positivity carrying the smallest eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError("squareness", 0.0, f"expected a square matrix, got shape {m.shape}")
    d = m.shape[-1]
    if d not in (2, 4):
        raise ValidationError("dimension", float(d),
                              f"density matrices must be 2x2 or 4x4, got {d}x{d}")
    if m.size == 0:
        raise ValidationError("nonemptiness", 0.0,
                              f"expected at least one matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("finiteness", float(np.count_nonzero(~np.isfinite(m))),
                              "matrix has NaN or infinite entries")
    res = hermiticity_residual(m)
    if not res <= HERMITICITY_TOL:
        raise ValidationError("hermiticity", res)
    trace = np.trace(m, axis1=-2, axis2=-1)
    trace_res = float((np.abs(trace.real - 1.0) + np.abs(trace.imag)).max())
    if not trace_res <= TRACE_TOL:
        raise ValidationError("unit trace", trace_res)
    smallest = float(lapack(np.linalg.eigvalsh, m).min())
    if not smallest >= MIN_EIGENVALUE:
        raise ValidationError("positivity", smallest)
    return m
