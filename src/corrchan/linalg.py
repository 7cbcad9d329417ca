"""Dense complex-matrix kernel: density-matrix validation and the LAPACK
call wrapper.

All matrices are plain complex numpy arrays. Every function takes one matrix
of shape (d, d) or a stack of shape (..., d, d); a stack goes through numpy's
batched LAPACK drivers in one call, and a check on a stack fails when any of
its matrices fails, carrying the residual of the worst one. A LAPACK failure
raises NumericError.

`validate_density` certifies positivity with one batched Cholesky
factorisation of the slightly shifted stack, which costs less than its
eigenvalues; only a stack that the factorisation cannot certify goes to
`eigvalsh`, which decides and names the smallest eigenvalue.
"""

import numpy as np

from .errors import NumericError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
# A factorisation of M - (MIN_EIGENVALUE + margin) I proves lambda_min(M) >
# MIN_EIGENVALUE as long as the margin exceeds Cholesky's backward error,
# about (d + 1) u |M| ~ 6e-16: a close call has unit trace and no eigenvalue
# below MIN_EIGENVALUE, so |M| <= 1 + 4e-9
_CHOLESKY_MARGIN = 1e-12


def lapack(fn, *args):
    """Call a numpy.linalg routine; its LinAlgError becomes a NumericError."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{fn.__name__} failed: {exc}") from exc


def hermiticity_residual(m: np.ndarray) -> float:
    """Max entrywise deviation of M from its adjoint, over the whole stack."""
    # subtract into the adjoint, a new array also for real m (whose .conj()
    # is m itself): one stack-sized temporary, not two
    r = np.conjugate(m.swapaxes(-1, -2))
    np.subtract(m, r, out=r)
    return float(np.abs(r).max())


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check that M, or every matrix of a stack, is a density matrix of
    dimension 2 or 4.

    Verifies that there is at least one matrix, finiteness, hermiticity
    (1e-10), unit trace (1e-10) and positivity (smallest eigenvalue
    >= -1e-9). Returns the input array on success; raises ValidationError
    naming the violated invariant otherwise.

    Positivity is certified by a Cholesky factorisation of the whole stack
    shifted by 1e-9 - 1e-12: it succeeds only when every smallest eigenvalue
    exceeds -1e-9. When it fails, `eigvalsh` of the stack decides, and a
    rejection carries the smallest eigenvalue. Both read only the lower
    triangle, so they judge the same matrices.
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
    try:
        np.linalg.cholesky(m - (MIN_EIGENVALUE + _CHOLESKY_MARGIN) * np.eye(d))
    except np.linalg.LinAlgError:
        smallest = float(lapack(np.linalg.eigvalsh, m).min())
        if not smallest >= MIN_EIGENVALUE:
            raise ValidationError("positivity", smallest) from None
    return m
