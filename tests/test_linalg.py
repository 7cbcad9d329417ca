import numpy as np
import pytest

from corrchan.errors import NumericError, ValidationError
from corrchan.linalg import MIN_EIGENVALUE, hermiticity_residual, lapack, validate_density

from conftest import random_density


def test_hermiticity_check_leaves_real_input_alone():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_residual(m) == 1.0
    assert np.array_equal(m, [[0, 1], [0, 0]])


@pytest.mark.parametrize("check", [validate_density])
def test_empty_stack_rejected_with_its_shape(check):
    with pytest.raises(ValidationError,
                       match=r"expected at least one matrix, got shape \(0, 4, 4\)") as info:
        check(np.zeros((0, 4, 4), dtype=complex))
    assert info.value.invariant == "nonemptiness"


def test_det_multiplicative(rng):
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = np.linalg.det(a @ b)
        rhs = np.linalg.det(a) * np.linalg.det(b)
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_validate_density_accepts_pure_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1
    assert validate_density(rho) is not None


def test_validate_density_trace_error():
    with pytest.raises(ValidationError) as info:
        validate_density(2 * np.eye(4, dtype=complex))
    assert info.value.invariant == "unit trace"
    assert abs(info.value.residual - 7) < 1e-12


def test_validate_density_psd_error():
    with pytest.raises(ValidationError) as info:
        validate_density(np.diag([1.5, -0.5]).astype(complex))
    assert info.value.invariant == "positivity"


def test_validate_density_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        validate_density(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValidationError):
        validate_density(np.ones((2, 3), dtype=complex))


def test_validate_density_hermiticity():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValidationError) as info:
        validate_density(m)
    assert info.value.invariant == "hermiticity"


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
@pytest.mark.parametrize("smallest", [
    0.0, 1e-12, -1e-12, -5e-10, -1e-9 - 1e-11, -1e-9 + 1e-11,
    -1e-9 + 5e-13, -2e-9, -1e-6])
def test_positivity_decision_matches_eigvalsh(smallest, stacked, dim, rng):
    """Validation rejects exactly the states whose smallest eigvalsh
    eigenvalue is below -1e-9, close calls included, and a rejection carries
    that eigenvalue, for a state alone or in the middle of a stack."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(x)
    rest = np.linspace(1.0, 2.0, dim - 1)
    w = np.concatenate(([smallest], (1.0 - smallest) * rest / rest.sum()))
    m = (u * w) @ u.conj().T
    if stacked:
        m = np.stack([random_density(dim, rng), m, random_density(dim, rng)])
    reference = float(np.linalg.eigvalsh(m).min())
    if reference >= MIN_EIGENVALUE:
        assert validate_density(m) is m
    else:
        with pytest.raises(ValidationError) as info:
            validate_density(m)
        assert info.value.invariant == "positivity"
        assert info.value.residual == reference


# --------------------------------------------------------------------------
# Stacks of matrices
# --------------------------------------------------------------------------


def state_stack(rng, n=6, dim=4):
    return np.stack([random_density(dim, rng) for _ in range(n)])


def test_stack_matches_per_matrix(rng):
    stack = state_stack(rng)
    assert validate_density(stack) is not None
    for m in stack:
        assert validate_density(m) is not None


def test_stack_with_one_nan_matrix_rejected(rng):
    stack = state_stack(rng)
    stack[3, 1, 2] = np.nan
    with pytest.raises(ValidationError) as info:
        validate_density(stack)
    assert info.value.invariant == "finiteness"


def test_stack_with_one_non_psd_matrix_rejected(rng):
    stack = state_stack(rng)
    stack[2] = np.diag([1.2, -0.1, -0.05, -0.05])
    stack[4] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValidationError) as info:
        validate_density(stack)
    assert info.value.invariant == "positivity"
    assert abs(info.value.residual + 0.5) < 1e-12  # the worst matrix


def test_lapack_failure_is_numeric_error():
    with pytest.raises(NumericError):
        lapack(np.linalg.inv, np.zeros((2, 2)))
