"""Correlated two-qubit channels in closed form over a time grid.

`evolve(noise, mu, t, rho)` evolves a two-qubit state under the correlated
channel of a noise family, at one time or over a time grid, in closed form
from p(t). Correlated dephasing (RTN, OUN) scales entry (i, j) by 1, p or
tau(mu) = mu + (1 - mu) p^2 as the basis states i and j differ in zero, one
or two qubits (`evolve_dephasing`). Correlated amplitude damping (NMAD) is
(1 - mu) times single-qubit damping on each qubit plus mu times fully
correlated damping (`evolve_damping`). Neither sums Kraus terms that cancel,
so the entries keep their relative accuracy where p or tau(mu) is small.

The Kraus sets of the same channels, one channel at one noise value, are
the independent oracle of these closed forms and live in `oracle`, which no
command imports.
"""

import numpy as np

from .errors import NumericError
from .linalg import validate_density
from .noise import NmadParams, NoiseParams, noise_p

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# _FLIPS[i, j]: the number of qubits in which the basis states i and j of
# |00>, |01>, |10>, |11> differ: 0 on the diagonal, 1 for the single-flip
# coherences and 2 on the anti-diagonal.
_FLIPS = np.array([[bin(i ^ j).count("1") for j in range(4)] for i in range(4)])


def _check_noise_value(p, lo: float, what: str) -> np.ndarray:
    """p as a float array (0-d for a single value); NumericError if it is not
    finite, ValueError if it leaves [lo, 1]."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise NumericError(f"{what} is not finite")
    outside = p[(p < lo) | (p > 1)]
    if outside.size:
        raise ValueError(f"{what} must lie in [{lo:g}, 1], got {outside[0]}")
    return p


def _check_mu(mu: float) -> None:
    if not 0 <= mu <= 1:
        raise ValueError(f"correlation factor mu must lie in [0, 1], got {mu}")


def _two_qubit_state(rho: np.ndarray) -> np.ndarray:
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"closed-form evolution takes one two-qubit state, got shape {rho.shape}")
    return rho


def evolve_dephasing(rho: np.ndarray, p, mu: float) -> np.ndarray:
    """The state rho under correlated dephasing at noise value p: entry
    (i, j) is scaled by 1, p or tau = mu + (1 - mu) p^2 as the basis states
    i and j differ in zero, one or two qubits. An array of p gives the
    (*p.shape, 4, 4) stack of states."""
    rho = _two_qubit_state(rho)
    _check_mu(mu)
    p = _check_noise_value(p, -1, "noise value p")
    factors = np.stack([np.ones_like(p), p, mu + (1 - mu) * np.square(p)], axis=-1)
    return validate_density(factors[..., _FLIPS] * rho)


def _damp(rho: np.ndarray, p: np.ndarray, qubits: int) -> np.ndarray:
    """Amplitude damping with probability p of the `qubits` (bit mask of
    the basis index: 2 the first qubit, 1 the second, 3 both together) over
    the axes of p: each side of an entry on which they are excited is
    scaled by sqrt(1 - p), and the block where they are excited on both
    sides moves, times p, to where they are in the ground state."""
    excited = np.arange(4) & qubits == qubits
    up = np.flatnonzero(excited)
    down = up - qubits
    scale = np.where(excited, np.sqrt(1 - p)[..., None], 1.0)
    out = scale[..., :, None] * rho * scale[..., None, :]
    out[..., down[:, None], down] += p[..., None, None] * rho[..., up[:, None], up]
    return out


def evolve_damping(rho: np.ndarray, p, mu: float) -> np.ndarray:
    """The state rho under correlated amplitude damping at probability p:
    (1 - mu) times single-qubit damping on each qubit plus mu times fully
    correlated damping, in which |11> decays to |00> with probability p and
    its coherences are scaled by sqrt(1 - p). An array of p gives the
    (*p.shape, 4, 4) stack of states."""
    rho = _two_qubit_state(rho)
    _check_mu(mu)
    p = _check_noise_value(p, 0, "damping probability p")
    each = _damp(_damp(rho, p, 2), p, 1)
    return validate_density((1 - mu) * each + mu * _damp(rho, p, 3))


def evolve(noise: NoiseParams, mu: float, t, rho: np.ndarray) -> np.ndarray:
    """The two-qubit state rho evolved to time t under the correlated channel
    of the noise family, or to every time of an array t as a
    (*t.shape, 4, 4) stack, in closed form from one evaluation of p(t):
    `evolve_damping` for NMAD, `evolve_dephasing` for RTN and OUN. A grid
    gives the same bits as its times one at a time."""
    closed_form = evolve_damping if isinstance(noise, NmadParams) else evolve_dephasing
    return closed_form(rho, noise_p(noise, t), mu)
