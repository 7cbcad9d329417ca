"""Correlated two-qubit channels in closed form over a time grid.

`evolve(noise, mu, t, rho)` evolves a two-qubit state, or a stack of them,
under the correlated channel of a noise family, at one time or over a time
grid, in closed form from one evaluation of p(t). Correlated dephasing
(RTN, OUN) scales entry (i, j) by 1, p or tau(mu) = mu + (1 - mu) p^2 as
the basis states i and j differ in zero, one or two qubits
(`evolve_dephasing`). Correlated amplitude damping (NMAD) is
(1 - mu) times single-qubit damping on each qubit plus mu times fully
correlated damping (`evolve_damping`). Neither sums Kraus terms that cancel,
so the entries keep their relative accuracy where p or tau(mu) is small.

Each also takes a sequence of k mu, evaluated in one pass: p, its checks,
the initial states and, for NMAD, the damped states are computed once, and
each mu enters as a float column that broadcasts over them, so the result
gains a mu axis after the axis of a stack of initial states, and each mu's
row has the bits of a call with that mu.

A state is validated where it enters the package, never between its
layers: the initial states, p and mu are validated here, and the evolved
states, a CPTP closed form applied to a valid state, are not validated
again by the commands that measure or print them (the property tests
check that they pass `validate_density`).

The Kraus sets of the same channels, one channel at one noise value, are
the independent oracle of these closed forms and live in `oracle`, which no
command imports.
"""

import numpy as np

from .linalg import validate_density
from .noise import noise_p
from .params import NmadParams, NoiseParams, _check_mu

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
    """p as a float array (0-d for a single value); ValueError if any entry
    is NaN or leaves [lo, 1]. A p passed in by a caller is input: a NaN
    computed by a noise function is already a NumericError there."""
    p = np.asarray(p, dtype=float)
    inside = (p >= lo) & (p <= 1)
    if not inside.all():
        raise ValueError(f"{what} must lie in [{lo:g}, 1], got {p[~inside][0]}")
    return p


def _mu_column(mu, axes: int):
    """mu, checked: one mu as it is, or a sequence of k mu as the float
    array of shape (k, 1, ..., 1), with `axes` unit axes, that broadcasts
    over them; each mu's row then has the bits of a call with that mu."""
    if np.ndim(mu) == 0:
        _check_mu(mu)
        return mu
    for value in mu:
        _check_mu(value)
    return np.array(mu, dtype=float).reshape((-1,) + (1,) * axes)


def _two_qubit_states(rho: np.ndarray, axes: int) -> np.ndarray:
    """The validated two-qubit state rho, or (k, 4, 4) stack of them, with
    `axes` unit axes inserted before the matrix axes, one per axis of mu
    and of p, so that it broadcasts against the factors of the channel."""
    rho = validate_density(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim > 3:
        raise ValueError("closed-form evolution takes a two-qubit state or a (k, 4, 4) "
                         f"stack of them, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (1,) * axes + (4, 4))


def evolve_dephasing(rho: np.ndarray, p, mu) -> np.ndarray:
    """The state rho under correlated dephasing at noise value p: entry
    (i, j) is scaled by 1, p or tau = mu + (1 - mu) p^2 as the basis states
    i and j differ in zero, one or two qubits. An array of p gives the
    (*p.shape, 4, 4) stack of states, a sequence of m mu the
    (m, *p.shape, 4, 4) one, and a (k, 4, 4) stack of initial states puts
    its axis first: (k, *p.shape, 4, 4) or (k, m, *p.shape, 4, 4)."""
    mu = _mu_column(mu, np.ndim(p))
    p = _check_noise_value(p, -1, "noise value p")
    rho = _two_qubit_states(rho, (np.ndim(mu) > 0) + p.ndim)
    tau = mu + (1 - mu) * np.square(p)
    factors = np.stack(np.broadcast_arrays(np.ones_like(p), p, tau), axis=-1)
    return factors[..., _FLIPS] * rho


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


def evolve_damping(rho: np.ndarray, p, mu) -> np.ndarray:
    """The state rho under correlated amplitude damping at probability p:
    (1 - mu) times single-qubit damping on each qubit plus mu times fully
    correlated damping, in which |11> decays to |00> with probability p and
    its coherences are scaled by sqrt(1 - p). The shapes are those of
    `evolve_dephasing`; over a sequence of mu, both damped states are
    computed once."""
    mu = _mu_column(mu, np.ndim(p) + 2)  # over the axes of p and the matrix axes
    p = _check_noise_value(p, 0, "damping probability p")
    rho = _two_qubit_states(rho, (np.ndim(mu) > 0) + p.ndim)
    each = _damp(_damp(rho, p, 2), p, 1)
    return (1 - mu) * each + mu * _damp(rho, p, 3)


def evolve(noise: NoiseParams, mu, t, rho: np.ndarray) -> np.ndarray:
    """The two-qubit state rho evolved to time t under the correlated channel
    of the noise family, or to every time of an array t as a
    (*t.shape, 4, 4) stack, in closed form from one evaluation of p(t):
    `evolve_damping` for NMAD, `evolve_dephasing` for RTN and OUN. A
    sequence of m mu gives the (m, *t.shape, 4, 4) stack, and a (k, 4, 4)
    stack of initial states the (k, *t.shape, 4, 4) or
    (k, m, *t.shape, 4, 4) stack of their trajectories. A grid gives the
    same bits as its times one at a time, a sequence of mu as its mu one at
    a time, and a stack as its states one at a time.

    rho, mu and the noise values are validated; the returned states are
    valid by construction and are not checked (see the module docstring)."""
    closed_form = evolve_damping if isinstance(noise, NmadParams) else evolve_dephasing
    return closed_form(rho, noise_p(noise, t), mu)
