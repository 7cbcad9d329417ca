"""Correlated two-qubit channels: closed-form state evolution over a time
grid, and Kraus sets as the single-channel oracle.

`evolve(noise, mu, t, rho)` evolves a two-qubit state under the correlated
channel of a noise family, at one time or over a time grid, in closed form
from p(t). Correlated dephasing (RTN, OUN) scales entry (i, j) by 1, p or
tau(mu) = mu + (1 - mu) p^2 as the basis states i and j differ in zero, one
or two qubits (`evolve_dephasing`). Correlated amplitude damping (NMAD) is
(1 - mu) times single-qubit damping on each qubit plus mu times fully
correlated damping (`evolve_damping`). Neither sums Kraus terms that cancel,
so the entries keep their relative accuracy where p or tau(mu) is small.

A KrausSet is one channel: operators K_k with optional mixture weights w_k,
acting as rho -> sum_k w_k K_k rho K_k^dag. The correlated dephasing channel
carries its four joint probabilities as the weights; the correlated
amplitude-damping channel carries the (1-mu)/mu split between its four
uncorrelated and two fully correlated operators, so the mu = 0 and mu = 1
limits are exact. Every factory takes one noise value p. Kraus sets are the
independent oracle of the closed forms, in the tests and in `cptp_report`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .linalg import dagger, lapack, validate_density
from .noise import NmadParams, NoiseParams, noise_p

COMPLETENESS_TOL = 1e-10
JOINT_PROB_TOL = 1e-12

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# sigma_i (x) sigma_j for i, j in {0, 3}: the correlated dephasing operators
_DEPHASING_OPS = {(i, j): np.kron(SIGMA[i], SIGMA[j]) for i in (0, 3) for j in (0, 3)}
for _op in _DEPHASING_OPS.values():
    _op.setflags(write=False)

# _FLIPS[i, j]: the number of qubits in which the basis states i and j of
# |00>, |01>, |10>, |11> differ: 0 on the diagonal, 1 for the single-flip
# coherences and 2 on the anti-diagonal.
_FLIPS = np.array([[bin(i ^ j).count("1") for j in range(4)] for i in range(4)])


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An operator-sum channel on states of dimension `dim`.

    `weights` are the mixture probabilities p_k of rho -> sum p_k K_k rho K_k^dag;
    absent weights mean all ones. Completeness sum_k w_k K_k^dag K_k = I is
    the class invariant, checked by the factory functions below.
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        for op in self.operators:
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"operator shape {op.shape} does not match dim {self.dim}")
        if self.weights is not None and len(self.weights) != len(self.operators):
            raise ValueError("weights and operators must have equal length")

    def weighted_operators(self):
        """(w_k, K_k) pairs."""
        ws = self.weights if self.weights is not None else (1.0,) * len(self.operators)
        return tuple(zip(ws, self.operators))


@dataclass(frozen=True)
class JointProbTable:
    """Joint error probabilities p_ij = (1-mu) q_i q_j + mu q_i delta_ij."""

    mu: float
    entries: dict[tuple[int, int], float]

    def __post_init__(self):
        values = list(self.entries.values())
        smallest = min(values)
        if not smallest >= 0:
            raise ValidationError("joint probability nonnegativity", smallest)
        residual = abs(sum(values) - 1.0)
        if not residual <= JOINT_PROB_TOL:
            raise ValidationError("joint probability normalization", residual)


def completeness_residual(channel: KrausSet) -> float:
    """Max entrywise deviation of sum_k w_k K_k^dag K_k from the identity."""
    acc = sum(w * (dagger(op) @ op) for w, op in channel.weighted_operators())
    return float(np.abs(acc - np.eye(channel.dim)).max())


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


def _single_noise_value(p, lo: float, what: str) -> float:
    """The one noise value of a Kraus set, checked as by _check_noise_value;
    an array of values is a ValueError."""
    p = _check_noise_value(p, lo, what)
    if p.ndim:
        raise ValueError(f"a Kraus set is one channel: {what} must be a single value, "
                         f"got an array of shape {p.shape}")
    return float(p)


def dephasing_weights(p: float) -> tuple[float, float]:
    """Kraus weights (q0, q3) = ((1+p)/2, (1-p)/2) of single-qubit dephasing."""
    p = _single_noise_value(p, -1, "noise value p")
    return (1 + p) / 2, (1 - p) / 2


def joint_prob_table(p: float, mu: float) -> JointProbTable:
    """Two-qubit dephasing joint probabilities over letters {0, 3}."""
    _check_mu(mu)
    q0, q3 = dephasing_weights(p)
    q = {0: q0, 3: q3}
    entries = {(i, j): (1 - mu) * q[i] * q[j] + mu * q[i] * (i == j)
               for i in (0, 3) for j in (0, 3)}
    return JointProbTable(mu=mu, entries=entries)


def _check_mu(mu: float) -> None:
    if not 0 <= mu <= 1:
        raise ValueError(f"correlation factor mu must lie in [0, 1], got {mu}")


def single_qubit_dephasing(p: float) -> KrausSet:
    """Single-qubit dephasing with K_i = sqrt(q_i) sigma_i, i in {0, 3}."""
    q0, q3 = dephasing_weights(p)
    return KrausSet(dim=2, operators=(SIGMA[0], SIGMA[3]), weights=(q0, q3))


def correlated_dephasing_channel(p: float, mu: float) -> KrausSet:
    """Correlated two-qubit dephasing: the four sigma_i (x) sigma_j terms,
    i, j in {0, 3}, weighted by the joint probabilities p_ij.

    mu = 0 reduces exactly to the tensor square of single-qubit dephasing;
    mu = 1 keeps only the diagonal terms (p_00 = q0, p_33 = q3).
    """
    table = joint_prob_table(p, mu)
    ks = KrausSet(dim=4, operators=tuple(_DEPHASING_OPS[ij] for ij in table.entries),
                  weights=tuple(table.entries.values()))
    _assert_complete(ks)
    return ks


def _operator(dim: int, entries: dict) -> np.ndarray:
    """Complex dim x dim matrix, zero except for the given entries."""
    op = np.zeros((dim, dim), dtype=complex)
    for (i, j), value in entries.items():
        op[i, j] = value
    return op


def nmad_single_qubit_kraus(p: float) -> KrausSet:
    """Single-qubit amplitude damping with probability p."""
    p = _single_noise_value(p, 0, "damping probability p")
    a0 = _operator(2, {(0, 0): 1, (1, 1): np.sqrt(1 - p)})
    a1 = _operator(2, {(0, 1): np.sqrt(p)})
    return KrausSet(dim=2, operators=(a0, a1))


def uncorrelated_nmad_channel(p: float) -> KrausSet:
    """Tensor square of single-qubit amplitude damping: operators A_i (x) A_j."""
    single = nmad_single_qubit_kraus(p)
    ops = tuple(np.kron(ai, aj) for ai in single.operators for aj in single.operators)
    ks = KrausSet(dim=4, operators=ops)
    _assert_complete(ks)
    return ks


def fully_correlated_nmad_channel(p: float) -> KrausSet:
    """Fully correlated amplitude damping: both qubits decay or neither does.

    E00 = diag(1, 1, 1, sqrt(1-p)) damps the |11> population;
    E11 has the single entry sqrt(p) at the |00><11| position.
    """
    p = _single_noise_value(p, 0, "damping probability p")
    e00 = _operator(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): np.sqrt(1 - p)})
    e11 = _operator(4, {(0, 3): np.sqrt(p)})
    ks = KrausSet(dim=4, operators=(e00, e11))
    _assert_complete(ks)
    return ks


def correlated_nmad_channel(p: float, mu: float) -> KrausSet:
    """Correlated amplitude damping (1-mu) E_uncorr + mu E_fcorr: the four
    uncorrelated operators with weight 1-mu, then the two fully correlated
    ones with weight mu.
    """
    _check_mu(mu)
    ops = (uncorrelated_nmad_channel(p).operators
           + fully_correlated_nmad_channel(p).operators)
    ks = KrausSet(dim=4, operators=ops, weights=(1 - mu,) * 4 + (mu,) * 2)
    _assert_complete(ks)
    return ks


def _assert_complete(channel: KrausSet) -> None:
    res = completeness_residual(channel)
    if not res <= COMPLETENESS_TOL:
        raise ValidationError("Kraus completeness", res)


def apply_matrix(channel: KrausSet, m: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary dim x dim matrix (no
    state checks)."""
    if m.shape != (channel.dim, channel.dim):
        raise ValueError(f"matrix shape {m.shape} does not match channel dim {channel.dim}")
    return sum(w * (op @ m @ dagger(op)) for w, op in channel.weighted_operators())


def apply(channel: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix; the output is validated again."""
    return validate_density(apply_matrix(channel, validate_density(rho)))


def channel_at_time(noise: NoiseParams, mu: float, t: float) -> KrausSet:
    """Correlated channel at time t for the given noise family.

    RTN and OUN give the correlated dephasing channel at p(t); NMAD gives the
    correlated amplitude-damping channel at p(t) = 1 - G(t)^2.
    """
    p = noise_p(noise, t)
    if isinstance(noise, NmadParams):
        return correlated_nmad_channel(p, mu)
    return correlated_dephasing_channel(p, mu)


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


@dataclass(frozen=True)
class CptpReport:
    """Certification summary for a constructed channel."""

    completeness_residual: float
    choi_min_eigenvalue: float
    unital_residual: float

    @property
    def accepted(self) -> bool:
        return self.completeness_residual < COMPLETENESS_TOL and self.choi_min_eigenvalue > -1e-9


def cptp_report(channel: KrausSet) -> CptpReport:
    """Report completeness, Choi positivity and unitality residuals.

    The channel is CPTP iff the completeness residual is below 1e-10 and the
    smallest Choi eigenvalue is above -1e-9; the unital residual |E(I) - I|
    distinguishes dephasing (0) from amplitude damping (> 0).
    """
    from . import map_algebra  # deferred: map_algebra uses apply_matrix

    basis = map_algebra.pauli_basis(1 if channel.dim == 2 else 2)
    f = map_algebra.transfer_matrix(channel, basis)
    s = map_algebra.choi(f, basis)
    eye = np.eye(channel.dim, dtype=complex)
    return CptpReport(
        completeness_residual=completeness_residual(channel),
        choi_min_eigenvalue=float(lapack(np.linalg.eigvalsh, s).min()),
        unital_residual=float(np.abs(apply_matrix(channel, eye) - eye).max()),
    )
