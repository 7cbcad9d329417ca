"""Construction and application of correlated two-qubit channels.

A channel is a KrausSet: operators K_k with optional mixture weights w_k,
acting as rho -> sum_k w_k K_k rho K_k^dag. The correlated dephasing channel
carries its four joint probabilities as the weights; the correlated
amplitude-damping channel carries the (1-mu)/mu split between its four
uncorrelated and two fully correlated operators, so the mu = 0 and mu = 1
limits are exact.

Every factory takes the noise value p either as a float, for one channel, or
as an array over a time grid, for one KrausSet covering the whole grid: the
dephasing weights, or the amplitude-damping operators, then carry the
leading time axis, and the joint-probability, range and completeness checks
run once over the stack. `channel_at_time` builds the channel of a noise
family at one time or over a grid; `apply_matrix` and `apply` broadcast over
the stack.
"""

from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An operator-sum channel on states of dimension `dim`, or a stack of
    such channels, one per time point.

    `weights` are the mixture probabilities p_k of rho -> sum p_k K_k rho K_k^dag;
    absent weights mean all ones. An operator of shape (*shape, dim, dim) or
    a weight array of shape `shape` carries the stack axes; a (dim, dim)
    operator or a float weight is shared by the whole stack, and `shape` is
    () for a single channel. Completeness sum_k w_k K_k^dag K_k = I is the
    class invariant, checked by the factory functions below.
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    weights: tuple[float | np.ndarray, ...] | None = None
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        for op in self.operators:
            if op.shape[-2:] != (self.dim, self.dim):
                raise ValueError(f"operator shape {op.shape} does not match dim {self.dim}")
        if self.weights is not None and len(self.weights) != len(self.operators):
            raise ValueError("weights and operators must have equal length")
        stacks = {op.shape[:-2] for op in self.operators if op.ndim > 2}
        stacks |= {w.shape for w in self.weights or () if isinstance(w, np.ndarray) and w.ndim}
        if len(stacks) > 1:
            raise ValueError(f"operators and weights have different stack shapes {stacks}")
        object.__setattr__(self, "shape", stacks.pop() if stacks else ())

    def weighted_operators(self, matrix_axes: int = 2):
        """(w_k, K_k) pairs; a weight array gets `matrix_axes` trailing unit
        axes, so that it broadcasts against the matrices it scales."""
        ws = self.weights if self.weights is not None else (1.0,) * len(self.operators)
        return tuple((w[(...,) + (None,) * matrix_axes] if isinstance(w, np.ndarray) else w, op)
                     for w, op in zip(ws, self.operators))


@dataclass(frozen=True)
class JointProbTable:
    """Joint error probabilities p_ij = (1-mu) q_i q_j + mu q_i delta_ij, each
    a float or an array over a time grid."""

    mu: float
    entries: dict[tuple[int, int], float | np.ndarray]

    def __post_init__(self):
        values = np.array(list(self.entries.values()))
        smallest = values.min()
        if not smallest >= 0:
            raise ValidationError("joint probability nonnegativity", float(smallest))
        residual = np.abs(values.sum(axis=0) - 1.0).max()
        if not residual <= JOINT_PROB_TOL:
            raise ValidationError("joint probability normalization", float(residual))


def completeness_residual(channel: KrausSet) -> float:
    """Max entrywise deviation of sum_k w_k K_k^dag K_k from the identity,
    over the whole stack."""
    acc = np.zeros(channel.shape + (channel.dim, channel.dim), dtype=complex)
    for w, op in channel.weighted_operators():
        acc += w * (dagger(op) @ op)
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


def dephasing_weights(p):
    """Kraus weights (q0, q3) = ((1+p)/2, (1-p)/2) of single-qubit dephasing."""
    p = _check_noise_value(p, -1, "noise value p")
    return (1 + p) / 2, (1 - p) / 2


def joint_prob_table(p, mu: float) -> JointProbTable:
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


def correlated_dephasing_channel(p, mu: float) -> KrausSet:
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


def _operator(dim: int, entries: dict, shape: tuple[int, ...]) -> np.ndarray:
    """Complex (*shape, dim, dim) array, zero except for the given entries."""
    op = np.zeros(shape + (dim, dim), dtype=complex)
    for (i, j), value in entries.items():
        op[..., i, j] = value
    return op


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the trailing matrix axes, over any leading stack axes."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def nmad_single_qubit_kraus(p) -> KrausSet:
    """Single-qubit amplitude damping with probability p."""
    p = _check_noise_value(p, 0, "damping probability p")
    a0 = _operator(2, {(0, 0): 1, (1, 1): np.sqrt(1 - p)}, np.shape(p))
    a1 = _operator(2, {(0, 1): np.sqrt(p)}, np.shape(p))
    return KrausSet(dim=2, operators=(a0, a1))


def uncorrelated_nmad_channel(p) -> KrausSet:
    """Tensor square of single-qubit amplitude damping: operators A_i (x) A_j."""
    single = nmad_single_qubit_kraus(p)
    ops = tuple(_kron(ai, aj) for ai in single.operators for aj in single.operators)
    ks = KrausSet(dim=4, operators=ops)
    _assert_complete(ks)
    return ks


def fully_correlated_nmad_channel(p) -> KrausSet:
    """Fully correlated amplitude damping: both qubits decay or neither does.

    E00 = diag(1, 1, 1, sqrt(1-p)) damps the |11> population;
    E11 has the single entry sqrt(p) at the |00><11| position.
    """
    p = _check_noise_value(p, 0, "damping probability p")
    e00 = _operator(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): np.sqrt(1 - p)}, np.shape(p))
    e11 = _operator(4, {(0, 3): np.sqrt(p)}, np.shape(p))
    ks = KrausSet(dim=4, operators=(e00, e11))
    _assert_complete(ks)
    return ks


def correlated_nmad_channel(p, mu: float) -> KrausSet:
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
    """Linear action of the channel on an arbitrary matrix (no state checks),
    broadcast over the stack axes of the channel and of `m`."""
    if m.shape[-2:] != (channel.dim, channel.dim):
        raise ValueError(f"matrix shape {m.shape} does not match channel dim {channel.dim}")
    stack = channel.shape if len(channel.shape) >= m.ndim - 2 else m.shape[:-2]
    out = np.zeros(stack + m.shape[-2:], dtype=complex)
    for w, op in channel.weighted_operators():
        out += w * (op @ m @ dagger(op))
    return out


def apply(channel: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix, or to a stack of them; the
    output is validated again."""
    rho = validate_density(rho)
    if rho.shape[-1] != channel.dim:
        raise ValueError(f"state dim {rho.shape[-1]} does not match channel dim {channel.dim}")
    return validate_density(apply_matrix(channel, rho))


def channel_at_time(noise: NoiseParams, mu: float, t) -> KrausSet:
    """Correlated channel at time t, or over an array of times as one
    stacked KrausSet, for the given noise family.

    RTN and OUN give the correlated dephasing channel at p(t); NMAD gives the
    correlated amplitude-damping channel at p(t) = 1 - G(t)^2.
    """
    p = noise_p(noise, t)
    if isinstance(noise, NmadParams):
        return correlated_nmad_channel(p, mu)
    return correlated_dephasing_channel(p, mu)


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
    distinguishes dephasing (0) from amplitude damping (> 0). Certifies one
    channel; a stacked KrausSet is rejected.
    """
    if channel.shape:
        raise ValueError(f"cptp_report takes a single channel, got a stack of shape {channel.shape}")
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
