"""Construction and application of correlated two-qubit channels.

A channel is a KrausSet: operators K_k with optional mixture weights w_k,
acting as rho -> sum_k w_k K_k rho K_k^dag. The correlated dephasing channel
carries its four joint probabilities as the weights; the correlated
amplitude-damping channel carries the (1-mu)/mu split between its four
uncorrelated and two fully correlated operators, so the mu = 0 and mu = 1
limits are exact.

Channels are snapshots at a fixed noise value p; time enters only through
the scalar noise functions (see `channel_at_time`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import validate_density
from .noise import NmadParams, NoiseParams, noise_p

COMPLETENESS_TOL = 1e-10
JOINT_PROB_TOL = 1e-12

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An operator-sum channel on states of dimension `dim`.

    `weights` are the mixture probabilities p_k of rho -> sum p_k K_k rho K_k^dag;
    absent weights mean all ones. Completeness sum_k w_k K_k^dag K_k = I is the
    class invariant, checked by the factory functions below.
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
        ws = self.weights if self.weights is not None else (1.0,) * len(self.operators)
        return tuple(zip(ws, self.operators))


@dataclass(frozen=True)
class JointProbTable:
    """Joint error probabilities p_ij = (1-mu) q_i q_j + mu q_i delta_ij."""

    mu: float
    entries: dict[tuple[int, int], float]

    def __post_init__(self):
        total = sum(self.entries.values())
        if any(v < 0 for v in self.entries.values()):
            raise ValidationError("joint probability nonnegativity",
                                  float(min(self.entries.values())))
        if abs(total - 1.0) > JOINT_PROB_TOL:
            raise ValidationError("joint probability normalization", abs(total - 1.0))


def completeness_residual(channel: KrausSet) -> float:
    """Max entrywise deviation of sum_k w_k K_k^dag K_k from the identity."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for w, op in channel.weighted_operators():
        acc += w * (op.conj().T @ op)
    return float(np.abs(acc - np.eye(channel.dim)).max())


def dephasing_weights(p: float) -> tuple[float, float]:
    """Kraus weights (q0, q3) = ((1+p)/2, (1-p)/2) of single-qubit dephasing."""
    if abs(p) > 1:
        raise ValueError(f"noise value p must lie in [-1, 1], got {p}")
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
    ops, ws = [], []
    for (i, j), pij in table.entries.items():
        ops.append(np.kron(SIGMA[i], SIGMA[j]))
        ws.append(pij)
    ks = KrausSet(dim=4, operators=tuple(ops), weights=tuple(ws))
    _assert_complete(ks)
    return ks


def nmad_single_qubit_kraus(p: float) -> KrausSet:
    """Single-qubit amplitude damping with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"damping probability p must lie in [0, 1], got {p}")
    a0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    a1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
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
    if not 0 <= p <= 1:
        raise ValueError(f"damping probability p must lie in [0, 1], got {p}")
    e00 = np.diag([1, 1, 1, np.sqrt(1 - p)]).astype(complex)
    e11 = np.zeros((4, 4), dtype=complex)
    e11[0, 3] = np.sqrt(p)
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
    if res > COMPLETENESS_TOL:
        raise ValidationError("Kraus completeness", res)


def apply_matrix(channel: KrausSet, m: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary matrix (no state checks)."""
    if m.shape != (channel.dim, channel.dim):
        raise ValueError(f"matrix shape {m.shape} does not match channel dim {channel.dim}")
    out = np.zeros_like(m, dtype=complex)
    for w, op in channel.weighted_operators():
        out += w * (op @ m @ op.conj().T)
    return out


def apply(channel: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix; the output is validated again."""
    rho = validate_density(rho)
    if rho.shape[0] != channel.dim:
        raise ValueError(f"state dim {rho.shape[0]} does not match channel dim {channel.dim}")
    return validate_density(apply_matrix(channel, rho))


def channel_at_time(noise: NoiseParams, mu: float, t: float) -> KrausSet:
    """Correlated channel snapshot at time t for the given noise family.

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
    distinguishes dephasing (0) from amplitude damping (> 0).
    """
    from . import map_algebra  # deferred: map_algebra uses apply_matrix

    basis = map_algebra.pauli_basis(1 if channel.dim == 2 else 2)
    f = map_algebra.transfer_matrix(channel, basis)
    s = map_algebra.choi(f, basis)
    eye = np.eye(channel.dim, dtype=complex)
    return CptpReport(
        completeness_residual=completeness_residual(channel),
        choi_min_eigenvalue=float(np.linalg.eigvalsh(s).min()),
        unital_residual=float(np.abs(apply_matrix(channel, eye) - eye).max()),
    )
