"""The Kraus, Choi and transfer-matrix oracle of the closed forms.

The correlated channels are built here as the paper writes them, as Kraus
mixtures (1 - mu) E (x) E + mu E_fc, one channel at one noise value p. No
command imports this module: `channels.evolve` and
`map_algebra.transfer_sampler` compute the same states and transfer
matrices in closed form from p(t), and the tests check them against the
Kraus sums here. `cptp_report` certifies a constructed channel.

A KrausSet is one channel: operators K_k with optional mixture weights w_k,
acting as rho -> sum_k w_k K_k rho K_k^dag. The correlated dephasing channel
carries its four joint probabilities as the weights; the correlated
amplitude-damping channel carries the (1-mu)/mu split between its four
uncorrelated and two fully correlated operators, so the mu = 0 and mu = 1
limits are exact.

The operator basis is an (N, d, d) array: the normalized Pauli basis, for
two qubits G_ij = (1/2) sigma_i (x) sigma_j in row-major (i, j) order.
`transfer_matrix` gives F_kl = tr[G_k E(G_l)], real for
Hermiticity-preserving maps; `generator` the time-local L = dF/dt F^-1 by
finite differences; `choi` and `kraus_from_choi` the round trip through the
Choi matrix. The Kraus sums agree with the closed forms to 1e-14 absolute,
but lose relative accuracy where p or tau(mu) is small and terms cancel.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import SIGMA, _check_mu, _check_noise_value
from .errors import NumericError, ValidationError
from .linalg import dagger, lapack, validate_density
from .noise import NmadParams, NoiseParams, noise_p

COMPLETENESS_TOL = 1e-10
JOINT_PROB_TOL = 1e-12
KRAUS_RANK_CUTOFF = 1e-10
_IMAG_TOL = 1e-9
_SINGULAR_TOL = 1e-12

# sigma_i (x) sigma_j for i, j in {0, 3}: the correlated dephasing operators
_DEPHASING_OPS = {(i, j): np.kron(SIGMA[i], SIGMA[j]) for i in (0, 3) for j in (0, 3)}
for _op in _DEPHASING_OPS.values():
    _op.setflags(write=False)


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


def completeness_residual(channel: KrausSet) -> float:
    """Max entrywise deviation of sum_k w_k K_k^dag K_k from the identity."""
    acc = sum(w * (dagger(op) @ op) for w, op in channel.weighted_operators())
    return float(np.abs(acc - np.eye(channel.dim)).max())


def _assert_complete(channel: KrausSet) -> None:
    res = completeness_residual(channel)
    if not res <= COMPLETENESS_TOL:
        raise ValidationError("Kraus completeness", res)


def _single_noise_value(p, lo: float, what: str) -> float:
    """The one noise value of a Kraus set, checked as by
    `channels._check_noise_value`; an array of values is a ValueError."""
    p = _check_noise_value(p, lo, what)
    if p.ndim:
        raise ValueError(f"a Kraus set is one channel: {what} must be a single value, "
                         f"got an array of shape {p.shape}")
    return float(p)


# --------------------------------------------------------------------------
# Kraus sets of the correlated channels
# --------------------------------------------------------------------------


def dephasing_weights(p: float) -> tuple[float, float]:
    """Kraus weights (q0, q3) = ((1+p)/2, (1-p)/2) of single-qubit dephasing."""
    p = _single_noise_value(p, -1, "noise value p")
    return (1 + p) / 2, (1 - p) / 2


def joint_prob_table(p: float, mu: float) -> dict[tuple[int, int], float]:
    """Two-qubit dephasing joint probabilities over letters {0, 3},
    p_ij = (1-mu) q_i q_j + mu q_i delta_ij, checked to be nonnegative and
    normalized."""
    _check_mu(mu)
    q0, q3 = dephasing_weights(p)
    q = {0: q0, 3: q3}
    table = {(i, j): (1 - mu) * q[i] * q[j] + mu * q[i] * (i == j)
             for i in (0, 3) for j in (0, 3)}
    smallest = min(table.values())
    if not smallest >= 0:
        raise ValidationError("joint probability nonnegativity", smallest)
    residual = abs(sum(table.values()) - 1.0)
    if not residual <= JOINT_PROB_TOL:
        raise ValidationError("joint probability normalization", residual)
    return table


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
    ks = KrausSet(dim=4, operators=tuple(_DEPHASING_OPS[ij] for ij in table),
                  weights=tuple(table.values()))
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


def channel_at_time(noise: NoiseParams, mu: float, t: float) -> KrausSet:
    """Correlated channel at time t for the given noise family.

    RTN and OUN give the correlated dephasing channel at p(t); NMAD gives the
    correlated amplitude-damping channel at p(t) = 1 - G(t)^2.
    """
    p = noise_p(noise, t)
    if isinstance(noise, NmadParams):
        return correlated_nmad_channel(p, mu)
    return correlated_dephasing_channel(p, mu)


def apply_matrix(channel: KrausSet, m: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary dim x dim matrix (no
    state checks)."""
    if m.shape != (channel.dim, channel.dim):
        raise ValueError(f"matrix shape {m.shape} does not match channel dim {channel.dim}")
    return sum(w * (op @ m @ dagger(op)) for w, op in channel.weighted_operators())


def apply(channel: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix; the output is validated again."""
    return validate_density(apply_matrix(channel, validate_density(rho)))


# --------------------------------------------------------------------------
# Operator bases, transfer matrix, generator, Choi matrix
# --------------------------------------------------------------------------


def pauli_basis(n_qubits: int) -> np.ndarray:
    """Orthonormal Hermitian basis with G_0 = I/sqrt(d), as an (N, d, d)
    array: sigma_i/sqrt(2) for one qubit, the sixteen (1/2) sigma_i (x)
    sigma_j for two, ordered row-major over (i, j).
    """
    if n_qubits == 1:
        return np.stack([s / np.sqrt(2) for s in SIGMA])
    if n_qubits == 2:
        return np.stack([0.5 * np.kron(si, sj) for si in SIGMA for sj in SIGMA])
    raise ValueError(f"only 1 or 2 qubits supported, got {n_qubits}")


def computational_basis(dim: int) -> np.ndarray:
    """Matrix units tau_a = |i><j|, a = dim*i + j (row-major)."""
    taus = np.zeros((dim * dim, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            taus[dim * i + j, i, j] = 1.0
    return taus


def transfer_matrix(channel: KrausSet, basis: np.ndarray) -> np.ndarray:
    """F_kl = tr[G_k E(G_l)] for the given channel, as a real N x N array.
    The Kraus sum is the oracle of the closed forms behind
    `map_algebra.transfer_sampler`; it loses relative accuracy where p or
    tau(mu) is small."""
    if channel.dim != basis.shape[-1]:
        raise ValueError(f"channel dim {channel.dim} does not match basis dim "
                         f"{basis.shape[-1]}")
    eb = sum(w * (op @ basis @ dagger(op)) for w, op in channel.weighted_operators())
    f = np.einsum('kij,lji->kl', basis, eb)
    residue = np.abs(f.imag).max()
    if not residue <= _IMAG_TOL:
        raise NumericError(f"transfer matrix has imaginary residue {residue:.3e}")
    return f.real.copy()


def generator(f_sampler: Callable[[float], np.ndarray], t: float, h: float = 1e-4) -> np.ndarray:
    """Time-local generator L = dF/dt F^-1 at time t.

    dF/dt by central difference (F(t+h) - F(t-h)) / 2h, falling back to a
    forward difference for t < h. Raises NumericError when F(t) is singular
    (|det F| <= 1e-12); the measures built on L are not defined there. The
    step h must be positive and finite, and t finite.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    f_t = f_sampler(t)
    det = lapack(np.linalg.det, f_t)
    if not abs(det) > _SINGULAR_TOL:
        raise NumericError(f"transfer matrix singular at t={t} (det {det:.3e})")
    if t < h:
        fdot = (f_sampler(t + h) - f_t) / h
    else:
        fdot = (f_sampler(t + h) - f_sampler(t - h)) / (2 * h)
    return fdot @ lapack(np.linalg.inv, f_t)


def choi(f: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Choi matrix S_ab = sum_rs F_sr tr[G_r tau_a^dag G_s tau_b].

    The tau_a are the computational matrix units |i><j| (row-major); in that
    basis the map acts as E(rho) = sum_ab S_ab tau_a rho tau_b^dag, so S is
    Hermitian and PSD exactly when the map is completely positive.
    """
    taus = computational_basis(basis.shape[-1])
    tdag = np.conj(np.transpose(taus, (0, 2, 1)))
    s = np.einsum('sr,rij,ajk,skl,bli->ab', f.astype(complex), basis, tdag, basis, taus,
                  optimize=True)
    return s


def kraus_from_choi(s: np.ndarray, dim: int) -> KrausSet:
    """Extract Kraus operators from a Choi matrix by eigendecomposition.

    Each eigenpair with eigenvalue above 1e-10 contributes sqrt(lambda) times
    the eigenvector reshaped (row-major) to a dim x dim operator. Eigenvalues
    in [-1e-6, 0) are clamped as round-off; anything lower means the map is
    not completely positive.
    """
    res = float(np.abs(s - s.conj().T).max())
    if not res <= 1e-10:
        raise ValidationError("Choi hermiticity", res)
    w, v = lapack(np.linalg.eigh, s)
    if not w.min() >= -1e-6:
        raise ValidationError("complete positivity", float(w.min()))
    ops = []
    for lam, vec in zip(w[::-1], v[:, ::-1].T):
        if lam > KRAUS_RANK_CUTOFF:
            ops.append(np.sqrt(lam) * vec.reshape(dim, dim))
    ks = KrausSet(dim=dim, operators=tuple(ops))
    comp = completeness_residual(ks)
    if not comp <= 1e-8:
        raise NumericError(f"extracted Kraus set incomplete (residual {comp:.3e})")
    return ks


# --------------------------------------------------------------------------
# CPTP certification
# --------------------------------------------------------------------------


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
    basis = pauli_basis(1 if channel.dim == 2 else 2)
    s = choi(transfer_matrix(channel, basis), basis)
    eye = np.eye(channel.dim, dtype=complex)
    return CptpReport(
        completeness_residual=completeness_residual(channel),
        choi_min_eigenvalue=float(lapack(np.linalg.eigvalsh, s).min()),
        unital_residual=float(np.abs(apply_matrix(channel, eye) - eye).max()),
    )
