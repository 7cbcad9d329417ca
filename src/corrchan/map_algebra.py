"""Operator-basis machinery: transfer matrix F, time-local generator
L = dF/dt F^-1, Choi matrix and Kraus extraction.

The two-qubit Hermitian basis is G_ij = (1/2) sigma_i (x) sigma_j in row-major
(i, j) order; F_kl = tr[G_k E(G_l)] is real for Hermiticity-preserving maps
and diagonal for the correlated dephasing channels, with diagonal multiset
{1 x4, p x8, tau(mu) x4} where tau(mu) = mu + (1 - mu) p^2.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .channels import KrausSet, channel_at_time, SIGMA
from .linalg import dagger, lapack
from .noise import NoiseParams, OunParams, oun_p

# Diagonal slot groups of the two-qubit basis under correlated dephasing,
# indexed a = 4i + j: (i, j) both in {0, 3} -> eigenvalue 1; exactly one index
# in {1, 2} -> eigenvalue p; both in {1, 2} -> eigenvalue tau(mu).
IDENTITY_SLOTS = (0, 3, 12, 15)
SINGLE_FLIP_SLOTS = (1, 2, 4, 7, 8, 11, 13, 14)
DOUBLE_FLIP_SLOTS = (5, 6, 9, 10)
_SINGLE_FLIP_DIAG = 17 * np.array(SINGLE_FLIP_SLOTS)  # (a, a) in a flattened 16 x 16
_DOUBLE_FLIP_DIAG = 17 * np.array(DOUBLE_FLIP_SLOTS)

_IMAG_TOL = 1e-9
_SINGULAR_TOL = 1e-12
KRAUS_RANK_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Orthonormal Hermitian operator basis with G_0 = I/sqrt(d)."""

    dim: int
    elements: np.ndarray  # shape (N, d, d)

    @property
    def size(self) -> int:
        return self.elements.shape[0]


def pauli_basis(n_qubits: int) -> OperatorBasis:
    """Normalized Pauli basis: sigma_i/sqrt(2) for one qubit, the sixteen
    (1/2) sigma_i (x) sigma_j for two, ordered row-major over (i, j).
    """
    if n_qubits == 1:
        els = np.stack([s / np.sqrt(2) for s in SIGMA])
        return OperatorBasis(dim=2, elements=els)
    if n_qubits == 2:
        els = np.stack([0.5 * np.kron(si, sj) for si in SIGMA for sj in SIGMA])
        return OperatorBasis(dim=4, elements=els)
    raise ValueError(f"only 1 or 2 qubits supported, got {n_qubits}")


def computational_basis(dim: int) -> np.ndarray:
    """Matrix units tau_a = |i><j|, a = dim*i + j (row-major)."""
    taus = np.zeros((dim * dim, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            taus[dim * i + j, i, j] = 1.0
    return taus


def transfer_matrix(channel: KrausSet, basis: OperatorBasis) -> np.ndarray:
    """F_kl = tr[G_k E(G_l)] for the given channel, as a real N x N array;
    for a stacked channel, a (*channel.shape, N, N) stack."""
    if channel.dim != basis.dim:
        raise ValueError(f"channel dim {channel.dim} does not match basis dim {basis.dim}")
    b = basis.elements
    eb = np.zeros(channel.shape + b.shape, dtype=complex)
    for w, op in channel.weighted_operators(matrix_axes=3):
        eb += w * np.einsum('...ij,ljk,...km->...lim', op, b, dagger(op))
    f = np.einsum('kij,...lji->...kl', b, eb)
    residue = np.abs(f.imag).max()
    if not residue <= _IMAG_TOL:
        raise NumericError(f"transfer matrix has imaginary residue {residue:.3e}")
    return f.real.copy()


def transfer_sampler(noise: NoiseParams, mu: float) -> Callable:
    """t -> F(t) in the two-qubit Pauli basis for the correlated channel of
    the given noise family; an array of times gives the stack of F(t)."""
    basis = pauli_basis(2)
    return lambda t: transfer_matrix(channel_at_time(noise, mu, t), basis)


def generator(f_sampler: Callable[[float], np.ndarray], t: float, h: float = 1e-4) -> np.ndarray:
    """Time-local generator L = dF/dt F^-1 at time t.

    dF/dt by central difference (F(t+h) - F(t-h)) / 2h, falling back to a
    forward difference for t < h. Raises NumericError when F(t) is singular
    (|det F| <= 1e-12); the measures built on L are not defined there.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    f_t = f_sampler(t)
    det = lapack(np.linalg.det, f_t)
    if not abs(det) > _SINGULAR_TOL:
        raise NumericError(f"transfer matrix singular at t={t} (det {det:.3e})")
    if t < h:
        fdot = (f_sampler(t + h) - f_t) / h
    else:
        fdot = (f_sampler(t + h) - f_sampler(t - h)) / (2 * h)
    return fdot @ lapack(np.linalg.inv, f_t)


def dephasing_generator(rate_single, rate_double) -> np.ndarray:
    """Diagonal two-qubit dephasing generator: 0 on the identity-like slots,
    `rate_single` on the eight single-flip slots, `rate_double` on the four
    double-flip slots. Two rate arrays of one shape give the (..., 16, 16)
    stack of generators.
    """
    rates = np.asarray((rate_single, rate_double), dtype=float)
    flat = np.zeros(rates.shape[1:] + (256,))
    flat[..., _SINGLE_FLIP_DIAG] = rates[0, ..., None]
    flat[..., _DOUBLE_FLIP_DIAG] = rates[1, ..., None]
    return flat.reshape(rates.shape[1:] + (16, 16))


def correlated_oun_rates(t, params: OunParams, mu: float):
    """Closed-form generator rates of the correlated OUN channel, per time.

    Differentiating log of the diagonal F entries gives
      rate_single = -(G/2)(1 - exp(-g t)),
      rate_double = -G (1 - exp(-g t)) (1 - mu) p^2 / tau(mu),
    with tau(mu) = mu + (1 - mu) p^2. At mu = 0 the double-flip rate is twice
    the single-flip rate; at mu = 1 it vanishes (the tau slots freeze at mu).
    """
    G, g = params.G, params.g
    p2 = np.square(oun_p(t, params))
    tau = mu + (1 - mu) * p2
    rate_single = -(G / 2) * (1 - np.exp(-g * t))
    rate_double = -G * (1 - np.exp(-g * t)) * (1 - mu) * p2 / tau
    return rate_single, rate_double


def correlated_oun_generator(t, params: OunParams, mu: float) -> np.ndarray:
    """Analytic generator matrix of the correlated OUN channel, per time."""
    return dephasing_generator(*correlated_oun_rates(t, params, mu))


def choi(f: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Choi matrix S_ab = sum_rs F_sr tr[G_r tau_a^dag G_s tau_b].

    The tau_a are the computational matrix units |i><j| (row-major); in that
    basis the map acts as E(rho) = sum_ab S_ab tau_a rho tau_b^dag, so S is
    Hermitian and PSD exactly when the map is completely positive.
    """
    taus = computational_basis(basis.dim)
    b = basis.elements
    tdag = np.conj(np.transpose(taus, (0, 2, 1)))
    s = np.einsum('sr,rij,ajk,skl,bli->ab', f.astype(complex), b, tdag, b, taus,
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
    from .channels import completeness_residual

    comp = completeness_residual(ks)
    if not comp <= 1e-8:
        raise NumericError(f"extracted Kraus set incomplete (residual {comp:.3e})")
    return ks
