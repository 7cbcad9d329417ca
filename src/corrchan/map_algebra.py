"""Operator-basis machinery: transfer matrix F, time-local generator
L = dF/dt F^-1, Choi matrix and Kraus extraction.

The two-qubit Hermitian basis is G_ij = (1/2) sigma_i (x) sigma_j in row-major
(i, j) order; F_kl = tr[G_k E(G_l)] is real for Hermiticity-preserving maps.

`transfer_sampler` builds F(t) of the correlated channels in closed form, as
a float array over a time grid, with no Kraus set: for correlated dephasing
F is diagonal with multiset {1 x4, p x8, tau(mu) x4}, tau(mu) = mu +
(1 - mu) p^2 (`dephasing_transfer`); for correlated amplitude damping
F = (1 - mu) F1 (x) F1 + mu F_fc (`nmad_transfer`). `transfer_matrix`, the
Kraus sum tr[G_k sum_i w_i K_i G_l K_i^dag], is the independent oracle of
both, in the tests and in `channels.cptp_report`; the two agree entry by
entry to 1e-14 absolute, while only the closed form keeps its relative
accuracy where p(t) or tau(mu) is small and the Kraus sum cancels.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .channels import SIGMA, KrausSet, _check_mu, _check_noise_value
from .linalg import dagger, lapack
from .noise import NmadParams, NoiseParams, OunParams, noise_p, oun_p

# Diagonal slot groups of the two-qubit basis under correlated dephasing,
# indexed a = 4i + j: (i, j) both in {0, 3} -> eigenvalue 1; exactly one index
# in {1, 2} -> eigenvalue p; both in {1, 2} -> eigenvalue tau(mu).
IDENTITY_SLOTS = (0, 3, 12, 15)
SINGLE_FLIP_SLOTS = (1, 2, 4, 7, 8, 11, 13, 14)
DOUBLE_FLIP_SLOTS = (5, 6, 9, 10)
_IDENTITY_DIAG = 17 * np.array(IDENTITY_SLOTS)  # (a, a) in a flattened 16 x 16
_SINGLE_FLIP_DIAG = 17 * np.array(SINGLE_FLIP_SLOTS)
_DOUBLE_FLIP_DIAG = 17 * np.array(DOUBLE_FLIP_SLOTS)

# Transfer matrix of fully correlated amplitude damping,
# F_fc(p) = _FC_CONST + sqrt(1 - p) _FC_SQRT + p _FC_LINEAR, every entry 0,
# +-1/2 or 1. The population slots (I and Z only, IDENTITY_SLOTS) mix only
# through rows 3 (I Z) and 12 (Z I), where |11> decays to |00>; the twelve
# coherence slots mix in the six pairs below.
_FC_PAIRS = ((1, 13), (2, 14), (4, 7), (8, 11), (5, 10), (6, 9))
_FC_PAIR_SIGNS = (1, 1, 1, 1, 1, -1)
_FC_CONST = np.diag([1, .5, .5, 1, .5, .5, .5, .5, .5, .5, .5, .5, 1, .5, .5, 1])
_FC_SQRT = np.diag([0, .5, .5, 0, .5, .5, .5, .5, .5, .5, .5, .5, 0, .5, .5, 0])
_FC_LINEAR = np.zeros((16, 16))
for (_i, _j), _sign in zip(_FC_PAIRS, _FC_PAIR_SIGNS):
    _FC_CONST[_i, _j] = _FC_CONST[_j, _i] = _sign / 2
    _FC_SQRT[_i, _j] = _FC_SQRT[_j, _i] = -_sign / 2
_FC_LINEAR[np.ix_((3, 12), IDENTITY_SLOTS)] = (.5, -.5, -.5, .5)

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
    """F_kl = tr[G_k E(G_l)] for the given channel, as a real N x N array.
    The Kraus sum is the oracle of the closed forms behind
    `transfer_sampler`; it loses relative accuracy where p or tau(mu) is
    small."""
    if channel.dim != basis.dim:
        raise ValueError(f"channel dim {channel.dim} does not match basis dim {basis.dim}")
    b = basis.elements
    eb = sum(w * (op @ b @ dagger(op)) for w, op in channel.weighted_operators())
    f = np.einsum('kij,lji->kl', b, eb)
    residue = np.abs(f.imag).max()
    if not residue <= _IMAG_TOL:
        raise NumericError(f"transfer matrix has imaginary residue {residue:.3e}")
    return f.real.copy()


def _slot_diagonal(identity, single, double) -> np.ndarray:
    """(..., 16, 16) diagonal matrices with `identity`, `single` and `double`
    on the identity, single-flip and double-flip slots; `single` and
    `double` are equally shaped arrays over the stack axes."""
    single, double = np.asarray(single, dtype=float), np.asarray(double, dtype=float)
    flat = np.zeros(single.shape + (256,))
    flat[..., _IDENTITY_DIAG] = identity
    flat[..., _SINGLE_FLIP_DIAG] = single[..., None]
    flat[..., _DOUBLE_FLIP_DIAG] = double[..., None]
    return flat.reshape(single.shape + (16, 16))


def _checked_transfer(f: np.ndarray) -> np.ndarray:
    if not np.isfinite(f).all():
        raise NumericError("transfer matrix F(t) is not finite")
    return f


def dephasing_transfer(p, mu: float) -> np.ndarray:
    """Closed-form F of correlated dephasing: diagonal, 1 on the identity
    slots, p on the single-flip slots and tau = mu + (1 - mu) p^2 on the
    double-flip slots. An array of p gives the (..., 16, 16) stack.
    """
    _check_mu(mu)
    p = _check_noise_value(p, -1, "noise value p")
    return _checked_transfer(_slot_diagonal(1.0, p, mu + (1 - mu) * np.square(p)))


def nmad_transfer(p, mu: float) -> np.ndarray:
    """Closed-form F of correlated amplitude damping,
    F = (1 - mu) F1 (x) F1 + mu F_fc, where
    F1 = [[1, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [p, 0, 0, 1 - p]],
    s = sqrt(1 - p), is single-qubit damping and F_fc that of the fully
    correlated channel. An array of p gives the (..., 16, 16) stack.
    """
    _check_mu(mu)
    p = _check_noise_value(p, 0, "damping probability p")
    s = np.sqrt(1 - p)
    f1 = np.zeros(p.shape + (4, 4))
    f1[..., 0, 0] = 1
    f1[..., 1, 1] = f1[..., 2, 2] = s
    f1[..., 3, 0] = p
    f1[..., 3, 3] = 1 - p
    f1f1 = (f1[..., :, None, :, None] * f1[..., None, :, None, :]).reshape(p.shape + (16, 16))
    p, s = p[..., None, None], s[..., None, None]
    f_fc = _FC_CONST + s * _FC_SQRT + p * _FC_LINEAR
    return _checked_transfer((1 - mu) * f1f1 + mu * f_fc)


def transfer_sampler(noise: NoiseParams, mu: float) -> Callable:
    """t -> F(t) in the two-qubit Pauli basis for the correlated channel of
    the given noise family; an array of times gives the stack of F(t), the
    same bits as one time at a time.

    F is built in closed form from p(t) (`dephasing_transfer` for RTN and
    OUN, `nmad_transfer` for NMAD), with no Kraus set; it agrees with the
    Kraus oracle `transfer_matrix(channel_at_time(noise, mu, t), basis)` to
    1e-14 per entry. mu outside [0, 1] is a ValueError; a non-finite p(t)
    or F(t) a NumericError.
    """
    _check_mu(mu)
    transfer = nmad_transfer if isinstance(noise, NmadParams) else dephasing_transfer
    return lambda t: transfer(noise_p(noise, t), mu)


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


def dephasing_generator(rate_single, rate_double) -> np.ndarray:
    """Diagonal two-qubit dephasing generator: 0 on the identity-like slots,
    `rate_single` on the eight single-flip slots, `rate_double` on the four
    double-flip slots. Two rate arrays of one shape give the (..., 16, 16)
    stack of generators.
    """
    return _slot_diagonal(0.0, rate_single, rate_double)


def correlated_oun_rates(t, params: OunParams, mu: float):
    """Closed-form generator rates of the correlated OUN channel, per time.

    Differentiating log of the diagonal F entries gives
      rate_single = -(G/2)(1 - exp(-g t)),
      rate_double = -G (1 - exp(-g t)) (1 - mu) p^2 / tau(mu),
    with tau(mu) = mu + (1 - mu) p^2. At mu = 0 the double-flip rate is twice
    the single-flip rate, taken exactly, since (1 - mu) p^2 / tau is 0/0 once
    p^2 underflows; at mu = 1 it vanishes (the tau slots freeze at mu).
    """
    G, g = params.G, params.g
    p2 = np.square(oun_p(t, params))
    rate_single = -(G / 2) * (1 - np.exp(-g * t))
    if mu == 0:
        return rate_single, 2 * rate_single
    tau = mu + (1 - mu) * p2
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
