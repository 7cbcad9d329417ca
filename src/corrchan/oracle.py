"""The test references of the closed forms: Kraus sets, Choi and transfer
matrices, 16 x 16 dephasing generators, Bloch updates and codeword vectors.

The correlated channels are built here as the paper writes them, as Kraus
mixtures (1 - mu) E (x) E + mu E_fc, one channel at one noise value p. No
command imports this module: `channels.evolve` and
`map_algebra.accessible_volume` compute states and det F(t) in closed form
from p(t), and the tests check them against the Kraus sums here.
`cptp_report` certifies a constructed channel.

A KrausSet is one channel: operators K_k with optional mixture weights w_k,
acting as rho -> sum_k w_k K_k rho K_k^dag. The correlated dephasing channel
carries its four joint probabilities as the weights; the correlated
amplitude-damping channel carries the (1-mu)/mu split between its four
uncorrelated and two fully correlated operators, so the mu = 0 and mu = 1
limits are exact.

The operator basis is an (N, d, d) array: the normalized Pauli basis, for
two qubits G_ij = (1/2) sigma_i (x) sigma_j in row-major (i, j) order.
`transfer_matrix` gives F_kl = tr[G_k E(G_l)], real for
Hermiticity-preserving maps, and `transfer_sampler` the same F(t) in closed
form over a time grid; `dephasing_generator` and `correlated_oun_generator`
the time-local L = dF/dt F^-1 of correlated dephasing as 16 x 16 matrices
from its two rates, and `generator` the same L by finite differences;
`choi` and `kraus_from_choi` the round trip through the Choi matrix. The
Kraus sums agree with the closed forms to 1e-14 absolute, but lose relative
accuracy where p or tau(mu) is small and terms cancel.

`bloch_diagonal_state` is the density matrix of a Bloch triple and
`bloch_update` the reference of `freezing`; `build_codewords`,
`apply_word` and `greedy_correctable_set` are that of the pair rule of
`words`, and `error_probability` that of the sums over words of `qec`. `dagger` is the
adjoint of a matrix or a stack.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import SIGMA, _check_noise_value
from .errors import NumericError, ValidationError
from .freezing import BLOCH_EQ_TOL, _UNITAL_KINDS, BlochDiagonal, _as_triple
from .linalg import lapack, validate_density
from .map_algebra import (DOUBLE_FLIP_SLOTS, IDENTITY_SLOTS, SINGLE_FLIP_SLOTS,
                          correlated_oun_rates)
from .noise import noise_p
from .params import NmadParams, NoiseParams, OunParams, _check_mu
from .qec import _word_probabilities
from .words import ALL_ERROR_STRINGS, _check_word, is_detectable

COMPLETENESS_TOL = 1e-10
JOINT_PROB_TOL = 1e-12
BELL_DIAGONAL_TOL = 1e-12
KRAUS_RANK_CUTOFF = 1e-10
_IMAG_TOL = 1e-9
_SINGULAR_TOL = 1e-12


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return m.conj().swapaxes(-1, -2)


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
    `transfer_sampler`; it loses relative accuracy where p or tau(mu) is
    small."""
    if channel.dim != basis.shape[-1]:
        raise ValueError(f"channel dim {channel.dim} does not match basis dim "
                         f"{basis.shape[-1]}")
    eb = sum(w * (op @ basis @ dagger(op)) for w, op in channel.weighted_operators())
    f = np.einsum('kij,lji->kl', basis, eb)
    residue = np.abs(f.imag).max()
    if not residue <= _IMAG_TOL:
        raise NumericError(f"transfer matrix has imaginary residue {residue:.3e}")
    return f.real.copy()


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


_IDENTITY_DIAG = 17 * np.array(IDENTITY_SLOTS)  # (a, a) in a flattened 16 x 16
_SINGLE_FLIP_DIAG = 17 * np.array(SINGLE_FLIP_SLOTS)
_DOUBLE_FLIP_DIAG = 17 * np.array(DOUBLE_FLIP_SLOTS)


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
    Kraus sum `transfer_matrix(channel_at_time(noise, mu, t), basis)` to
    1e-14 per entry. `map_algebra.accessible_volume` gives det F(t) with no
    matrix. mu outside [0, 1] is a ValueError; a non-finite p(t) or F(t) a
    NumericError.
    """
    _check_mu(mu)
    transfer = nmad_transfer if isinstance(noise, NmadParams) else dephasing_transfer
    return lambda t: transfer(noise_p(noise, t), mu)


def dephasing_generator(rate_single, rate_double) -> np.ndarray:
    """Diagonal two-qubit dephasing generator: 0 on the identity-like slots,
    `rate_single` on the eight single-flip slots, `rate_double` on the four
    double-flip slots. Two rate arrays of one shape give the (..., 16, 16)
    stack of generators.
    """
    return _slot_diagonal(0.0, rate_single, rate_double)


def correlated_oun_generator(t, params: OunParams, mu: float) -> np.ndarray:
    """Analytic generator matrix of the correlated OUN channel, per time."""
    return dephasing_generator(*correlated_oun_rates(t, params, mu))


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


# --------------------------------------------------------------------------
# Bell-diagonal Bloch updates
# --------------------------------------------------------------------------


def bloch_diagonal_state(c) -> np.ndarray:
    """Density matrix of the Bell-diagonal state with Bloch triple c."""
    c1, c2, c3 = _as_triple(c)
    rho = np.eye(4, dtype=complex)
    for ci, sigma in zip((c1, c2, c3), SIGMA[1:]):
        rho += ci * np.kron(sigma, sigma)
    return rho / 4


def state_to_bloch_diagonal(rho: np.ndarray) -> BlochDiagonal:
    """Extract the Bloch triple of a Bell-diagonal state.

    Raises ValidationError when rho deviates from the Bell-diagonal form by
    more than 1e-12 in any entry.
    """
    c = tuple(float(np.trace(rho @ np.kron(s, s)).real) for s in SIGMA[1:])
    residual = float(np.abs(rho - bloch_diagonal_state(c)).max())
    if not residual <= BELL_DIAGONAL_TOL:
        raise ValidationError("Bell-diagonal form", residual)
    return BlochDiagonal(*c)


def bloch_update(c, kind: str, p: float, mu: float | None = None):
    """Bloch-triple update of a Bell-diagonal state under the named channel.

    Unital channels map (c1, c2, c3) to (c1 tau, c2 tau, c3), with
    tau = mu + (1 - mu) p^2. The fully correlated amplitude-damping channel
    preserves the form only for c3 = -1, where the coherence c1 - c2 is
    scaled by sqrt(1-p) while c1 + c2 is conserved. Accepts a BlochDiagonal
    or any 3-sequence (the update is linear, so it applies to non-state
    triples as well). p and mu are checked as by `channels.evolve`.
    """
    c1, c2, c3 = _as_triple(c)
    kind = kind.lower()
    if kind in _UNITAL_KINDS:
        if mu is None:
            raise ValueError("unital update requires the correlation factor mu")
        p = float(_check_noise_value(p, -1, "noise value p"))
        _check_mu(mu)
        tau = mu + (1 - mu) * p * p
        return (c1 * tau, c2 * tau, c3)
    if kind == "nmad":
        p = float(_check_noise_value(p, 0, "damping probability p"))
        if not abs(c3 + 1) <= BLOCH_EQ_TOL:
            raise ValueError(
                f"fully correlated amplitude damping preserves the Bell-diagonal "
                f"form only for c3 = -1, got c3 = {c3}")
        root = np.sqrt(1 - p)
        total, diff = c1 + c2, c1 - c2
        return (0.5 * (total + diff * root), 0.5 * (total - diff * root), -1.0)
    raise ValueError(f"unknown channel kind {kind!r}")


# --------------------------------------------------------------------------
# Codeword vectors of the six-qubit code
# --------------------------------------------------------------------------


def build_codewords() -> tuple[np.ndarray, np.ndarray]:
    """Logical codewords as 64-dimensional state vectors.

    Built as the threefold tensor product of (|00> +- |11>)/sqrt(2): each
    codeword has eight nonzero amplitudes of magnitude 1/(2 sqrt 2), all
    positive for |0_conc> and signed by the parity of |11> pairs for
    |1_conc>.
    """
    plus = np.zeros(4)
    minus = np.zeros(4)
    plus[0] = plus[3] = 1 / np.sqrt(2)
    minus[0], minus[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    zero = np.kron(np.kron(plus, plus), plus)
    one = np.kron(np.kron(minus, minus), minus)
    return zero, one


def apply_word(word: str, vec: np.ndarray) -> np.ndarray:
    """Apply a six-qubit Pauli word over {I, X, Z} to a 64-vector.

    Qubit k corresponds to bit 5 - k of the basis index (leftmost qubit is
    the most significant bit).
    """
    _check_word(word, alphabet="IXZ")
    out = vec.copy()
    idx = np.arange(64)
    zmask = sum(1 << (5 - k) for k, ch in enumerate(word) if ch == 'Z')
    xmask = sum(1 << (5 - k) for k, ch in enumerate(word) if ch == 'X')
    if zmask:
        signs = (-1.0) ** np.bitwise_count(np.bitwise_and(idx, zmask))
        out = out * signs
    if xmask:
        out = out[np.bitwise_xor(idx, xmask)]
    return out


def is_detectable_numeric(word: str) -> bool:
    """`words.is_detectable` through the codeword vectors of `build_codewords`:
    equal diagonal matrix elements between the two codewords and vanishing
    off-diagonal ones, to 1e-12, an independent route to the pair rule."""
    _check_word(word)
    zero, one = build_codewords()
    e_zero, e_one = apply_word(word, zero), apply_word(word, one)
    return (abs(zero @ e_zero - one @ e_one) < 1e-12
            and abs(zero @ e_one) < 1e-12 and abs(one @ e_zero) < 1e-12)


def _xor_word(a: str, b: str) -> str:
    return ''.join('Z' if x != y else 'I' for x, y in zip(a, b))


def greedy_correctable_set() -> frozenset[str]:
    """Maximal correctable set built greedily, lowest weight first then
    lexicographic, accepting a string when all its products with the set so
    far remain detectable; it rebuilds `words.CORRECTABLE_ERRORS`.
    """
    detectable = frozenset(w for w in ALL_ERROR_STRINGS if is_detectable(w))
    chosen: list[str] = []
    for w in sorted(ALL_ERROR_STRINGS, key=lambda s: (s.count('Z'), s)):
        if w in detectable and all(_xor_word(w, c) in detectable for c in chosen):
            chosen.append(w)
    return frozenset(chosen)


def error_probability(word: str, p, mu: float):
    """Chained probability of a six-letter error word: the product of the
    five adjacent-pair joint probabilities p_(e_k e_k+1) times the
    single-letter probability of the last letter, per entry of p; one term
    of the sums of `qec`.
    """
    return next(_word_probabilities([_check_word(word)], p, mu))
