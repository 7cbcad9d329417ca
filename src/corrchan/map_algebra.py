"""Closed-form transfer matrices and generators of the correlated channels.

The two-qubit Hermitian basis is G_ij = (1/2) sigma_i (x) sigma_j in row-major
(i, j) order, slot a = 4i + j; F_kl = tr[G_k E(G_l)] is real for
Hermiticity-preserving maps.

`transfer_sampler` builds F(t) of the correlated channels in closed form, as
a float array over a time grid, with no Kraus set: for correlated dephasing
F is diagonal with multiset {1 x4, p x8, tau(mu) x4}, tau(mu) = mu +
(1 - mu) p^2 (`dephasing_transfer`); for correlated amplitude damping
F = (1 - mu) F1 (x) F1 + mu F_fc (`nmad_transfer`). `dephasing_generator`
and `correlated_oun_generator` give the time-local generator L = dF/dt F^-1
of correlated dephasing in the same slots. The Kraus sum
`oracle.transfer_matrix` and the finite-difference `oracle.generator` are
their independent oracle in the tests; the Kraus sum agrees entry by entry
to 1e-14 absolute, while only the closed form keeps its relative accuracy
where p(t) or tau(mu) is small and the Kraus sum cancels.
"""

from typing import Callable

import numpy as np

from .errors import NumericError
from .channels import _check_mu, _check_noise_value
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
    Kraus oracle `oracle.transfer_matrix(oracle.channel_at_time(noise, mu,
    t), basis)` to 1e-14 per entry. mu outside [0, 1] is a ValueError; a
    non-finite p(t) or F(t) a NumericError.
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
