"""Closed forms of the correlated channels as maps: the accessible-state
volume and the rates of the time-local dephasing generator.

The two-qubit Hermitian basis is G_ij = (1/2) sigma_i (x) sigma_j in row-major
(i, j) order, slot a = 4i + j; the transfer matrix F_kl = tr[G_k E(G_l)] is
real for Hermiticity-preserving maps.

`accessible_volume` gives V(t) = det F(t) as the product of the eigenvalues
of F, from one evaluation of p(t) and with no matrix: for correlated
dephasing F is diagonal with multiset {1 x4, p x8, tau(mu) x4}, tau(mu) =
mu + (1 - mu) p^2; for correlated amplitude damping the superoperator is
triangular in the computational basis. The time-local generator
L = dF/dt F^-1 of correlated dephasing is diagonal too, with 0 on the
identity slots and one rate on each flip group: `correlated_oun_rates`
gives the two rates of the correlated OUN channel. The closed-form F and L
as 16 x 16 matrices (`oracle.dephasing_transfer`,
`oracle.correlated_oun_generator`), the Kraus sum `oracle.transfer_matrix`
and the finite-difference `oracle.generator` are their independent oracle
in the tests.

Both also take a sequence of k mu, evaluated in one pass like
`channels.evolve`: p(t) once, each mu a float column over the times, and a
leading mu axis of length k on the result, each row with the bits of a call
with its mu.
"""

import numpy as np

from .channels import _mu_column
from .noise import noise_p, oun_p
from .params import NmadParams, NoiseParams, OunParams

# Diagonal slot groups of the two-qubit basis under correlated dephasing,
# indexed a = 4i + j: (i, j) both in {0, 3} -> eigenvalue 1; exactly one index
# in {1, 2} -> eigenvalue p; both in {1, 2} -> eigenvalue tau(mu).
IDENTITY_SLOTS = (0, 3, 12, 15)
SINGLE_FLIP_SLOTS = (1, 2, 4, 7, 8, 11, 13, 14)
DOUBLE_FLIP_SLOTS = (5, 6, 9, 10)


def accessible_volume(noise: NoiseParams, mu, t):
    """Volume of accessible states V(t) = det F(t) of the correlated channel
    of the noise family, at a time or over an array of times (the same bits
    either way), as the product of the eigenvalues of F from one p(t); for
    a sequence of k mu, shape (k, *t.shape).

    Correlated dephasing (RTN, OUN) has a diagonal F: V = p^8 tau^4, tau =
    mu + (1 - mu) p^2. Correlated amplitude damping (NMAD) is triangular in
    the computational basis, with (1 - mu) a_i a_j + mu e_i e_j on |i><j|
    for a = (1, s, s, s^2), e = (1, 1, 1, s), s = sqrt(1 - p): 1 once,
    A = mu + (1 - mu) s and B = mu + (1 - mu) s^2 four times each, s A
    twice, s B four times and s^2 B once, so V = (1 - p)^4 A^6 B^9. Each is
    a sum of nonnegative terms, so V keeps its relative accuracy where F is
    nearly singular. mu outside [0, 1] is a ValueError.
    """
    mu = _mu_column(mu, np.ndim(t))
    p = noise_p(noise, t)
    # powers by squaring: unlike np.power, a product rounds alike in a grid
    # and at a single time
    if isinstance(noise, NmadParams):
        q = 1 - p
        a2 = np.square(mu + (1 - mu) * np.sqrt(q))
        b = mu + (1 - mu) * q
        b8 = np.square(np.square(np.square(b)))
        return np.square(np.square(q)) * a2 * np.square(a2) * b8 * b
    p2 = np.square(p)
    return np.square(np.square(p2)) * np.square(np.square(mu + (1 - mu) * p2))


def correlated_oun_rates(t, params: OunParams, mu):
    """Closed-form generator rates (single-flip, double-flip) of the
    correlated OUN channel, at a time or over an array of times; for a
    sequence of k mu, both of shape (k, *t.shape).

    Differentiating log of the diagonal F entries gives
      rate_single = -(G/2)(1 - exp(-g t)),
      rate_double = -G (1 - exp(-g t)) (1 - mu) p^2 / tau(mu),
    with tau(mu) = mu + (1 - mu) p^2. At mu = 0 the double-flip rate is twice
    the single-flip rate, taken exactly, since (1 - mu) p^2 / tau is 0/0 once
    p^2 underflows, in each row of a sequence whose mu is 0; at mu = 1 it
    vanishes (the tau slots freeze at mu). mu outside [0, 1] is a
    ValueError.
    """
    mu = _mu_column(mu, np.ndim(t))
    G, g = params.G, params.g
    p2 = np.square(oun_p(t, params))
    decay = np.expm1(-g * t)
    rate_single = (G / 2) * decay
    zero = np.equal(mu, 0)
    # tau is read as 1 where mu = 0, whose rate is not taken from it
    tau = np.where(zero, 1.0, mu + (1 - mu) * p2)
    rate_double = np.where(zero, 2 * rate_single, G * decay * (1 - mu) * p2 / tau)
    return np.array(np.broadcast_to(rate_single, rate_double.shape)), rate_double
