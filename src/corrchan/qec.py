"""Six-qubit concatenated code under correlated dephasing: chained error
probabilities and the success probability.

The code concatenates a three-qubit phase-flip outer code (|+++>, |--->)
with a two-qubit bit-flip inner code (|00>, |11>), giving 64-dimensional
codewords supported on the eight basis strings whose qubit pairs are 00 or
11. The error model is {I, Z}^(x6) with nearest-neighbour correlated
probabilities p_ij = (1-mu) p_i p_j + mu p_i delta_ij. The error words and
their classification by the pair rule are `words`, which needs no numpy.
"""

from typing import Sequence

import numpy as np

from .channels import _check_noise_value
from .errors import NumericError
from .noise import noise_p
from .params import NoiseParams, _check_dephasing, _check_mu
from .words import ALL_ERROR_STRINGS, CORRECTABLE_ERRORS

# --------------------------------------------------------------------------
# Error probabilities and success probability
# --------------------------------------------------------------------------


def _check_p_mu(p, mu) -> np.ndarray:
    """p as a float array (0-d for one p); ValueError for NaN or out of range,
    in p or in mu, one value or a sequence."""
    p = _check_noise_value(p, -1, "noise value p")
    for value in np.atleast_1d(mu).tolist():
        _check_mu(value)
    return p


def _per_mu(mu, coefficient):
    """`coefficient(mu)`, a Python float, for one mu; for a sequence of k mu,
    the column of shape (k, 1) of those floats, which broadcasts over the
    entries of p to give each mu's row the bits of a call with that mu."""
    if np.ndim(mu) == 0:
        return coefficient(mu)
    return np.array([coefficient(value) for value in mu], dtype=float).reshape(-1, 1)


def _marginals(p):
    return {'I': (1 + p) / 2, 'Z': (1 - p) / 2}


def _word_probabilities(words, p, mu):
    """Chained probability of each word in turn, per entry of p, from one
    check of p and mu and the four pair factors p_ab built once for all
    words; for a sequence of k mu, per mu and entry of p, shape (k, ...).
    A generator, so that a sum holds one word's array at a time."""
    q = _marginals(_check_p_mu(p, mu))
    rest, same = _per_mu(mu, lambda mu: 1 - mu), _per_mu(mu, lambda mu: mu)
    pair = {(a, b): rest * q[a] * q[b] + (same * q[a] if a == b else 0.0)
            for a in "IZ" for b in "IZ"}
    for word in words:
        prob = 1.0
        for k in range(5):
            prob *= pair[word[k], word[k + 1]]
        yield prob * q[word[5]]


def total_probability_mass(p, mu):
    """Diagnostic: the chained model's total mass over all 64 words, per entry of p.

    Strictly below 1 for mu < 1 and |p| < 1 (the chained model is not a
    normalized distribution); equals (p_0^2 + p_3^2)^5 at mu = 0.
    """
    return sum(_word_probabilities(ALL_ERROR_STRINGS, p, mu))


def success_probability_bruteforce(p, mu):
    """Success probability as the explicit sum of the chained word
    probabilities (`oracle.error_probability`) over the 32-element
    correctable set, per entry of p."""
    return sum(_word_probabilities(CORRECTABLE_ERRORS, p, mu))


def _probability(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


def success_probability_closed(p, mu):
    """Closed-form success probability: the degree-10 polynomial in p with
    mu-dependent coefficients, evaluated literally per entry of p, and for a
    sequence of k mu per mu, shape (k, ...), with the powers of p taken once
    for all of them. A single p is a 0-d array, so it gives the same bits as
    inside a grid. Round-off carries the polynomial an ulp past 1 at p = +-1
    for some mu, so the result is clipped to [0, 1]."""
    p = _check_p_mu(p, mu)
    p2, p4, p6, p8, p10 = p**2, p**4, p**6, p**8, p**10
    c = [_per_mu(mu, f) for f in (
        lambda mu: (-1 + mu)**4, lambda mu: 3 * mu, lambda mu: mu**3,
        lambda mu: 26 - 47 * mu + 37 * mu**3 - 16 * mu**4,
        lambda mu: 10 + 11 * mu + 7 * mu**3 + 2 * mu**4,
        lambda mu: 12 + mu * (-7 + 12 * mu) * (-3 + mu**2),
        lambda mu: -13 + mu + mu**2 * (-12 + mu * (5 + 4 * mu)))]
    return _probability((
        2 + 4 * p10 * c[0] + c[1] - c[2] + p8 * c[3] + 2 * p2 * c[4] + 2 * p6 * c[5]
        - 4 * p4 * c[6]
    ) / 128)


def success_vs_time(noise: NoiseParams, mu, times: Sequence[float],
                    normalized: bool = False) -> np.ndarray:
    """Success probability at each time of a grid for RTN or OUN dephasing,
    for one mu, or for each of a sequence of k mu in one pass, shape (k, n),
    each row with the bits of a call with its mu.

    Evaluates the noise, the powers of p and the closed form once over the
    whole grid and spot-checks five grid points against the brute-force
    sum. With `normalized`, values are divided by the total chained
    probability mass.
    """
    _check_dephasing(noise)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError(f"times must be a non-empty 1-d grid, got shape {times.shape}")
    p = noise_p(noise, times)
    values = success_probability_closed(p, mu)
    idx = np.linspace(0, len(times) - 1, min(5, len(times))).astype(int)
    brute = success_probability_bruteforce(p[idx], mu)
    for row, spots in zip(np.reshape(values, (-1, len(times))), np.reshape(brute, (-1, len(idx)))):
        for i, spot in zip(idx, spots):
            if not abs(spot - row[i]) <= 1e-10:
                raise NumericError(
                    f"closed form disagrees with brute force at t={times[i]}: "
                    f"{row[i]} vs {spot}")
    if normalized:
        # the correctable words are part of the total mass, so the ratio is at
        # most 1 but for round-off
        values = _probability(values / total_probability_mass(p, mu))
    return values
