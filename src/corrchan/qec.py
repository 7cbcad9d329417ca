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


def _check_p_mu(p, mu: float) -> np.ndarray:
    """p as a float array (0-d for one p); ValueError for NaN or out of range."""
    p = _check_noise_value(p, -1, "noise value p")
    _check_mu(mu)
    return p


def _marginals(p):
    return {'I': (1 + p) / 2, 'Z': (1 - p) / 2}


def _word_probabilities(words, p, mu: float):
    """Chained probability of each word in turn, per entry of p, from one
    check of p and mu and the four pair factors p_ab built once for all
    words. A generator, so that a sum holds one word's array at a time."""
    q = _marginals(_check_p_mu(p, mu))
    pair = {(a, b): (1 - mu) * q[a] * q[b] + (mu * q[a] if a == b else 0.0)
            for a in "IZ" for b in "IZ"}
    for word in words:
        prob = 1.0
        for k in range(5):
            prob *= pair[word[k], word[k + 1]]
        yield prob * q[word[5]]


def total_probability_mass(p, mu: float):
    """Diagnostic: the chained model's total mass over all 64 words, per entry of p.

    Strictly below 1 for mu < 1 and |p| < 1 (the chained model is not a
    normalized distribution); equals (p_0^2 + p_3^2)^5 at mu = 0.
    """
    return sum(_word_probabilities(ALL_ERROR_STRINGS, p, mu))


def success_probability_bruteforce(p, mu: float):
    """Success probability as the explicit sum of the chained word
    probabilities (`oracle.error_probability`) over the 32-element
    correctable set, per entry of p."""
    return sum(_word_probabilities(CORRECTABLE_ERRORS, p, mu))


def _probability(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


def success_probability_closed(p, mu: float):
    """Closed-form success probability: the degree-10 polynomial in p with
    mu-dependent coefficients, evaluated literally per entry of p. A single p
    is a 0-d array, so it gives the same bits as inside a grid. Round-off
    carries the polynomial an ulp past 1 at p = +-1 for some mu, so the
    result is clipped to [0, 1]."""
    p = _check_p_mu(p, mu)
    return _probability((
        2 + 4 * p**10 * (-1 + mu)**4 + 3 * mu - mu**3
        + p**8 * (26 - 47 * mu + 37 * mu**3 - 16 * mu**4)
        + 2 * p**2 * (10 + 11 * mu + 7 * mu**3 + 2 * mu**4)
        + 2 * p**6 * (12 + mu * (-7 + 12 * mu) * (-3 + mu**2))
        - 4 * p**4 * (-13 + mu + mu**2 * (-12 + mu * (5 + 4 * mu)))
    ) / 128)


def success_vs_time(noise: NoiseParams, mu: float, times: Sequence[float],
                    normalized: bool = False) -> np.ndarray:
    """Success probability at each time of a grid for RTN or OUN dephasing.

    Evaluates the noise and the closed form once over the whole grid and
    spot-checks five grid points against the brute-force sum. With
    `normalized`, values are divided by the total chained probability mass.
    """
    _check_dephasing(noise)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError(f"times must be a non-empty 1-d grid, got shape {times.shape}")
    p = noise_p(noise, times)
    values = success_probability_closed(p, mu)
    idx = np.linspace(0, len(times) - 1, min(5, len(times))).astype(int)
    for i, brute in zip(idx, success_probability_bruteforce(p[idx], mu)):
        if not abs(brute - values[i]) <= 1e-10:
            raise NumericError(
                f"closed form disagrees with brute force at t={times[i]}: "
                f"{values[i]} vs {brute}")
    if normalized:
        # the correctable words are part of the total mass, so the ratio is at
        # most 1 but for round-off
        values = _probability(values / total_probability_mass(p, mu))
    return values
