"""Six-qubit concatenated code under correlated dephasing: error
classification, chained error probabilities and the success probability.

The code concatenates a three-qubit phase-flip outer code (|+++>, |--->)
with a two-qubit bit-flip inner code (|00>, |11>), giving 64-dimensional
codewords supported on the eight basis strings whose qubit pairs are 00 or
11. The error model is {I, Z}^(x6) with nearest-neighbour correlated
probabilities p_ij = (1-mu) p_i p_j + mu p_i delta_ij.

Detectability follows from the pair rule, with no matrix elements and no
tolerance: a Z-string acts on each inner pair as the identity (II or ZZ) or
as the inner logical Z (one Z), which swaps that pair's outer |+> and |->.
A word is undetectable exactly when it flips all three pairs, which maps
|0_conc> to |1_conc>. `oracle.is_detectable_numeric` checks the rule on the
codeword vectors.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import _check_mu, _check_noise_value
from .errors import NumericError
from .noise import NmadParams, NoiseParams, noise_p

ALL_ERROR_STRINGS = tuple(''.join(w) for w in itertools.product('IZ', repeat=6))

#: Undetectable errors: every qubit pair carries exactly one Z.
UNDETECTABLE_ERRORS = (
    "ZIZIZI", "ZIZIIZ", "ZIIZZI", "ZIIZIZ",
    "IZZIZI", "IZZIIZ", "IZIZZI", "IZIZIZ",
)

#: The canonical 32-element correctable set (pairwise products detectable).
CORRECTABLE_ERRORS = (
    "IIIIII", "ZIIIII", "IZIIII", "IIZIII",
    "IIIZII", "IIIIZI", "IIIIIZ", "ZZIIII",
    "IIZZII", "IIIIZZ", "ZZZIII", "ZZIZII",
    "ZZIIZI", "ZZIIIZ", "ZIZZII", "ZIIIZZ",
    "IZZZII", "IZIIZZ", "IIZZZI", "IIZZIZ",
    "IIZIZZ", "IIIZZZ", "ZZZZII", "ZZIIZZ",
    "IIZZZZ", "ZZZZZI", "ZZZZIZ", "ZZZIZZ",
    "ZZIZZZ", "ZIZZZZ", "IZZZZZ", "ZZZZZZ",
)


def _check_word(word: str, alphabet: str = "IZ") -> str:
    if len(word) != 6 or any(ch not in alphabet for ch in word):
        raise ValueError(f"error string must be length 6 over {{{','.join(alphabet)}}}, "
                         f"got {word!r}")
    return word


# --------------------------------------------------------------------------
# Detectability and classification
# --------------------------------------------------------------------------


def is_detectable(word: str) -> bool:
    """Error detectability by the pair rule: some inner pair (qubits 2k,
    2k+1) carries no Z or two, so the word does not flip every pair."""
    _check_word(word)
    return any(word[k] == word[k + 1] for k in (0, 2, 4))


@dataclass(frozen=True)
class ErrorClassification:
    undetectable: frozenset[str]
    detectable: frozenset[str]
    correctable: frozenset[str]


def classify_errors() -> ErrorClassification:
    """Partition {I, Z}^(x6) into undetectable and detectable errors by the
    pair rule, and attach the canonical correctable set.

    The correctable set is the fixed 32-element list `CORRECTABLE_ERRORS`:
    every element and every pairwise product E_a E_b (the XOR of the
    Z-patterns, since Z-strings are involutions) is detectable, which the
    tests check once for the constant rather than each process at run time.
    `oracle.greedy_correctable_set` rebuilds it from scratch.
    """
    detectable = frozenset(w for w in ALL_ERROR_STRINGS if is_detectable(w))
    return ErrorClassification(undetectable=frozenset(ALL_ERROR_STRINGS) - detectable,
                               detectable=detectable,
                               correctable=frozenset(CORRECTABLE_ERRORS))


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
    if isinstance(noise, NmadParams):
        raise ValueError("the error-correction model covers dephasing noise only "
                         "(RTN or OUN)")
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
