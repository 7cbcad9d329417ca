"""Six-qubit concatenated code under correlated dephasing: codewords, error
classification, chained error probabilities and the success probability.

The code concatenates a three-qubit phase-flip outer code (|+++>, |--->)
with a two-qubit bit-flip inner code (|00>, |11>), giving 64-dimensional
codewords supported on the eight basis strings whose qubit pairs are 00 or
11. The error model is {I, Z}^(x6) with nearest-neighbour correlated
probabilities p_ij = (1-mu) p_i p_j + mu p_i delta_ij.

All matrix elements of Z-strings between codewords are exact signed integer
sums (in units of 1/8), so error classification needs no floating-point
tolerance.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import _check_mu
from .errors import NumericError, ValidationError
from .measures import TimeSeries
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
# Codewords
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


def codeword_supports() -> tuple[dict[int, int], dict[int, int]]:
    """Exact codeword amplitudes as {basis index: sign}, in units of 1/(2 sqrt 2).

    Independent of `build_codewords`: the support is enumerated directly as
    the strings whose pairs are all 00 or 11, with the sign of |1_conc> given
    by the parity of 11-pairs.
    """
    zero, one = {}, {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        idx = 48 * a + 12 * b + 3 * c  # pair k = 11 contributes bits 2^(5-2k) + 2^(4-2k)
        zero[idx] = 1
        one[idx] = (-1) ** (a + b + c)
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


# --------------------------------------------------------------------------
# Detectability and classification
# --------------------------------------------------------------------------


def _matrix_element(bra: dict[int, int], ket: dict[int, int], word: str) -> int:
    """<bra| E |ket> for a Z-string E, as an exact integer in units of 1/8."""
    zmask = sum(1 << (5 - k) for k, ch in enumerate(word) if ch == 'Z')
    total = 0
    for idx, sk in ket.items():
        sb = bra.get(idx)
        if sb is None:
            continue
        sign = -1 if (idx & zmask).bit_count() % 2 else 1
        total += sb * sk * sign
    return total


def is_detectable(word: str, codewords: tuple[np.ndarray, np.ndarray] | None = None) -> bool:
    """Error detectability: equal diagonal matrix elements between the two
    codewords and vanishing off-diagonal ones.

    With no `codewords` argument the test runs on the exact integer support
    representation; passing explicit codeword vectors checks the same
    condition numerically (tolerance 1e-12) as an independent route.
    """
    _check_word(word)
    if codewords is None:
        zero, one = codeword_supports()
        return (_matrix_element(zero, zero, word) == _matrix_element(one, one, word)
                and _matrix_element(zero, one, word) == 0
                and _matrix_element(one, zero, word) == 0)
    zero, one = codewords
    evec = apply_word(word, one)
    d0 = zero @ apply_word(word, zero)
    d1 = one @ evec
    off = abs(zero @ evec)
    off2 = abs(one @ apply_word(word, zero))
    return abs(d0 - d1) < 1e-12 and off < 1e-12 and off2 < 1e-12


@dataclass(frozen=True)
class ErrorClassification:
    undetectable: frozenset[str]
    detectable: frozenset[str]
    correctable: frozenset[str]


def _xor_word(a: str, b: str) -> str:
    return ''.join('Z' if x != y else 'I' for x, y in zip(a, b))


_DEFAULT_CLASSIFICATION: "ErrorClassification | None" = None


def classify_errors(codewords: tuple[np.ndarray, np.ndarray] | None = None) -> ErrorClassification:
    """Partition {I, Z}^(x6) into undetectable and detectable errors and
    attach the canonical correctable set.

    The correctable set is the fixed 32-element list `CORRECTABLE_ERRORS`,
    verified here: every element is detectable and every pairwise product
    E_a E_b (the XOR of the Z-patterns, since Z-strings are involutions) is
    detectable. Use `greedy_correctable_set` to rebuild it from scratch.
    """
    global _DEFAULT_CLASSIFICATION
    if codewords is None and _DEFAULT_CLASSIFICATION is not None:
        return _DEFAULT_CLASSIFICATION
    detectable = frozenset(w for w in ALL_ERROR_STRINGS if is_detectable(w, codewords))
    undetectable = frozenset(ALL_ERROR_STRINGS) - detectable
    for a in CORRECTABLE_ERRORS:
        if a not in detectable:
            raise ValidationError("correctable set detectability", 0.0,
                                  f"correctable error {a} is not detectable")
    for a in CORRECTABLE_ERRORS:
        for b in CORRECTABLE_ERRORS:
            if _xor_word(a, b) not in detectable:
                raise ValidationError("pairwise correctability", 0.0,
                                      f"product of {a} and {b} is undetectable")
    classification = ErrorClassification(undetectable=undetectable, detectable=detectable,
                                         correctable=frozenset(CORRECTABLE_ERRORS))
    if codewords is None:
        _DEFAULT_CLASSIFICATION = classification
    return classification


def greedy_correctable_set() -> frozenset[str]:
    """Maximal correctable set built greedily, lowest weight first then
    lexicographic, accepting a string when all its products with the set so
    far remain detectable.
    """
    detectable = frozenset(w for w in ALL_ERROR_STRINGS if is_detectable(w))
    chosen: list[str] = []
    for w in sorted(ALL_ERROR_STRINGS, key=lambda s: (s.count('Z'), s)):
        if w in detectable and all(_xor_word(w, c) in detectable for c in chosen):
            chosen.append(w)
    return frozenset(chosen)


# --------------------------------------------------------------------------
# Error probabilities and success probability
# --------------------------------------------------------------------------


def _check_p_mu(p, mu: float) -> np.ndarray:
    """p as a float array (0-d for one p); ValueError for NaN or out of range."""
    p = np.asarray(p, dtype=float)
    outside = p[~(np.abs(p) <= 1)]
    if outside.size:
        raise ValueError(f"noise value p must lie in [-1, 1], got {outside[0]}")
    _check_mu(mu)
    return p


def _marginals(p):
    return {'I': (1 + p) / 2, 'Z': (1 - p) / 2}


def error_probability(word: str, p, mu: float):
    """Chained probability of a six-letter error word: the product of the
    five adjacent-pair joint probabilities p_(e_k e_k+1) times the
    single-letter probability of the last letter, per entry of p.
    """
    _check_word(word)
    q = _marginals(_check_p_mu(p, mu))
    prob = 1.0
    for k in range(5):
        a, b = word[k], word[k + 1]
        prob *= (1 - mu) * q[a] * q[b] + (mu * q[a] if a == b else 0.0)
    return prob * q[word[5]]


def total_probability_mass(p, mu: float):
    """Diagnostic: the chained model's total mass over all 64 words, per entry of p.

    Strictly below 1 for mu < 1 and |p| < 1 (the chained model is not a
    normalized distribution); equals (p_0^2 + p_3^2)^5 at mu = 0.
    """
    return sum(error_probability(w, p, mu) for w in ALL_ERROR_STRINGS)


def success_probability_bruteforce(p, mu: float):
    """Success probability as the explicit sum of `error_probability` over
    the 32-element correctable set, per entry of p."""
    classify_errors()
    return sum(error_probability(w, p, mu) for w in CORRECTABLE_ERRORS)


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
                    normalized: bool = False) -> TimeSeries:
    """Success probability along a time grid for RTN or OUN dephasing.

    Evaluates the noise and the closed form once over the whole grid and
    spot-checks five grid points against the brute-force sum. With
    `normalized`, values are divided by the total chained probability mass.
    """
    if isinstance(noise, NmadParams):
        raise ValueError("the error-correction model covers dephasing noise only "
                         "(RTN or OUN)")
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("grid must not be empty")
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
    return TimeSeries(times=times, values=values)
