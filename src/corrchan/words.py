"""The error words of the six-qubit concatenated code and their
classification, in pure Python (`qec` has the code's probabilities).

A word is a Z-string over six qubits, in {I, Z}^(x6). Detectability follows
from the pair rule, with no matrix elements and no tolerance: a Z-string
acts on each inner pair (qubits 2k, 2k+1) as the identity (II or ZZ) or as
the inner logical Z (one Z), which swaps that pair's outer |+> and |->. A
word is undetectable exactly when it flips all three pairs, which maps
|0_conc> to |1_conc>. `oracle.is_detectable_numeric` checks the rule on the
codeword vectors.
"""

import itertools
from collections import namedtuple

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


def is_detectable(word: str) -> bool:
    """Error detectability by the pair rule: some inner pair (qubits 2k,
    2k+1) carries no Z or two, so the word does not flip every pair."""
    _check_word(word)
    return any(word[k] == word[k + 1] for k in (0, 2, 4))


# three frozensets of words
ErrorClassification = namedtuple("ErrorClassification", "undetectable detectable correctable")


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
