"""The freezing predicate: is a two-qubit state invariant for all times
under a correlated channel? Every verdict is given here, in pure Python.

Under the correlated unital (dephasing) channels a general two-qubit state
evolves entrywise (`channels.evolve_dephasing`): single-flip coherences pick
up the factor p, the anti-diagonal coherences pick up tau(mu) = mu +
(1 - mu) p^2, and the diagonal is untouched, so only mu = 1 freezes a state
with anti-diagonal coherence. Under correlated amplitude damping a state
with no |11> support is fixed by the fully correlated branch. So the verdict
of a density matrix depends only on which of its entries are nonzero, and a
named probe state's entries come from its ket in `params.KETS`.

A Bell-diagonal state rho = (1/4)(I + sum_i c_i sigma_i (x) sigma_i), given
by its Bloch triple, is a state exactly when its four eigenvalues, one per
Bell vector, are nonnegative; they are linear in (c1, c2, c3), so no
eigensolver is needed. At mu = 1 the unital channels freeze every
Bell-diagonal state. The fully correlated amplitude-damping channel
preserves the Bell-diagonal form only on the c3 = -1 slice, where states
with c1 = c2 freeze.

Only a numpy density matrix loads numpy's validation (`linalg`): a name or a
triple gets its verdict without it.
"""

import math
import sys
from collections import namedtuple

from .errors import ValidationError
from .params import KETS, _check_mu, _check_probe, _Record

BLOCH_EQ_TOL = 1e-9

_UNITAL_KINDS = {"rtn", "oun", "unital", "dephasing"}

# the (i, j) entries of a 4 x 4 matrix whose basis states i and j differ in
# one qubit, the single-flip coherences, and in both, the anti-diagonal
_SINGLE_FLIPS = tuple((i, j) for i in range(4) for j in range(4) if bin(i ^ j).count("1") == 1)
_DOUBLE_FLIPS = ((0, 3), (1, 2), (2, 1), (3, 0))


class BlochDiagonal(_Record, namedtuple("BlochDiagonal", "c1 c2 c3")):
    """Bell-diagonal state rho = (1/4)(I + sum_i c_i sigma_i (x) sigma_i)."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, c3: float):
        if not all(math.isfinite(x) for x in (c1, c2, c3)):
            raise ValidationError("finite Bloch components", float("nan"),
                                  f"Bloch components must be finite, got {(c1, c2, c3)}")
        # the eigenvalues of the state, one per Bell vector; a sum that
        # overflows gives inf, and a negative one fails the >= comparison
        eigenvalues = [(1 - c1 - c2 - c3) / 4, (1 - c1 + c2 + c3) / 4,
                       (1 + c1 - c2 + c3) / 4, (1 + c1 + c2 - c3) / 4]
        if not all(e >= -1e-10 for e in eigenvalues):
            raise ValidationError("Bell-diagonal positivity", float(min(eigenvalues)))
        return super().__new__(cls, c1, c2, c3)

    @property
    def c(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def _as_triple(c) -> tuple[float, float, float]:
    if isinstance(c, BlochDiagonal):
        return c.c
    c1, c2, c3 = (float(x) for x in c)
    return c1, c2, c3


class FreezingVerdict(_Record, namedtuple("FreezingVerdict", "status reason")):
    """status: "frozen", "not_frozen" or "conditional"; true when frozen."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == "frozen"


def _check_kind(kind: str) -> str:
    """The channel kind in lower case; ValueError for an unknown one."""
    kind = kind.lower()
    if kind not in _UNITAL_KINDS and kind != "nmad":
        raise ValueError(f"unknown channel kind {kind!r}")
    return kind


def freezing_predicate(state, kind: str, mu: float) -> FreezingVerdict:
    """Predict whether the state is invariant for all times under the named
    correlated channel at correlation factor mu. The state is a probe name
    of `params.PROBE_NAMES`, a numpy density matrix, or a Bell-diagonal
    state: a `BlochDiagonal` or a Bloch triple.

    Unital channels freeze exactly at mu = 1 (or trivially when the state
    carries no decaying coherence). Correlated amplitude damping freezes a
    state with no |11> support at mu = 1; at mu < 1 the uncorrelated branch
    still moves it unless it is the ground state, which is reported as
    "conditional". For a Bell-diagonal state that is the c1 = c2, c3 = -1
    family. An unknown kind, or mu outside [0, 1] (or NaN), raises
    ValueError; a density matrix is validated and a triple that is not a
    state raises ValidationError, each instead of getting a verdict.
    """
    kind = _check_kind(kind)
    _check_mu(mu)
    numpy = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if isinstance(state, str):
        _check_probe(state)
        ket = KETS[state]
        rho = [[a * b for b in ket] for a in ket]
    elif numpy is not None and isinstance(state, numpy.ndarray):
        from .linalg import validate_density
        if validate_density(state).shape != (4, 4):
            raise ValueError(f"freezing needs one two-qubit state, got shape {state.shape}")
        rho = state.tolist()
    else:
        return _bloch_verdict(*BlochDiagonal(*_as_triple(state)), kind, mu)
    if kind in _UNITAL_KINDS:
        return _unital_verdict_rho(rho, mu)
    return _nmad_verdict_rho(rho, mu)


def _bloch_verdict(c1: float, c2: float, c3: float, kind: str, mu: float) -> FreezingVerdict:
    if kind in _UNITAL_KINDS:
        if max(abs(c1), abs(c2)) <= BLOCH_EQ_TOL:
            return FreezingVerdict("frozen", "no decaying component (c1 = c2 = 0)")
        if mu == 1:
            return FreezingVerdict("frozen", "tau(mu) = 1 at mu = 1 freezes c1 and c2")
        return FreezingVerdict("conditional",
                               "Bell-diagonal states freeze under unital correlated "
                               "channels only at mu = 1")
    # fully correlated amplitude-damping family: c1 = c2, c3 = -1
    if abs(c3 + 1) > BLOCH_EQ_TOL or abs(c1 - c2) > BLOCH_EQ_TOL:
        return FreezingVerdict("not_frozen",
                               "state lies outside the c1 = c2, c3 = -1 freezing family")
    if mu == 1:
        return FreezingVerdict("frozen", "c1 = c2 and c3 = -1 under fully correlated damping")
    return FreezingVerdict("conditional",
                           "the uncorrelated branch moves this state; frozen only at mu = 1")


def _unital_verdict_rho(rho: list[list[complex]], mu: float) -> FreezingVerdict:
    single = max(abs(rho[i][j]) for i, j in _SINGLE_FLIPS)
    anti = max(abs(rho[i][j]) for i, j in _DOUBLE_FLIPS)
    if single > BLOCH_EQ_TOL:
        return FreezingVerdict("not_frozen",
                               "single-flip coherences decay with p(t) at every mu")
    if anti <= BLOCH_EQ_TOL:
        return FreezingVerdict("frozen", "diagonal states are fixed points of dephasing")
    if mu == 1:
        return FreezingVerdict("frozen", "tau(mu) = 1 at mu = 1 freezes the "
                                         "anti-diagonal coherences")
    return FreezingVerdict("conditional",
                           "anti-diagonal coherences freeze only at mu = 1")


def _nmad_verdict_rho(rho: list[list[complex]], mu: float) -> FreezingVerdict:
    fourth = max(abs(rho[3][3]), abs(rho[0][3]), abs(rho[1][3]), abs(rho[2][3]))
    if fourth > BLOCH_EQ_TOL:
        return FreezingVerdict("not_frozen",
                               "the |11> population or its coherences decay under damping")
    # no |11> support: the fully correlated branch acts as the identity
    uncorr_moved = max(abs(rho[1][1]), abs(rho[2][2]),
                       abs(rho[0][1]), abs(rho[0][2]), abs(rho[1][2]))
    if uncorr_moved <= BLOCH_EQ_TOL:
        return FreezingVerdict("frozen", "the ground state is fixed by both branches")
    if mu == 1:
        return FreezingVerdict("frozen",
                               "no |11> support: fully correlated damping acts trivially")
    return FreezingVerdict("conditional",
                           "the uncorrelated branch moves this state; frozen only at mu = 1")
