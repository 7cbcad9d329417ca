"""Bell-diagonal states as Bloch triples, and their freezing verdict, in
pure Python.

rho = (1/4)(I + sum_i c_i sigma_i (x) sigma_i) is a state exactly when its
four eigenvalues, one per Bell vector, are nonnegative; they are linear in
(c1, c2, c3), so no eigensolver is needed. Under the correlated unital
(dephasing) channels the anti-diagonal factor tau(mu) = mu + (1 - mu) p^2 is
1 at mu = 1, which freezes every Bell-diagonal state. The fully correlated
amplitude-damping channel preserves the Bell-diagonal form only on the
c3 = -1 slice, where states with c1 = c2 freeze. `freezing.freezing_predicate`
gives the verdict of a density matrix, and of a triple through `bloch_verdict`.
"""

import math
from collections import namedtuple

from .errors import ValidationError
from .params import _check_mu, _Record

BLOCH_EQ_TOL = 1e-9

_UNITAL_KINDS = {"rtn", "oun", "unital", "dephasing"}


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


def bloch_verdict(state, kind: str, mu: float) -> FreezingVerdict:
    """`freezing.freezing_predicate` of a BlochDiagonal or a Bloch triple.

    Unital channels freeze a Bell-diagonal state exactly at mu = 1, or
    trivially when it carries no decaying component. Correlated amplitude
    damping freezes the c1 = c2, c3 = -1 family, and only in the fully
    correlated limit; at mu < 1 the uncorrelated branch still moves those
    states, which is reported as "conditional". A triple that is not a state
    raises ValidationError instead of getting a verdict, and mu outside
    [0, 1] (or NaN) raises ValueError.
    """
    kind = _check_kind(kind)
    _check_mu(mu)
    if not isinstance(state, BlochDiagonal):
        state = BlochDiagonal(*_as_triple(state))
    c1, c2, c3 = state.c
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
