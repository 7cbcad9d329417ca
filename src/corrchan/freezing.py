"""Bell-diagonal states and the freezing predicate.

Under the correlated unital (dephasing) channels a general two-qubit state
evolves entrywise (`channels.evolve_dephasing`): single-flip coherences pick
up the factor p, the anti-diagonal coherences pick up tau(mu) = mu +
(1 - mu) p^2, and the diagonal is untouched. At mu = 1 the anti-diagonal
factor is 1, which freezes every Bell-diagonal state. The fully correlated
amplitude-damping channel preserves the Bell-diagonal form only on the
c3 = -1 slice, where states with c1 = c2 freeze.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .channels import _FLIPS, _check_mu
from .linalg import validate_density

BLOCH_EQ_TOL = 1e-9

_UNITAL_KINDS = {"rtn", "oun", "unital", "dephasing"}


@dataclass(frozen=True)
class BlochDiagonal:
    """Bell-diagonal state rho = (1/4)(I + sum_i c_i sigma_i (x) sigma_i)."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.c)):
            raise ValidationError("finite Bloch components", float("nan"),
                                  f"Bloch components must be finite, got {self.c}")
        # the eigenvalues of the state, one per Bell vector; a sum that
        # overflows gives inf or NaN, and NaN fails the >= comparison
        c1, c2, c3 = self.c
        eigenvalues = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                                1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
        if not (eigenvalues >= -1e-10).all():
            raise ValidationError("Bell-diagonal positivity", float(eigenvalues.min()))

    @property
    def c(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def _as_triple(c) -> tuple[float, float, float]:
    if isinstance(c, BlochDiagonal):
        return c.c
    c1, c2, c3 = (float(x) for x in c)
    return c1, c2, c3


@dataclass(frozen=True)
class FreezingVerdict:
    status: str  # "frozen" | "not_frozen" | "conditional"
    reason: str

    def __bool__(self) -> bool:
        return self.status == "frozen"


def freezing_predicate(state, kind: str, mu: float) -> FreezingVerdict:
    """Predict whether the state is invariant for all times under the named
    correlated channel at correlation factor mu.

    Unital channels freeze exactly at mu = 1 (or trivially when the state
    carries no decaying coherence). Correlated amplitude damping freezes the
    c1 = c2, c3 = -1 Bell-diagonal family, and only in the fully correlated
    limit; at mu < 1 the uncorrelated branch still moves those states, which
    is reported as "conditional". A Bloch triple must describe a state:
    anything else raises ValidationError instead of getting a verdict, and
    mu outside [0, 1] (or NaN) raises ValueError.
    """
    kind = kind.lower()
    if kind not in _UNITAL_KINDS and kind != "nmad":
        raise ValueError(f"unknown channel kind {kind!r}")
    _check_mu(mu)
    if isinstance(state, np.ndarray):
        rho = validate_density(state)
        if kind in _UNITAL_KINDS:
            return _unital_verdict_rho(rho, mu)
        return _nmad_verdict_rho(rho, mu)
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


def _unital_verdict_rho(rho: np.ndarray, mu: float) -> FreezingVerdict:
    single = np.abs(rho[_FLIPS == 1]).max()
    anti = np.abs(rho[_FLIPS == 2]).max()
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


def _nmad_verdict_rho(rho: np.ndarray, mu: float) -> FreezingVerdict:
    fourth = max(abs(rho[3, 3]), abs(rho[0, 3]), abs(rho[1, 3]), abs(rho[2, 3]))
    if fourth > BLOCH_EQ_TOL:
        return FreezingVerdict("not_frozen",
                               "the |11> population or its coherences decay under damping")
    # no |11> support: the fully correlated branch acts as the identity
    uncorr_moved = max(abs(rho[1, 1]), abs(rho[2, 2]),
                       abs(rho[0, 1]), abs(rho[0, 2]), abs(rho[1, 2]))
    if uncorr_moved <= BLOCH_EQ_TOL:
        return FreezingVerdict("frozen", "the ground state is fixed by both branches")
    if mu == 1:
        return FreezingVerdict("frozen",
                               "no |11> support: fully correlated damping acts trivially")
    return FreezingVerdict("conditional",
                           "the uncorrelated branch moves this state; frozen only at mu = 1")
