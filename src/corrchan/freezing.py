"""Closed-form evolved states, Bell-diagonal Bloch updates, and the
freezing predicate.

Under the correlated unital (dephasing) channels a general two-qubit state
evolves entrywise: single-flip coherences pick up the factor p, the
anti-diagonal coherences pick up tau(mu) = mu + (1 - mu) p^2, and the
diagonal is untouched. At mu = 1 the anti-diagonal factor is 1, which
freezes every Bell-diagonal state. The fully correlated amplitude-damping
channel preserves the Bell-diagonal form only on the c3 = -1 slice, where
states with c1 = c2 freeze.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .channels import SIGMA
from .linalg import validate_density

BLOCH_EQ_TOL = 1e-9
BELL_DIAGONAL_TOL = 1e-12

_ANTI_DIAGONAL = ((0, 3), (1, 2), (2, 1), (3, 0))
_SINGLE_FLIP = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2))

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
        smallest = float(np.linalg.eigvalsh(bloch_diagonal_state(self)).min())
        if not smallest >= -1e-10:
            raise ValidationError("Bell-diagonal positivity", smallest)

    @property
    def c(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def _as_triple(c) -> tuple[float, float, float]:
    if isinstance(c, BlochDiagonal):
        return c.c
    c1, c2, c3 = (float(x) for x in c)
    return c1, c2, c3


def bloch_diagonal_state(c) -> np.ndarray:
    """Density matrix of the Bell-diagonal state with Bloch triple c."""
    c1, c2, c3 = _as_triple(c)
    rho = np.eye(4, dtype=complex)
    for ci, sigma in zip((c1, c2, c3), SIGMA[1:]):
        rho += ci * np.kron(sigma, sigma)
    return rho / 4


def state_to_bloch_diagonal(rho: np.ndarray) -> BlochDiagonal:
    """Extract the Bloch triple of a Bell-diagonal state.

    Raises ValidationError when rho deviates from the Bell-diagonal form by
    more than 1e-12 in any entry.
    """
    c = tuple(float(np.trace(rho @ np.kron(s, s)).real) for s in SIGMA[1:])
    residual = float(np.abs(rho - bloch_diagonal_state(c)).max())
    if residual > BELL_DIAGONAL_TOL:
        raise ValidationError("Bell-diagonal form", residual)
    return BlochDiagonal(*c)


def evolve_unital_closed_form(rho0: np.ndarray, p: float, mu: float) -> np.ndarray:
    """Evolved state under the correlated dephasing channel, entry by entry:
    anti-diagonal coherences scaled by tau(mu) = mu + (1-mu) p^2, single-flip
    coherences by p, diagonal unchanged.
    """
    rho0 = validate_density(rho0)
    if rho0.shape[0] != 4:
        raise ValueError("closed-form evolution is defined for two-qubit states")
    if abs(p) > 1:
        raise ValueError(f"noise value p must lie in [-1, 1], got {p}")
    if not 0 <= mu <= 1:
        raise ValueError(f"correlation factor mu must lie in [0, 1], got {mu}")
    tau = mu + (1 - mu) * p * p
    out = rho0.copy()
    for i, j in _ANTI_DIAGONAL:
        out[i, j] *= tau
    for i, j in _SINGLE_FLIP:
        out[i, j] *= p
    return out


def evolve_fcorr_nmad_closed_form(rho0: np.ndarray, p: float) -> np.ndarray:
    """Evolved state under fully correlated amplitude damping: the |11>
    population flows to |00| with probability p, fourth-row and -column
    coherences are scaled by sqrt(1-p), everything else is unchanged.
    """
    rho0 = validate_density(rho0)
    if rho0.shape[0] != 4:
        raise ValueError("closed-form evolution is defined for two-qubit states")
    if not 0 <= p <= 1:
        raise ValueError(f"damping probability p must lie in [0, 1], got {p}")
    out = rho0.copy()
    root = np.sqrt(1 - p)
    out[0, 0] = rho0[0, 0] + p * rho0[3, 3]
    out[3, 3] = (1 - p) * rho0[3, 3]
    for k in (0, 1, 2):
        out[k, 3] = root * rho0[k, 3]
        out[3, k] = root * rho0[3, k]
    return out


def bloch_update(c, kind: str, p: float, mu: float | None = None):
    """Bloch-triple update of a Bell-diagonal state under the named channel.

    Unital channels map (c1, c2, c3) to (c1 tau, c2 tau, c3). The fully
    correlated amplitude-damping channel preserves the form only for
    c3 = -1, where the coherence c1 - c2 is scaled by sqrt(1-p) while
    c1 + c2 is conserved. Accepts a BlochDiagonal or any 3-sequence (the
    update is linear, so it applies to non-state triples as well).
    """
    c1, c2, c3 = _as_triple(c)
    kind = kind.lower()
    if kind in _UNITAL_KINDS:
        if mu is None:
            raise ValueError("unital update requires the correlation factor mu")
        tau = mu + (1 - mu) * p * p
        return (c1 * tau, c2 * tau, c3)
    if kind == "nmad":
        if abs(c3 + 1) > BLOCH_EQ_TOL:
            raise ValueError(
                f"fully correlated amplitude damping preserves the Bell-diagonal "
                f"form only for c3 = -1, got c3 = {c3}")
        root = np.sqrt(1 - p)
        total, diff = c1 + c2, c1 - c2
        return (0.5 * (total + diff * root), 0.5 * (total - diff * root), -1.0)
    raise ValueError(f"unknown channel kind {kind!r}")


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
    anything else raises ValidationError instead of getting a verdict.
    """
    kind = kind.lower()
    if kind not in _UNITAL_KINDS and kind != "nmad":
        raise ValueError(f"unknown channel kind {kind!r}")
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
    single = max(abs(rho[i, j]) for i, j in _SINGLE_FLIP)
    anti = max(abs(rho[i, j]) for i, j in _ANTI_DIAGONAL)
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
