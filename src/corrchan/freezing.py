"""The freezing predicate: is a two-qubit state invariant for all times
under a correlated channel?

Under the correlated unital (dephasing) channels a general two-qubit state
evolves entrywise (`channels.evolve_dephasing`): single-flip coherences pick
up the factor p, the anti-diagonal coherences pick up tau(mu) = mu +
(1 - mu) p^2, and the diagonal is untouched, so only mu = 1 freezes a state
with anti-diagonal coherence. Under correlated amplitude damping a state
with no |11> support is fixed by the fully correlated branch. Bell-diagonal
states given by their Bloch triple get their verdict from `bloch`, which
needs no numpy.
"""

import numpy as np

from .bloch import BLOCH_EQ_TOL, _UNITAL_KINDS, FreezingVerdict, _check_kind, bloch_verdict
from .channels import _FLIPS
from .linalg import validate_density
from .params import _check_mu


def freezing_predicate(state, kind: str, mu: float) -> FreezingVerdict:
    """Predict whether the state, a density matrix or a Bell-diagonal state
    (`bloch.BlochDiagonal` or a Bloch triple, see `bloch.bloch_verdict`), is
    invariant for all times under the named correlated channel at
    correlation factor mu.

    Unital channels freeze exactly at mu = 1 (or trivially when the state
    carries no decaying coherence). Correlated amplitude damping freezes a
    state with no |11> support at mu = 1; at mu < 1 the uncorrelated branch
    still moves it unless it is the ground state, which is reported as
    "conditional". A density matrix is validated first; mu outside [0, 1]
    (or NaN) raises ValueError.
    """
    if not isinstance(state, np.ndarray):
        return bloch_verdict(state, kind, mu)
    kind = _check_kind(kind)
    _check_mu(mu)
    rho = validate_density(state)
    if kind in _UNITAL_KINDS:
        return _unital_verdict_rho(rho, mu)
    return _nmad_verdict_rho(rho, mu)


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
