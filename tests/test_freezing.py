import numpy as np
import pytest

from corrchan.channels import evolve_damping, evolve_dephasing
from corrchan.errors import ValidationError
from corrchan.freezing import (BlochDiagonal, bloch_diagonal_state,
                               bloch_update, freezing_predicate,
                               state_to_bloch_diagonal)
from corrchan.measures import concurrence, probe_state, trace_distance
from corrchan.noise import NmadParams, OunParams, RtnParams
from corrchan.oracle import (apply, apply_matrix, channel_at_time,
                             correlated_dephasing_channel,
                             fully_correlated_nmad_channel)

from conftest import random_bloch_triple, random_density

RTN = RtnParams(a=0.8, gamma=0.05)
OUN = OunParams(G=1.0, g=0.05)
NMAD = NmadParams(gamma0=1.0, g=0.05)


# --------------------------------------------------------------------------
# Closed-form evolution
# --------------------------------------------------------------------------


def random_x_state(rng):
    """Random X-state: populations plus anti-diagonal coherences only."""
    d = rng.dirichlet(np.ones(4))
    rho = np.diag(d).astype(complex)
    rho[0, 3] = 0.9 * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[3, 0] = rho[0, 3].conjugate()
    rho[1, 2] = 0.9 * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


def test_unital_closed_form_identity_limits(rng):
    # mu = 1 freezes X-states exactly (single-flip coherences, which would
    # still pick up p, vanish for this family); p = 1 freezes any state
    x = random_x_state(rng)
    assert np.abs(evolve_dephasing(x, 0.3, 1.0) - x).max() == 0.0
    rho = random_density(4, rng)
    assert np.abs(evolve_dephasing(rho, 1.0, 0.4) - rho).max() == 0.0
    # general states are not frozen at mu = 1: single-flip slots decay with p
    moved = evolve_dephasing(rho, 0.3, 1.0)
    assert np.abs(moved - rho).max() > 1e-3


def test_unital_closed_form_matches_kraus(rng):
    for _ in range(50):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        rho = random_density(4, rng)
        kraus = apply(correlated_dephasing_channel(p, mu), rho)
        assert np.abs(evolve_dephasing(rho, p, mu) - kraus).max() < 1e-12


def test_fcorr_closed_form_boundaries(rng):
    rho = random_density(4, rng)
    assert np.abs(evolve_damping(rho, 0.0, 1.0) - rho).max() == 0.0
    out = evolve_damping(probe_state("11"), 1.0, 1.0)
    assert np.abs(out - probe_state("00")).max() < 1e-15


def test_fcorr_closed_form_matches_kraus(rng):
    for _ in range(50):
        p = rng.uniform(0, 1)
        rho = random_density(4, rng)
        kraus = apply(fully_correlated_nmad_channel(p), rho)
        assert np.abs(evolve_damping(rho, p, 1.0) - kraus).max() < 1e-12


def test_closed_form_domain_errors(rng):
    rho = random_density(4, rng)
    with pytest.raises(ValueError):
        evolve_dephasing(rho, 1.5, 0.5)
    with pytest.raises(ValueError):
        evolve_dephasing(rho, 0.5, -0.2)
    with pytest.raises(ValueError):
        evolve_damping(rho, -0.5, 1.0)
    with pytest.raises(ValueError):
        evolve_dephasing(random_density(2, rng), 0.5, 0.5)


PHI_PLUS = probe_state("phi+")


@pytest.mark.parametrize("call", [
    lambda: evolve_dephasing(PHI_PLUS, -1.5, 0.5),
    lambda: bloch_update((0.6, 0.6, -1.0), "nmad", p=np.nan),
    lambda: bloch_update((0.6, 0.6, -1.0), "nmad", p=1.5),
    lambda: bloch_update((0.6, 0.6, -1.0), "nmad", p=-0.1),
    lambda: bloch_update((0.6, 0.6, np.nan), "nmad", p=0.5),
    lambda: bloch_update((0.3, 0.2, 0.1), "rtn", p=np.nan, mu=0.5),
    lambda: bloch_update((0.3, 0.2, 0.1), "oun", p=-1.5, mu=0.5),
    lambda: bloch_update((0.3, 0.2, 0.1), "unital", p=0.5, mu=np.nan),
], ids=["unital-p", "nmad-nan", "nmad-above", "nmad-below",
        "nmad-c3", "rtn-nan", "oun-below", "unital-mu-nan"])
def test_closed_forms_reject_values_out_of_range(call):
    with pytest.raises(ValueError):
        call()


# --------------------------------------------------------------------------
# Bloch updates
# --------------------------------------------------------------------------


def test_bloch_diagonal_validates_positivity():
    BlochDiagonal(1.0, 1.0, -1.0)  # psi+
    with pytest.raises(ValidationError):
        BlochDiagonal(1.0, -1.0, -1.0)  # outside the tetrahedron


def test_bloch_state_round_trip(rng):
    for _ in range(5):
        c = random_bloch_triple(rng)
        rho = bloch_diagonal_state(c)
        back = state_to_bloch_diagonal(rho)
        assert np.abs(np.array(back.c) - np.array(c)).max() < 1e-12


def test_bloch_update_unital_freezes_at_mu1(rng):
    c = random_bloch_triple(rng)
    assert bloch_update(c, "rtn", p=0.3, mu=1.0) == c


def test_bloch_update_unital_matches_closed_form(rng):
    c = random_bloch_triple(rng)
    p, mu = 0.45, 0.3
    updated = bloch_update(c, "oun", p=p, mu=mu)
    rho_evolved = evolve_dephasing(bloch_diagonal_state(c), p, mu)
    expected = state_to_bloch_diagonal(rho_evolved)
    assert np.abs(np.array(updated) - np.array(expected.c)).max() < 1e-12


def test_bloch_update_nmad_freezing_family():
    for p in (0.0, 0.2, 0.7, 1.0):
        updated = bloch_update((0.6, 0.6, -1.0), "nmad", p=p)
        assert np.abs(np.array(updated) - np.array([0.6, 0.6, -1.0])).max() < 1e-12


def test_bloch_update_nmad_p1_collapses_difference():
    assert bloch_update((1.0, -1.0, -1.0), "nmad", p=1.0) == (0.0, 0.0, -1.0)


def test_bloch_update_nmad_matches_kraus_linear_action():
    """Cross-check against the linear action of the fully correlated channel
    on (1/4)(I + c1 XX + c2 YY - ZZ); the coherence c1 - c2 picks up
    sqrt(1-p), not (1-p)."""
    for c1, c2 in ((1.0, -1.0), (0.5, -0.2), (0.3, 0.9)):
        for p in (0.0, 0.3, 0.8, 1.0):
            m = bloch_diagonal_state((c1, c2, -1.0))
            ch = fully_correlated_nmad_channel(p)
            evolved = apply_matrix(ch, m)
            expected = bloch_diagonal_state(bloch_update((c1, c2, -1.0), "nmad", p=p))
            assert np.abs(evolved - expected).max() < 1e-12


def test_bloch_update_nmad_rejects_other_c3():
    with pytest.raises(ValueError):
        bloch_update((0.5, 0.5, 0.0), "nmad", p=0.3)


def test_bloch_update_unknown_kind():
    with pytest.raises(ValueError):
        bloch_update((0, 0, 0), "depolarizing", p=0.5, mu=0.5)


# --------------------------------------------------------------------------
# Form preservation
# --------------------------------------------------------------------------


def test_unital_channel_preserves_bell_diagonal_form(rng):
    for _ in range(10):
        c = random_bloch_triple(rng)
        rho = bloch_diagonal_state(c)
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        evolved = apply(correlated_dephasing_channel(p, mu), rho)
        state_to_bloch_diagonal(evolved)  # raises if off-family


# --------------------------------------------------------------------------
# Freezing predicate
# --------------------------------------------------------------------------


def test_predicate_psi_plus_nmad_frozen():
    assert freezing_predicate(BlochDiagonal(1.0, 1.0, -1.0), "nmad", 1.0).status == "frozen"
    assert freezing_predicate(probe_state("psi+"), "nmad", 1.0).status == "frozen"


def test_predicate_phi_plus_nmad_not_frozen():
    assert freezing_predicate((1.0, -1.0, 1.0), "nmad", 1.0).status == "not_frozen"
    assert freezing_predicate(probe_state("phi+"), "nmad", 1.0).status == "not_frozen"


@pytest.mark.parametrize("kind", ["rtn", "oun"])
@pytest.mark.parametrize("name,c", [
    ("phi+", (1.0, -1.0, 1.0)), ("phi-", (-1.0, 1.0, 1.0)),
    ("psi+", (1.0, 1.0, -1.0)), ("psi-", (-1.0, -1.0, -1.0)),
])
def test_predicate_bell_states_unital_frozen(kind, name, c):
    assert freezing_predicate(c, kind, 1.0).status == "frozen"
    assert freezing_predicate(probe_state(name), kind, 1.0).status == "frozen"


def test_predicate_nmad_below_mu1_not_frozen():
    verdict = freezing_predicate((1.0, 1.0, -1.0), "nmad", 0.5)
    assert verdict.status != "frozen"
    assert not verdict


def test_predicate_diagonal_state_always_frozen():
    assert freezing_predicate((0.0, 0.0, 0.5), "rtn", 0.2).status == "frozen"


def test_predicate_verdicts_confirmed_by_kraus_dynamics(rng):
    """Whenever the predicate says frozen, the state must be numerically
    invariant along the whole trajectory (through the Kraus path)."""
    times = np.linspace(0, 50, 100)
    cases = [
        (bloch_diagonal_state(random_bloch_triple(rng)), RTN, "rtn", 1.0),
        (bloch_diagonal_state(random_bloch_triple(rng)), OUN, "oun", 1.0),
        (probe_state("psi+"), NMAD, "nmad", 1.0),
        (probe_state("00"), NMAD, "nmad", 0.7),
    ]
    for rho0, noise, kind, mu in cases:
        verdict = freezing_predicate(rho0, kind, mu)
        assert verdict.status == "frozen"
        for t in times:
            rho_t = apply(channel_at_time(noise, mu, t), rho0)
            assert trace_distance(rho_t, rho0) < 1e-10


def test_concurrence_freezing_under_fcorr_nmad():
    times = np.linspace(0, 50, 60)
    psi = probe_state("psi+")
    phi = probe_state("phi+")
    c_phi = []
    for t in times:
        ch = channel_at_time(NMAD, 1.0, t)
        assert abs(concurrence(apply(ch, psi)) - 1.0) < 1e-10
        c_phi.append(concurrence(apply(ch, phi)))
    assert min(c_phi) < 0.99  # phi+ decays somewhere


def test_predicate_unknown_kind():
    with pytest.raises(ValueError):
        freezing_predicate((0, 0, 0), "bitflip", 0.5)


@pytest.mark.parametrize("c", [(5.0, 5.0, 5.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0)])
def test_predicate_rejects_triples_that_are_not_states(c):
    # raw triples go through BlochDiagonal; NaN must not reach eigvalsh
    with pytest.raises(ValidationError):
        freezing_predicate(c, "oun", 1.0)


@pytest.mark.parametrize("mu", [np.nan, -0.1, 1.5])
@pytest.mark.parametrize("kind", ["rtn", "nmad"])
@pytest.mark.parametrize("state", [(0.2, 0.2, -1.0), "psi+"], ids=["bloch", "psi+"])
def test_predicate_rejects_invalid_mu(state, kind, mu):
    # both states get "conditional" at any valid mu < 1, so a missing check shows
    state = probe_state(state) if isinstance(state, str) else state
    with pytest.raises(ValueError, match="mu must lie in"):
        freezing_predicate(state, kind, mu)
