import numpy as np
import pytest

from corrchan.channels import evolve_damping, evolve_dephasing
from corrchan.errors import ValidationError
from corrchan.freezing import BlochDiagonal, freezing_predicate
from corrchan.measures import concurrence, probe_state, trace_distance
from corrchan.noise import NmadParams, OunParams, RtnParams
from corrchan.oracle import (apply, apply_matrix, bloch_diagonal_state, bloch_update,
                             channel_at_time,
                             correlated_dephasing_channel,
                             fully_correlated_nmad_channel, state_to_bloch_diagonal)
from corrchan.params import PROBE_NAMES

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


def test_bloch_diagonal_validates_positivity(rng):
    BlochDiagonal(1.0, 1.0, -1.0)  # psi+
    with pytest.raises(ValidationError):
        BlochDiagonal(1.0, -1.0, -1.0)  # outside the tetrahedron
    # the closed-form eigenvalues decide as the eigenvalues of the state do
    for c in rng.uniform(-1.5, 1.5, size=(200, 3)):
        smallest = np.linalg.eigvalsh(bloch_diagonal_state(c)).min()
        if smallest > 1e-12:
            BlochDiagonal(*c)
        elif smallest < -1e-9:
            with pytest.raises(ValidationError) as info:
                BlochDiagonal(*c)
            assert abs(info.value.residual - smallest) < 1e-14


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


def _invariance_status(rho, kind, mu):
    """The verdict by the invariance rule: frozen when the closed-form channel
    fixes rho at several noise values at mu, conditional when it would only
    at mu = 1, not_frozen otherwise."""
    if kind == "nmad":
        evolve, samples = evolve_damping, (0.25, 0.7, 1.0)
    else:
        evolve, samples = evolve_dephasing, (-0.6, 0.25, 0.7)

    def fixed(m):
        return all(np.abs(evolve(rho, p, m) - rho).max() <= 1e-12 for p in samples)
    if fixed(mu):
        return "frozen"
    return "conditional" if fixed(1.0) else "not_frozen"


def _anti_diagonal_state():
    rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
    rho[0, 3], rho[3, 0] = 0.2 - 0.1j, 0.2 + 0.1j
    rho[1, 2], rho[2, 1] = 0.05j, -0.05j
    return rho


def _ground_sector_state():
    # support on |00>, |01> and |10> only, with coherences among them
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    rho[0, 1], rho[1, 0] = 0.1, 0.1
    rho[1, 2], rho[2, 1] = 0.05j, -0.05j
    return rho


@pytest.mark.parametrize("state,kind,mu,status", [
    # a Bloch triple with a decaying component, unital, mu < 1
    ((0.3, -0.2, 0.1), "rtn", 0.4, "conditional"),
    ((0.0, 0.5, -0.2), "dephasing", 0.0, "conditional"),
    # a diagonal density matrix, unital, at any mu
    (np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), "oun", 0.3, "frozen"),
    (np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), "unital", 0.0, "frozen"),
    # anti-diagonal coherences only, unital, mu < 1
    (_anti_diagonal_state(), "unital", 0.6, "conditional"),
    (probe_state("phi+"), "rtn", 0.0, "conditional"),
    # no |11> support, but moved by the uncorrelated damping branch at mu < 1
    (probe_state("psi+"), "nmad", 0.5, "conditional"),
    (_ground_sector_state(), "nmad", 0.2, "conditional"),
], ids=["triple-rtn", "triple-dephasing", "diagonal-oun", "diagonal-unital",
        "anti-diagonal", "phi+-rtn", "psi+-nmad", "ground-sector-nmad"])
def test_predicate_status_matches_invariance_rule(state, kind, mu, status):
    verdict = freezing_predicate(state, kind, mu)
    assert verdict.status == status
    rho = state if isinstance(state, np.ndarray) else bloch_diagonal_state(state)
    assert _invariance_status(rho, kind, mu) == status


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


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["rtn", "oun", "unital", "dephasing", "nmad"])
@pytest.mark.parametrize("name", PROBE_NAMES)
def test_predicate_of_a_name_is_that_of_its_validated_matrix(name, kind, mu):
    # the validated density-matrix route is the oracle of the ket table's
    assert freezing_predicate(name, kind, mu) == freezing_predicate(probe_state(name), kind, mu)


@pytest.mark.parametrize("state, message", [
    (np.eye(2) / 2, "one two-qubit state"), (np.stack([PHI_PLUS, PHI_PLUS]), "one two-qubit state"),
    ("phi", "unknown probe state"),
], ids=["one-qubit", "stack", "unknown-name"])
def test_predicate_rejects_what_is_not_one_two_qubit_state(state, message):
    with pytest.raises(ValueError, match=message):
        freezing_predicate(state, "rtn", 1.0)


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
@pytest.mark.parametrize("state", [(0.2, 0.2, -1.0), probe_state("psi+"), "psi+"],
                         ids=["bloch", "psi+", "psi+-name"])
def test_predicate_rejects_invalid_mu(state, kind, mu):
    # each state gets "conditional" at any valid mu < 1, so a missing check shows
    with pytest.raises(ValueError, match="mu must lie in"):
        freezing_predicate(state, kind, mu)
