"""Property tests over (p, mu, time grid) for every channel family.

Each property is an invariant the package promises for any valid input:
the correlated channels are CPTP, the closed-form `evolve` gives density
matrices and agrees with the Kraus `apply` at every time, the noise values
stay in their range, the success probability is a probability, the free
SSS measure is certified and lies between 0 and the Markov measure, and the
closed-form trace distance and concurrence of X-shaped states agree with
the LAPACK routes that every other state takes. The examples are
derandomized, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from corrchan.channels import evolve, evolve_damping, evolve_dephasing
from corrchan.linalg import validate_density
from corrchan.map_algebra import correlated_oun_rates
from corrchan.measures import (SSS_TOL, _wootters, _x_shaped, concurrence, probe_state,
                               random_bell_probes, sss_measure, trace_distance)
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import (apply, channel_at_time, correlated_dephasing_channel,
                             correlated_nmad_channel, cptp_report)
from corrchan.params import PROBE_NAMES
from corrchan.qec import success_probability_closed, success_vs_time

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                             database=None)

TRACE_TOL = 1e-12
KRAUS_TOL = 1e-12

mus = st.floats(0.0, 1.0)
rates = st.floats(0.01, 5.0)
dephasing_noises = st.one_of(st.builds(RtnParams, a=rates, gamma=rates),
                             st.builds(OunParams, G=rates, g=rates))
noises = st.one_of(dephasing_noises, st.builds(NmadParams, gamma0=rates, g=rates))
grids = st.lists(st.floats(0.0, 200.0), min_size=1, max_size=12).map(np.unique)


@PROPERTY_SETTINGS
@given(p=st.floats(-1.0, 1.0), mu=mus)
def test_dephasing_channel_is_cptp(p, mu):
    assert cptp_report(correlated_dephasing_channel(p, mu)).accepted


@PROPERTY_SETTINGS
@given(p=st.floats(0.0, 1.0), mu=mus)
def test_nmad_channel_is_cptp(p, mu):
    assert cptp_report(correlated_nmad_channel(p, mu)).accepted


@PROPERTY_SETTINGS
@given(noise=noises, mu=mus, t=st.floats(0.0, 200.0))
def test_channel_at_time_is_cptp(noise, mu, t):
    assert cptp_report(channel_at_time(noise, mu, t)).accepted


# The first zero of the NMAD decoherence function G(t) in the oscillatory
# regime, where p(t) = 1 - G(t)^2 rounds to 1: G(t) = exp(-gt/2) (cos(wt/2)
# + (g/w) sin(wt/2)) with w = sqrt(2 gamma0 g - g^2).
NMAD_OSC = NmadParams(gamma0=1.0, g=0.05)
_W = np.sqrt(2 * NMAD_OSC.gamma0 * NMAD_OSC.g - NMAD_OSC.g ** 2)
NMAD_ZERO = 2 * (np.pi - np.arctan(_W / NMAD_OSC.g)) / _W

# The first zero of the RTN p(t) = exp(-gamma t) (cos(w gamma t) + sin(w
# gamma t) / w), w = sqrt((2a/gamma)^2 - 1), where tau(mu) = mu.
RTN_OSC = RtnParams(a=0.8, gamma=0.05)
RTN_ZERO = (np.pi - np.arctan(RTN_OSC.omega)) / (RTN_OSC.omega * RTN_OSC.gamma)


@st.composite
def mixed_states(draw):
    """A two-qubit state of full rank that is not X-shaped: A A^dagger plus
    positive multiples of the identity and of |++><++|, normalised."""
    entries = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    a = (entries[:16] + 1j * entries[16:]).reshape(4, 4)
    m = (a @ a.conj().T + draw(st.floats(0.01, 1.0)) * np.eye(4)
         + draw(st.floats(0.01, 1.0)) * probe_state("++"))
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


@st.composite
def state_stacks(draw):
    """A (k, 4, 4) stack of seeded random Bell probes, a mixed state and a
    named probe."""
    bell = random_bell_probes(draw(st.integers(1, 3)), seed=draw(st.integers(0, 2 ** 32 - 1)))
    return np.stack([*bell, draw(mixed_states()), probe_state(draw(st.sampled_from(PROBE_NAMES)))])


# every initial state that `evolve` takes: a named probe, a mixed state that
# is not X-shaped, or a stack of states
initial_states = st.one_of(st.sampled_from(PROBE_NAMES).map(probe_state), mixed_states(),
                           state_stacks())
# a fixed mixed state and stack, for the examples at the edge regimes
MIXED =probe_state("alpha") * 0.7 + probe_state("++") * 0.2 + np.eye(4) * 0.025
STACK = np.stack([*random_bell_probes(2, seed=7), MIXED, probe_state("11")])


@PROPERTY_SETTINGS
@given(noise=noises, mu=mus, times=grids, rho=initial_states)
@example(noise=RTN_OSC, mu=0.0, times=np.array([0.0, 30.0]), rho=probe_state("alpha"))
@example(noise=OunParams(G=1.0, g=0.05), mu=1.0, times=np.array([0.0, 30.0]),
         rho=probe_state("++"))
@example(noise=NMAD_OSC, mu=0.0, times=np.array([0.0, NMAD_ZERO]), rho=probe_state("11"))
@example(noise=NMAD_OSC, mu=1.0, times=np.array([NMAD_ZERO]), rho=probe_state("phi+"))
@example(noise=NMAD_OSC, mu=0.5, times=np.array([0.0, NMAD_ZERO]), rho=STACK)
@example(noise=RTN_OSC, mu=0.0, times=np.array([0.0, RTN_ZERO]), rho=STACK)
@example(noise=RTN_OSC, mu=0.5, times=np.array([RTN_ZERO]), rho=MIXED)
@example(noise=RTN_OSC, mu=1.0, times=np.array([RTN_ZERO, 100.0]), rho=STACK)
@example(noise=OunParams(G=1.0, g=0.05), mu=0.5, times=np.array([0.0, 5.0, 200.0]), rho=STACK)
def test_apply_preserves_trace(noise, mu, times, rho):
    """The states `evolve` returns pass `validate_density` at its own
    tolerances, for every family and every kind of initial state: this is
    why the commands measure and print them without validating them again."""
    states = validate_density(evolve(noise, mu, times, rho))
    traces = np.trace(states, axis1=-2, axis2=-1)
    assert np.abs(traces - 1).max() <= TRACE_TOL
    kraus = np.stack([[apply(channel_at_time(noise, mu, t), r) for t in times]
                      for r in rho.reshape(-1, 4, 4)])
    assert np.abs(states - kraus.reshape(states.shape)).max() <= KRAUS_TOL


@PROPERTY_SETTINGS
@given(p=st.floats(-1.0, 1.0), mu=mus, rho=initial_states)
@example(p=1.0, mu=0.0, rho=probe_state("alpha"))
@example(p=1.0, mu=1.0, rho=probe_state("psi+"))
@example(p=-1.0, mu=0.0, rho=probe_state("alpha"))
@example(p=-1.0, mu=1.0, rho=probe_state("++"))
@example(p=1.0, mu=0.5, rho=STACK)
@example(p=-1.0, mu=0.5, rho=MIXED)
@example(p=0.0, mu=0.0, rho=STACK)
@example(p=0.0, mu=1.0, rho=MIXED)
def test_closed_forms_give_density_matrices(p, mu, rho):
    """p = -1 is out of reach of the noise functions at t > 0, so the closed
    forms take p directly; a damping probability is |p|. The dephasing form
    serves RTN and OUN, the damping form NMAD."""
    validate_density(evolve_dephasing(rho, p, mu))
    validate_density(evolve_damping(rho, abs(p), mu))


@PROPERTY_SETTINGS
@given(noise=noises, times=grids)
def test_noise_values_in_range(noise, times):
    p = noise_p(noise, times)
    lo = 0.0 if isinstance(noise, NmadParams) else -1.0
    assert np.all((lo <= p) & (p <= 1))


# At p = +-1 the closed-form polynomial rounds to 1 + 2^-52 for about 0.3 %
# of mu, this one among them.
MU_PAST_ONE = 0.725195331703765


@PROPERTY_SETTINGS
@given(p=st.floats(-1.0, 1.0), mu=mus)
@example(p=1.0, mu=MU_PAST_ONE)
@example(p=-1.0, mu=MU_PAST_ONE)
def test_success_probability_in_unit_interval(p, mu):
    assert 0 <= success_probability_closed(p, mu) <= 1


@PROPERTY_SETTINGS
@given(noise=dephasing_noises, mu=mus, times=grids)
@example(noise=RtnParams(a=1, gamma=1), mu=MU_PAST_ONE, times=np.array([0.0]))
def test_success_vs_time_in_unit_interval(noise, mu, times):
    values = success_vs_time(noise, mu, times)
    assert np.all((0 <= values) & (values <= 1))


@PROPERTY_SETTINGS
@given(noise=dephasing_noises, mu=mus, times=grids)
@example(noise=RtnParams(a=1, gamma=1), mu=MU_PAST_ONE, times=np.array([0.0]))
@example(noise=OunParams(G=1, g=1), mu=MU_PAST_ONE, times=np.array([0.0, 1e-9]))
def test_normalized_success_vs_time_in_unit_interval(noise, mu, times):
    values = success_vs_time(noise, mu, times, normalized=True)
    assert np.all((0 <= values) & (values <= 1))


@PROPERTY_SETTINGS
@given(G=rates, g_inverse=st.floats(0.1, 1000.0), mu=mus, t_max=st.floats(0.1, 5000.0),
       n_points=st.integers(2, 400))
def test_sss_free_certified_and_below_markov(G, g_inverse, mu, t_max, n_points):
    times = np.linspace(0.0, t_max, n_points)
    rates = correlated_oun_rates(times, OunParams(G=G, g=1.0 / g_inverse), mu)
    zeta_markov = sss_measure(times, rates, (-G / 2, -G))
    zeta_free = sss_measure(times, rates, None)  # certified
    # within the certified gap of a minimum over a family holding the reference
    assert 0 <= zeta_free <= zeta_markov * (1 + 2 * SSS_TOL)


@st.composite
def x_states(draw, floor=0.0):
    """A two-qubit state that is 0 off its diagonal and anti-diagonal: two
    PSD blocks, on the levels {1, 4} and {2, 3}, whose coherences reach at
    most 1 - floor of their bound sqrt(rho_ii rho_jj), and populations of at
    least about floor / 4."""
    unit = st.floats(floor, 1.0)
    # the tiny offset keeps a draw of four zeros normalisable
    populations = np.array([draw(unit) for _ in range(4)]) + 1e-300
    populations /= populations.sum()
    rho = np.diag(populations).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        size = draw(st.floats(0.0, 1.0 - floor)) * np.sqrt(populations[i] * populations[j])
        rho[i, j] = size * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        rho[j, i] = np.conj(rho[i, j])
    return rho


@PROPERTY_SETTINGS
@given(rho1=x_states(), rho2=x_states())
@example(rho1=probe_state("phi+"), rho2=probe_state("phi-"))
@example(rho1=probe_state("00"), rho2=probe_state("psi-"))
def test_x_trace_distance_matches_eigvalsh(rho1, rho2):
    assert _x_shaped(rho1 - rho2)
    exact = 0.5 * np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum()
    assert abs(trace_distance(rho1, rho2) - exact) <= 1e-15


# The Wootters route squares no eigenvalue, but takes the square roots of
# the eigenvalues of rho: where one is near 0, its round-off grows, to about
# 1e-8 in C when it is exactly 0 and YY pairs it with a populated level.
# The comparison is made where every eigenvalue of rho is at least about
# 2e-5, and there both routes agree to a few ulps of 1.
WOOTTERS_FLOOR = 0.01
WOOTTERS_TOL = 16 * np.finfo(float).eps


@PROPERTY_SETTINGS
@given(rho=x_states(WOOTTERS_FLOOR))
@example(rho=probe_state("phi+") * 0.9 + np.eye(4) * 0.025)
def test_x_concurrence_matches_wootters(rho):
    assert _x_shaped(rho)
    general = float(np.clip(_wootters(rho[None])[0], 0.0, 1.0))
    assert abs(concurrence(rho) - general) <= WOOTTERS_TOL
