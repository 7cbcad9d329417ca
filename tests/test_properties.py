"""Property tests over (p, mu, time grid) for every channel family.

Each property is an invariant the package promises for any valid input:
the correlated channels are CPTP, the closed-form `evolve` keeps the trace
and agrees with the Kraus `apply` at every time, the noise values
stay in their range, the success probability is a probability, and the free
SSS measure is certified and lies between 0 and the Markov measure. The
examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from corrchan.channels import evolve
from corrchan.map_algebra import correlated_oun_generator, dephasing_generator
from corrchan.measures import PROBE_NAMES, SSS_TOL, probe_state, sss_measure
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import (apply, channel_at_time, correlated_dephasing_channel,
                             correlated_nmad_channel, cptp_report)
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


@PROPERTY_SETTINGS
@given(noise=noises, mu=mus, times=grids, name=st.sampled_from(PROBE_NAMES))
def test_apply_preserves_trace(noise, mu, times, name):
    rho = probe_state(name)
    states = evolve(noise, mu, times, rho)
    traces = np.trace(states, axis1=-2, axis2=-1)
    assert np.abs(traces - 1).max() <= TRACE_TOL
    kraus = np.stack([apply(channel_at_time(noise, mu, t), rho) for t in times])
    assert np.abs(states - kraus).max() <= KRAUS_TOL


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
    values = success_vs_time(noise, mu, times).values
    assert np.all((0 <= values) & (values <= 1))


@PROPERTY_SETTINGS
@given(noise=dephasing_noises, mu=mus, times=grids)
@example(noise=RtnParams(a=1, gamma=1), mu=MU_PAST_ONE, times=np.array([0.0]))
@example(noise=OunParams(G=1, g=1), mu=MU_PAST_ONE, times=np.array([0.0, 1e-9]))
def test_normalized_success_vs_time_in_unit_interval(noise, mu, times):
    values = success_vs_time(noise, mu, times, normalized=True).values
    assert np.all((0 <= values) & (values <= 1))


@PROPERTY_SETTINGS
@given(G=rates, g_inverse=st.floats(0.1, 1000.0), mu=mus, t_max=st.floats(0.1, 5000.0),
       n_points=st.integers(2, 400))
def test_sss_free_certified_and_below_markov(G, g_inverse, mu, t_max, n_points):
    params = OunParams(G=G, g=1.0 / g_inverse)
    sampler = lambda t: correlated_oun_generator(t, params, mu)
    reference = dephasing_generator(-G / 2, -G)
    zeta_markov = sss_measure(sampler, reference, t_max, n_points)
    zeta_free = sss_measure(sampler, reference, t_max, n_points, free=True)  # certified
    # within the certified gap of a minimum over a family holding the reference
    assert 0 <= zeta_free <= zeta_markov * (1 + 2 * SSS_TOL)
