"""Grid evaluation against single-time evaluation.

States evolved in closed form over a whole time grid must reproduce, bit
for bit, the states evolved one time at a time: the CSV bytes of the CLI
depend on it. They must also agree with the Kraus oracle, applied one time
at a time, to 1e-12. Bit equality also holds for the closed-form transfer
matrices and their determinants, for the success probability of error
correction and for the correlated OUN generator, which `volume`, `qec` and
`sss` evaluate over the grid.
"""

import numpy as np
import pytest

from corrchan.channels import evolve
from corrchan.map_algebra import correlated_oun_generator, transfer_sampler
from corrchan.measures import concurrence, probe_state, random_bell_probes, trace_distance
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import apply, channel_at_time
from corrchan.qec import success_probability_closed, success_vs_time, total_probability_mass

NOISES = {"rtn": RtnParams(a=0.8, gamma=0.05),
          "oun": OunParams(G=1.0, g=0.05),
          "nmad": NmadParams(gamma0=1.0, g=0.05)}
TIMES = np.linspace(0.0, 60.0, 41)
KRAUS_TOL = 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", sorted(NOISES))
def test_stacked_equals_single_time(noise, mu):
    params = NOISES[noise]
    rho1, rho2 = probe_state("phi+"), probe_state("++")
    rho3 = random_bell_probes(1, seed=3)[0]
    states = {name: evolve(params, mu, TIMES, rho) for name, rho in
              (("phi+", rho1), ("++", rho2), ("random", rho3))}
    conc = concurrence(states["phi+"])
    dist = trace_distance(states["phi+"], states["++"])
    dist_random = trace_distance(states["random"], states["++"])
    sampler = transfer_sampler(params, mu)
    f_grid = sampler(TIMES)
    dets = np.linalg.det(f_grid)
    for k, t in enumerate(TIMES):
        s1, s2, s3 = (evolve(params, mu, t, rho) for rho in (rho1, rho2, rho3))
        assert np.array_equal(states["phi+"][k], s1)
        assert np.array_equal(states["++"][k], s2)
        assert np.array_equal(states["random"][k], s3)
        kraus = channel_at_time(params, mu, t)
        for rho, state in ((rho1, s1), (rho2, s2), (rho3, s3)):
            assert np.abs(apply(kraus, rho) - state).max() <= KRAUS_TOL
        assert np.array_equal(conc[k], concurrence(s1))
        assert np.array_equal(dist[k], trace_distance(s1, s2))
        assert np.array_equal(dist_random[k], trace_distance(s3, s2))
        f_single = sampler(t)
        assert np.array_equal(f_grid[k], f_single)
        assert np.array_equal(dets[k], np.linalg.det(f_single))


# Long grids: a single time evaluated through Python floats instead of 0-d
# arrays differs from the grid in the last bit at a few points only.
QEC_TIMES = np.linspace(0.0, 100.0, 2001)
GENERATOR_TIMES = np.linspace(0.0, 100.0, 4001)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", ["rtn", "oun"])
def test_success_grid_equals_single_times(noise, mu):
    params = NOISES[noise]
    plain = success_vs_time(params, mu, QEC_TIMES).values
    normalized = success_vs_time(params, mu, QEC_TIMES, normalized=True).values
    singles = [noise_p(params, t) for t in QEC_TIMES]
    closed = np.array([success_probability_closed(p, mu) for p in singles])
    assert np.array_equal(plain, closed)
    # 64 chained words per point: every tenth point keeps the test short
    masses = np.array([total_probability_mass(p, mu) for p in singles[::10]])
    # the ratio is clipped to 1, which it exceeds by an ulp at mu = 1
    assert np.array_equal(normalized[::10], np.minimum(closed[::10] / masses, 1.0))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_oun_generator_grid_equals_single_times(mu):
    params = NOISES["oun"]
    stack = correlated_oun_generator(GENERATOR_TIMES, params, mu)
    assert stack.shape == GENERATOR_TIMES.shape + (16, 16)
    singles = np.stack([correlated_oun_generator(t, params, mu) for t in GENERATOR_TIMES])
    assert np.array_equal(stack, singles)
