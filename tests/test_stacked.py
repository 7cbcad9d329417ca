"""Grid evaluation against single-time evaluation.

States evolved in closed form over a whole time grid must reproduce, bit
for bit, the states evolved one time at a time, and a stack of initial
states the states evolved one at a time: the CSV bytes of the CLI depend on
it. They must also agree with the Kraus oracle, applied one time
at a time, to 1e-12. Bit equality also holds for the accessible-state
volume, the success probability of error correction and the rates of the
correlated OUN generator, which `volume`, `qec` and `sss` evaluate over the
grid, and for the closed-form transfer matrices of the oracle.
"""

import numpy as np
import pytest

from corrchan.channels import evolve
from corrchan.errors import ValidationError
from corrchan.linalg import validate_density
from corrchan.map_algebra import accessible_volume, correlated_oun_rates
from corrchan.measures import (PROBE_NAMES, PROBE_PAIRS, _x_shaped, concurrence, probe_state,
                               random_bell_probes, trace_distance)
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import apply, channel_at_time, transfer_sampler
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
    volumes = accessible_volume(params, mu, TIMES)
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
        assert np.array_equal(volumes[k], accessible_volume(params, mu, t))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", sorted(NOISES))
def test_probe_stack_equals_each_probe(noise, mu):
    params = NOISES[noise]
    probes = np.stack([probe_state(name) for name in PROBE_NAMES]
                      + random_bell_probes(2, seed=5))
    for t in (TIMES, TIMES[7]):
        states = evolve(params, mu, t, probes)
        assert states.shape == (len(probes), *np.shape(t), 4, 4)
        for probe, state in zip(probes, states):
            assert np.array_equal(state, evolve(params, mu, t, probe))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", sorted(NOISES))
def test_mixed_chunk_measures_equal_each_matrix(noise, mu):
    """A `blp` chunk of the default pairs and of random-probe pairs mixes
    X-shaped differences, measured in closed form, with others, which go to
    eigvalsh in the same call; each pair at each time gives the same bits as
    that pair alone, also as a 0-d single pair, and so does the concurrence
    of each state of the chunk."""
    probes = np.stack([probe_state(name) for pair in PROBE_PAIRS for name in pair]
                      + random_bell_probes(4, seed=11))
    states = evolve(NOISES[noise], mu, TIMES, probes)
    distances = trace_distance(states[0::2], states[1::2])
    x = _x_shaped(states[0::2] - states[1::2])
    assert x.any() and not x.all()
    for pair, row in enumerate(distances):
        for k, value in enumerate(row):
            single = trace_distance(states[2 * pair, k], states[2 * pair + 1, k])
            assert type(single) is float and np.array_equal(value, single)
        assert np.array_equal(row, trace_distance(states[2 * pair], states[2 * pair + 1]))
    x = _x_shaped(states)
    assert x.any() and not x.all()
    for trajectory, row in zip(states, concurrence(states)):
        assert np.array_equal(row, [concurrence(state) for state in trajectory])


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_empty_grid_gives_empty_stack(noise):
    rho = probe_state("phi+")
    states = evolve(NOISES[noise], 0.5, np.array([]), rho)
    assert states.shape == (0, 4, 4)
    assert evolve(NOISES[noise], 0.5, np.array([]), np.stack([rho, rho])).shape == (2, 0, 4, 4)
    with pytest.raises(ValidationError, match=r"at least one matrix, got shape \(0, 4, 4\)"):
        validate_density(states)


# Long grids: a single time evaluated through Python floats instead of 0-d
# arrays differs from the grid in the last bit at a few points only.
QEC_TIMES = np.linspace(0.0, 100.0, 2001)
GENERATOR_TIMES = np.linspace(0.0, 100.0, 4001)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", ["rtn", "oun"])
def test_success_grid_equals_single_times(noise, mu):
    params = NOISES[noise]
    plain = success_vs_time(params, mu, QEC_TIMES)
    normalized = success_vs_time(params, mu, QEC_TIMES, normalized=True)
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
    grid = np.stack(correlated_oun_rates(GENERATOR_TIMES, params, mu))
    assert grid.shape == (2,) + GENERATOR_TIMES.shape
    singles = np.array([correlated_oun_rates(t, params, mu) for t in GENERATOR_TIMES]).T
    assert np.array_equal(grid, singles)
