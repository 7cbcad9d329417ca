"""The SSS measure on two rates against the Frobenius norm of the 16 x 16
generators.

`sss_measure` reads ||L(t) - L*||_F as sqrt(8 (a - x)^2 + 4 (b - y)^2) from
the rates of correlated OUN. Here the same integral is taken over the
matrices of `oracle.correlated_oun_generator` and `oracle.dephasing_generator`,
at the reference rates (markov) or at the rates the free minimiser returned
(free), on seeded random inputs of the `sss` command's range.
"""

import random

import numpy as np
import pytest

from corrchan import measures
from corrchan.map_algebra import correlated_oun_rates
from corrchan.measures import sss_measure
from corrchan.noise import OunParams
from corrchan.oracle import correlated_oun_generator, dephasing_generator

CASES = 60


def random_case(rng: random.Random):
    G = rng.uniform(0.05, 3.0)
    g_inverse = 10 ** rng.uniform(-1.0, 3.0)
    mu = rng.choice((0.0, 1.0, rng.random(), rng.random()))
    t_max = 10 ** rng.uniform(0.0, 3.5)
    n_points = rng.choice((2, 3, rng.randint(2, 400)))
    return G, g_inverse, mu, t_max, n_points


def frobenius_zeta(times, stack, rates):
    norms = np.sqrt(((stack - dephasing_generator(*rates)) ** 2).sum(axis=(1, 2)))
    return float(np.trapezoid(norms, times) / times[-1])


@pytest.mark.parametrize("family", ["markov", "free"])
def test_rate_form_matches_the_16x16_norm(family, monkeypatch):
    found = []
    solve = measures._free_minimiser
    monkeypatch.setattr(measures, "_free_minimiser",
                        lambda *args: found.append(solve(*args)) or found[-1])
    rng = random.Random(f"sss-{family}")
    for _ in range(CASES):
        G, g_inverse, mu, t_max, n_points = random_case(rng)
        params = OunParams(G=G, g=1.0 / g_inverse)
        times = np.linspace(0.0, t_max, n_points)
        reference = (-G / 2, -G)
        zeta = sss_measure(times, correlated_oun_rates(times, params, mu), reference,
                           free=family == "free")
        rates = found.pop() if family == "free" else reference
        oracle = frobenius_zeta(times, correlated_oun_generator(times, params, mu), rates)
        case = (G, g_inverse, mu, t_max, n_points)
        assert abs(zeta - oracle) <= 1e-14 * oracle, case
        assert f"{zeta:.12g}" == f"{oracle:.12g}", case
