"""The SSS measure on two rates against the Frobenius norm of the 16 x 16
generators.

`sss_measure` reads ||L(t) - L*||_F as sqrt(8 (a - x)^2 + 4 (b - y)^2) from
the rates of correlated OUN. Here the same integral is taken over the
matrices of `oracle.correlated_oun_generator` and `oracle.dephasing_generator`,
at the reference rates (markov) or at the rates the free minimiser returned
(free), on seeded random inputs of the `sss` command's range.

The printed zeta of both families is also checked to all 12 digits against
the measure in 50-digit mpmath, with the rates evaluated at the package's
float times, on the grid of the `map_measures` benchmark at seed 1 and on
the CLI defaults. The free minimum there is the exact weighted median of
collinear rates or the solver's minimiser refined by Newton steps.
"""

import random

import mpmath as mp
import numpy as np
import pytest

from corrchan import measures
from corrchan.map_algebra import correlated_oun_rates
from corrchan.cli import main
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
        zeta = sss_measure(times, correlated_oun_rates(times, params, mu),
                           None if family == "free" else reference)
        rates = found.pop() if family == "free" else reference
        oracle = frobenius_zeta(times, correlated_oun_generator(times, params, mu), rates)
        case = (G, g_inverse, mu, t_max, n_points)
        assert abs(zeta - oracle) <= 1e-14 * oracle, case
        assert f"{zeta:.12g}" == f"{oracle:.12g}", case


# the seed-1 `map_measures` grid, the CLI defaults of `sss`, and a cell whose
# rates lie within 1e-9 of a line, where the Hessian of f is singular to
# rounding; its free minimiser took the Weiszfeld step from a start at the
# weighted centroid, and from the chord median it takes none (test_stacked.py
# reaches that step with constructed rates)
SSS_GRIDS = {
    "map_measures": (0.601, (8.2, 59.7, 105.3), (0.0, 0.3, 0.6, 0.9), 100.0, 200),
    "defaults": (0.6, (10.0, 50.0, 100.0), (0.0, 0.3, 0.6, 0.9), 100.0, 400),
    "weiszfeld": (2.0, (30.0,), (1e-9,), 1.25, 369),
}
MP_DPS = 50


def _mp_oun_rates(times, G, g, mu):
    """The two rates of correlated OUN in mpmath, at the exact float times."""
    G, g, mu = mp.mpf(G), mp.mpf(g), mp.mpf(mu)
    singles, doubles = [], []
    for t in times:
        decay = 1 - mp.exp(-g * mp.mpf(t))
        p2 = mp.exp(-G * (mp.mpf(t) - decay / g))
        singles.append(-(G / 2) * decay)
        # at mu = 0, (1 - mu) p^2 / tau = 1 exactly
        doubles.append(-G * decay * ((1 - mu) * p2 / (mu + (1 - mu) * p2) if mu else 1))
    return singles, doubles


def _mp_weights(times):
    """Trapezoid weights over the window, so that zeta = sum_t w_t |L(t) - L*|."""
    steps = [mp.mpf(t1) - mp.mpf(t0) for t0, t1 in zip(times[:-1], times[1:])]
    span = mp.mpf(times[-1]) - mp.mpf(times[0])
    return [(left + right) / (2 * span) for left, right in zip([0, *steps], [*steps, 0])]


def _mp_free_minimum(a, b, weights, start):
    """min over (x, y) of f = sum_t w_t sqrt(8 (a_t - x)^2 + 4 (b_t - y)^2).
    Rates on a line (mu = 0 or 1, ordered along it by t) give the weighted
    median, the first point from t = 0 with half the weight up to it (a tie
    leaves f constant on a segment, where the solver may stop at either
    end). Otherwise the minimum is the rate point nearest to the solver's
    float minimiser `start` if the pull of the other terms there is within
    that point's weight (Kuhn's criterion, in the metric of f), and else
    `start` is refined by Newton steps until they stop moving it."""
    def local(x, y):
        f, grad, hess = mp.mpf(0), [mp.mpf(0)] * 2, [[mp.mpf(0)] * 2 for _ in range(2)]
        for a_t, b_t, w in zip(a, b, weights):
            dx, dy = 8 * (x - a_t), 4 * (y - b_t)
            d = mp.sqrt(8 * (x - a_t) ** 2 + 4 * (y - b_t) ** 2)
            f += w * d
            if d == 0:
                continue
            grad = [grad[0] + w * dx / d, grad[1] + w * dy / d]
            hess[0][0] += w * (8 / d - dx * dx / d ** 3)
            hess[0][1] += w * (-dx * dy / d ** 3)
            hess[1][1] += w * (4 / d - dy * dy / d ** 3)
        hess[1][0] = hess[0][1]
        return f, grad, hess

    if all(b_t == 2 * a_t for a_t, b_t in zip(a, b)) or all(b_t == 0 for b_t in b):
        cumulative, total = mp.mpf(0), sum(weights)
        for a_k, b_k, w in zip(a, b, weights):
            cumulative += w
            if 2 * cumulative >= total:
                return local(a_k, b_k)[0]
    k = min(range(len(a)), key=lambda i: (a[i] - start[0]) ** 2 + (b[i] - start[1]) ** 2)
    f, pull, _ = local(a[k], b[k])
    if mp.sqrt(pull[0] ** 2 / 8 + pull[1] ** 2 / 4) <= weights[k]:
        return f
    x, y = mp.mpf(start[0]), mp.mpf(start[1])
    for _ in range(30):
        f, grad, hess = local(x, y)
        step = mp.lu_solve(mp.matrix(hess), mp.matrix(grad))
        x, y = x - step[0], y - step[1]
        if mp.hypot(step[0], step[1]) <= mp.mpf(10) ** (5 - MP_DPS) * (1 + mp.hypot(x, y)):
            return local(x, y)[0]
    raise AssertionError("Newton refinement did not converge")


@pytest.mark.parametrize("grid", sorted(SSS_GRIDS))
@pytest.mark.parametrize("family", ["markov", "free"])
def test_printed_sss_matches_mpmath(family, grid, tmp_path):
    """Every printed zeta of the grid is right to 12 digits against the
    measure taken in 50-digit arithmetic, with the rates evaluated at the
    package's float times; the free minimum is refined from the solver's
    minimiser."""
    G, g_inverses, mus, t_max, steps = SSS_GRIDS[grid]
    out = tmp_path / "sss.csv"
    assert main(["sss", "--G", repr(G), "--g-inverse", ",".join(map(repr, g_inverses)),
                 "--mu", ",".join(map(repr, mus)), "--tmax", repr(t_max),
                 "--steps", str(steps), "--family", family, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(g_inverses) * len(mus)
    times = np.linspace(0.0, t_max, steps)
    float_weights = (np.append(np.diff(times), 0.0) + np.insert(np.diff(times), 0, 0.0)) / (
        2 * t_max)
    wrong = []
    with mp.workdps(MP_DPS):
        weights = _mp_weights(times)
        for (g_text, mu_text, printed), (g_inverse, mu) in zip(
                rows, [(g_inverse, mu) for g_inverse in g_inverses for mu in mus]):
            g = 1.0 / g_inverse
            a, b = _mp_oun_rates(times, G, g, mu)
            if family == "markov":
                zeta = sum(w * mp.sqrt(8 * (a_t + mp.mpf(G) / 2) ** 2 + 4 * (b_t + G) ** 2)
                           for a_t, b_t, w in zip(a, b, weights))
            else:
                start = measures._free_minimiser(
                    *correlated_oun_rates(times, OunParams(G=G, g=g), mu), float_weights)
                zeta = _mp_free_minimum(a, b, weights, [float(v) for v in start])
            if printed != format(float(zeta), ".12g"):
                wrong.append((g_text, mu_text, printed, format(float(zeta), ".12g")))
    assert wrong == []
