"""Grid evaluation against single-time evaluation.

States evolved in closed form over a whole time grid must reproduce, bit
for bit, the states evolved one time at a time, and a stack of initial
states the states evolved one at a time: the CSV bytes of the CLI depend on
it. They must also agree with the Kraus oracle, applied one time
at a time, to 1e-12. Bit equality also holds for the accessible-state
volume, the success probability of error correction and the rates of the
correlated OUN generator, which `volume`, `qec` and `sss` evaluate over the
grid, for the NMAD decay rate, and for the closed-form transfer matrices of
the oracle. A sequence of mu gives the stack of the calls with each mu, bit
for bit, and the commands evaluate their (probe, mu, t) points, and `sss`
its (g^-1, mu, t) rate points, in passes of at most `sweeps._PASS_POINTS`.
A stack of SSS rate pairs on one grid gives each row's measure with the
bits of a one-row call, and fails as a whole where one row fails. The
chord median that the free solver starts from gives, over a stack, the
bits of the per-row weighted median it replaced, and constructed rates
still reach the solver's Weiszfeld step.
"""

import re

import numpy as np
import pytest

from corrchan import measures, sweeps
from corrchan.channels import evolve, evolve_damping, evolve_dephasing
from corrchan.cli import main
from corrchan.errors import NumericError, ValidationError
from corrchan.linalg import validate_density
from corrchan.map_algebra import accessible_volume, correlated_oun_rates
from corrchan.measures import (_x_shaped, concurrence, probe_state, random_bell_probes,
                               sss_measure, trace_distance)
from corrchan.noise import NmadParams, OunParams, RtnParams, nmad_gamma, noise_p
from corrchan.oracle import apply, channel_at_time, transfer_sampler
from corrchan.params import PROBE_NAMES, PROBE_PAIRS
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


@pytest.mark.parametrize("params", [NOISES["nmad"], NmadParams(gamma0=1.0, g=2.0),
                                    NmadParams(gamma0=1.0, g=4.0)],
                         ids=["under", "critical", "over"])
def test_nmad_gamma_grid_equals_single_times(params):
    times = TIMES / 6  # up to t = 10, where |G| is still above the cut-off 1e-9
    rates = nmad_gamma(times, params)
    assert rates.shape == times.shape
    assert np.array_equal(rates, [nmad_gamma(t, params) for t in times])
    assert isinstance(nmad_gamma(2.0, params), float)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_oun_generator_grid_equals_single_times(mu):
    params = NOISES["oun"]
    grid = np.stack(correlated_oun_rates(GENERATOR_TIMES, params, mu))
    assert grid.shape == (2,) + GENERATOR_TIMES.shape
    singles = np.array([correlated_oun_rates(t, params, mu) for t in GENERATOR_TIMES]).T
    assert np.array_equal(grid, singles)


# One grid for a stack of SSS rate pairs: (G, g^-1, mu) per row. Rows at mu = 0
# and 1 are collinear and take the weighted median; rows within 1e-8 of them
# are not, and the others need different numbers of iterations.
SSS_TIMES = np.linspace(0.0, 100.0, 200)
SSS_ROWS = [(0.6, 10.0, 0.0), (0.6, 10.0, 1.0), (0.6, 10.0, 5e-9), (0.6, 10.0, 1 - 5e-9),
            (1.2, 0.5, 0.3), (0.601, 59.7, 0.6), (0.601, 105.3, 0.9), (2.5, 1000.0, 0.5),
            (0.05, 0.2, 0.99), (0.6, 2.0, 1e-8)]
SSS_REFERENCE = (-0.3, -0.6)


def sss_stack():
    """The (2, k, n) single- and double-flip rates of SSS_ROWS."""
    return np.stack([correlated_oun_rates(SSS_TIMES, OunParams(G=G, g=1.0 / g_inverse), mu)
                     for G, g_inverse, mu in SSS_ROWS], axis=1)


def sss_rows(a, b, free):
    """`sss_measure` of each row alone, or the NumericError it raises."""
    out = []
    for single, double in zip(a, b):
        try:
            out.append(sss_measure(SSS_TIMES, (single, double), None if free else SSS_REFERENCE))
        except NumericError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("free", [False, True])
def test_sss_stack_equals_one_row_calls(free):
    a, b = sss_stack()
    stacked = sss_measure(SSS_TIMES, (a, b), None if free else SSS_REFERENCE)
    rows = sss_rows(a, b, free)
    assert all(isinstance(zeta, float) for zeta in rows)
    assert stacked.shape == (len(SSS_ROWS),)
    assert stacked.tobytes() == np.array(rows).tobytes()


def test_sss_stack_rows_need_different_iteration_counts(monkeypatch):
    # the fewest steps that certify each row alone: none for a weighted median
    def certified_within(limit, single, double):
        monkeypatch.setattr(measures, "SSS_MAX_ITERATIONS", limit)
        return isinstance(sss_rows([single], [double], True)[0], float)

    needed = [next(limit for limit in range(101) if certified_within(limit, *row))
              for row in zip(*sss_stack())]
    assert needed[:2] == [0, 0]
    assert len(set(needed[2:])) >= 3, needed


def test_free_objective_terms_of_a_stack_equal_each_row(rng):
    # the per-row sums of the free solver are `np.vecdot`s and stacked
    # matmuls; a matrix-vector product over the stack rounds rows otherwise.
    # Iterates sit on data points and amid clusters of coincident points too
    for n in (3, 40, 257):
        points = rng.normal(size=(9, n, 2))
        points[:3, n // 2:] = points[:3, :1]
        u = rng.normal(size=(9, 2))
        u[::2] = points[::2, -1]
        weights = rng.random(n)
        stacked = (measures._objective(u, points, weights),
                   *measures._local(u, points, weights))
        for row in range(9):
            one = (measures._objective(u[row:row + 1], points[row:row + 1], weights),
                   *measures._local(u[row:row + 1], points[row:row + 1], weights))
            for many, alone in zip(stacked, one):
                assert many[row:row + 1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("free", [False, True])
def test_sss_stack_with_a_non_finite_rate_fails_whole(free):
    a, b = sss_stack()
    a[4, 7] = np.nan
    message = "single-flip rate of L(t) has a non-finite value"
    with pytest.raises(NumericError, match=re.escape(message)):
        sss_measure(SSS_TIMES, (a, b), None if free else SSS_REFERENCE)
    assert sss_rows(a, b, free)[4] == message


def test_sss_stack_with_an_uncertified_row_fails_whole(monkeypatch):
    monkeypatch.setattr(measures, "SSS_MAX_ITERATIONS", 1)
    a, b = sss_stack()
    with pytest.raises(NumericError, match="certificate") as stacked:
        sss_measure(SSS_TIMES, (a, b), None)
    failures = {out for out in sss_rows(a, b, True) if isinstance(out, str)}
    assert failures == {str(stacked.value)}


def weighted_median_reference(a, b, weights):
    """The per-row weighted median that `_chord_median` replaced, kept as its
    reference: nan, nan where the points are not exactly on one line."""
    da, db = a - a[0], b - b[0]
    far = np.argmax(np.abs(da) + np.abs(db))
    if not np.all(da * db[far] == db * da[far]):
        return np.nan, np.nan
    order = np.argsort(da * da[far] + db * db[far], kind="stable")
    cumulative = np.cumsum(weights[order])
    k = order[np.searchsorted(cumulative, 0.5 * cumulative[-1])]
    return a[k], b[k]


def chord_median_stack():
    """Twelve rows on SSS_TIMES: SSS_ROWS, of which mu = 0 (b = 2a) and mu = 1
    (b = 0) are collinear, then a row of equal points and a collinear row in
    shuffled order with repeated points."""
    a, b = sss_stack()
    shuffled = np.random.default_rng(7).integers(-4, 5, size=len(SSS_TIMES)).astype(float)
    return (np.vstack([a, np.full(len(SSS_TIMES), -0.3), shuffled]),
            np.vstack([b, np.full(len(SSS_TIMES), -0.6), -3 * shuffled]))


SSS_STEPS = np.diff(SSS_TIMES)
CHORD_WEIGHTS = {
    "trapezoid": (np.append(SSS_STEPS, 0.0) + np.insert(SSS_STEPS, 0, 0.0)) / 200.0,
    # 1, 2, ..., 2, 1: a collinear row in order reaches half the total exactly
    "tie": np.concatenate([[1.0], np.full(len(SSS_TIMES) - 2, 2.0), [1.0]]),
}


@pytest.mark.parametrize("weights", sorted(CHORD_WEIGHTS))
def test_chord_median_equals_the_per_row_weighted_median(weights):
    weights = CHORD_WEIGHTS[weights]
    a, b = chord_median_stack()
    x, y, collinear = measures._chord_median(a, b, weights)
    assert collinear.tolist() == [True, True] + [False] * 8 + [True, True]
    for row, (single, double) in enumerate(zip(a, b)):
        alone = measures._chord_median(a[row:row + 1], b[row:row + 1], weights)
        assert [part.tobytes() for part in alone] == [
            part[row:row + 1].tobytes() for part in (x, y, collinear)]
        reference = weighted_median_reference(single, double, weights)
        if collinear[row]:
            assert np.array([x[row], y[row]]).tobytes() == np.array(reference).tobytes()
        else:
            # the start of the free iteration: a data point
            assert np.isnan(reference).all()
            assert ((single == x[row]) & (double == y[row])).any()
    stacked = measures._free_minimiser(a, b, weights)
    for row in range(len(a)):
        alone = measures._free_minimiser(a[row], b[row], weights)
        assert [part[row].tobytes() for part in stacked] == [part.tobytes() for part in alone]


# Rates on the line b = 2a, listed out of order along it, and last a far point
# off the line whose grid step of 2^-40 gives it a weight below rounding. The
# chord from the first to the far point is perpendicular to the line, so the
# chord median is the median in list order, not the minimiser. The iterate
# moves along the line, where every other term is collinear with it and the
# Hessian is singular to rounding, so Newton gives way to a Weiszfeld step.
# Each case is (the times before the last, a before the far point, the a of
# the weighted median along the line); in the last, a first grid step of
# 1e-300 leaves the first point a weight below the rounding of the gradient,
# and the Weiszfeld step is taken on it.
WEISZFELD_CASES = [
    (np.arange(4.0), [13.0, 7.0, 1.0, 16.0], 7.0),
    (np.arange(5.0), [16.0, 12.0, 7.0, 11.0, 1.0], 11.0),
    (np.arange(5.0), [5.0, 4.0, 14.0, 1.0, 2.0], 4.0),
    (np.arange(4.0), [17.0, 14.0, 7.0, 19.0], 14.0),
    (np.array([0.0, 1e-300, 1.0, 4.0, 8.0, 10.0, 13.0, 15.0, 18.0]),
     [0.0, 11.0, 10.0, 10.0, 4.0, 18.0, 2.0, 6.0, 1.0], 6.0),
]


@pytest.mark.parametrize("case", range(len(WEISZFELD_CASES)))
def test_free_minimiser_takes_the_weiszfeld_step(case, monkeypatch):
    times, a, median = WEISZFELD_CASES[case]
    times = np.append(times, times[-1] + 2.0 ** -40)
    a = np.append(a, a[0] + 2e6)
    b = 2 * a
    b[-1] = 2 * a[0] - 1e6
    weiszfeld, steps = measures._weiszfeld, []

    def spy(points, weights, dist):
        trial = weiszfeld(points, weights, dist)
        # it never increases f, up to rounding, and a point at the iterate
        # has too little weight to matter
        assert (measures._objective(trial, points, weights)
                <= np.vecdot(dist, weights) * (1 + measures._F_ROUNDING)).all()
        steps.append(trial)
        return trial

    monkeypatch.setattr(measures, "_weiszfeld", spy)
    zeta = sss_measure(times, (a, b), None)
    assert steps
    assert zeta == sss_measure(times, (a, b), (median, 2 * median))


# A sequence of mu in one call: the edges -0.0, 1e-300, 0 and 1 as well.
MUS = [-0.0, 1e-300, 0.0, 0.5, 1.0]
MU_NOISES = {"rtn": NOISES["rtn"], "oun": NOISES["oun"], "nmad-under": NOISES["nmad"],
             "nmad-critical": NmadParams(gamma0=1.0, g=2.0),
             "nmad-over": NmadParams(gamma0=1.0, g=4.0)}
MU_PROBES = np.stack([probe_state(name) for name in PROBE_NAMES] + random_bell_probes(2, seed=5))


def _stack_of_calls(fn, mus, axis=0):
    return np.stack([fn(mu) for mu in mus], axis=axis)


def _same_bits(many, stack):
    assert many.shape == stack.shape
    assert many.tobytes() == stack.tobytes()


@pytest.mark.parametrize("noise", sorted(MU_NOISES))
def test_evolve_over_mu_equals_the_stack_of_calls(noise):
    """One state and a probe stack, over the grid and at one time: the mu
    axis comes after the probe axis. RTN's p goes negative on this grid."""
    params = MU_NOISES[noise]
    assert noise != "rtn" or noise_p(params, TIMES).min() < 0
    for t in (TIMES, TIMES[9]):
        for rho, axis in ((MU_PROBES[0], 0), (MU_PROBES, 1)):
            _same_bits(evolve(params, MUS, t, rho),
                       _stack_of_calls(lambda mu: evolve(params, mu, t, rho), MUS, axis))


@pytest.mark.parametrize("fn, p", [(evolve_dephasing, np.linspace(-1.0, 1.0, 37)),
                                   (evolve_damping, np.linspace(0.0, 1.0, 37))])
def test_closed_forms_over_mu_equal_the_stack_of_calls(fn, p):
    for values in (p, p[5], p.reshape(37, 1)[:6]):
        for rho, axis in ((MU_PROBES[3], 0), (MU_PROBES, 1)):
            _same_bits(fn(rho, values, MUS), _stack_of_calls(lambda mu: fn(rho, values, mu),
                                                              MUS, axis))


@pytest.mark.parametrize("noise", sorted(MU_NOISES))
def test_volume_over_mu_equals_the_stack_of_calls(noise):
    params = MU_NOISES[noise]
    for t in (TIMES, TIMES[9]):
        _same_bits(accessible_volume(params, MUS, t),
                   _stack_of_calls(lambda mu: accessible_volume(params, mu, t), MUS))


def test_oun_rates_over_mu_equal_the_stack_of_calls():
    # p^2 underflows to 0 past t of about 750 at G = 1: at mu = 0 the double
    # rate is twice the single rate there, and not 0/0
    params = OunParams(G=1.0, g=0.05)
    times = np.linspace(0.0, 1000.0, 101)
    assert np.square(noise_p(params, times[-1])) == 0.0
    for t in (times, times[-1], times[3]):
        single, double = correlated_oun_rates(t, params, MUS)
        stack = _stack_of_calls(lambda mu: np.stack(correlated_oun_rates(t, params, mu)), MUS, 1)
        _same_bits(np.stack([single, double]), stack)
    assert np.isfinite(double).all() and double[0] == double[2] == 2 * single[2]


@pytest.mark.parametrize("call", [
    lambda mus: evolve(NOISES["rtn"], mus, TIMES, probe_state("phi+")),
    lambda mus: evolve(NOISES["nmad"], mus, TIMES, probe_state("phi+")),
    lambda mus: accessible_volume(NOISES["nmad"], mus, TIMES),
    lambda mus: correlated_oun_rates(TIMES, NOISES["oun"], mus),
], ids=["dephasing", "damping", "volume", "rates"])
def test_each_mu_of_a_sequence_is_checked(call):
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match=f"mu must lie in \\[0, 1\\], got {bad}"):
            call([0.5, bad])


def _passes_of(command, argv, monkeypatch):
    """The (probes, mu, times) of each pass that `command` evaluates."""
    passes = []
    if command == "volume":
        real = sweeps.accessible_volume

        def counting(noise, mus, times):
            passes.append((1, len(mus), len(times)))
            return real(noise, mus, times)
        monkeypatch.setattr(sweeps, "accessible_volume", counting)
    else:
        real = sweeps.evolve

        def counting(noise, mus, times, probes):
            passes.append((len(probes) if probes.ndim == 3 else 1, len(mus), len(times)))
            return real(noise, mus, times, probes)
        monkeypatch.setattr(sweeps, "evolve", counting)
    assert main([command, *argv, "--out", "-"]) == 0
    return passes


COMMAND_PROBES = {"evolve": 1, "concurrence": 1, "volume": 1, "tracedist": 2, "blp": 12}


@pytest.mark.parametrize("command", sorted(COMMAND_PROBES))
def test_passes_hold_at_most_the_bound(command, monkeypatch, capsys):
    """Every (probe, mu, t) point is evaluated once, in passes of at most
    _PASS_POINTS points wherever one mu of one probe group fits; each pass
    holds whole probe pairs and at least one mu. Here the bound is 600
    points, and the grids are 3 mu by 20, 100, 250 and 700 times."""
    monkeypatch.setattr(sweeps, "_PASS_POINTS", 600)
    probes = COMMAND_PROBES[command]
    whole = 2 if probes > 1 else 1  # the probes of a pair are evolved together
    extra = ["--random-probes", "2"] if command == "blp" else []
    for steps in (20, 100, 250, 700):
        passes = _passes_of(command, [*extra, "--mu", "0,0.5,0.9", "--steps", str(steps)],
                            monkeypatch)
        capsys.readouterr()
        for group, mus, times in passes:
            assert times == steps and mus >= 1 and group % whole == 0
            # above the bound only where one mu of one group is
            assert group * mus * times <= 600 or (mus, group) == (1, whole)
        assert sum(group * mus for group, mus, _ in passes) == 3 * probes
        if probes * 3 * steps <= 600:
            assert passes == [(probes, 3, steps)]


@pytest.mark.parametrize("family", ["markov", "free"])
def test_sss_passes_hold_at_most_the_bound(family, monkeypatch, capsys):
    """`sss` solves its (g^-1, mu) cells in stacks of at most _PASS_POINTS
    rate points, or of one cell, each cell once, and prints the bytes of an
    unbounded run. Here the bound is 600 points, and the grids are 3 g^-1
    by 4 mu by 200, 250 and 700 times."""
    real = sweeps.sss_measure

    def stacks_of(steps):
        stacks = []

        def counting(times, rates, reference=None):
            stacks.append(np.array(rates))
            return real(times, rates, reference)
        monkeypatch.setattr(sweeps, "sss_measure", counting)
        assert main(["sss", "--family", family, "--g-inverse", "10,50,100",
                     "--mu", "0,0.3,0.6,0.9", "--steps", str(steps), "--out", "-"]) == 0
        return stacks, capsys.readouterr().out

    for steps in (200, 250, 700):
        (whole,), text = stacks_of(steps)
        with monkeypatch.context() as bounded:
            bounded.setattr(sweeps, "_PASS_POINTS", 600)
            stacks, bounded_text = stacks_of(steps)
        assert bounded_text == text
        for rates in stacks:
            assert rates.shape[1] * steps <= 600 or rates.shape[1] == 1
        rows = sorted(cell.tobytes() for rates in stacks for cell in rates.swapaxes(0, 1))
        assert rows == sorted(cell.tobytes() for cell in whole.swapaxes(0, 1))
        assert len(set(rows)) == 12


@pytest.mark.parametrize("command", ["evolve", "concurrence", "tracedist", "volume"])
def test_grid_above_the_bound_takes_one_mu_per_pass(command, monkeypatch, capsys):
    """At more grid points than the bound holds, each pass holds one mu, as
    when every mu was a call of its own; the presets take one pass."""
    steps = sweeps._PASS_POINTS + 1
    passes = _passes_of(command, ["--steps", str(steps)], monkeypatch)
    capsys.readouterr()
    probes = 2 if command == "tracedist" else 1
    assert passes == [(probes, 1, steps)] * 3
    preset = _passes_of(command, [], monkeypatch)
    capsys.readouterr()
    assert preset == [(probes, 3, 1000 if command == "volume" else 500)]


def _random_bell_probes_one_by_one(count, seed):
    """The probes of `random_bell_probes` drawn one unitary at a time: the
    definition that its one draw and stacked QR reproduce."""
    rng = np.random.default_rng(seed)

    def unitary():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    base = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = []
    for _ in range(count):
        ket = np.kron(unitary(), unitary()) @ base
        out.append(np.outer(ket, ket.conj()))
    return out


@pytest.mark.parametrize("seed", [0, 1, 878440, 12345])
@pytest.mark.parametrize("count", [0, 1, 2, 4, 6])
def test_random_bell_probes_equal_one_draw_per_unitary(seed, count):
    probes = random_bell_probes(count, seed=seed)
    expected = _random_bell_probes_one_by_one(count, seed)
    assert isinstance(probes, list) and len(probes) == count
    for probe, reference in zip(probes, expected):
        assert probe.shape == (4, 4)
        assert probe.tobytes() == reference.tobytes()  # signed zeros included
