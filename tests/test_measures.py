import numpy as np
import pytest
from scipy.optimize import minimize

from corrchan import measures
from corrchan.channels import evolve
from corrchan.cli import _fmt
from corrchan.errors import NumericError
from corrchan.map_algebra import (DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS,
                                  correlated_oun_generator, dephasing_generator,
                                  transfer_sampler)
from corrchan.measures import (blp_measure, concurrence, nm_concurrence_measure,
                               positive_variation, probe_state,
                               random_bell_probes, sss_measure, trace_distance,
                               volume_trace)
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import apply, correlated_dephasing_channel, correlated_nmad_channel

from conftest import random_density

RTN = RtnParams(a=0.8, gamma=0.05)
OUN = OunParams(G=1.0, g=0.05)
NMAD = NmadParams(gamma0=1.0, g=0.05)


# --------------------------------------------------------------------------
# Trace distance
# --------------------------------------------------------------------------


def test_trace_distance_basic(rng):
    rho = random_density(4, rng)
    assert trace_distance(rho, rho) == 0.0
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12


def test_trace_distance_symmetric_and_triangle(rng):
    a, b, c = (random_density(4, rng) for _ in range(3))
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
    assert 0 <= trace_distance(a, b) <= 1


def test_trace_distance_contracts_under_channels(rng):
    for _ in range(5):
        rho1, rho2 = random_density(4, rng), random_density(4, rng)
        before = trace_distance(rho1, rho2)
        for ch in (correlated_dephasing_channel(rng.uniform(-1, 1), rng.uniform(0, 1)),
                   correlated_nmad_channel(rng.uniform(0, 1), rng.uniform(0, 1))):
            after = trace_distance(apply(ch, rho1), apply(ch, rho2))
            assert after <= before + 1e-12


def test_trace_distance_dim_mismatch(rng):
    with pytest.raises(ValueError):
        trace_distance(random_density(2, rng), random_density(4, rng))


# --------------------------------------------------------------------------
# Positive variation engine
# --------------------------------------------------------------------------


def test_positive_variation_simple():
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = [1.0, 0.5, 0.8, 0.9, 0.2]
    result = positive_variation(times, values)
    assert abs(result.value - 0.4) < 1e-12
    assert len(result.detail) == 1
    (t0, t1), contribution = result.detail[0]
    assert (t0, t1) == (1.0, 3.0)
    assert abs(contribution - 0.4) < 1e-12


def reference_rising_runs(times, values):
    """Rising runs and their increments, found one grid point at a time."""
    rising = [b - a > measures.RISE_THRESHOLD for a, b in zip(values, values[1:])]
    detail, start = [], None
    for k, up in enumerate(rising + [False]):
        if up and start is None:
            start = k
        elif not up and start is not None:
            detail.append(((times[start], times[k]), values[k] - values[start]))
            start = None
    return detail


def test_positive_variation_value_equals_detail_sum(rng):
    cases = [rng.normal(size=200).cumsum() for _ in range(5)]
    cases += [
        [0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0],  # runs touch both ends
        [3.0, 2.0, 2.5, 2.0, 1.0],  # one run in the middle
        np.arange(10.0),  # rising everywhere
        -np.arange(10.0),  # never rising
        np.full(6, 0.5),  # flat
        [0.0, 1.0],  # a single rising step
    ]
    for values in cases:
        times = np.arange(float(len(values)))
        result = positive_variation(times, values)
        expected = reference_rising_runs(times, np.asarray(values, dtype=float))
        assert [iv for iv, _ in result.detail] == [iv for iv, _ in expected]
        assert np.allclose([c for _, c in result.detail], [c for _, c in expected],
                           rtol=0, atol=1e-12)
        assert abs(result.value - sum(c for _, c in result.detail)) < 1e-10


def test_positive_variation_threshold_suppresses_noise():
    times = np.arange(5.0)
    values = [0.5, 0.5 + 1e-15, 0.5, 0.5 + 1e-15, 0.5]
    assert positive_variation(times, values).value == 0.0


def test_positive_variation_needs_grid():
    with pytest.raises(ValueError):
        positive_variation([0.0], [1.0])


# --------------------------------------------------------------------------
# Backflow measure
# --------------------------------------------------------------------------


def pair_trajectory(noise, mu, name1, name2, times):
    return (evolve(noise, mu, times, probe_state(name1)),
            evolve(noise, mu, times, probe_state(name2)))


def test_blp_identical_states_zero():
    times = np.linspace(0, 10, 120)
    rhos = np.broadcast_to(probe_state("phi+"), (len(times), 4, 4))
    result = blp_measure(rhos, rhos, times)
    assert result.value == 0.0


@pytest.mark.parametrize("pair", [("phi+", "phi-"), ("++", "--"), ("00", "11")])
@pytest.mark.parametrize("mu", [0.0, 0.5, 0.9])
def test_blp_zero_under_oun(pair, mu):
    times = np.linspace(0, 60, 150)
    result = blp_measure(*pair_trajectory(OUN, mu, *pair, times), times)
    assert result.value < 1e-10


def test_blp_positive_under_rtn():
    times = np.linspace(0, 100, 400)
    result = blp_measure(*pair_trajectory(RTN, 0.0, "++", "--", times), times)
    assert result.value > 0.1
    # D(t) for this pair equals |p(t)|, so backflow tracks the revivals
    d0 = trace_distance(*pair_trajectory(RTN, 0.0, "++", "--", 3.0))
    assert abs(d0 - abs(noise_p(RTN, 3.0))) < 1e-10


# --------------------------------------------------------------------------
# Concurrence
# --------------------------------------------------------------------------


def brute_concurrence(rho):
    """Independent route: eigenvalues of the non-Hermitian product rho rho~."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ (yy @ rho.conj() @ yy)).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def test_concurrence_bell_and_product():
    assert abs(concurrence(probe_state("phi+")) - 1.0) < 1e-10
    assert concurrence(probe_state("00")) == 0.0


def test_concurrence_werner():
    phi = probe_state("phi+")
    for w in (0.2, 0.5, 0.8):
        rho = w * phi + (1 - w) * np.eye(4) / 4
        expected = max(0.0, (3 * w - 1) / 2)
        assert abs(concurrence(rho) - expected) < 1e-10
        assert abs(concurrence(rho) - brute_concurrence(rho)) < 1e-10
    rho = 0.8 * phi + 0.2 * np.eye(4) / 4
    assert abs(concurrence(rho) - 0.7) < 1e-10


def test_concurrence_matches_bruteforce_on_random_states(rng):
    for _ in range(10):
        rho = random_density(4, rng)
        assert abs(concurrence(rho) - brute_concurrence(rho)) < 1e-9


def test_concurrence_local_unitary_invariant(rng):
    probes = random_bell_probes(4, seed=7)
    for rho in probes:
        assert abs(concurrence(rho) - 1.0) < 1e-10
    for _ in range(5):
        rho = random_density(4, rng)
        c0 = concurrence(rho)
        rotated = random_bell_probes(1, seed=int(rng.integers(1000)))[0]
        # reuse the rotation by conjugating rho with the same construction
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u1 = q * (np.diag(r) / np.abs(np.diag(r)))
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u2 = q * (np.diag(r) / np.abs(np.diag(r)))
        u = np.kron(u1, u2)
        assert abs(concurrence(u @ rho @ u.conj().T) - c0) < 1e-10


def test_concurrence_requires_two_qubits(rng):
    with pytest.raises(ValueError):
        concurrence(random_density(2, rng))


# --------------------------------------------------------------------------
# Concurrence-revival measure
# --------------------------------------------------------------------------


def state_trajectory(noise, mu, name, times):
    return evolve(noise, mu, times, probe_state(name))


def test_nm_concurrence_frozen_bell_state():
    times = np.linspace(0, 50, 150)
    for noise in (RTN, OUN):
        result = nm_concurrence_measure(state_trajectory(noise, 1.0, "phi+", times), times)
        assert result.value == 0.0


def test_nm_concurrence_increases_with_mu_under_nmad():
    times = np.linspace(0, 50, 300)
    values = [nm_concurrence_measure(state_trajectory(NMAD, mu, "phi+", times), times).value
              for mu in (0.0, 0.5, 0.9)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.1


@pytest.mark.parametrize("name", ["phi+", "alpha", "psi+"])
def test_nm_concurrence_zero_under_oun(name):
    times = np.linspace(0, 60, 200)
    for mu in (0.0, 0.9):
        result = nm_concurrence_measure(state_trajectory(OUN, mu, name, times), times)
        assert result.value < 1e-10


def test_measure_halved_grid_stability():
    coarse = np.linspace(0, 60, 300)
    fine = np.linspace(0, 60, 600)
    v1 = nm_concurrence_measure(state_trajectory(RTN, 0.5, "phi+", coarse), coarse).value
    v2 = nm_concurrence_measure(state_trajectory(RTN, 0.5, "phi+", fine), fine).value
    assert abs(v1 - v2) / v2 < 0.02


# --------------------------------------------------------------------------
# Temporal self-similarity
# --------------------------------------------------------------------------


def test_sss_zero_for_time_independent_generator():
    l_const = dephasing_generator(-0.3, -0.6)
    zeta = sss_measure(lambda t: l_const, np.zeros((16, 16)), t_max=20.0,
                       n_points=256, free=True)
    assert zeta < 1e-9
    zeta_fixed = sss_measure(lambda t: l_const, l_const, t_max=20.0,
                             n_points=256)
    assert zeta_fixed == 0.0


def markov_generator(G):
    return dephasing_generator(-G / 2, -G)


def test_sss_increases_with_mu():
    G = 0.6
    params = OunParams(G=G, g=1.0 / 50.0)
    zetas = [sss_measure(lambda t: correlated_oun_generator(t, params, mu),
                         markov_generator(G), t_max=100.0, n_points=300)
             for mu in (0.0, 0.5, 0.9)]
    assert zetas[0] < zetas[1] < zetas[2]


def test_sss_increases_with_correlation_time():
    G = 0.6
    mu = 0.5
    zetas = []
    for g_inv in (10.0, 50.0, 100.0):
        params = OunParams(G=G, g=1.0 / g_inv)
        zetas.append(sss_measure(lambda t: correlated_oun_generator(t, params, mu),
                                 markov_generator(G), t_max=100.0, n_points=300))
    assert zetas[0] < zetas[1] < zetas[2]


def test_sss_free_family_below_fixed():
    # the minimized family can only do better than any fixed member
    G = 0.6
    params = OunParams(G=G, g=0.02)
    sampler = lambda t: correlated_oun_generator(t, params, 0.3)
    free = sss_measure(sampler, markov_generator(G), t_max=100.0, n_points=300,
                       free=True)
    fixed = sss_measure(sampler, markov_generator(G), t_max=100.0, n_points=300)
    assert free <= fixed + 1e-12
    assert free > 0


def nelder_mead_zeta(l_sampler, reference, t_max, n_points):
    """The free measure by Nelder-Mead from four starts (the time-averaged
    and final rates of L(t), zero, the rates of `reference`), the oracle
    for the exact minimiser."""
    times = np.linspace(0.0, t_max, n_points)
    l_stack = np.broadcast_to(l_sampler(times), times.shape + (16, 16))

    def average_distance(rates):
        l_star = dephasing_generator(*rates)
        norms = np.sqrt(((l_stack - l_star) ** 2).sum(axis=(1, 2)))
        return float(np.trapezoid(norms, times) / t_max)

    diag = np.diagonal(l_stack, axis1=1, axis2=2)
    singles = diag[:, list(SINGLE_FLIP_SLOTS)].mean(axis=1)
    doubles = diag[:, list(DOUBLE_FLIP_SLOTS)].mean(axis=1)
    starts = [(singles.mean(), doubles.mean()), (singles[-1], doubles[-1]), (0.0, 0.0),
              (reference[1, 1], reference[5, 5])]
    return min(minimize(average_distance, np.asarray(start, dtype=float),
                        method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}).fun
               for start in starts)


def oun_free_and_oracle(G, g_inverse, mu, t_max, n_points):
    params = OunParams(G=G, g=1.0 / g_inverse)
    sampler = lambda t: correlated_oun_generator(t, params, mu)
    reference = markov_generator(G)
    return (sss_measure(sampler, reference, t_max, n_points, free=True),
            nelder_mead_zeta(sampler, reference, t_max, n_points))


# benchmark-like points (map_measures: t_max 100, 200 points) and CLI defaults
@pytest.mark.parametrize("G, g_inverse, mu, t_max, n_points", [
    (0.601, 8.2, 0.3, 100.0, 200), (0.601, 59.7, 0.6, 100.0, 200),
    (0.601, 105.3, 0.9, 100.0, 200), (0.7, 12.5, 0.9, 100.0, 200),
    (0.6, 10.0, 0.3, 100.0, 400), (0.6, 100.0, 0.6, 100.0, 400),
])
def test_sss_free_matches_nelder_mead(G, g_inverse, mu, t_max, n_points):
    zeta, oracle = oun_free_and_oracle(G, g_inverse, mu, t_max, n_points)
    assert zeta <= oracle + 1e-15
    assert f"{zeta:.12g}" == f"{oracle:.12g}"


@pytest.mark.parametrize("mu", [0.0, 1.0, 1e-4, 0.995])
def test_sss_free_collinear_and_near_collinear(mu):
    # mu = 0 (b = 2a) and mu = 1 (b = 0) put the rates on a line, where the
    # objective is a weighted median; mu near 0 or 1 puts them next to one
    zeta, oracle = oun_free_and_oracle(0.6, 10.0, mu, 100.0, 200)
    assert zeta <= oracle + 1e-15
    assert f"{zeta:.12g}" == f"{oracle:.12g}"


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_sss_free_collinear_minimiser_is_exact(mu):
    # on a line the minimum sits on a data point, a weighted median: no data
    # point has a lower objective, checked by brute force over all of them. A
    # long window crowds the rates at their asymptote, where the certified
    # iteration alone stops about 1.6e-13 above the minimum
    params = OunParams(G=0.6, g=1.0 / 50.0)
    times = np.linspace(0.0, 3000.0, 50)
    a, b, rest = measures._two_rate_points(correlated_oun_generator(times, params, mu))
    assert np.all(rest == 0)
    weights = np.gradient(times) / 3000.0
    weights[[0, -1]] /= 2
    x, y = measures._free_minimiser(a, b, rest, weights)
    assert any(x == a_t and y == b_t for a_t, b_t in zip(a, b))
    objective = lambda x, y: weights @ np.sqrt(8 * (a - x) ** 2 + 4 * (b - y) ** 2)
    best = min(objective(a_t, b_t) for a_t, b_t in zip(a, b))
    assert objective(x, y) <= best * (1 + 1e-15)  # up to the rounding of the sum


def test_sss_free_minimiser_on_a_data_point():
    # the optimum sits on the rates at one grid time, where the objective has
    # a kink; Nelder-Mead stops about 1e-12 above it
    params = OunParams(G=0.666, g=1.0 / 3.99)
    times = np.linspace(0.0, 1.0, 3)
    l_stack = correlated_oun_generator(times, params, 6.24e-4)
    a, b, rest = measures._two_rate_points(l_stack)
    weights = np.array([0.25, 0.5, 0.25])
    x, y = measures._free_minimiser(a, b, rest, weights)
    assert any(x == a_t and y == b_t for a_t, b_t in zip(a, b))
    zeta, oracle = oun_free_and_oracle(0.666, 3.99, 6.24e-4, 1.0, 3)
    assert zeta <= oracle + 1e-15


@pytest.mark.parametrize("G, g_inverse, mu, t_max, n_points", [
    # long windows crowd the late rates on a line; the minimum sits within
    # about 1e-8 of a data point whose kink almost balances the rest
    (1.205078125, 352.0, 0.25, 3921.5, 88), (2.0, 233.0, 0.5, 4084.0, 156),
    # mu near 1 puts hundreds of rates within 1e-9 of one another, where f
    # differs between them only by rounding
    (1.236, 0.2269, 0.99999998, 16.37, 1000), (1.08, 0.262, 0.999999, 24.09, 400),
])
def test_sss_free_certifies_hard_geometry(G, g_inverse, mu, t_max, n_points):
    zeta, oracle = oun_free_and_oracle(G, g_inverse, mu, t_max, n_points)
    assert zeta <= oracle + 1e-15


def generic_generator(times):
    """A non-dephasing L(t): off-slot entries and unequal rates within each
    slot group, so no two-rate generator reaches it (r_t > 0)."""
    rng = np.random.default_rng(5)
    base, drift = rng.normal(size=(16, 16)), rng.normal(size=(16, 16))
    return 0.1 * base + np.sin(times)[:, None, None] * drift


def test_sss_free_generic_generator():
    zeta = sss_measure(generic_generator, np.zeros((16, 16)), 3.0, 50, free=True)
    oracle = nelder_mead_zeta(generic_generator, np.zeros((16, 16)), 3.0, 50)
    assert zeta <= oracle + 1e-15
    assert f"{zeta:.12g}" == f"{oracle:.12g}"


@pytest.mark.parametrize("case", ["oun", "generic"])
def test_sss_free_certificate_is_sound(case, rng):
    # at any point u the certified gap is at least f(u) - min f, and min f is
    # at most the better of the solver's point and the Nelder-Mead oracle
    times = np.linspace(0.0, 3.0, 50)
    if case == "oun":
        params = OunParams(G=0.6, g=0.5)
        sampler = lambda t: correlated_oun_generator(t, params, 0.3)
    else:
        sampler = generic_generator
    l_stack = sampler(times)
    a, b, rest = measures._two_rate_points(l_stack)
    weights = np.gradient(times) / 3.0
    weights[[0, -1]] /= 2
    objective = measures._Objective(np.stack([a, b], axis=1) * measures._METRIC,
                                    rest, weights)
    best = np.array(measures._free_minimiser(a, b, rest, weights)) * measures._METRIC
    f_min = min(objective.value(best),
                nelder_mead_zeta(sampler, np.zeros((16, 16)), 3.0, 50))
    for scale in (1.0, 1e-2, 1e-4, 1e-8):
        for u in best + scale * rng.normal(size=(5, 2)):
            at_u = objective.local(u)
            assert at_u.gap >= at_u.f - f_min - 1e-15 * at_u.f
    for point in objective.points[::7]:
        at_point = objective.local(point)
        assert at_point.gap >= at_point.f - f_min - 1e-15 * at_point.f


def test_two_rate_points_split_the_norm(rng):
    # ||L - L*||_F^2 = r + 8 (a - x)^2 + 4 (b - y)^2 for L* with rates (x, y)
    l_stack = generic_generator(np.linspace(0.0, 3.0, 7))
    a, b, rest = measures._two_rate_points(l_stack)
    assert np.all(rest > 0)
    x, y = rng.normal(size=2)
    full = ((l_stack - dephasing_generator(x, y)) ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(rest + 8 * (a - x) ** 2 + 4 * (b - y) ** 2, full, rtol=1e-13)


@pytest.mark.parametrize("rates", [(-0.3, -0.6), (0.0, 0.0), (1.7, -2.5)])
def test_sss_free_zero_for_constant_dephasing_generator(rates):
    l_const = dephasing_generator(*rates)
    assert sss_measure(lambda t: l_const, np.zeros((16, 16)), 20.0, 256, free=True) == 0.0


def test_sss_free_uncertified_raises(monkeypatch):
    monkeypatch.setattr(measures, "SSS_MAX_ITERATIONS", 1)
    with pytest.raises(NumericError, match="certificate"):
        sss_measure(generic_generator, np.zeros((16, 16)), 3.0, 50, free=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("free", [False, True])
def test_sss_rejects_non_finite_generator(bad, free):
    def sampler(times):
        stack = correlated_oun_generator(times, OUN, 0.5)
        stack[-1, 5, 5] = bad
        return stack
    with pytest.raises(NumericError, match="non-finite"):
        sss_measure(sampler, markov_generator(1.0), 10.0, 20, free=free)


@pytest.mark.parametrize("free", [False, True])
def test_sss_rejects_overflowing_measure(free):
    # every entry of L(t) is finite, but the Frobenius norms overflow to inf
    params = OunParams(G=1e300, g=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="SSS measure is not finite"):
            sss_measure(lambda t: correlated_oun_generator(t, params, 0.5),
                        markov_generator(params.G), 10.0, 20, free=free)


def test_sss_validation():
    with pytest.raises(ValueError):
        sss_measure(lambda t: np.zeros((16, 16)), np.zeros((16, 16)), t_max=0.0,
                    free=True)
    for t_max in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sss_measure(lambda t: np.zeros((16, 16)), np.zeros((16, 16)), t_max=t_max)


# --------------------------------------------------------------------------
# Accessible-state volume
# --------------------------------------------------------------------------


def closed_form_volume(p, mu):
    return p ** 8 * (mu + (1 - mu) * p * p) ** 4


@pytest.mark.parametrize("noise", [RTN, OUN])
def test_volume_closed_form(noise, rng):
    for _ in range(50):
        t = rng.uniform(0, 30)
        mu = rng.uniform(0, 1)
        f = transfer_sampler(noise, mu)(t)
        p = noise_p(noise, t)
        assert abs(np.linalg.det(f) - closed_form_volume(p, mu)) < 1e-10


def test_volume_witness_empty_for_oun():
    times = np.linspace(0, 100, 1000)
    for mu in (0.0, 0.5, 0.9):
        trace = volume_trace(transfer_sampler(OUN, mu)(times), times)
        assert trace.witness_intervals == ()


def test_volume_increases_with_mu_for_oun():
    t = 10.0
    vols = [np.linalg.det(transfer_sampler(OUN, mu)(t)) for mu in (0.0, 0.5, 0.9)]
    assert vols[0] < vols[1] < vols[2]


def test_volume_witness_nonempty_for_rtn_and_grows_with_mu():
    times = np.linspace(0, 100, 1000)
    rises = []
    peaks = []
    for mu in (0.0, 0.5, 0.9):
        trace = volume_trace(transfer_sampler(RTN, mu)(times), times)
        assert len(trace.witness_intervals) > 0
        rises.append(positive_variation(times, trace.series.values).value)
        # height of the tallest revival (local maximum after the first decay)
        vals = trace.series.values
        interior = [vals[i] for i in range(1, len(vals) - 1)
                    if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        peaks.append(max(interior))
    assert rises[0] < rises[1] < rises[2]
    assert peaks[0] < peaks[1] < peaks[2]


def test_volume_trace_empty_grid():
    with pytest.raises(ValueError):
        volume_trace(np.zeros((0, 16, 16)), [])


def test_volume_trace_underflow_prints_as_zero():
    # two entries of opposite sign whose product underflows: det is -0.0
    f = np.diag([-1e-200, 1e-200] + [1.0] * 14)
    assert np.signbit(np.linalg.det(f))
    vols = volume_trace(f[None], [0.0]).series.values
    assert vols[0] == 0
    assert _fmt(vols[0]) == "0"


def test_time_series_validation():
    from corrchan.measures import TimeSeries
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))


def test_probe_state_unknown_name():
    with pytest.raises(ValueError):
        probe_state("ghz")
    with pytest.raises(ValueError):
        probe_state([])  # unhashable: a ValueError, not a TypeError
