import numpy as np
import pytest
from scipy.optimize import minimize

from corrchan import measures
from corrchan.channels import evolve
from corrchan.errors import NumericError, ValidationError
from corrchan.map_algebra import (DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS,
                                  accessible_volume, correlated_oun_rates)
from corrchan.measures import (blp_measure, concurrence, nm_concurrence_measure,
                               positive_variation, probe_state,
                               random_bell_probes, sss_measure, trace_distance)
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import (apply, correlated_dephasing_channel,
                             correlated_nmad_channel, correlated_oun_generator,
                             dephasing_generator, transfer_sampler)

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


def test_two_by_two_states_take_the_eigvalsh_route(monkeypatch):
    """A 2 x 2 matrix is never X-shaped, even when diagonal: the trace norm
    of a difference is an eigensolve, one call for the whole stack."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(m):
        calls.append(m.shape)
        return eigvalsh(m)

    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert not measures._x_shaped(np.stack([zero, one])).any()
    assert trace_distance(zero, one) == 1.0
    assert trace_distance(np.stack([zero, zero]), np.stack([one, zero])).tolist() == [1.0, 0.0]
    # validation solves each input too: count the kernel's calls alone
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert measures._trace_distance(zero - one) == 1.0
    assert measures._trace_distance(np.stack([zero - one, zero - zero])).tolist() == [1.0, 0.0]
    assert calls == [(1, 2, 2), (2, 2, 2)]


def test_trace_distance_dim_mismatch(rng):
    with pytest.raises(ValueError):
        trace_distance(random_density(2, rng), random_density(4, rng))


# --------------------------------------------------------------------------
# Positive variation engine
# --------------------------------------------------------------------------


_PHI_PLUS, _PHI_MINUS = probe_state("phi+"), probe_state("phi-")

# the public measures, each on a trajectory of states; the other trajectory of
# a pair is valid, second to `trace_distance` and first to `blp_measure`
_BOUNDARY_MEASURES = {
    "trace_distance": lambda states: trace_distance(np.broadcast_to(_PHI_MINUS, states.shape),
                                                    states),
    "concurrence": concurrence,
    "blp_measure": lambda states: blp_measure(states, np.broadcast_to(_PHI_MINUS, states.shape)),
    "nm_concurrence_measure": nm_concurrence_measure,
}


@pytest.mark.parametrize("measure", _BOUNDARY_MEASURES)
@pytest.mark.parametrize("states, invariant, message", [
    (np.stack([_PHI_PLUS, _PHI_PLUS + np.diag([np.nan, 0, 0, 0])]), "finiteness",
     "NaN or infinite entries"),
    (np.stack([_PHI_PLUS, _PHI_PLUS + np.triu(np.full((4, 4), 1e-3), 1)]), "hermiticity",
     "hermiticity violated"),
    (np.stack([_PHI_PLUS, 2 * _PHI_PLUS]), "unit trace", r"unit trace violated \(residual 1\."),
    (np.stack([_PHI_PLUS, np.diag([0.501, 0.5, 0.0, -0.001])]), "positivity",
     r"positivity violated \(residual -1\.000e-03\)"),
    (np.zeros((0, 4, 4)), "nonemptiness", r"at least one matrix, got shape \(0, 4, 4\)"),
], ids=["NaN entry", "non-Hermitian", "trace 2", "eigenvalue -1e-3", "empty stack"])
def test_measures_reject_invalid_states(measure, states, invariant, message):
    """The public measures are where a state from outside the package is
    validated: each rejects each violated invariant by name."""
    with pytest.raises(ValidationError, match=message) as info:
        _BOUNDARY_MEASURES[measure](states)
    assert info.value.invariant == invariant


def test_positive_variation_simple():
    # one rising run, 0.5 -> 0.8 -> 0.9
    assert abs(positive_variation([1.0, 0.5, 0.8, 0.9, 0.2]) - 0.4) < 1e-12


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
        expected = reference_rising_runs(times, np.asarray(values, dtype=float))
        assert abs(positive_variation(values) - sum(c for _, c in expected)) < 1e-10


def test_positive_variation_of_a_stack_is_each_series_alone(rng):
    """A (k, n) or (j, k, n) stack, contiguous or not, gives the array of
    the values of its series, each with the bits of the 1-d call."""
    series = rng.normal(size=(6, 301)).cumsum(axis=-1)
    series[1] = 0.5  # flat
    series[2, ::2] += 1e-13  # rises at the threshold
    alone = [positive_variation(row) for row in series]
    assert all(type(value) is float for value in alone)
    for stack, values in ((series, alone), (series.reshape(2, 3, 301), alone),
                          (np.asfortranarray(series), alone), (series[::-2], alone[::-2])):
        got = positive_variation(stack)
        assert type(got) is np.ndarray and got.shape == stack.shape[:-1]
        assert got.ravel().tolist() == values


def test_positive_variation_threshold_suppresses_noise():
    values = [0.5, 0.5 + 1e-15, 0.5, 0.5 + 1e-15, 0.5]
    assert positive_variation(values) == 0.0


def test_positive_variation_needs_grid():
    with pytest.raises(ValueError):
        positive_variation([1.0])


@pytest.mark.parametrize("values, message", [
    ([0.0, np.nan, 1.0], "finite"),
    ([0.0, np.inf, 1.0], "finite"),
    ([0.0, -np.inf], "finite"),
    (np.zeros((3, 1)), "series of at least two points"),
    (0.5, "series of at least two points"),
])
def test_positive_variation_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        positive_variation(values)


# --------------------------------------------------------------------------
# Backflow measure
# --------------------------------------------------------------------------


def pair_trajectory(noise, mu, name1, name2, times):
    return (evolve(noise, mu, times, probe_state(name1)),
            evolve(noise, mu, times, probe_state(name2)))


def test_blp_identical_states_zero():
    times = np.linspace(0, 10, 120)
    rhos = np.broadcast_to(probe_state("phi+"), (len(times), 4, 4))
    assert blp_measure(rhos, rhos) == 0.0


@pytest.mark.parametrize("pair", [("phi+", "phi-"), ("++", "--"), ("00", "11")])
@pytest.mark.parametrize("mu", [0.0, 0.5, 0.9])
def test_blp_zero_under_oun(pair, mu):
    times = np.linspace(0, 60, 150)
    assert blp_measure(*pair_trajectory(OUN, mu, *pair, times)) < 1e-10


def test_blp_positive_under_rtn():
    times = np.linspace(0, 100, 400)
    assert blp_measure(*pair_trajectory(RTN, 0.0, "++", "--", times)) > 0.1
    # D(t) for this pair equals |p(t)|, so backflow tracks the revivals
    d0 = trace_distance(*pair_trajectory(RTN, 0.0, "++", "--", 3.0))
    assert abs(d0 - abs(noise_p(RTN, 3.0))) < 1e-10


def test_blp_of_stacked_pairs_matches_each_pair():
    """A (k, n, 4, 4) stack of pairs gives the k per-pair measures, in order
    and bit for bit."""
    times = np.linspace(0, 100, 300)
    names = ["++", "--", "phi+", "phi-", "00", "11"]
    states = evolve(RTN, 0.3, times, np.stack([probe_state(n) for n in names]))
    values = blp_measure(states[0::2], states[1::2])
    alone = [blp_measure(states[k], states[k + 1]) for k in range(0, 6, 2)]
    assert type(values) is np.ndarray and values.tolist() == alone
    assert all(type(v) is float for v in alone) and values[0] > 0.1


# --------------------------------------------------------------------------
# Concurrence
# --------------------------------------------------------------------------


def brute_concurrence(rho):
    """Independent route: eigenvalues of the non-Hermitian product rho rho~."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ (yy @ rho.conj() @ yy)).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


@pytest.mark.parametrize("name, amplitudes, norm", [
    ("phi+", [1, 0, 0, 1], np.sqrt(2)), ("phi-", [1, 0, 0, -1], np.sqrt(2)),
    ("psi+", [0, 1, 1, 0], np.sqrt(2)), ("psi-", [0, 1, -1, 0], np.sqrt(2)),
    ("alpha", [1, 1, 1, -1], 2), ("00", [1, 0, 0, 0], 1), ("11", [0, 0, 0, 1], 1),
    ("++", [1, 1, 1, 1], 2), ("--", [1, -1, -1, 1], 2),
])
def test_probe_state_bits_of_the_complex_ket_divided_by_its_norm(name, amplitudes, norm):
    # the ket table's pure-Python amplitudes give the bits, signed zeros
    # included, of the complex ket divided by its norm
    ket = np.array(amplitudes, dtype=complex) / norm
    expected, rho = np.outer(ket, ket.conj()), probe_state(name)
    assert np.array_equal(rho, expected)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(rho, part)), np.signbit(getattr(expected, part)))


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


def test_concurrence_of_population_rounded_below_zero():
    """A valid X state may hold a population just below 0 (validation allows
    eigenvalues down to -1e-9); its product with another reads 0, not NaN."""
    rho = np.diag([0.5, -1e-10, 1e-10, 0.5]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.5
    assert concurrence(rho) == 1.0


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
        assert nm_concurrence_measure(state_trajectory(noise, 1.0, "phi+", times)) == 0.0


def test_nm_concurrence_increases_with_mu_under_nmad():
    times = np.linspace(0, 50, 300)
    values = [nm_concurrence_measure(state_trajectory(NMAD, mu, "phi+", times))
              for mu in (0.0, 0.5, 0.9)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.1


def test_nm_concurrence_of_a_stack_is_each_trajectory_alone():
    times = np.linspace(0, 50, 300)
    probes = np.stack([probe_state(name) for name in ("phi+", "psi+", "alpha", "++")])
    states = evolve(NMAD, 0.5, times, probes)
    values = nm_concurrence_measure(states)
    assert type(values) is np.ndarray
    assert values.tolist() == [nm_concurrence_measure(trajectory) for trajectory in states]
    assert values[0] > 0.1


@pytest.mark.parametrize("name", ["phi+", "alpha", "psi+"])
def test_nm_concurrence_zero_under_oun(name):
    times = np.linspace(0, 60, 200)
    for mu in (0.0, 0.9):
        assert nm_concurrence_measure(state_trajectory(OUN, mu, name, times)) < 1e-10


def test_measure_halved_grid_stability():
    coarse = np.linspace(0, 60, 300)
    fine = np.linspace(0, 60, 600)
    v1 = nm_concurrence_measure(state_trajectory(RTN, 0.5, "phi+", coarse))
    v2 = nm_concurrence_measure(state_trajectory(RTN, 0.5, "phi+", fine))
    assert abs(v1 - v2) / v2 < 0.02


# --------------------------------------------------------------------------
# Temporal self-similarity
# --------------------------------------------------------------------------


def test_sss_zero_for_time_independent_generator():
    times = np.linspace(0.0, 20.0, 256)
    zeta = sss_measure(times, (-0.3, -0.6), None)
    assert zeta < 1e-9
    assert sss_measure(times, (-0.3, -0.6), (-0.3, -0.6)) == 0.0


def markov_generator(G):
    return dephasing_generator(-G / 2, -G)


def oun_sss(G, g_inverse, mu, t_max, n_points, free=False):
    """zeta of correlated OUN against the memoryless-limit rates (-G/2, -G)."""
    times = np.linspace(0.0, t_max, n_points)
    rates = correlated_oun_rates(times, OunParams(G=G, g=1.0 / g_inverse), mu)
    return sss_measure(times, rates, None if free else (-G / 2, -G))


def test_sss_increases_with_mu():
    zetas = [oun_sss(0.6, 50.0, mu, 100.0, 300) for mu in (0.0, 0.5, 0.9)]
    assert zetas[0] < zetas[1] < zetas[2]


def test_sss_increases_with_correlation_time():
    zetas = [oun_sss(0.6, g_inv, 0.5, 100.0, 300) for g_inv in (10.0, 50.0, 100.0)]
    assert zetas[0] < zetas[1] < zetas[2]


def test_sss_free_family_below_fixed():
    # the minimized family can only do better than any fixed member
    free = oun_sss(0.6, 50.0, 0.3, 100.0, 300, free=True)
    fixed = oun_sss(0.6, 50.0, 0.3, 100.0, 300)
    assert free <= fixed + 1e-12
    assert free > 0


def nelder_mead_zeta(l_sampler, reference, t_max, n_points):
    """The free measure by Nelder-Mead from four starts (the time-averaged
    and final rates of L(t), zero, the rates of `reference`), the oracle
    for the exact minimiser. It works on the 16 x 16 generators, not on
    the two-rate norm of `sss_measure`."""
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
    return (oun_sss(G, g_inverse, mu, t_max, n_points, free=True),
            nelder_mead_zeta(lambda t: correlated_oun_generator(t, params, mu),
                             markov_generator(G), t_max, n_points))


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
    a, b = correlated_oun_rates(times, params, mu)
    weights = np.gradient(times) / 3000.0
    weights[[0, -1]] /= 2
    x, y = measures._free_minimiser(a, b, weights)
    assert any(x == a_t and y == b_t for a_t, b_t in zip(a, b))
    objective = lambda x, y: weights @ np.sqrt(8 * (a - x) ** 2 + 4 * (b - y) ** 2)
    best = min(objective(a_t, b_t) for a_t, b_t in zip(a, b))
    assert objective(x, y) <= best * (1 + 1e-15)  # up to the rounding of the sum


def test_sss_free_minimiser_on_a_data_point():
    # the optimum sits on the rates at one grid time, where the objective has
    # a kink; Nelder-Mead stops about 1e-12 above it
    params = OunParams(G=0.666, g=1.0 / 3.99)
    a, b = correlated_oun_rates(np.linspace(0.0, 1.0, 3), params, 6.24e-4)
    x, y = measures._free_minimiser(a, b, np.array([0.25, 0.5, 0.25]))
    assert any(x == a_t and y == b_t for a_t, b_t in zip(a, b))
    zeta, oracle = oun_free_and_oracle(0.666, 3.99, 6.24e-4, 1.0, 3)
    assert zeta <= oracle + 1e-15


# long windows crowd the late rates on a line; the minimum sits within
# about 1e-8 of a data point whose kink almost balances the rest
LONG_WINDOWS = [(1.205078125, 352.0, 0.25, 3921.5, 88), (2.0, 233.0, 0.5, 4084.0, 156)]


@pytest.mark.parametrize("G, g_inverse, mu, t_max, n_points", LONG_WINDOWS + [
    # mu near 1 puts hundreds of rates within 1e-9 of one another, where f
    # differs between them only by rounding
    (1.236, 0.2269, 0.99999998, 16.37, 1000), (1.08, 0.262, 0.999999, 24.09, 400),
])
def test_sss_free_certifies_hard_geometry(G, g_inverse, mu, t_max, n_points):
    zeta, oracle = oun_free_and_oracle(G, g_inverse, mu, t_max, n_points)
    assert zeta <= oracle + 1e-15


CERTIFICATE_CASES = {"oun": (0.6, 2.0, 0.3, 3.0, 50), "oun_long_window": LONG_WINDOWS[0]}


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_sss_free_certificate_is_sound(case, rng):
    # at any point u the certified gap is at least f(u) - min f, and min f is
    # at most the better of the solver's point and the Nelder-Mead oracle
    G, g_inverse, mu, t_max, n_points = CERTIFICATE_CASES[case]
    params = OunParams(G=G, g=1.0 / g_inverse)
    times = np.linspace(0.0, t_max, n_points)
    a, b = correlated_oun_rates(times, params, mu)
    weights = np.gradient(times) / t_max
    weights[[0, -1]] /= 2
    points = np.stack([a, b], axis=1) * measures._METRIC
    best = np.array(measures._free_minimiser(a, b, weights)) * measures._METRIC

    def value_and_gap(u):
        local = measures._local(u[None], points[None], weights)
        return local[0][0], measures._gap(local, 0, weights)

    f_min = min(measures._objective(best[None], points[None], weights)[0],
                nelder_mead_zeta(lambda t: correlated_oun_generator(t, params, mu),
                                 np.zeros((16, 16)), t_max, n_points))
    for scale in (1.0, 1e-2, 1e-4, 1e-8):
        for u in best + scale * rng.normal(size=(5, 2)):
            f_u, gap = value_and_gap(u)
            assert gap >= f_u - f_min - 1e-15 * f_u
    for point in points[::7]:
        f_point, gap = value_and_gap(point)
        assert gap >= f_point - f_min - 1e-15 * f_point


@pytest.mark.parametrize("rates", [(-0.3, -0.6), (0.0, 0.0), (1.7, -2.5)])
def test_sss_free_zero_for_constant_dephasing_generator(rates):
    assert sss_measure(np.linspace(0.0, 20.0, 256), rates, None) == 0.0


def test_sss_free_uncertified_raises(monkeypatch):
    monkeypatch.setattr(measures, "SSS_MAX_ITERATIONS", 1)
    with pytest.raises(NumericError, match="certificate"):
        oun_sss(0.6, 2.0, 0.5, 3.0, 50, free=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("free", [False, True])
def test_sss_rejects_non_finite_generator(bad, free):
    times = np.linspace(0.0, 10.0, 20)
    single, double = correlated_oun_rates(times, OUN, 0.5)
    double[-1] = bad
    with pytest.raises(NumericError, match="double-flip rate of L\\(t\\) has a non-finite"):
        sss_measure(times, (single, double), None if free else (-0.5, -1.0))


@pytest.mark.parametrize("free", [False, True])
def test_sss_rejects_overflowing_measure(free):
    # every rate of L(t) is finite, but the Frobenius norms overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="SSS measure is not finite"):
            oun_sss(1e300, 10.0, 0.5, 10.0, 20, free=free)


def test_sss_validation():
    for times in ([0.0], [0.0, 0.0], [0.0, 2.0, 1.0], [0.0, np.nan], [0.0, np.inf],
                  [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="strictly increasing grid"):
            sss_measure(times, (0.0, 0.0), None)


@pytest.mark.parametrize("reference", [(-0.5, -1.0), None], ids=["markov", "free"])
def test_sss_rejects_a_subnormal_grid_step(reference):
    """A trapezoid weight of a step below the smallest normal float keeps
    fewer than 53 bits (on 400 points up to 1e-320, `sss --g-inverse 10
    --mu 0` printed zeta 8.7 % high). A step of exactly the smallest normal
    float is accepted."""
    tiny = np.finfo(float).tiny
    for times in (np.linspace(0.0, 1e-320, 400), np.linspace(0.0, 1e-315, 400),
                  np.linspace(0.0, 1e-310, 400), [0.0, np.nextafter(tiny, 0.0), 1.0]):
        rates = (np.linspace(0.0, 1.0, len(times)), np.linspace(1.0, 3.0, len(times)))
        with pytest.raises(ValueError, match="below the smallest normal float"):
            sss_measure(times, rates, reference)
    times = np.array([0.0, tiny, 3 * tiny])
    assert sss_measure(times, (times / tiny, 2 * times / tiny), reference) > 0


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
        assert positive_variation(accessible_volume(OUN, mu, times)) == 0


def test_volume_increases_with_mu_for_oun():
    t = 10.0
    vols = [accessible_volume(OUN, mu, t) for mu in (0.0, 0.5, 0.9)]
    assert vols[0] < vols[1] < vols[2]


def test_volume_witness_nonempty_for_rtn_and_grows_with_mu():
    times = np.linspace(0, 100, 1000)
    rises = []
    peaks = []
    for mu in (0.0, 0.5, 0.9):
        vals = accessible_volume(RTN, mu, times)
        witness = positive_variation(vals)
        assert witness > 0
        rises.append(witness)
        # height of the tallest revival (local maximum after the first decay)
        interior = [vals[i] for i in range(1, len(vals) - 1)
                    if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        peaks.append(max(interior))
    assert rises[0] < rises[1] < rises[2]
    assert peaks[0] < peaks[1] < peaks[2]


def test_probe_state_unknown_name():
    with pytest.raises(ValueError):
        probe_state("ghz")
    with pytest.raises(ValueError):
        probe_state([])  # unhashable: a ValueError, not a TypeError
