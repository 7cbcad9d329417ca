import mpmath as mp
import numpy as np
import pytest

from corrchan.errors import NumericError
from corrchan.noise import (NmadParams, OunParams, RtnParams, nmad_decoherence,
                            nmad_gamma, nmad_p, noise_p, oun_p, rtn_p)

RTN = RtnParams(a=0.8, gamma=0.05)
OUN = OunParams(G=1.0, g=0.05)
NMAD_OSC = NmadParams(gamma0=1.0, g=0.05)
NMAD_OVER = NmadParams(gamma0=1.0, g=4.0)


def bisect(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# --------------------------------------------------------------------------
# Independent oracles: p(t) and G(t) solve simple second-order ODEs. We sum
# their Taylor series from the ODE recurrences in high-precision arithmetic,
# so the oracle never touches the closed forms under test.
# --------------------------------------------------------------------------


def series_from_ode(damping, frequency_sq, t, terms=200):
    """Taylor sum for y'' + damping y' + frequency_sq y = 0, y(0)=1, y'(0)=0."""
    with mp.workdps(60):
        c = [mp.mpf(1), mp.mpf(0)]
        for n in range(terms - 2):
            c.append((-damping * c[n + 1] * (n + 1) - frequency_sq * c[n])
                     / ((n + 1) * (n + 2)))
        return float(mp.fsum(cn * mp.mpf(t) ** n for n, cn in enumerate(c)))


def rtn_oracle(t, params):
    return series_from_ode(2 * params.gamma, 4 * params.a ** 2, t)


def nmad_oracle(t, params):
    return series_from_ode(params.g, params.gamma0 * params.g / 2, t)


def oun_oracle(t, params):
    with mp.workdps(60):
        exponent = mp.quad(lambda s: 1 - mp.e ** (-params.g * s), [0, t])
        return float(mp.e ** (-(params.G / 2) * exponent))


def test_rtn_closed_form_matches_series_oracle(rng):
    for _ in range(7):
        params = RtnParams(a=rng.uniform(0.1, 1.0), gamma=rng.uniform(0.02, 0.5))
        t = rng.uniform(0.0, 8.0)
        assert abs(rtn_p(t, params) - rtn_oracle(t, params)) < 1e-12


def test_oun_closed_form_matches_quadrature_oracle(rng):
    for _ in range(7):
        params = OunParams(G=rng.uniform(0.3, 2.0), g=rng.uniform(0.02, 1.0))
        t = rng.uniform(0.0, 8.0)
        assert abs(oun_p(t, params) - oun_oracle(t, params)) < 1e-12


def test_nmad_closed_form_matches_series_oracle(rng):
    for _ in range(6):
        # mix oscillatory and overdamped regimes
        gamma0 = rng.uniform(0.3, 2.0)
        g = rng.uniform(0.02, 5.0)
        params = NmadParams(gamma0=gamma0, g=g)
        t = rng.uniform(0.0, 8.0)
        assert abs(nmad_decoherence(t, params) - nmad_oracle(t, params)) < 1e-12


# --------------------------------------------------------------------------
# RTN
# --------------------------------------------------------------------------


def test_rtn_initial_value():
    assert rtn_p(0.0, RTN) == 1.0
    assert rtn_p(0.0, RtnParams(a=0.01, gamma=1.0)) == 1.0


def test_rtn_first_zero_crossing_exists():
    assert RTN.is_nonmarkovian_regime  # 2a/gamma = 32
    ts = np.linspace(0, 100, 2000)
    vals = [rtn_p(t, RTN) for t in ts]
    sign_changes = [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                    if vals[i] * vals[i + 1] < 0]
    assert sign_changes
    lo, hi = sign_changes[0]
    root = bisect(lambda t: rtn_p(t, RTN), lo, hi)
    assert 0 < root < 100
    assert abs(rtn_p(root, RTN)) < 1e-10


def test_rtn_envelope_bound():
    w = abs(RTN.omega)
    for t in np.linspace(0, 100, 500):
        assert abs(rtn_p(t, RTN)) <= np.exp(-RTN.gamma * t) * (1 + 1 / w) + 1e-12


def test_rtn_range():
    for t in np.linspace(0, 50, 300):
        assert -1 <= rtn_p(t, RTN) <= 1


def test_rtn_degenerate_omega_limit():
    # 2a/gamma = 1 exactly: removable singularity handled by the limit form
    params = RtnParams(a=0.025, gamma=0.05)
    for t in (0.0, 1.0, 10.0, 40.0):
        assert abs(rtn_p(t, params)
                   - np.exp(-params.gamma * t) * (1 + params.gamma * t)) < 1e-12
    # continuity against a nearby non-degenerate parameter point
    near = RtnParams(a=0.025 * (1 + 1e-9), gamma=0.05)
    assert abs(rtn_p(5.0, near) - rtn_p(5.0, params)) < 1e-6


def test_rtn_markovian_regime_is_monotone_signal():
    params = RtnParams(a=0.1, gamma=1.0)  # 2a/gamma = 0.2 < 1
    assert not params.is_nonmarkovian_regime
    ts = np.linspace(0, 20, 400)
    vals = np.array([rtn_p(t, params) for t in ts])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 1e-12)


# --------------------------------------------------------------------------
# OUN
# --------------------------------------------------------------------------


def test_oun_initial_value_and_range():
    assert oun_p(0.0, OUN) == 1.0
    for t in np.linspace(0, 80, 200):
        assert 0 < oun_p(t, OUN) <= 1


def test_oun_markov_limit():
    params = OunParams(G=1.0, g=1e6)
    for t in (0.5, 1.0, 3.0):
        assert abs(oun_p(t, params) - np.exp(-t / 2)) < 1e-5


def test_oun_direct_evaluation():
    expected = np.exp(-0.5 * (10 + 20 * (np.exp(-0.5) - 1)))
    assert abs(oun_p(10.0, OunParams(G=1.0, g=0.05)) - expected) < 1e-15


def test_oun_strictly_decreasing():
    ts = np.linspace(0, 100, 500)
    vals = np.array([oun_p(t, OUN) for t in ts])
    assert np.all(np.diff(vals) < 0)


# --------------------------------------------------------------------------
# NMAD
# --------------------------------------------------------------------------


def test_nmad_decoherence_initial_value():
    assert nmad_decoherence(0.0, NMAD_OSC) == 1.0
    assert nmad_decoherence(0.0, NMAD_OVER) == 1.0


def first_decoherence_zero(params):
    ts = np.linspace(0, 60, 2000)
    vals = [nmad_decoherence(t, params) for t in ts]
    for i in range(len(ts) - 1):
        if vals[i] * vals[i + 1] < 0:
            return bisect(lambda t: nmad_decoherence(t, params), ts[i], ts[i + 1])
    raise AssertionError("no zero crossing found")


def test_nmad_oscillatory_zero_crossing():
    root = first_decoherence_zero(NMAD_OSC)
    assert abs(nmad_decoherence(root, NMAD_OSC)) < 1e-10
    assert abs(nmad_p(root, NMAD_OSC) - 1.0) < 1e-9


def test_nmad_overdamped_positive_monotone():
    assert NMAD_OVER.g >= 2 * NMAD_OVER.gamma0
    ts = np.linspace(0, 40, 400)
    gs = np.array([nmad_decoherence(t, NMAD_OVER) for t in ts])
    assert np.all(gs > 0)
    # strictly increasing until p saturates at 1 within machine precision
    ts_early = np.linspace(0, 8, 200)
    ps = np.array([nmad_p(t, NMAD_OVER) for t in ts_early])
    assert np.all(np.diff(ps) > 0)
    assert nmad_p(200.0, NMAD_OVER) > 1 - 1e-8


def test_nmad_p_identity():
    for t in np.linspace(0, 30, 100):
        g = nmad_decoherence(t, NMAD_OSC)
        assert abs(nmad_p(t, NMAD_OSC) - (1 - g * g)) < 1e-12


def test_nmad_p_range_and_initial():
    assert nmad_p(0.0, NMAD_OSC) == 0.0
    for t in np.linspace(0, 60, 300):
        assert 0 <= nmad_p(t, NMAD_OSC) <= 1


def test_nmad_gamma_zero_at_origin():
    assert nmad_gamma(0.0, NMAD_OSC) == 0.0
    assert nmad_gamma(0.0, NMAD_OVER) == 0.0


def test_nmad_gamma_nonnegative_when_overdamped():
    # grid kept within |G| > 1e-9, beyond which the rate is singular by contract
    for t in np.linspace(0, 8, 200):
        assert nmad_gamma(t, NMAD_OVER) >= 0


def test_nmad_gamma_negative_on_revival_side():
    root = first_decoherence_zero(NMAD_OSC)
    assert nmad_gamma(root + 0.5, NMAD_OSC) < 0


def test_nmad_gamma_singular_at_zero_crossing():
    root = first_decoherence_zero(NMAD_OSC)
    with pytest.raises(NumericError):
        nmad_gamma(root, NMAD_OSC)


def test_nmad_degenerate_l_limit():
    params = NmadParams(gamma0=1.0, g=2.0)  # l = 0 exactly
    for t in (0.0, 0.5, 3.0):
        assert abs(nmad_decoherence(t, params)
                   - np.exp(-t) * (1 + t)) < 1e-12
    near = NmadParams(gamma0=1.0, g=2.0 + 1e-9)
    assert abs(nmad_gamma(1.0, near) - nmad_gamma(1.0, params)) < 1e-6


# --------------------------------------------------------------------------
# Common validation
# --------------------------------------------------------------------------


@pytest.mark.parametrize("factory", [
    lambda: RtnParams(a=0.0, gamma=1.0),
    lambda: RtnParams(a=1.0, gamma=-0.1),
    lambda: OunParams(G=0.0, g=1.0),
    lambda: OunParams(G=1.0, g=0.0),
    lambda: NmadParams(gamma0=-1.0, g=1.0),
    lambda: RtnParams(a=np.inf, gamma=1.0),
    lambda: OunParams(G=np.inf, g=1.0),
    lambda: OunParams(G=1.0, g=np.nan),
    lambda: NmadParams(gamma0=1.0, g=np.inf),
])
def test_parameters_must_be_positive(factory):
    with pytest.raises(ValueError):
        factory()


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        rtn_p(-1.0, RTN)
    with pytest.raises(ValueError):
        oun_p(-0.1, OUN)
    with pytest.raises(ValueError):
        nmad_p(-2.0, NMAD_OSC)


def test_noise_p_dispatch():
    assert noise_p(RTN, 1.0) == rtn_p(1.0, RTN)
    assert noise_p(OUN, 1.0) == oun_p(1.0, OUN)
    assert noise_p(NMAD_OSC, 1.0) == nmad_p(1.0, NMAD_OSC)
    with pytest.raises(TypeError):
        noise_p(object(), 1.0)


# --------------------------------------------------------------------------
# Time grids, overdamped large-t evaluation and non-finite values
# --------------------------------------------------------------------------


@pytest.mark.parametrize("params", [RTN, RtnParams(a=0.1, gamma=1.0), OUN, NMAD_OSC, NMAD_OVER])
def test_time_grid_matches_single_times_exactly(params):
    ts = np.linspace(0, 80, 161)
    grid = noise_p(params, ts)
    assert grid.shape == ts.shape
    assert np.array_equal(grid, [noise_p(params, t) for t in ts])
    assert isinstance(noise_p(params, 2.0), float)


@pytest.mark.parametrize("params", [OUN, RtnParams(a=0.15, gamma=0.63), NMAD_OSC])
def test_values_stay_in_range_near_zero(params):
    # near t = 0, round-off in the closed forms of OUN and overdamped RTN
    # carries p a few ulps past 1, a value the channels and qec reject
    ts = np.geomspace(1e-12, 1e-2, 400)
    p = noise_p(params, ts)
    lo = 0.0 if isinstance(params, NmadParams) else -1.0
    assert np.all((lo <= p) & (p <= 1))
    assert all(lo <= noise_p(params, t) <= 1 for t in ts)


def overdamped_oracle(rate, y, ratio, t):
    """exp(-rate t)(cosh(y t) + ratio sinh(y t)) in 60-digit arithmetic."""
    with mp.workdps(60):
        t = mp.mpf(t)
        return float(mp.e ** (-rate * t) * (mp.cosh(y * t) + ratio * mp.sinh(y * t)))


def test_overdamped_rtn_at_large_t_matches_mpmath():
    params = RtnParams(a=0.01, gamma=5.0)
    assert not params.is_nonmarkovian_regime
    w = abs(params.omega)
    for t in (0.0, 1.0, 50.0, 1000.0, 5000.0):
        expected = overdamped_oracle(params.gamma, w * params.gamma, 1 / w, t)
        assert abs(rtn_p(t, params) - expected) <= 1e-11 * expected
    assert abs(rtn_p(1000.0, params) - 0.9608) < 1e-4
    near_degenerate = RtnParams(a=0.025 * (1 - 1e-9), gamma=0.05)
    assert abs(rtn_p(5.0, near_degenerate) - np.exp(-0.25) * 1.25) < 1e-8


def test_overdamped_nmad_at_large_t_matches_mpmath():
    params = NmadParams(gamma0=1.0, g=5.0)
    l = np.sqrt(params.g ** 2 - 2 * params.gamma0 * params.g)
    for t in (0.0, 2.0, 30.0, 500.0, 1000.0):
        expected = overdamped_oracle(params.g / 2, l / 2, params.g / l, t)
        assert abs(nmad_decoherence(t, params) - expected) <= 1e-11 * expected
    assert nmad_p(500.0, params) == 1.0
    assert nmad_p(1000.0, params) == 1.0
    assert np.all(nmad_p(np.array([500.0, 1000.0]), params) == 1.0)


def test_overdamped_nmad_gamma_at_large_t():
    # gamma0 << g: G(t) stays above the singularity cut-off while cosh(lt/2)
    # would overflow; the rate tends to 2 gamma0 g / (l + g)
    params = NmadParams(gamma0=0.01, g=100.0)
    l = np.sqrt(params.g ** 2 - 2 * params.gamma0 * params.g)
    rate = nmad_gamma(1000.0, params)
    assert abs(rate - 2 * params.gamma0 * params.g / (l + params.g)) < 1e-12


def test_non_finite_noise_values_raise_numeric_error():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            rtn_p(np.inf, RTN)
        with pytest.raises(NumericError):
            nmad_p(np.inf, NMAD_OSC)  # G(t) is nan; p must not be clamped to 0
        with pytest.raises(NumericError):
            noise_p(NMAD_OSC, np.array([1.0, np.inf]))


def test_overflowing_squares_raise_numeric_error():
    # (2a/gamma)^2 and g^2 overflow; as Python float powers they raised
    # OverflowError, now they are inf and the noise value is not finite
    times = np.linspace(0.0, 1.0, 3)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            rtn_p(times, RtnParams(a=1e160, gamma=1e-10))
        with pytest.raises(NumericError):
            nmad_p(times, NmadParams(gamma0=1.0, g=1e160))
        with pytest.raises(NumericError):
            nmad_gamma(1.0, NmadParams(gamma0=1.0, g=1e160))


def test_nan_time_rejected():
    with pytest.raises(ValueError):
        rtn_p(np.nan, RTN)
    with pytest.raises(ValueError):
        oun_p(np.array([0.0, np.nan]), OUN)
    with pytest.raises(ValueError):
        nmad_p(np.array([1.0, -1.0]), NMAD_OSC)
