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
