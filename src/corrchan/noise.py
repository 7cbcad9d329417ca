"""Time-domain noise functions for the three noise families.

RTN and OUN are dephasing noises entering the channels through p(t) in
[-1, 1]; NMAD is amplitude damping, described by its decoherence function
G(t), the damping probability p(t) = 1 - G(t)^2 and the time-dependent
decay rate gamma(t).

Every noise function here takes either a single time, returning a float,
or an array of times, returning an array of the same shape, through the
same numpy expression (a single time is a 0-d array). A value that is not
finite raises NumericError rather than reaching a channel; round-off past
its range near t = 0 is clipped.

RTN's p(t) (r = gamma, nu0 = 2a) and NMAD's G(t) (r = g/2, nu0^2 = gamma0 g/2)
both solve y'' + 2r y' + nu0^2 y = 0 from y(0) = 1, y'(0) = 0: one real
kernel gives the factors of both, under-, over- or critically damped, and
of NMAD's gamma(t), with no regime code of its own. The parameter
classes `RtnParams`, `OunParams` and `NmadParams` live in `params`, which
checks them without numpy; 2 (gamma0 g) is doubled after the product, so
that it overflows only where the product does.
"""

import numpy as np

from .errors import NumericError
from .params import NmadParams, NoiseParams, OunParams, RtnParams, _regime

DECOHERENCE_ZERO_TOL = 1e-9


def _check_time(t):
    """A time or a time grid as a float array (0-d for a single time); a
    negative or NaN time raises ValueError."""
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():
        raise ValueError(f"time must be nonnegative, got {t}")
    return t


def _finite(val, what: str, lo: float = -np.inf, hi: float = np.inf):
    """`val` clipped to [lo, hi], as a float when it is a single value;
    NumericError if any entry is NaN or infinite. Only round-off near t = 0
    carries a noise value past its exact range, by a few ulps."""
    if not np.isfinite(val).all():
        raise NumericError(f"{what} is not finite")
    val = np.minimum(np.maximum(val, lo), hi)
    return val if np.ndim(val) else float(val)


def _damped(t, rate, phase, ratio, slow, regime: str):
    """The factors (envelope, C, ratio S) of y = envelope (C + ratio S), with
    rate = r t, phase = W t and ratio = r / W, W = sqrt|nu0^2 - r^2|: exp(-rate),
    cos(phase) and ratio sin(phase) under damped; over damped, cosh and sinh
    as the decaying exponentials (1/2) exp(-t slow), 1 + exp(-2 phase) and
    -ratio expm1(-2 phase), which do not overflow at large t and keep ratio
    sinh accurate at small phase, with slow = r - W = nu0^2 / (r + W) given
    free of cancellation; exp(-rate), 1 and rate, the limit of ratio S,
    critically damped."""
    if regime == "critical":
        return np.exp(-rate), 1, rate
    if regime == "over":
        return 0.5 * np.exp(-(t * slow)), 1 + np.exp(-2 * phase), -(ratio * np.expm1(-2 * phase))
    return np.exp(-rate), np.cos(phase), ratio * np.sin(phase)


def rtn_p(t, params: RtnParams):
    """RTN dephasing function exp(-gamma t)(cos(w gamma t) + sin(w gamma t)/w),
    w = `params.omega`, oscillating for 2a/gamma > 1; cosh and sinh replace
    cos and sin for 2a/gamma < 1, and w = 0 is the limit exp(-gamma t)(1 + gamma t)."""
    t = _check_time(t)
    gamma = params.gamma
    r = 2 * params.a / gamma
    w, regime = _regime(r * r - 1)
    # over damped, gamma - w gamma = gamma r^2 / (1 + w)
    envelope, c, s = _damped(t, gamma * t, w * gamma * t, 1 / w if w else 0.0,
                             gamma * (r * r / (1 + w)), regime)
    return _finite(envelope * (c + s), "RTN p(t)", -1.0, 1.0)


def oun_p(t, params: OunParams):
    """OUN dephasing function exp[-(G/2)(t + (exp(-g t) - 1)/g)].

    Strictly decreasing from p(0) = 1; stays in (0, 1]. expm1 keeps
    exp(-g t) - 1 accurate for slow environments (g t << 1), so the
    exponent is off by a few rounding errors of t at most.
    """
    t = _check_time(t)
    return _finite(np.exp(-(params.G / 2) * (t + np.expm1(-params.g * t) / params.g)),
                   "OUN p(t)", 0.0, 1.0)


def _nmad_factors(t, params: NmadParams):
    """The `_damped` factors C and ratio S of G(t), and G(t) itself."""
    t = _check_time(t)
    g = params.g
    d, regime = _regime(params.discriminant)
    if not d < np.inf:  # g^2 overflows, and slow = gamma0 g / (g + d) would read 0
        raise NumericError("NMAD discriminant 2 gamma0 g - g^2 is not finite")
    # over damped, (g - d) / 2 = gamma0 g / (g + d)
    envelope, c, s = _damped(t, g * t / 2, d * t / 2, g / d if d else 0.0,
                             params.gamma0 * g / (g + d), regime)
    return c, s, _finite(envelope * (c + s), "NMAD G(t)")


def nmad_decoherence(t, params: NmadParams):
    """NMAD decoherence function G(t) = exp(-gt/2)(cosh(lt/2) + (g/l) sinh(lt/2)),
    l = sqrt(g^2 - 2 gamma0 g). For g < 2 gamma0, l = i d, and G(t) =
    exp(-gt/2)(cos(dt/2) + (g/d) sin(dt/2)) oscillates through zero; l = 0
    is the limit exp(-gt/2)(1 + gt/2)."""
    return _nmad_factors(t, params)[2]


def nmad_p(t, params: NmadParams):
    """NMAD damping probability p(t) = 1 - G(t)^2, in [0, 1] with p(0) = 0."""
    gt = nmad_decoherence(t, params)
    return _finite(1.0 - gt * gt, "NMAD p(t)", 0.0, 1.0)


def nmad_gamma(t, params: NmadParams):
    """Time-dependent decay rate gamma(t) = -2 G'(t) / G(t), by the closed form.

    With G = envelope (C + ratio S) from the oscillator kernel, G' = -gamma0
    envelope ratio S in every regime, so gamma(t) = 2 gamma0 ratio S /
    (C + ratio S): no finite differences near the zeros of G(t). Negative
    values signal backflow intervals; the rate diverges at zeros of G, so
    times with |G(t)| <= 1e-9 are rejected.
    """
    c, s, gt = _nmad_factors(t, params)
    size = np.abs(gt)
    if not np.all(size > DECOHERENCE_ZERO_TOL):
        i = np.argmin(size)
        raise NumericError(f"decay rate singular: |G({np.ravel(t)[i]})| = {np.ravel(size)[i]:.3e}")
    return _finite(2 * params.gamma0 * s / (c + s), "NMAD gamma(t)")


def noise_p(params: NoiseParams, t):
    """Dispatch to the noise function of the given family; t is a time or
    an array of times."""
    if isinstance(params, RtnParams):
        return rtn_p(t, params)
    if isinstance(params, OunParams):
        return oun_p(t, params)
    if isinstance(params, NmadParams):
        return nmad_p(t, params)
    raise TypeError(f"unknown noise parameter type {type(params).__name__}")
