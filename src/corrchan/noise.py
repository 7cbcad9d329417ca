"""Time-domain noise functions for the three noise families.

RTN and OUN are dephasing noises entering the channels through p(t) in
[-1, 1]; NMAD is amplitude damping, described by its decoherence function
G(t), the damping probability p(t) = 1 - G(t)^2 and the time-dependent
decay rate gamma(t).

`rtn_p`, `oun_p`, `nmad_decoherence`, `nmad_p` and `noise_p` take either a
single time, returning a float, or an array of times, returning an array of
the same shape, through the same numpy expression (a single time is a 0-d
array). A value that is not finite raises NumericError rather than reaching
a channel; round-off past its range near t = 0 is clipped.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

IMAG_RESIDUE_TOL = 1e-10
DECOHERENCE_ZERO_TOL = 1e-9
_DEGENERATE = 1e-12


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


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class RtnParams:
    """Random telegraph noise: coupling strength a, fluctuation rate gamma."""

    a: float
    gamma: float

    def __post_init__(self):
        _check_positive(a=self.a, gamma=self.gamma)

    @property
    def omega(self) -> complex:
        """sqrt((2a/gamma)^2 - 1); real in the oscillatory regime, imaginary otherwise."""
        r = 2 * self.a / self.gamma
        return complex(np.sqrt(complex(r * r - 1)))

    @property
    def is_nonmarkovian_regime(self) -> bool:
        """True when 2a/gamma > 1, i.e. omega is real and p(t) oscillates."""
        return 2 * self.a / self.gamma > 1


@dataclass(frozen=True)
class OunParams:
    """Ornstein-Uhlenbeck noise: effective relaxation rate G, inverse
    environment correlation time g (g^-1 = tau_c).
    """

    G: float
    g: float

    def __post_init__(self):
        _check_positive(G=self.G, g=self.g)


@dataclass(frozen=True)
class NmadParams:
    """Non-Markovian amplitude damping: coupling rate gamma0, spectral width g."""

    gamma0: float
    g: float

    def __post_init__(self):
        _check_positive(gamma0=self.gamma0, g=self.g)


NoiseParams = RtnParams | OunParams | NmadParams


def _decaying_cosh_sinh(rate, y, ratio):
    """exp(-rate) (cosh y + ratio sinh y) for 0 <= y < rate, as decaying
    exponentials: (1/2) exp(y - rate) (1 + exp(-2y) - ratio expm1(-2y)).

    Nothing here overflows at large times, unlike cosh and sinh themselves,
    and expm1 keeps ratio sinh y accurate when y is small.
    """
    return 0.5 * np.exp(y - rate) * (1 + np.exp(-2 * y) - ratio * np.expm1(-2 * y))


def rtn_p(t, params: RtnParams):
    """RTN dephasing function exp(-gamma t)(cos(w gamma t) + sin(w gamma t)/w).

    In the oscillatory regime (2a/gamma > 1, real w) it is evaluated through
    a complex w; in the overdamped regime (imaginary w) as a sum of decaying
    exponentials, which does not overflow at large t; w = 0 uses the limit
    form exp(-gamma t)(1 + gamma t).
    """
    t = _check_time(t)
    gamma = params.gamma
    w = params.omega
    if abs(w) < _DEGENERATE:
        val = np.exp(-gamma * t) * (1 + gamma * t)
    elif not params.is_nonmarkovian_regime:
        val = _decaying_cosh_sinh(gamma * t, abs(w) * gamma * t, 1 / abs(w))
    else:
        x = w * gamma * t
        val = (np.exp(-gamma * t) * (np.cos(x) + np.sin(x) / w)).real
    return _finite(val, "RTN p(t)", -1.0, 1.0)


def oun_p(t, params: OunParams):
    """OUN dephasing function exp[-(G/2)(t + (exp(-g t) - 1)/g)].

    Strictly decreasing from p(0) = 1; stays in (0, 1]. expm1 keeps
    exp(-g t) - 1 accurate for slow environments (g t << 1), so the
    exponent is off by a few rounding errors of t at most.
    """
    t = _check_time(t)
    return _finite(np.exp(-(params.G / 2) * (t + np.expm1(-params.g * t) / params.g)),
                   "OUN p(t)", 0.0, 1.0)


def _nmad_l(params: NmadParams) -> complex:
    g = params.g
    return complex(np.sqrt(complex(g * g - 2 * params.gamma0 * g)))


def nmad_decoherence(t, params: NmadParams):
    """NMAD decoherence function G(t) = exp(-gt/2)(cosh(lt/2) + (g/l) sinh(lt/2)).

    l = sqrt(g^2 - 2 gamma0 g). For g < 2 gamma0, l is imaginary, the
    hyperbolic functions become trigonometric and G(t) oscillates through
    zero; that branch is evaluated through a complex l, whose imaginary
    residue must stay below 1e-10 or a NumericError is raised. For real l
    (overdamped) G(t) is evaluated as a sum of decaying exponentials, which
    does not overflow at large t.
    """
    t = _check_time(t)
    g = params.g
    l = _nmad_l(params)
    if abs(l) < _DEGENERATE:
        return _finite(np.exp(-g * t / 2) * (1 + g * t / 2), "NMAD G(t)")
    if l.imag == 0:
        return _finite(_decaying_cosh_sinh(g * t / 2, l.real * t / 2, g / l.real), "NMAD G(t)")
    damp = np.exp(-g * t / 2)
    x = l * t / 2
    val = damp * (np.cosh(x) + (g / l) * np.sinh(x))
    residue = np.abs(val.imag).max(initial=0.0)
    if not residue < IMAG_RESIDUE_TOL:
        raise NumericError(f"imaginary residue {residue:.3e} in decoherence function")
    return _finite(val.real, "NMAD G(t)")


def nmad_p(t, params: NmadParams):
    """NMAD damping probability p(t) = 1 - G(t)^2, in [0, 1] with p(0) = 0."""
    gt = nmad_decoherence(t, params)
    return _finite(1.0 - gt * gt, "NMAD p(t)", 0.0, 1.0)


def nmad_gamma(t: float, params: NmadParams) -> float:
    """Time-dependent decay rate gamma(t) = -(2/|G|) d|G|/dt, by the closed form.

    Differentiating the decoherence function analytically gives
    gamma(t) = 2 gamma0 g sinh(lt/2) / (l cosh(lt/2) + g sinh(lt/2)),
    which avoids finite differences near the zeros of G(t). Negative values
    signal backflow intervals; the rate diverges at zeros of G, so inputs
    with |G(t)| <= 1e-9 are rejected.
    """
    t = _check_time(t)
    gt = nmad_decoherence(t, params)
    if not abs(gt) > DECOHERENCE_ZERO_TOL:
        raise NumericError(f"decay rate singular: |G({t})| = {abs(gt):.3e}")
    g, gamma0 = params.g, params.gamma0
    l = _nmad_l(params)
    if abs(l) < _DEGENERATE:
        return float(gamma0 * g * t / (1 + g * t / 2))
    if l.imag == 0:
        # overdamped: divide through by cosh so that nothing overflows
        e = np.expm1(-l.real * t)
        return _finite(-2 * gamma0 * g * e / (l.real * (2 + e) - g * e), "NMAD gamma(t)")
    x = l * t / 2
    val = 2 * gamma0 * g * np.sinh(x) / (l * np.cosh(x) + g * np.sinh(x))
    if not abs(val.imag) < IMAG_RESIDUE_TOL:
        raise NumericError(f"imaginary residue {abs(val.imag):.3e} in decay rate")
    return _finite(val.real, "NMAD gamma(t)")


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
