"""Time-domain noise functions for the three noise families.

RTN and OUN are dephasing noises entering the channels through a scalar
p(t) in [-1, 1]; NMAD is amplitude damping, described by its decoherence
function G(t), the damping probability p(t) = 1 - G(t)^2 and the
time-dependent decay rate gamma(t).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

IMAG_RESIDUE_TOL = 1e-10
DECOHERENCE_ZERO_TOL = 1e-9
_DEGENERATE = 1e-12


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return t


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
        return complex(np.sqrt(complex((2 * self.a / self.gamma) ** 2 - 1)))

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


def rtn_p(t: float, params: RtnParams) -> float:
    """RTN dephasing function exp(-gamma t)(cos(w gamma t) + sin(w gamma t)/w).

    Evaluated through a complex w so the oscillatory (2a/gamma > 1) and
    overdamped regimes share one code path; w = 0 uses the limit form
    exp(-gamma t)(1 + gamma t).
    """
    t = _check_time(t)
    gamma = params.gamma
    w = params.omega
    if abs(w) < _DEGENERATE:
        return float(np.exp(-gamma * t) * (1 + gamma * t))
    x = w * gamma * t
    val = np.exp(-gamma * t) * (np.cos(x) + np.sin(x) / w)
    return float(val.real)


def oun_p(t: float, params: OunParams) -> float:
    """OUN dephasing function exp[-(G/2)(t + (exp(-g t) - 1)/g)].

    Strictly decreasing from p(0) = 1; stays in (0, 1].
    """
    t = _check_time(t)
    return float(np.exp(-(params.G / 2) * (t + (np.exp(-params.g * t) - 1) / params.g)))


def _nmad_l(params: NmadParams) -> complex:
    return complex(np.sqrt(complex(params.g ** 2 - 2 * params.gamma0 * params.g)))


def nmad_decoherence(t: float, params: NmadParams) -> float:
    """NMAD decoherence function G(t) = exp(-gt/2)(cosh(lt/2) + (g/l) sinh(lt/2)).

    l = sqrt(g^2 - 2 gamma0 g) is taken complex unconditionally; for
    g < 2 gamma0 the hyperbolic functions become trigonometric and G(t)
    oscillates through zero. The imaginary residue of the complex
    evaluation must stay below 1e-10 or a NumericError is raised.
    """
    t = _check_time(t)
    g = params.g
    l = _nmad_l(params)
    damp = np.exp(-g * t / 2)
    if abs(l) < _DEGENERATE:
        return float(damp * (1 + g * t / 2))
    x = l * t / 2
    val = damp * (np.cosh(x) + (g / l) * np.sinh(x))
    if abs(val.imag) >= IMAG_RESIDUE_TOL:
        raise NumericError(f"imaginary residue {abs(val.imag):.3e} in decoherence function")
    return float(val.real)


def nmad_p(t: float, params: NmadParams) -> float:
    """NMAD damping probability p(t) = 1 - G(t)^2, in [0, 1] with p(0) = 0."""
    gt = nmad_decoherence(t, params)
    return min(1.0, max(0.0, 1.0 - gt * gt))


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
    if abs(gt) <= DECOHERENCE_ZERO_TOL:
        raise NumericError(f"decay rate singular: |G({t})| = {abs(gt):.3e}")
    g, gamma0 = params.g, params.gamma0
    l = _nmad_l(params)
    if abs(l) < _DEGENERATE:
        return float(gamma0 * g * t / (1 + g * t / 2))
    x = l * t / 2
    val = 2 * gamma0 * g * np.sinh(x) / (l * np.cosh(x) + g * np.sinh(x))
    if abs(val.imag) >= IMAG_RESIDUE_TOL:
        raise NumericError(f"imaginary residue {abs(val.imag):.3e} in decay rate")
    return float(val.real)


def noise_p(params: NoiseParams, t: float) -> float:
    """Dispatch to the noise function of the given family."""
    if isinstance(params, RtnParams):
        return rtn_p(t, params)
    if isinstance(params, OunParams):
        return oun_p(t, params)
    if isinstance(params, NmadParams):
        return nmad_p(t, params)
    raise TypeError(f"unknown noise parameter type {type(params).__name__}")
