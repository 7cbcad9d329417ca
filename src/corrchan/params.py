"""Scalar inputs of the models, checked in pure Python: the correlation
factor mu, the parameters of the three noise families and the kets of the
named probe states.

Nothing here imports numpy, so the command line checks every scalar option
before any numeric module loads, with the same checks the library runs.
"""

import math
from collections import namedtuple

_DEGENERATE = 1e-12

# a time grid's step below the smallest normal float leaves its trapezoid
# weights imprecise (`measures.sss_measure`, and `sss` before numpy loads)
GRID_ERROR = ("times must be a finite, strictly increasing grid of at least two points, "
              "with no step below the smallest normal float")


class _Record(tuple):
    """Base of the immutable value classes of the pure-Python modules, each
    a named tuple whose constructor checks its values. Like a frozen
    dataclass, a record equals, and hashes alike with, only a record of its
    own class with equal fields; `dataclasses`, which imports `inspect`,
    would cost every command more start-up time than these modules take."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))

    @classmethod
    def _make(cls, iterable):
        # through the checking constructor, also for `_replace`
        return cls(*iterable)


def _check_mu(mu: float) -> None:
    if not 0 <= mu <= 1:
        raise ValueError(f"correlation factor mu must lie in [0, 1], got {mu}")


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _regime(disc: float) -> tuple[float, str]:
    """sqrt(|disc|) and the regime of the oscillator whose nu0^2 - r^2, in
    any positive units, is disc: "under" damped for disc > 0, "over" damped
    for disc < 0 and "critical" when sqrt(|disc|) < 1e-12."""
    root = math.sqrt(abs(disc))
    return root, "critical" if root < _DEGENERATE else "under" if disc > 0 else "over"


class RtnParams(_Record, namedtuple("RtnParams", "a gamma")):
    """Random telegraph noise: coupling strength a, fluctuation rate gamma."""

    __slots__ = ()

    def __new__(cls, a: float, gamma: float):
        _check_positive(a=a, gamma=gamma)
        return super().__new__(cls, a, gamma)

    @property
    def omega(self) -> float:
        """w = sqrt(|(2a/gamma)^2 - 1|): p(t) oscillates at frequency w gamma
        when 2a/gamma > 1, and decays at the two rates (1 -+ w) gamma otherwise."""
        r = 2 * self.a / self.gamma
        return _regime(r * r - 1)[0]

    @property
    def is_nonmarkovian_regime(self) -> bool:
        """True when 2a/gamma > 1, i.e. p(t) oscillates."""
        return 2 * self.a / self.gamma > 1


class OunParams(_Record, namedtuple("OunParams", "G g")):
    """Ornstein-Uhlenbeck noise: effective relaxation rate G, inverse
    environment correlation time g (g^-1 = tau_c).
    """

    __slots__ = ()

    def __new__(cls, G: float, g: float):
        _check_positive(G=G, g=g)
        return super().__new__(cls, G, g)


class NmadParams(_Record, namedtuple("NmadParams", "gamma0 g")):
    """Non-Markovian amplitude damping: coupling rate gamma0, spectral width g."""

    __slots__ = ()

    def __new__(cls, gamma0: float, g: float):
        _check_positive(gamma0=gamma0, g=g)
        return super().__new__(cls, gamma0, g)

    @property
    def discriminant(self) -> float:
        """2 gamma0 g - g^2: G(t) oscillates where it is positive."""
        return 2 * (self.gamma0 * self.g) - self.g * self.g


NoiseParams = RtnParams | OunParams | NmadParams


def _check_dephasing(noise: NoiseParams) -> None:
    """ValueError for NMAD: the error-correction model takes dephasing noise."""
    if isinstance(noise, NmadParams):
        raise ValueError("the error-correction model covers dephasing noise only "
                         "(RTN or OUN)")


_H = 1 / math.sqrt(2)

# the named two-qubit probe kets, real amplitudes on |00>, |01>, |10>, |11>;
# `measures.probe_state` and `freezing.freezing_predicate` build their states
KETS = {
    "phi+": (_H, 0, 0, _H),
    "phi-": (_H, 0, 0, -_H),
    "psi+": (0, _H, _H, 0),
    "psi-": (0, _H, -_H, 0),
    "alpha": (0.5, 0.5, 0.5, -0.5),
    "00": (1, 0, 0, 0),
    "11": (0, 0, 0, 1),
    "++": (0.5, 0.5, 0.5, 0.5),
    "--": (0.5, -0.5, -0.5, 0.5),
}
PROBE_NAMES = tuple(KETS)

# default probe pairs for the backflow measure
PROBE_PAIRS = (("phi+", "phi-"), ("++", "--"), ("00", "11"), ("psi+", "psi-"))


def _check_probe(name: str) -> None:
    if name not in PROBE_NAMES:
        raise ValueError(f"unknown probe state {name!r}; choose from {PROBE_NAMES}")
