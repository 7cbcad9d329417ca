"""Non-Markovianity indicators: trace distance and the information-backflow
measure, concurrence and its revival measure, the temporal-self-similarity
measure, and the accessible-state volume witness.

The backflow-style measures integrate the positive increments of a scalar
trajectory on a time grid; the maximization over initial states that defines
them is evaluated over a caller-supplied probe family (see `probe_state` and
`random_bell_probes`) rather than over all of state space.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .linalg import eig_hermitian, psd_sqrt, validate_density
from .channels import SIGMA
from .map_algebra import (DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS,
                          dephasing_generator)

RISE_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A scalar trajectory sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class MeasureResult:
    """Integrated positive increase, with the contributing intervals."""

    value: float
    detail: tuple[tuple[tuple[float, float], float], ...] = field(default_factory=tuple)


@dataclass(frozen=True, eq=False)
class VolumeTrace:
    """Accessible-state volume V(t) = det F(t) and its rising intervals."""

    series: TimeSeries
    witness_intervals: tuple[tuple[float, float], ...]


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2) tr|rho1 - rho2|, in [0, 1]."""
    rho1 = validate_density(rho1)
    rho2 = validate_density(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    w, _ = eig_hermitian(rho1 - rho2)
    return float(0.5 * np.abs(w).sum())


def positive_variation(times: Sequence[float], values: Sequence[float]) -> MeasureResult:
    """Sum of increments above RISE_THRESHOLD, grouped into rising intervals.

    This is the trapezoidal evaluation of the integral of dX/dt over the
    regions where X increases; the threshold suppresses sign flips at noise
    level.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 2:
        raise ValueError("grid must contain at least two points")
    diffs = np.diff(values)
    rising = diffs > RISE_THRESHOLD
    detail = []
    i = 0
    n = len(diffs)
    while i < n:
        if rising[i]:
            j = i
            while j + 1 < n and rising[j + 1]:
                j += 1
            contribution = float(diffs[i:j + 1].sum())
            detail.append(((float(times[i]), float(times[j + 1])), contribution))
            i = j + 1
        i += 1
    return MeasureResult(value=sum(c for _, c in detail), detail=tuple(detail))


def blp_measure(pair_sampler: Callable[[float], tuple[np.ndarray, np.ndarray]],
                times: Sequence[float]) -> MeasureResult:
    """Information backflow of one trajectory pair: the integrated positive
    increase of the trace distance D(rho1(t), rho2(t)) over the grid.

    Maximization over initial pairs is the caller's job; evaluate over a
    probe family and take the max.
    """
    dvals = [trace_distance(*pair_sampler(t)) for t in times]
    return positive_variation(times, dvals)


_YY = np.kron(SIGMA[2], SIGMA[2])


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are the descending square roots of the eigenvalues of
    sqrt(rho) rho_tilde sqrt(rho) with rho_tilde = (YY) rho* (YY), which is
    Hermitian PSD, so only Hermitian eigensolves are needed.
    """
    rho = validate_density(rho)
    if rho.shape[0] != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    rho_tilde = _YY @ rho.conj() @ _YY
    sq = psd_sqrt(rho)
    w, _ = eig_hermitian(sq @ rho_tilde @ sq)
    # rank-deficiency noise (~eps * |w|_max) would blow up to ~1e-8 under the
    # square root; clamp it so pure-state concurrences are exact
    w = np.clip(w, 0.0, None)
    if w.max() > 0:
        w[w < 1e-12 * w.max()] = 0.0
    lam = np.sqrt(w)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def nm_concurrence_measure(trajectory: Callable[[float], np.ndarray],
                           times: Sequence[float]) -> MeasureResult:
    """Integrated positive increase of the concurrence along a trajectory."""
    cvals = [concurrence(trajectory(t)) for t in times]
    return positive_variation(times, cvals)


# --------------------------------------------------------------------------
# Probe states
# --------------------------------------------------------------------------

_KET = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "alpha": np.array([1, 1, 1, -1], dtype=complex) / 2,
    "00": np.array([1, 0, 0, 0], dtype=complex),
    "11": np.array([0, 0, 0, 1], dtype=complex),
    "++": np.array([1, 1, 1, 1], dtype=complex) / 2,
    "--": np.array([1, -1, -1, 1], dtype=complex) / 2,
}

PROBE_NAMES = tuple(_KET)

# default probe pairs for the backflow measure
PROBE_PAIRS = (("phi+", "phi-"), ("++", "--"), ("00", "11"), ("psi+", "psi-"))


def probe_state(name: str) -> np.ndarray:
    """Named two-qubit probe state as a density matrix."""
    if name not in PROBE_NAMES:
        raise ValueError(f"unknown probe state {name!r}; choose from {PROBE_NAMES}")
    ket = _KET[name]
    return np.outer(ket, ket.conj())


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_bell_probes(count: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded local-unitary rotations (U (x) V)|phi+> as density matrices."""
    rng = np.random.default_rng(seed)
    out = []
    base = _KET["phi+"]
    for _ in range(count):
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        ket = u @ base
        out.append(np.outer(ket, ket.conj()))
    return out


# --------------------------------------------------------------------------
# Temporal self-similarity
# --------------------------------------------------------------------------


def sss_measure(l_sampler: Callable[[float], np.ndarray],
                reference: np.ndarray,
                t_max: float,
                n_points: int = 256,
                free: bool = False) -> float:
    """Temporal-self-similarity measure: (1/T) integral_0^T ||L(t) - L*||_F dt
    by trapezoidal quadrature, with the Frobenius norm on generator matrices.

    L* is the fixed `reference`, typically the memoryless-limit generator, so
    the measure reads the time-averaged distance of L(t) from the semigroup
    the dynamics would follow without environmental or channel memory. With
    `free`, L* instead ranges over the constant dephasing generators with
    rates (r_single, r_double) on the eight single-flip and four double-flip
    slots, minimized by Nelder-Mead from four starts: the time-averaged rates
    of L(t), its final rates, zero, and the rates of `reference`. The free
    measure vanishes for any semigroup of that structure.
    """
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_points < 2:
        raise ValueError("grid must contain at least two points")
    reference = np.asarray(reference, dtype=float)
    times = np.linspace(0.0, t_max, n_points)
    l_stack = np.stack([l_sampler(t) for t in times])

    def average_distance(l_star: np.ndarray) -> float:
        norms = np.sqrt(((l_stack - l_star) ** 2).sum(axis=(1, 2)))
        return float(np.trapezoid(norms, times) / t_max)

    if not free:
        return average_distance(reference)

    diag = np.diagonal(l_stack, axis1=1, axis2=2)
    singles = diag[:, list(SINGLE_FLIP_SLOTS)].mean(axis=1)
    doubles = diag[:, list(DOUBLE_FLIP_SLOTS)].mean(axis=1)
    s0, d0 = SINGLE_FLIP_SLOTS[0], DOUBLE_FLIP_SLOTS[0]
    guesses = [(singles.mean(), doubles.mean()),
               (singles[-1], doubles[-1]),
               (0.0, 0.0),
               (reference[s0, s0], reference[d0, d0])]
    best = np.inf
    for guess in guesses:
        res = minimize(lambda th: average_distance(dephasing_generator(th[0], th[1])),
                       np.asarray(guess, dtype=float), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


# --------------------------------------------------------------------------
# Accessible-state volume
# --------------------------------------------------------------------------


def volume_trace(f_sampler: Callable[[float], np.ndarray],
                 times: Sequence[float]) -> VolumeTrace:
    """Volume of accessible states V(t) = det F(t) with its non-Markovianity
    witness: the intervals where the discrete forward difference of V is
    positive (above RISE_THRESHOLD).
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("grid must not be empty")
    vols = np.array([float(np.linalg.det(f_sampler(t))) for t in times])
    series = TimeSeries(times=times, values=vols, label="volume")
    if len(times) < 2:
        return VolumeTrace(series=series, witness_intervals=())
    detail = positive_variation(times, vols).detail
    return VolumeTrace(series=series, witness_intervals=tuple(iv for iv, _ in detail))
