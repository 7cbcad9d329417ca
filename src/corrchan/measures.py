"""Non-Markovianity indicators: trace distance and the information-backflow
measure, concurrence and its revival measure, the temporal-self-similarity
measure, and the accessible-state volume witness.

The backflow-style measures integrate the positive increments of a scalar
trajectory on a time grid; the maximization over initial states that defines
them is evaluated over a caller-supplied probe family (see `probe_state` and
`random_bell_probes`) rather than over all of state space.

`trace_distance` and `concurrence` take one state or a stack of states of
shape (..., 4, 4), such as a trajectory from `channels.evolve` over a time grid, and
return a float or an array; the trajectory measures take such stacks.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError
from .linalg import eig_hermitian, lapack, psd_sqrt, validate_density
from .channels import SIGMA
from .map_algebra import (DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS,
                          dephasing_generator)

RISE_THRESHOLD = 1e-12


def minimize(*args, **kwargs):
    """Forward to `scipy.optimize.minimize`, imported on the first call.

    No computation uses it. It exists only so that the benchmark tracer
    (`perfbench/tracing.py`) finds the name to wrap when it installs, and
    can go once the tracer no longer wraps it.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A scalar trajectory sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

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
    """Accessible-state volume V(t) = det F(t), its rising intervals, and one
    witness flag per point: 1 where V rose from the previous point."""

    series: TimeSeries
    witness_intervals: tuple[tuple[float, float], ...]
    witness_flags: np.ndarray


def _value(x):
    """A 0-d result as a float; a stacked one as its array."""
    return float(x) if np.ndim(x) == 0 else x


def trace_distance(rho1: np.ndarray, rho2: np.ndarray):
    """Trace distance (1/2) tr|rho1 - rho2|, in [0, 1], of two states or,
    pairwise, of two equally shaped stacks of states."""
    rho1 = validate_density(rho1)
    rho2 = validate_density(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    w, _ = eig_hermitian(rho1 - rho2)
    return _value(0.5 * np.abs(w).sum(axis=-1))


def _rises(values: np.ndarray) -> np.ndarray:
    """Whether each forward difference of `values` exceeds RISE_THRESHOLD."""
    return np.diff(values) > RISE_THRESHOLD


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
    if len(values) != len(times):
        raise ValueError(f"{len(values)} values for {len(times)} grid points")
    diffs = np.diff(values)
    # +1 where a rising run starts, -1 one past where it ends
    edges = np.diff(np.concatenate(([0], _rises(values), [0])))
    detail = tuple(((float(times[i]), float(times[j])), float(diffs[i:j].sum()))
                   for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))
    return MeasureResult(value=sum(c for _, c in detail), detail=detail)


def blp_measure(rho1: np.ndarray, rho2: np.ndarray,
                times: Sequence[float]) -> MeasureResult:
    """Information backflow of one trajectory pair: the integrated positive
    increase of the trace distance D(rho1(t), rho2(t)) over the grid.

    `rho1` and `rho2` are the two trajectories as (len(times), d, d) stacks.
    Maximization over initial pairs is the caller's job; evaluate over a
    probe family and take the max.
    """
    return positive_variation(times, trace_distance(rho1, rho2))


_YY = np.kron(SIGMA[2], SIGMA[2])


def concurrence(rho: np.ndarray):
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}, of one state or of
    each state of a stack.

    The l_k are the descending square roots of the eigenvalues of
    sqrt(rho) rho_tilde sqrt(rho) with rho_tilde = (YY) rho* (YY), which is
    Hermitian PSD, so only Hermitian eigensolves are needed.
    """
    rho = validate_density(rho)
    if rho.shape[-1] != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    rho_tilde = _YY @ rho.conj() @ _YY
    sq = psd_sqrt(rho)
    w, _ = eig_hermitian(sq @ rho_tilde @ sq)
    # rank-deficiency noise (~eps * |w|_max) would blow up to ~1e-8 under the
    # square root; clamp it so pure-state concurrences are exact
    w = np.clip(w, 0.0, None)
    w[w < 1e-12 * w.max(axis=-1, keepdims=True)] = 0.0
    lam = np.sqrt(w)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    # min(1, max(0, c)) with Python's comparison semantics, so -0.0 reads 0
    c = np.where(c > 0.0, c, 0.0)
    return _value(np.where(c < 1.0, c, 1.0))


def nm_concurrence_measure(states: np.ndarray, times: Sequence[float]) -> MeasureResult:
    """Integrated positive increase of the concurrence along a trajectory,
    given as a (len(times), 4, 4) stack of states."""
    return positive_variation(times, concurrence(states))


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


def _random_unitary(rng: "np.random.Generator") -> np.ndarray:
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


# Stopping rule of the free two-rate minimiser: f(z) - min f <= SSS_TOL * f(z).
# Rounding can keep the provable gap near 1e-13 even at the minimum; random
# sweeps never needed more than 20 of the SSS_MAX_ITERATIONS steps.
SSS_TOL = 1e-12
SSS_MAX_ITERATIONS = 100

# |L - L*|_F^2 = r + 8 (a - x)^2 + 4 (b - y)^2 for L* with rates (x, y): in
# coordinates scaled by _METRIC the free objective is a sum of Euclidean distances
_METRIC = np.sqrt([len(SINGLE_FLIP_SLOTS), len(DOUBLE_FLIP_SLOTS)])
_OFF_SLOTS = np.ones((16, 16))
_OFF_SLOTS[SINGLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS] = 0.0
_OFF_SLOTS[DOUBLE_FLIP_SLOTS, DOUBLE_FLIP_SLOTS] = 0.0


def _two_rate_points(l_stack: np.ndarray):
    """Per time, the mean single-flip rate a, the mean double-flip rate b,
    and the rest r of ||L(t)||_F^2 that no two-rate generator reaches: the
    entries off the twelve rate slots plus the spread within each slot group.
    """
    diag = np.diagonal(l_stack, axis1=1, axis2=2)
    rest = np.einsum("tij,ij,tij->t", l_stack, _OFF_SLOTS, l_stack)
    means = []
    for slots in (SINGLE_FLIP_SLOTS, DOUBLE_FLIP_SLOTS):
        values = diag[:, list(slots)]
        # first + mean offset: exact when the slots of a group agree
        mean = values[:, 0] + (values - values[:, :1]).mean(axis=1)
        rest = rest + ((values - mean[:, None]) ** 2).sum(axis=1)
        means.append(mean)
    return means[0], means[1], rest


def _weighted_median(a, b, weights):
    """A weighted median of points (a, b) that lie exactly on one line, or
    None when they do not: the exact minimiser of sum w |P - z| there."""
    da, db = a - a[0], b - b[0]
    far = np.argmax(np.abs(da) + np.abs(db))
    if not np.all(da * db[far] == db * da[far]):
        return None
    order = np.argsort(da * da[far] + db * db[far], kind="stable")
    cumulative = np.cumsum(weights[order])
    k = order[np.searchsorted(cumulative, 0.5 * cumulative[-1])]
    return a[k], b[k]


def _cheapest_fill(need, capacity, price):
    """Least cost of `need` units drawn from stocks of `capacity` at `price`
    per unit (a fractional knapsack), or inf if the stocks fall short."""
    order = np.argsort(price)
    filled = np.cumsum(capacity[order])
    j = int(np.searchsorted(filled, need))
    if j == len(order):
        return np.inf
    paid = capacity[order[:j]] @ price[order[:j]]
    return float(paid + (need - (filled[j - 1] if j else 0.0)) * price[order[j]])


class _Local(NamedTuple):
    """The free objective at one point u; see `_Objective.local`."""

    f: float
    gap: float
    least: float
    grad: np.ndarray
    hess: np.ndarray
    dist: np.ndarray


class _Objective:
    """f(u) = sum_t w_t sqrt(r_t + |u - Q_t|^2) in scaled coordinates."""

    def __init__(self, points, rest, weights):
        self.points, self.rest, self.weights = points, rest, weights

    def value(self, u) -> float:
        return float(self.weights @ np.sqrt(self.rest + ((u - self.points) ** 2).sum(axis=1)))

    def local(self, u) -> _Local:
        """f(u), a bound on f(u) - min f, the distances d_t, and the
        gradient, least subgradient norm and Hessian of the terms more than
        rho = SSS_TOL f / 6 from u; the nearer ones form a kink at u.

        The bound is a duality gap. Each term is a support function,
        w sqrt(r + |v|^2) = max over |(y, eta)| <= w of y.v + eta sqrt(r), so
        any y_t with sum y_t = 0 gives min f >= sum_t (eta_t sqrt(r_t) - y_t.Q_t).
        y_t = w_t e_t, with e_t the unit vector from Q_t to u, leaves no gap
        but sums to the gradient. The nearest terms, while 2 sum w_t d_t
        <= SSS_TOL f / 2, take any y_t at a gap of at most 2 w_t d_t: that
        cancels up to their weight W of the rest's gradient g (Vardi and
        Zhang, PNAS 97, 1423, 2000, for terms at u). The rest of g is
        cancelled along c = -g/|g| by the others: one with s_t = -e_t.c > 0
        takes up to 2 w_t s_t at a gap of d_t s_t per unit, cheapest first.
        """
        diff = u - self.points
        dist = np.sqrt(self.rest + (diff ** 2).sum(axis=1))
        f = float(self.weights @ dist)
        unit = diff / np.where(dist > 0, dist, 1.0)[:, None]

        by_dist = np.argsort(dist)
        moved = 2 * np.cumsum(self.weights[by_dist] * dist[by_dist])
        m = int(np.searchsorted(moved, SSS_TOL * f / 2, side="right"))
        others = by_dist[m:]
        grad = self.weights[others] @ unit[others]
        need = max(float(np.hypot(*grad)) - float(self.weights[by_dist[:m]].sum()), 0.0)
        share = np.maximum(unit[others] @ grad, 0.0) / max(np.hypot(*grad), 1e-300)
        gap = (moved[m - 1] if m else 0.0) + (
            _cheapest_fill(need, 2 * self.weights[others] * share, dist[others] * share)
            if need > 0 else 0.0)

        near = dist <= SSS_TOL * f / 6
        far_weights = np.where(near, 0.0, self.weights)
        step_grad = far_weights @ unit
        step_least = max(float(np.hypot(*step_grad)) - float(self.weights[near].sum()), 0.0)
        # sum (w / d)(I - e e^T), with 1 - e_x^2 = e_y^2 + r / d^2 kept exact
        scale = np.where(near, 1.0, dist)
        curv = far_weights / scale
        cross = -curv @ (unit[:, 0] * unit[:, 1])
        hess = (np.array([[curv @ unit[:, 1] ** 2, cross], [cross, curv @ unit[:, 0] ** 2]])
                + curv @ (self.rest / scale ** 2) * np.eye(2))
        return _Local(f, gap, step_least, step_grad, hess, dist)


# relative rounding error allowed in f, a sum of up to thousands of terms
_F_ROUNDING = 64 * np.finfo(float).eps


def _line_search(objective, u, f, step, slope):
    """The first u + step / 2^k (k < 60) with Armijo decrease, up to the
    rounding error of f, or None."""
    alpha = 1.0
    for _ in range(60):
        trial = u + alpha * step
        if objective.value(trial) <= f + 1e-4 * alpha * slope + _F_ROUNDING * f:
            return trial
        alpha *= 0.5
    return None


def _free_minimiser(a, b, rest, weights):
    """Rates (x, y) minimising f(x, y) = sum_t w_t sqrt(r_t + 8 (a_t - x)^2
    + 4 (b_t - y)^2), a weighted Fermat-Weber problem, with a certificate.

    Exactly collinear points with r = 0 (correlated OUN at mu = 0 or 1) give
    a weighted median. Otherwise damped Newton steps run, from a kink along
    its least subgradient, with a Weiszfeld step (Tohoku Math. J. 43, 1937)
    where Newton fails to descend, until f(z) - min f <= SSS_TOL * f(z) is
    certified (`_Objective.local`), at the iterate or at the data point
    nearest to it; a minimiser on a data point is returned exactly. Raises
    NumericError when no certificate holds after SSS_MAX_ITERATIONS steps.
    """
    if np.all(rest == 0):
        median = _weighted_median(a, b, weights)
        if median is not None:
            return median
    points = np.stack([a, b], axis=1) * _METRIC
    objective = _Objective(points, rest, weights)
    u = weights @ points / weights.sum()
    for _ in range(SSS_MAX_ITERATIONS):
        here = objective.local(u)
        k = np.argmin(here.dist)
        there = objective.local(points[k])
        if there.gap <= SSS_TOL * there.f:
            return a[k], b[k]
        if here.gap <= SSS_TOL * here.f:
            return tuple(u / _METRIC)
        if there.f < here.f * (1 - _F_ROUNDING):
            # descent methods can stall next to a kink: step out from on it,
            # but not on a rounding-level difference, which in a tight
            # cluster of rates sends the iterate from one point to the next
            u, here = points[k], there
        norm = np.hypot(*here.grad)
        if here.least < norm:
            # u sits on a kink: descend along -grad, by the curvature away from it
            direction = -here.grad / norm
            step = direction * here.least / max(direction @ here.hess @ direction, 1e-300)
        elif np.linalg.det(here.hess) > 0 and np.trace(here.hess) > 0:
            step = -np.linalg.solve(here.hess, here.grad)
        else:
            step = None
        trial = None
        if step is not None:
            # the minimiser lies within max_t |u - Q_t| of u
            step *= min(1.0, here.dist.max() / np.hypot(*step))
            # directional derivative, with the kink's share norm - least
            slope = here.grad @ step + (norm - here.least) * np.hypot(*step)
            trial = _line_search(objective, u, here.f, step, slope)
        if trial is None and here.least == norm:
            # no kink at u: the Weiszfeld step never increases f
            inv = weights / here.dist
            trial = inv @ points / inv.sum()
        if trial is None:
            break
        u = trial
    raise NumericError("free SSS minimiser found no optimality certificate "
                       f"in {SSS_MAX_ITERATIONS} steps")


def sss_measure(l_sampler: Callable[[np.ndarray], np.ndarray],
                reference: np.ndarray,
                t_max: float,
                n_points: int = 256,
                free: bool = False) -> float:
    """Temporal-self-similarity measure: (1/T) integral_0^T ||L(t) - L*||_F dt
    by trapezoidal quadrature, with the Frobenius norm on generator matrices.

    `l_sampler` maps the grid to the stack of L(t) in one call (one matrix
    is broadcast). L* is the fixed `reference`, typically the memoryless-limit
    generator, so the measure reads the time-averaged distance of L(t) from
    the semigroup the dynamics would follow without environmental or channel
    memory. With `free`, L* instead ranges over the constant dephasing
    generators with rates (x, y) on the eight single-flip and four
    double-flip slots. The objective is then a weighted geometric median in
    (x, y), minimised by `_free_minimiser` up to a certified relative gap of
    SSS_TOL, or NumericError; `reference` only sets the matrix shape. The
    free measure vanishes for any semigroup of that structure. An L(t) with
    a NaN or infinite entry, or a measure that overflows, raises NumericError.
    """
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_points < 2:
        raise ValueError("grid must contain at least two points")
    reference = np.asarray(reference, dtype=float)
    times = np.linspace(0.0, t_max, n_points)
    l_stack = np.broadcast_to(l_sampler(times), times.shape + reference.shape)
    if not np.isfinite(l_stack).all():
        raise NumericError("generator L(t) has a non-finite entry")

    def average_distance(l_star: np.ndarray) -> float:
        norms = np.sqrt(((l_stack - l_star) ** 2).sum(axis=(1, 2)))
        zeta = float(np.trapezoid(norms, times) / t_max)
        if not np.isfinite(zeta):
            raise NumericError(f"SSS measure is not finite ({zeta})")
        return zeta

    if not free:
        return average_distance(reference)
    steps = np.diff(times)
    weights = (np.append(steps, 0.0) + np.insert(steps, 0, 0.0)) / (2 * t_max)
    return average_distance(dephasing_generator(*_free_minimiser(
        *_two_rate_points(l_stack), weights)))


# --------------------------------------------------------------------------
# Accessible-state volume
# --------------------------------------------------------------------------


def volume_trace(f: np.ndarray, times: Sequence[float]) -> VolumeTrace:
    """Volume of accessible states V(t) = det F(t) with its non-Markovianity
    witness: the intervals where the discrete forward difference of V is
    positive (above RISE_THRESHOLD), and the matching per-point flags.

    `f` is the stack of transfer matrices F(t) over `times`, shape
    (len(times), N, N).
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("grid must not be empty")
    f = np.asarray(f, dtype=float)
    if f.shape[:-2] != times.shape:
        raise ValueError(f"transfer-matrix stack of shape {f.shape} for {len(times)} times")
    vols = lapack(np.linalg.det, f)
    series = TimeSeries(times=times, values=vols)
    flags = np.zeros(len(times), dtype=int)
    if len(times) < 2:
        return VolumeTrace(series=series, witness_intervals=(), witness_flags=flags)
    flags[1:] = _rises(vols)
    detail = positive_variation(times, vols).detail
    return VolumeTrace(series=series, witness_intervals=tuple(iv for iv, _ in detail),
                       witness_flags=flags)
