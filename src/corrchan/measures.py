"""Non-Markovianity indicators: trace distance and the information-backflow
measure, concurrence and its revival measure, and the temporal-self-similarity
measure. The accessible-state volume is `map_algebra.accessible_volume`.

Each measure of a trajectory is a plain float. The backflow-style measures
sum the positive increments of a scalar trajectory, whatever grid it was
sampled on; the maximization over initial states that defines them is
evaluated over a caller-supplied probe family (see `probe_state` and
`random_bell_probes`) rather than over all of state space.

`trace_distance` and `concurrence` take one state or a stack of states of
shape (..., 4, 4), such as a trajectory from `channels.evolve` over a time
grid, and return a float or an array; the trajectory measures take such
stacks. They validate the states they are given: `channels.evolve` does not
validate the states it returns, so this is where an evolved state is
checked, once. `blp_measure` also takes a stack of trajectory pairs, whose
trace distances it evaluates in one call.

Both take two routes through a stack. A 4 x 4 matrix that is exactly 0 off
its diagonal and anti-diagonal is X-shaped. Every Bell and basis probe is,
and both channel families keep it so. For such a state, or difference of
states, both measures have a closed form over the array, with no
cancellation in the trace distance and relative accuracy in a small
concurrence. The other matrices of the stack, and every 2 x 2 one, go to
LAPACK: `eigvalsh` of the difference, and for concurrence one `eigh` of the
state and the singular values of a 4 x 4 product, with no eigenvalue
clamp. Either way, a matrix gives the same bits alone as inside a stack.
`sss_measure` takes the two rates of a dephasing generator over a time grid,
not the 16 x 16 matrices, whose Frobenius distances follow from the rates.
"""

from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .linalg import eig_hermitian, lapack, validate_density
from .channels import SIGMA
from .map_algebra import DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS

RISE_THRESHOLD = 1e-12


def minimize(*args, **kwargs):
    """Forward to `scipy.optimize.minimize`, imported on the first call.

    No computation uses it. It exists only so that the benchmark tracer
    (`perfbench/tracing.py`) finds the name to wrap when it installs, and
    can go once the tracer no longer wraps it.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _value(x):
    """A 0-d result as a float; a stacked one as its array."""
    return float(x) if np.ndim(x) == 0 else x


# The eight entries of a 4 x 4 matrix off its diagonal and anti-diagonal. A
# matrix that is exactly 0 there (-0.0 included) is X-shaped: it is the
# direct sum of its blocks on the levels {1, 4} and {2, 3}.
_NOT_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _x_shaped(m: np.ndarray) -> np.ndarray:
    """Per matrix of the (..., d, d) stack m, whether it is X-shaped; a
    2 x 2 matrix never is."""
    if m.shape[-1] != 4:
        return np.zeros(m.shape[:-2], dtype=bool)
    return ~m[..., _NOT_X].any(axis=-1)


def _block_trace_norm(a, d, b):
    """Trace norm of the Hermitian blocks [[a, b], [b*, d]]: the larger of
    |a + d| and the eigenvalue gap, with no cancellation."""
    return np.maximum(np.abs(a + d), np.hypot(a - d, 2 * np.abs(b)))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray):
    """Trace distance (1/2) tr|rho1 - rho2|, in [0, 1], of two states or,
    pairwise, of two equally shaped stacks of states.

    A difference that is X-shaped, as between any two states that the
    dephasing and damping channels evolve from X-shaped probes, is the
    direct sum of two 2 x 2 blocks, whose trace norms have a closed form.
    Every other difference, and every 2 x 2 one, goes to `eigvalsh`. Both
    states are validated, so their difference is Hermitian and is not
    checked again.
    """
    rho1 = validate_density(rho1)
    rho2 = validate_density(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    delta = rho1 - rho2
    x = _x_shaped(delta)
    distance = np.empty(delta.shape[:-2])
    if x.any():
        diag = delta.diagonal(axis1=-2, axis2=-1).real
        distance[...] = 0.5 * (_block_trace_norm(diag[..., 0], diag[..., 3], delta[..., 3, 0])
                               + _block_trace_norm(diag[..., 1], diag[..., 2], delta[..., 2, 1]))
    if not x.all():
        distance[~x] = 0.5 * np.abs(lapack(np.linalg.eigvalsh, delta[~x])).sum(axis=-1)
    return _value(distance)


def positive_variation(values) -> float:
    """Sum of the increments above RISE_THRESHOLD, one term per rising run.

    This is the trapezoidal evaluation of the integral of dX/dt over the
    regions where X increases; the threshold suppresses sign flips at noise
    level. `values` must be 1-d, finite and at least two points long.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError("positive variation needs a 1-d series of at least two "
                         f"points, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("positive variation needs finite values")
    diffs = np.diff(values)
    # +1 where a rising run starts, -1 one past where it ends
    edges = np.diff(np.concatenate(([0], diffs > RISE_THRESHOLD, [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return sum((float(diffs[i:j].sum()) for i, j in zip(starts, ends)), 0.0)


def blp_measure(rho1: np.ndarray, rho2: np.ndarray):
    """Information backflow of a trajectory pair: the integrated positive
    increase of the trace distance D(rho1(t), rho2(t)) along it.

    `rho1` and `rho2` are the two trajectories as (n, d, d) stacks over the
    same time grid, which gives a float; or k such pairs as (k, n, d, d)
    stacks, whose trace distances are taken in one call, which gives the
    list of the k floats, pair by pair. Maximization over initial pairs is
    the caller's job; evaluate over a probe family and take the max.
    """
    distances = trace_distance(rho1, rho2)
    if np.ndim(distances) == 2:
        return [positive_variation(row) for row in distances]
    return positive_variation(distances)


_YY = np.kron(SIGMA[2], SIGMA[2])


def _wootters(rho: np.ndarray) -> np.ndarray:
    """l1 - l2 - l3 - l4 of each state of a (k, 4, 4) stack, from its
    square-root factor X = V sqrt(w+), rho = X X^dagger, of one `eigh`: the
    Wootters l_k are the singular values of X^T (YY) X, so no eigenvalue is
    squared and none is clamped. Where an eigenvalue of rho is near 0, C is
    not Lipschitz in rho, and its rounding reaches C as its square root."""
    w, v = eig_hermitian(rho)
    factor = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    lam = lapack(np.linalg.svdvals, factor.swapaxes(-1, -2) @ _YY @ factor)
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def concurrence(rho: np.ndarray):
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}, of one state or of
    each state of a stack.

    An X-shaped state, such as any state evolved from a Bell or basis probe,
    has C = 2 max{0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)}
    (Yu and Eberly, Quantum Inf. Comput. 7, 459, 2007), in relative accuracy
    where C is small. Any other state takes the Wootters route: the l_k are
    the descending square roots of the eigenvalues of rho rho_tilde with
    rho_tilde = (YY) rho* (YY), here the singular values of X^T (YY) X for
    rho = X X^dagger (see `_wootters`).
    """
    rho = validate_density(rho)
    if rho.shape[-1] != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    diag = rho.diagonal(axis1=-2, axis2=-1).real
    # a validated population may round just below 0; its product then reads 0
    c = np.asarray(2 * np.maximum(
        np.abs(rho[..., 0, 3]) - np.sqrt(np.maximum(diag[..., 1] * diag[..., 2], 0.0)),
        np.abs(rho[..., 1, 2]) - np.sqrt(np.maximum(diag[..., 0] * diag[..., 3], 0.0))))
    x = _x_shaped(rho)
    if not x.all():
        c[~x] = _wootters(rho[~x])
    # min(1, max(0, c)) with Python's comparison semantics, so -0.0 reads 0
    c = np.where(c > 0.0, c, 0.0)
    return _value(np.where(c < 1.0, c, 1.0))


def nm_concurrence_measure(states: np.ndarray) -> float:
    """Integrated positive increase of the concurrence along a trajectory,
    given as an (n, 4, 4) stack of states."""
    return positive_variation(concurrence(states))


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

# A dephasing generator is 0 on the identity slots and has one rate on each
# flip group, so |L - L*|_F^2 = 8 (a - x)^2 + 4 (b - y)^2 for rates (a, b) and
# (x, y): in coordinates scaled by _METRIC the free objective is a sum of
# Euclidean distances
_METRIC = np.sqrt([len(SINGLE_FLIP_SLOTS), len(DOUBLE_FLIP_SLOTS)])


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
    least: float
    grad: np.ndarray
    hess: np.ndarray
    dist: np.ndarray
    unit: np.ndarray
    weights: np.ndarray

    @property
    def gap(self) -> float:
        """A bound on f(u) - min f, computed on each read: a sort of the
        distances and a fractional knapsack over the points.

        The bound is a duality gap. Each term is a support function,
        w |v| = max over |y| <= w of y.v, so any y_t with sum y_t = 0 gives
        min f >= -sum_t y_t.Q_t. y_t = w_t e_t, with e_t the unit vector from
        Q_t to u, leaves no gap but sums to the gradient. The nearest terms, while 2 sum w_t d_t
        <= SSS_TOL f / 2, take any y_t at a gap of at most 2 w_t d_t: that
        cancels up to their weight W of the rest's gradient g (Vardi and
        Zhang, PNAS 97, 1423, 2000, for terms at u). The rest of g is
        cancelled along c = -g/|g| by the others: one with s_t = -e_t.c > 0
        takes up to 2 w_t s_t at a gap of d_t s_t per unit, cheapest first.
        """
        dist, unit, weights = self.dist, self.unit, self.weights
        by_dist = np.argsort(dist)
        moved = 2 * np.cumsum(weights[by_dist] * dist[by_dist])
        m = int(np.searchsorted(moved, SSS_TOL * self.f / 2, side="right"))
        others = by_dist[m:]
        grad = weights[others] @ unit[others]
        need = max(float(np.hypot(*grad)) - float(weights[by_dist[:m]].sum()), 0.0)
        share = np.maximum(unit[others] @ grad, 0.0) / max(np.hypot(*grad), 1e-300)
        return (moved[m - 1] if m else 0.0) + (
            _cheapest_fill(need, 2 * weights[others] * share, dist[others] * share)
            if need > 0 else 0.0)


class _Objective:
    """f(u) = sum_t w_t |u - Q_t| in scaled coordinates."""

    def __init__(self, points, weights):
        self.points, self.weights = points, weights

    def value(self, u) -> float:
        return float(self.weights @ np.sqrt(((u - self.points) ** 2).sum(axis=1)))

    def local(self, u) -> _Local:
        """f(u), the distances d_t and unit vectors e_t from the points to u,
        the bound `_Local.gap` on f(u) - min f, and the gradient, least
        subgradient norm and Hessian of the terms more than
        rho = SSS_TOL f / 6 from u; the nearer ones form a kink at u."""
        diff = u - self.points
        dist = np.sqrt((diff ** 2).sum(axis=1))
        f = float(self.weights @ dist)
        unit = diff / np.where(dist > 0, dist, 1.0)[:, None]

        near = dist <= SSS_TOL * f / 6
        far_weights = np.where(near, 0.0, self.weights)
        step_grad = far_weights @ unit
        step_least = max(float(np.hypot(*step_grad)) - float(self.weights[near].sum()), 0.0)
        # sum (w / d)(I - e e^T), with 1 - e_x^2 = e_y^2 kept exact
        curv = far_weights / np.where(near, 1.0, dist)
        cross = -curv @ (unit[:, 0] * unit[:, 1])
        hess = np.array([[curv @ unit[:, 1] ** 2, cross], [cross, curv @ unit[:, 0] ** 2]])
        return _Local(f, step_least, step_grad, hess, dist, unit, self.weights)


# relative rounding error allowed in f, a sum of up to thousands of terms
_F_ROUNDING = 64 * np.finfo(float).eps


def _line_search(objective, u, f, step, slope):
    """The first u + step / 2^k (k < 60) with Armijo decrease, up to the
    rounding error of f, and f there; or None, inf."""
    alpha = 1.0
    for _ in range(60):
        trial = u + alpha * step
        f_trial = objective.value(trial)
        if f_trial <= f + 1e-4 * alpha * slope + _F_ROUNDING * f:
            return trial, f_trial
        alpha *= 0.5
    return None, np.inf


def _free_minimiser(a, b, weights):
    """Rates (x, y) minimising f(x, y) = sum_t w_t sqrt(8 (a_t - x)^2
    + 4 (b_t - y)^2), a weighted Fermat-Weber problem, with a certificate.

    Exactly collinear points (correlated OUN at mu = 0 or 1) give a weighted
    median. Otherwise damped Newton steps run, from a kink along its least
    subgradient, with a Weiszfeld step (Tohoku Math. J. 43, 1937)
    where Newton fails to descend, until f(z) - min f <= SSS_TOL * f(z) is
    certified (`_Local.gap`), at the data point nearest to the iterate or at
    the iterate, checked in that order; a minimiser on a data point is
    returned exactly. The gap is evaluated only where f at another point
    leaves the certificate possible. Raises NumericError when no certificate
    holds after SSS_MAX_ITERATIONS steps.
    """
    median = _weighted_median(a, b, weights)
    if median is not None:
        return median
    points = np.stack([a, b], axis=1) * _METRIC
    objective = _Objective(points, weights)
    u = weights @ points / weights.sum()
    for _ in range(SSS_MAX_ITERATIONS):
        here = objective.local(u)
        k = np.argmin(here.dist)
        f_k = objective.value(points[k])
        # f(z) - f(z') <= f(z) - min f <= gap at z for any point z': where
        # f(z) - f(z') exceeds twice the tolerance (a margin for rounding),
        # no certificate can hold at z, and its gap is not evaluated
        if f_k - here.f <= 2 * SSS_TOL * f_k and objective.local(points[k]).gap <= SSS_TOL * f_k:
            return a[k], b[k]
        z, at_z = u, here
        if f_k < here.f * (1 - _F_ROUNDING):
            # descent methods can stall next to a kink: step out from on it,
            # but not on a rounding-level difference, which in a tight
            # cluster of rates sends the iterate from one point to the next
            u, here = points[k], objective.local(points[k])
        norm = np.hypot(*here.grad)
        if here.least < norm:
            # u sits on a kink: descend along -grad, by the curvature away from it
            direction = -here.grad / norm
            step = direction * here.least / max(direction @ here.hess @ direction, 1e-300)
        elif np.linalg.det(here.hess) > 0 and np.trace(here.hess) > 0:
            step = -np.linalg.solve(here.hess, here.grad)
        else:
            step = None
        trial, f_trial = None, np.inf
        if step is not None:
            # the minimiser lies within max_t |u - Q_t| of u
            step *= min(1.0, here.dist.max() / np.hypot(*step))
            # directional derivative, with the kink's share norm - least
            slope = here.grad @ step + (norm - here.least) * np.hypot(*step)
            trial, f_trial = _line_search(objective, u, here.f, step, slope)
        if trial is None and here.least == norm:
            # no kink at u: the Weiszfeld step never increases f
            inv = weights / here.dist
            trial = inv @ points / inv.sum()
        # z is checked before the jump, but after the step, so that f at the
        # trial as well as at the nearest point can rule its gap out
        if (at_z.f - min(f_k, f_trial) <= 2 * SSS_TOL * at_z.f
                and at_z.gap <= SSS_TOL * at_z.f):
            return tuple(z / _METRIC)
        if trial is None:
            break
        u = trial
    raise NumericError("free SSS minimiser found no optimality certificate "
                       f"in {SSS_MAX_ITERATIONS} steps")


def sss_measure(times, rates, reference, free: bool = False) -> float:
    """Temporal-self-similarity measure: (1/T) integral ||L(t) - L*||_F dt
    over the window T of the grid `times`, by trapezoidal quadrature, with
    the Frobenius norm on two-qubit dephasing generators.

    Such a generator is 0 on the four identity slots and has one rate on the
    eight single-flip and another on the four double-flip slots
    (`oracle.dephasing_generator` builds the matrix), so for L(t) with
    `rates` (a(t), b(t)) over `times`, such as `correlated_oun_rates`, and L*
    with the rate pair `reference` (x, y), ||L(t) - L*||_F =
    sqrt(8 (a - x)^2 + 4 (b - y)^2). L* is typically the memoryless-limit
    generator, so the measure reads the time-averaged distance of L(t) from
    the semigroup the dynamics would follow without environmental or channel
    memory. A constant rate broadcasts over the grid. With `free`, (x, y)
    instead ranges over all rate pairs and `reference` is not used. The
    objective is then a weighted geometric median in (x, y), minimised by
    `_free_minimiser` up to a certified relative gap of SSS_TOL, or
    NumericError. The free measure vanishes for any constant L(t). A
    non-finite rate, or a measure that overflows, raises NumericError.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) > 1 and np.isfinite(times).all()
            and np.all(np.diff(times) > 0)):
        raise ValueError("times must be a finite, strictly increasing grid of at "
                         "least two points")
    span = times[-1] - times[0]
    a, b = (np.broadcast_to(np.asarray(rate, dtype=float), times.shape) for rate in rates)
    for name, rate in (("single-flip", a), ("double-flip", b)):
        if not np.isfinite(rate).all():
            raise NumericError(f"{name} rate of L(t) has a non-finite value")

    def average_distance(x, y) -> float:
        norms = np.sqrt(8 * (a - x) ** 2 + 4 * (b - y) ** 2)
        zeta = float(np.trapezoid(norms, times) / span)
        if not np.isfinite(zeta):
            raise NumericError(f"SSS measure is not finite ({zeta})")
        return zeta

    if not free:
        return average_distance(*reference)
    steps = np.diff(times)
    weights = (np.append(steps, 0.0) + np.insert(steps, 0, 0.0)) / (2 * span)
    return average_distance(*_free_minimiser(a, b, weights))
