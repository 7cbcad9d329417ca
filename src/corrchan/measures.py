"""Non-Markovianity indicators: trace distance and the information-backflow
measure, concurrence and its revival measure, and the temporal-self-similarity
measure. The accessible-state volume is `map_algebra.accessible_volume`.

Each measure of one input is a float, and of a stack of inputs an array
over the stack's leading axes, each entry with the bits its input gives
alone. The backflow-style measures sum the positive increments of a scalar
trajectory along its last axis, whatever grid it was sampled on; the
maximization over initial states that defines them is evaluated over a
caller-supplied probe family (see `probe_state` and `random_bell_probes`)
rather than over all of state space.

`trace_distance` and `concurrence` take one state or a stack of states of
shape (..., 4, 4), such as a trajectory from `channels.evolve` over a time
grid; `blp_measure` and `nm_concurrence_measure` take a trajectory, or a
stack of them, with time on the axis before the matrix axes. A state is
validated where it enters the package: these measures validate theirs, and
the commands run their kernels on the states that `evolve` returns.

`trace_distance` and `concurrence` take two routes through a stack. A 4 x 4
matrix that is exactly 0 off its diagonal and anti-diagonal is X-shaped. Every
Bell and basis probe is, and both channel families keep it so. For such a
state, or difference of states, both measures have a closed form over the
array, with no cancellation in the trace distance and relative accuracy in a
small concurrence. The other matrices of the stack, and every 2 x 2 one, go to
LAPACK: `eigvalsh` of the difference, and for concurrence one `eigh` of the
state and the singular values of a 4 x 4 product, with no eigenvalue clamp.
Either way, a matrix gives the same bits alone as inside a stack.
`sss_measure` takes the two rates of a dephasing generator over a time grid,
not the 16 x 16 matrices, whose Frobenius distances follow from the rates; or
a (k, n) stack of k such rate pairs on one grid, whose free minimisers iterate
together, each row with the bits it gets alone.
"""

import numpy as np

from .errors import NumericError
from .linalg import lapack, validate_density
from .channels import _FLIPS, SIGMA
from .map_algebra import DOUBLE_FLIP_SLOTS, SINGLE_FLIP_SLOTS
from .params import GRID_ERROR, KETS, _check_probe

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


# The eight entries of a 4 x 4 matrix off its diagonal and anti-diagonal, the
# single-flip coherences. A matrix that is exactly 0 there (-0.0 included) is
# X-shaped: it is the direct sum of its blocks on the levels {1, 4} and {2, 3}.
_NOT_X = _FLIPS == 1


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

    Both states are validated, so their difference is Hermitian, and its
    trace norm is `_trace_distance`.
    """
    rho1 = validate_density(rho1)
    rho2 = validate_density(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    return _trace_distance(rho1 - rho2)


def _trace_distance(delta: np.ndarray):
    """(1/2) tr|delta| of a Hermitian difference of states, or of each of a
    stack: in closed form where it is X-shaped, as between any two states
    evolved from X-shaped probes, and by `eigvalsh` otherwise."""
    x = _x_shaped(delta)
    distance = np.empty(delta.shape[:-2])
    if x.any():
        diag = delta.diagonal(axis1=-2, axis2=-1).real
        distance[...] = 0.5 * (_block_trace_norm(diag[..., 0], diag[..., 3], delta[..., 3, 0])
                               + _block_trace_norm(diag[..., 1], diag[..., 2], delta[..., 2, 1]))
    if not x.all():
        distance[~x] = 0.5 * np.abs(lapack(np.linalg.eigvalsh, delta[~x])).sum(axis=-1)
    return _value(distance)


def positive_variation(values):
    """Sum of the increments above RISE_THRESHOLD along the last axis.

    This is the trapezoidal evaluation of the integral of dX/dt over the
    regions where X increases; the threshold suppresses sign flips at noise
    level. `values` is a finite series of at least two points, which gives a
    float, or a (..., n) stack of them, which gives an array of shape (...,).
    """
    # in C order, each series is summed along contiguous memory, as alone
    values = np.asarray(values, dtype=float, order="C")
    if values.ndim == 0 or values.shape[-1] < 2:
        raise ValueError("positive variation needs a series of at least two "
                         f"points, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("positive variation needs finite values")
    diffs = np.diff(values)
    return _value(np.where(diffs > RISE_THRESHOLD, diffs, 0.0).sum(axis=-1))


def blp_measure(rho1: np.ndarray, rho2: np.ndarray):
    """Information backflow of a trajectory pair: the integrated positive
    increase of the trace distance D(rho1(t), rho2(t)) along it.

    `rho1` and `rho2` are the two trajectories as (n, d, d) stacks over the
    same time grid, which gives a float; or (..., n, d, d) stacks of
    trajectory pairs, whose trace distances are taken in one call, which
    give an array of shape (...,), pair by pair. Maximization over initial
    pairs is the caller's job; evaluate over a probe family and take the max.
    """
    return positive_variation(trace_distance(rho1, rho2))


_YY = np.kron(SIGMA[2], SIGMA[2])


def _wootters(rho: np.ndarray) -> np.ndarray:
    """l1 - l2 - l3 - l4 of each state of a (k, 4, 4) stack, from its
    square-root factor X = V sqrt(w+), rho = X X^dagger, of one `eigh`: the
    Wootters l_k are the singular values of X^T (YY) X, so no eigenvalue is
    squared and none is clamped. Where an eigenvalue of rho is near 0, C is
    not Lipschitz in rho, and its rounding reaches C as its square root."""
    w, v = lapack(np.linalg.eigh, rho)  # rho is a valid state
    w, v = w[..., ::-1], v[..., ::-1]  # descending, the order the goldens were recorded in
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
    return _concurrence(rho)


def _concurrence(rho: np.ndarray):
    """The concurrence of a valid two-qubit state, or of each of a stack."""
    diag = rho.diagonal(axis1=-2, axis2=-1).real
    # a valid population may round just below 0; its product then reads 0
    c = np.asarray(2 * np.maximum(
        np.abs(rho[..., 0, 3]) - np.sqrt(np.maximum(diag[..., 1] * diag[..., 2], 0.0)),
        np.abs(rho[..., 1, 2]) - np.sqrt(np.maximum(diag[..., 0] * diag[..., 3], 0.0))))
    x = _x_shaped(rho)
    if not x.all():
        c[~x] = _wootters(rho[~x])
    # min(1, max(0, c)) with Python's comparison semantics, so -0.0 reads 0
    c = np.where(c > 0.0, c, 0.0)
    return _value(np.where(c < 1.0, c, 1.0))


def nm_concurrence_measure(states: np.ndarray):
    """Integrated positive increase of the concurrence along a trajectory,
    an (n, 4, 4) stack of states, or along each of a (..., n, 4, 4) stack."""
    return positive_variation(concurrence(states))


# --------------------------------------------------------------------------
# Probe states
# --------------------------------------------------------------------------

def probe_state(name: str) -> np.ndarray:
    """Named two-qubit probe state as a density matrix; the names are
    `params.PROBE_NAMES`."""
    _check_probe(name)
    ket = np.array(KETS[name], dtype=complex)
    return np.outer(ket, ket.conj())


def random_bell_probes(count: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded local-unitary rotations (U (x) V)|phi+> as density matrices.

    U and V are Haar-random: the Q factor of a complex Gaussian matrix, its
    columns rephased by the diagonal of R. All of them come from one draw,
    in the order of the real and then the imaginary part of U, then of V,
    probe by probe, and one stacked QR."""
    z = np.random.default_rng(seed).normal(size=(count, 2, 2, 2, 2))
    q, r = np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])
    diag = r.diagonal(axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    u = (q[:, 0, :, None, :, None] * q[:, 1, None, :, None, :]).reshape(count, 4, 4)  # U (x) V
    ket = u @ np.array(KETS["phi+"], dtype=complex)
    return list(ket[:, :, None] * ket.conj()[:, None, :])


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


def _chord_median(a, b, weights):
    """Per row of the (k, n) rate stacks a and b, the weighted median of the
    points (a, b) in their order along the chord from the first point to the
    farthest one, and whether the row's points lie exactly on that line. On
    a line the median is the exact minimiser of sum w |P - z|; off it, a data
    point near the minimiser of the row, from which the iteration starts."""
    da, db = a - a[:, :1], b - b[:, :1]
    far = np.argmax(np.abs(da) + np.abs(db), axis=-1)[:, None]
    da_far, db_far = np.take_along_axis(da, far, -1), np.take_along_axis(db, far, -1)
    collinear = np.all(da * db_far == db * da_far, axis=-1)
    order = np.argsort(da * da_far + db * db_far, axis=-1, kind="stable")
    cumulative = np.cumsum(weights[order], axis=-1)
    median = np.sum(cumulative < 0.5 * cumulative[:, -1:], axis=-1)
    k = np.take_along_axis(order, median[:, None], -1)
    return np.take_along_axis(a, k, -1)[:, 0], np.take_along_axis(b, k, -1)[:, 0], collinear


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


def _gap(local, row, weights) -> float:
    """A bound on f(u) - min f at the point u of one row of a `_local`
    result, from f(u) and the distances d_t and unit vectors e_t from the
    points to u: a sort of the distances and a fractional knapsack over the
    points.

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
    f, _, _, _, dist, unit = (field[row] for field in local)
    by_dist = np.argsort(dist)
    moved = 2 * np.cumsum(weights[by_dist] * dist[by_dist])
    m = int(np.searchsorted(moved, SSS_TOL * f / 2, side="right"))
    moved = moved[m - 1] if m else 0.0
    others = by_dist[m:]
    grad = weights[others] @ unit[others]
    need = max(float(np.hypot(*grad)) - float(weights[by_dist[:m]].sum()), 0.0)
    share = np.maximum(unit[others] @ grad, 0.0) / max(np.hypot(*grad), 1e-300)
    return moved + (_cheapest_fill(need, 2 * weights[others] * share, dist[others] * share)
                    if need > 0 else 0.0)


# Each row of a stack gives the bits it gives alone: a per-row dot product is
# `np.vecdot` or a stacked `matmul`, never a matrix-vector product `X @ w`,
# whose sums run in another order.
def _offsets(u, points):
    """The offsets u - Q_t, shape (k, n, 2), and the distances |u - Q_t| of
    each row: iterates u (k, 2) and points Q (k, n, 2) in scaled coordinates."""
    offset = u[:, None] - points
    dist = offset[..., 0] ** 2
    dist += offset[..., 1] ** 2
    return offset, np.sqrt(dist, out=dist)


def _objective(u, points, weights):
    """f(u) = sum_t w_t |u - Q_t| of each row."""
    return np.vecdot(_offsets(u, points)[1], weights)


def _local(u, points, weights):
    """f(u), the least subgradient norm, gradient and Hessian of the terms
    more than rho = SSS_TOL f / 6 from u (the nearer ones form a kink at u),
    and the distances d_t and unit vectors e_t from the points to u, of
    each row. The unit vectors overwrite the offsets, and ex, ey are views
    of them, so that a long grid holds fewer stack-sized arrays at once."""
    unit, dist = _offsets(u, points)
    f = np.vecdot(dist, weights)
    unit /= np.where(dist > 0, dist, 1.0)[..., None]
    ex, ey = unit[..., 0], unit[..., 1]
    near = dist <= (SSS_TOL * f / 6)[:, None]
    far_weights = np.where(near, 0.0, weights)
    grad = (far_weights[:, None] @ unit)[:, 0]
    # a sum of at most two near weights rounds alike in any order
    near_weight = np.where(near, weights, 0.0).sum(axis=-1)
    for row in np.flatnonzero(near.sum(axis=-1) > 2):
        near_weight[row] = weights[near[row]].sum()
    least = np.maximum(np.hypot(grad[:, 0], grad[:, 1]) - near_weight, 0.0)
    # sum (w / d)(I - e e^T), with 1 - e_x^2 = e_y^2 kept exact
    curv = far_weights / np.where(near, 1.0, dist)
    cross = np.vecdot(-curv, ex * ey)
    hess = np.stack([np.vecdot(curv, ey ** 2), cross,
                     cross, np.vecdot(curv, ex ** 2)], axis=-1).reshape(-1, 2, 2)
    return f, least, grad, hess, dist, unit


# relative rounding error allowed in f, a sum of up to thousands of terms
_F_ROUNDING = 64 * np.finfo(float).eps


def _line_search(u, f, step, slope, points, weights, todo):
    """In each row of `todo`, the first u + step / 2^k (k < 60) with Armijo
    decrease, up to the rounding error of f, and f there; nan and inf in
    the other rows, and where no step decreases f."""
    trial, f_trial = np.full_like(u, np.nan), np.full(len(u), np.inf)
    alpha = 1.0  # every row still searching is at one alpha
    while len(todo) and alpha > 2.0 ** -60:
        t = u[todo] + alpha * step[todo]
        f_t = _objective(t, points[todo], weights)
        ok = f_t <= f[todo] + 1e-4 * alpha * slope[todo] + _F_ROUNDING * f[todo]
        trial[todo[ok]], f_trial[todo[ok]] = t[ok], f_t[ok]
        alpha, todo = alpha * 0.5, todo[~ok]
    return trial, f_trial


def _weiszfeld(points, weights, dist):
    """The Weiszfeld step (Tohoku Math. J. 43, 1937) of each row: the mean
    of its points Q_t weighted by w_t / d_t, d_t their distances from the
    iterate. It is taken only off a kink; a point at the iterate whose
    weight is lost in the rounding of the gradient norm makes none, and is
    left out of the mean."""
    off = dist > 0
    inv = np.where(off, weights, 0.0) / np.where(off, dist, 1.0)
    return (inv[:, None] @ points)[:, 0] / inv.sum(axis=-1)[:, None]


def _free_minimiser(a, b, weights):
    """Rates (x, y) minimising f(x, y) = sum_t w_t sqrt(8 (a_t - x)^2
    + 4 (b_t - y)^2), a weighted Fermat-Weber problem, with a certificate,
    for each row of the (..., n) rate stacks a and b: arrays x and y of
    shape a.shape[:-1]. Each row gets the bits it gets alone.

    Exactly collinear points (correlated OUN at mu = 0 or 1) give a weighted
    median, and the other rows start at the same ordering's median, their
    chord median (`_chord_median`): a data point near the minimiser, at no
    extra cost. OUN rates crowd at their t -> infinity asymptote, so the
    weighted centroid lies far from the minimiser, and the first steps from
    it barely lower f. The rows iterate together, each on its own branch:
    damped Newton steps, from a kink along its least subgradient, with a
    Weiszfeld step (`_weiszfeld`) where Newton fails to descend, until
    f(z) - min f <= SSS_TOL * f(z) is certified (`_gap`), at the data point
    nearest to the iterate or at the iterate, checked in that order; a
    minimiser on a data point is returned exactly. A row leaves once
    certified. The gap is evaluated only where f at another point leaves
    the certificate possible. Raises NumericError when a row has no
    certificate after SSS_MAX_ITERATIONS steps.
    """
    shape = np.shape(a)[:-1]
    a, b = (np.reshape(rate, (-1, np.shape(rate)[-1])) for rate in (a, b))
    x, y, collinear = _chord_median(a, b, weights)
    rows = np.flatnonzero(~collinear)
    points = np.stack([a[rows], b[rows]], axis=-1) * _METRIC
    u = np.stack([x[rows], y[rows]], axis=-1) * _METRIC
    for _ in range(SSS_MAX_ITERATIONS):
        if not len(rows):
            break
        z, at_z = u, _local(u, points, weights)
        f, least, grad, hess, dist = at_z[:5]
        k = np.argmin(dist, axis=-1)
        point_k = points[np.arange(len(rows)), k]
        f_k = _objective(point_k, points, weights)
        # f(z) - f(z') <= f(z) - min f <= gap at z for any point z': where
        # f(z) - f(z') exceeds twice the tolerance (a margin for rounding),
        # no certificate can hold at z, and its gap is not evaluated
        near_k = f_k - f <= 2 * SSS_TOL * f_k
        # descent methods can stall next to a kink: step out from on it,
        # but not on a rounding-level difference, which in a tight
        # cluster of rates sends the iterate from one point to the next
        jump = f_k < f * (1 - _F_ROUNDING)
        go = np.ones(len(rows), dtype=bool)
        if (near_k | jump).any():
            # from a data point, such as the start, the nearest point is u
            at_k = at_z if np.array_equal(point_k, u) else _local(point_k, points, weights)
            # the rows that jump go on from their nearest point
            u = np.where(jump[:, None], point_k, u)
            f, least, grad, hess, dist = (
                np.where(jump.reshape(-1, *(1,) * (now.ndim - 1)), new, now)
                for now, new in zip(at_z[:5], at_k))
        norm = np.hypot(grad[:, 0], grad[:, 1])
        step = np.zeros_like(u)
        # on a kink: descend along -grad, by the curvature away from it
        kink = go & (least < norm)
        direction = -grad[kink] / norm[kink, None]
        curvature = np.vecdot((direction[:, None] @ hess[kink])[:, 0], direction)
        step[kink] = direction * least[kink, None] / np.maximum(curvature, 1e-300)[:, None]
        newton = go & ~kink
        newton[newton] = ((np.linalg.det(hess[newton]) > 0)
                          & (np.trace(hess[newton], axis1=1, axis2=2) > 0))
        step[newton] = -np.linalg.solve(hess[newton], grad[newton][..., None])[..., 0]
        # the minimiser lies within max_t |u - Q_t| of u
        length = np.hypot(step[:, 0], step[:, 1])
        step *= np.minimum(1.0, dist.max(axis=-1) / np.where(length > 0, length, 1.0))[:, None]
        # directional derivative, with the kink's share norm - least
        slope = np.vecdot(grad, step) + (norm - least) * np.hypot(step[:, 0], step[:, 1])
        trial, f_trial = _line_search(u, f, step, slope, points, weights,
                                      np.flatnonzero(kink | newton))
        moving = f_trial < np.inf
        # no kink at u: the Weiszfeld step never increases f
        weiszfeld = np.flatnonzero(go & ~moving & (least == norm))
        if len(weiszfeld):
            trial[weiszfeld] = _weiszfeld(points[weiszfeld], weights, dist[weiszfeld])
            moving[weiszfeld] = True
        # the nearest point and then z are checked after the step, so that f
        # at the trial as well can rule their gaps out: it bounds min f from
        # above, like f at z for the nearest point and f there for z (a row
        # that passes at the nearest point is near_k, so at_k is there)
        f_z = at_z[0]
        for i in np.flatnonzero(f_k - np.minimum(f_trial, f_z) <= 2 * SSS_TOL * f_k):
            if _gap(at_k, i, weights) <= SSS_TOL * f_k[i]:
                go[i] = False
                x[rows[i]], y[rows[i]] = a[rows[i], k[i]], b[rows[i], k[i]]
        for i in np.flatnonzero(go & (f_z - np.minimum(f_k, f_trial) <= 2 * SSS_TOL * f_z)):
            if _gap(at_z, i, weights) <= SSS_TOL * f_z[i]:
                go[i] = False
                x[rows[i]], y[rows[i]] = z[i] / _METRIC
        if not moving[go].all():
            break
        u, rows, points = trial[go], rows[go], points[go]
    if len(rows):
        raise NumericError("free SSS minimiser found no optimality certificate "
                           f"in {SSS_MAX_ITERATIONS} steps")
    return x.reshape(shape), y.reshape(shape)


def sss_measure(times, rates, reference=None):
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
    memory. A constant rate broadcasts over the grid. With `reference`
    None, (x, y) instead ranges over all rate pairs: the free measure. Its
    objective is a weighted geometric median in (x, y), minimised by
    `_free_minimiser` up to a certified relative gap of SSS_TOL, or
    NumericError. The free measure vanishes for any constant L(t). A
    non-finite rate, or a measure that overflows, raises NumericError; a
    subnormal grid step, whose trapezoid weight lacks precision, ValueError.

    Rates over the grid give a float. Rate stacks of shape (k, n), k
    generators on one grid of n times, give the k measures as an array,
    evaluated together (the free minimisers in one iteration), each with
    the bits that its row gives alone; a failure in any row fails the call.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) > 1 and np.isfinite(times).all()
            and np.diff(times).min() >= np.finfo(float).tiny):
        raise ValueError(GRID_ERROR)
    span = times[-1] - times[0]
    a, b = np.broadcast_arrays(*(np.asarray(rate, dtype=float) for rate in rates), times)[:2]
    shape = a.shape[:-1]
    a, b = a.reshape(-1, len(times)), b.reshape(-1, len(times))
    for name, rate in (("single-flip", a), ("double-flip", b)):
        if not np.isfinite(rate).all():
            raise NumericError(f"{name} rate of L(t) has a non-finite value")
    if reference is None:
        steps = np.diff(times)
        weights = (np.append(steps, 0.0) + np.insert(steps, 0, 0.0)) / (2 * span)
        reference = _free_minimiser(a, b, weights)
    x, y = (np.reshape(rate, (-1, 1)) for rate in reference)
    zeta = np.trapezoid(np.sqrt(8 * (a - x) ** 2 + 4 * (b - y) ** 2), times, axis=-1) / span
    if not np.isfinite(zeta).all():
        raise NumericError(f"SSS measure is not finite ({zeta[~np.isfinite(zeta)][0]})")
    return _value(zeta.reshape(shape))
