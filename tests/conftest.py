import mpmath as mp
import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_density(dim, rng):
    """Random full-rank density matrix (Ginibre construction)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


# Bloch triples of the four Bell states, vertices of the state tetrahedron.
BELL_VERTICES = np.array([
    (1.0, -1.0, 1.0),   # phi+
    (-1.0, 1.0, 1.0),   # phi-
    (1.0, 1.0, -1.0),   # psi+
    (-1.0, -1.0, -1.0),  # psi-
])


def random_bloch_triple(rng):
    """Random point inside the Bell-diagonal tetrahedron."""
    w = rng.dirichlet(np.ones(4))
    return tuple(w @ BELL_VERTICES)


def mp_damped(r, nu0_sq, t):
    """exp(-r t)(cosh(W t) + (r / W) sinh(W t)), W = sqrt(r^2 - nu0^2), the
    over-damped solution of y'' + 2r y' + nu0^2 y = 0 from y(0) = 1,
    y'(0) = 0, at the exact float time t, as an mpmath number: 400-digit
    arithmetic resolves W from r where nu0^2 / r^2 is 1e-306, and W t where
    it is 1e300."""
    with mp.workdps(400):
        r, t = mp.mpf(r), mp.mpf(t)
        w = mp.sqrt(r * r - nu0_sq)
        return mp.e ** (-r * t) * (mp.cosh(w * t) + r / w * mp.sinh(w * t))


def mp_rtn_p(params, t):
    """RTN p(t) in mpmath, over damped: r = gamma, nu0^2 = 4 a^2."""
    return mp_damped(params.gamma, 4 * mp.mpf(params.a) ** 2, t)


def mp_nmad_g(params, t):
    """NMAD G(t) in mpmath, over damped: r = g / 2, nu0^2 = gamma0 g / 2."""
    return mp_damped(mp.mpf(params.g) / 2, mp.mpf(params.gamma0) * params.g / 2, t)
