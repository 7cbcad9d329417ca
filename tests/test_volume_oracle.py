"""The accessible-state volume V(t) = det F(t) against an mpmath oracle.

The oracle builds F_kl = tr[G_k E(G_l)] from the Kraus operators of each
channel in 60-digit arithmetic and takes its determinant there. It starts
from the noise value p(t) that the package computes, so that it checks the
transfer matrix and the determinant: where p(t) or tau(mu) is small, a
double-precision Kraus sum cancels and loses relative accuracy, and the
printed volume must still be right to all 12 significant digits. For OUN,
whose p(t) = exp(x) keeps its relative accuracy, the printed volume is
also checked against p(t) evaluated in mpmath.
"""

import mpmath as mp
import numpy as np
import pytest

from corrchan.cli import main
from corrchan.map_algebra import transfer_sampler
from corrchan.measures import volume_trace
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p

DPS = 60
# numpy's det goes through log|det|, so its relative error grows with |ln V|
# (about 1e-13 at V ~ 1e-193).
REL_TOL = 2e-13


def _mp_oun_p(noise, t):
    """OUN p(t) in mpmath, at the exact float time t."""
    t, G, g = mp.mpf(t), mp.mpf(noise.G), mp.mpf(noise.g)
    return mp.exp(-(G / 2) * (t + (mp.exp(-g * t) - 1) / g))


# Sparse 4 x 4 matrices as {(row, column): value}.
_SIGMA = ({(0, 0): 1, (1, 1): 1}, {(0, 1): 1, (1, 0): 1},
          {(0, 1): -1j, (1, 0): 1j}, {(0, 0): 1, (1, 1): -1})


def _kron(a, b):
    return {(2 * i + k, 2 * j + l): x * y for (i, j), x in a.items() for (k, l), y in b.items()}


def _matmul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[i, l] = out.get((i, l), 0) + x * y
    return out


def _dagger(a):
    return {(j, i): mp.conj(x) for (i, j), x in a.items()}


_BASIS = [{ij: mp.mpf(1) / 2 * x for ij, x in _kron(si, sj).items()}
          for si in _SIGMA for sj in _SIGMA]


def _kraus(noise, p, mu):
    """(weight, operator) pairs of the correlated channel at noise value p."""
    mu = mp.mpf(mu)
    if isinstance(noise, NmadParams):
        a = ({(0, 0): 1, (1, 1): mp.sqrt(1 - p)}, {(0, 1): mp.sqrt(p)})
        e = ({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): mp.sqrt(1 - p)}, {(0, 3): mp.sqrt(p)})
        return ([(1 - mu, _kron(ai, aj)) for ai in a for aj in a]
                + [(mu, ek) for ek in e])
    q = {0: (1 + p) / 2, 3: (1 - p) / 2}
    return [((1 - mu) * q[i] * q[j] + (mu * q[i] if i == j else 0), _kron(_SIGMA[i], _SIGMA[j]))
            for i in (0, 3) for j in (0, 3)]


def mp_apply(noise, mu, p, m):
    """Image of the sparse matrix m under the channel at noise value p, as
    the Kraus sum in the current mpmath precision."""
    image = {}
    for w, k in _kraus(noise, mp.mpf(p), mu):
        for ij, x in _matmul(_matmul(k, m), _dagger(k)).items():
            image[ij] = image.get(ij, 0) + w * x
    return image


def mp_volume(noise, mu, p):
    """det F from the Kraus operators at noise value p, in DPS-digit
    arithmetic; p is the float p(t) or an mpmath number."""
    with mp.workdps(DPS):
        images = [mp_apply(noise, mu, p, gl) for gl in _BASIS]
        f = mp.matrix(16, 16)
        for a, gk in enumerate(_BASIS):
            for b, image in enumerate(images):
                f[a, b] = mp.re(sum(x * image.get((j, i), 0) for (i, j), x in gk.items()))
        return mp.det(f)


def _check_against_oracle(noise, mu, times):
    vols = volume_trace(transfer_sampler(noise, mu)(times), times).series.values
    for t, v, p in zip(times, vols, noise_p(noise, times)):
        exact = mp_volume(noise, mu, p)
        assert abs(v - exact) <= REL_TOL * abs(exact), (t, v, exact)
        assert format(v, ".12g") == format(float(exact), ".12g"), (t, v, exact)


GOLDEN_TIMES = np.linspace(0.0, 30.0, 12)
OUN = OunParams(G=1.0, g=0.05)
RTN = RtnParams(a=0.8, gamma=0.05)
NMAD = NmadParams(gamma0=1.0, g=0.05)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", [OUN, RTN, NMAD], ids=["oun", "rtn", "nmad"])
def test_golden_grid_volume_matches_mpmath(noise, mu):
    # the grid of tests/data/golden/volume_*.csv
    _check_against_oracle(noise, mu, GOLDEN_TIMES)


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.9])
def test_rtn_volume_near_zeros_of_p(mu):
    # the 12 points of the default `volume --noise rtn` grid with the
    # smallest |p(t)|, from 1e-3 down to 1e-5
    grid = np.linspace(0.0, 100.0, 1000)
    times = np.sort(grid[np.argsort(np.abs(noise_p(RTN, grid)))[:12]])
    _check_against_oracle(RTN, mu, times)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_nmad_volume_at_small_damping(mu):
    _check_against_oracle(NMAD, mu, np.array([1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0]))


def test_oun_volume_far_below_double_precision_cancellation(tmp_path):
    # p(t)^16 at mu = 0: about 1e-110 at t = 50 and 1e-193 at t = 75, where a
    # Kraus sum of terms of order 1 cannot resolve F at all
    out = tmp_path / "volume.csv"
    assert main(["volume", "--noise", "oun", "--mu", "0", "--tmax", "100", "--steps", "5",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    printed = {float(t): v for t, _, v, _ in rows}
    assert printed[50.0] == "1.16271809504e-110"
    assert abs(float(printed[75.0]) / 1.889e-193 - 1) < 1e-3
    for t, v in printed.items():
        with mp.workdps(DPS):
            exact = mp_volume(OUN, 0.0, _mp_oun_p(OUN, t))
        assert v == format(float(exact), ".12g"), t
