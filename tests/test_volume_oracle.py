"""The accessible-state volume V(t) = det F(t) against two mpmath oracles.

The first builds F_kl = tr[G_k E(G_l)] from the Kraus operators of each
channel in 60-digit arithmetic and takes its determinant there; the second
evaluates the product of the eigenvalues of F (p^8 tau^4 for dephasing, the
sixteen diagonal entries of the triangular superoperator for amplitude
damping) in the same precision, and the two agree. Both start from the
noise value p(t) that the package computes, so that they check the volume
itself: where p(t) or tau(mu) is small, a double-precision Kraus sum
cancels, and where F is nearly singular a determinant loses relative
accuracy, and the printed volume must still be right to all 12 significant
digits. For OUN, whose p(t) = exp(x) keeps its relative accuracy, the
printed volume is also checked against p(t) evaluated in mpmath.
"""

import mpmath as mp
import numpy as np
import pytest

from corrchan.cli import main
from corrchan.map_algebra import accessible_volume
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p

from conftest import mp_rtn_p

DPS = 60
# V is a product of powers of sums of nonnegative terms, taken by squaring:
# a few dozen roundings of relative size 1.1e-16 at most
REL_TOL = 1e-14


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


def mp_closed_volume(noise, mu, p):
    """The product of the eigenvalues of F at noise value p, in DPS-digit
    arithmetic: p^8 tau^4 for dephasing; for amplitude damping the sixteen
    diagonal entries (1 - mu) a_i a_j + mu e_i e_j of the superoperator, with
    a = (1, s, s, s^2), e = (1, 1, 1, s) and s = sqrt(1 - p)."""
    with mp.workdps(DPS):
        p, mu = mp.mpf(p), mp.mpf(mu)
        if not isinstance(noise, NmadParams):
            return p ** 8 * (mu + (1 - mu) * p ** 2) ** 4
        s = mp.sqrt(1 - p)
        a, e = (1, s, s, s ** 2), (1, 1, 1, s)
        return mp.fprod((1 - mu) * ai * aj + mu * ei * ej
                        for ai, ei in zip(a, e) for aj, ej in zip(a, e))


def _check_against_oracle(noise, mu, times):
    vols = accessible_volume(noise, mu, times)
    for t, v, p in zip(times, vols, noise_p(noise, times)):
        exact = mp_volume(noise, mu, p)
        closed = mp_closed_volume(noise, mu, p)
        assert abs(closed - exact) <= mp.mpf(10) ** (10 - DPS) * abs(exact), (t, closed, exact)
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


@pytest.mark.parametrize("noise", [OUN, RTN, NMAD], ids=["oun", "rtn", "nmad"])
def test_default_preset_volume_matches_closed_form(noise, tmp_path):
    # the three presets of `volume --noise {oun,rtn,nmad}` with default
    # arguments, 1000 points for each mu in 0, 0.5, 0.9. A printed cell may
    # differ from the exact value only where that lies within REL_TOL of the
    # midpoint between two 12-digit decimals, where rounding decides.
    out = tmp_path / "volume.csv"
    kind = {OUN: "oun", RTN: "rtn", NMAD: "nmad"}[noise]
    assert main(["volume", "--noise", kind, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    times = np.linspace(0.0, 100.0, 1000)
    ps = noise_p(noise, times)
    assert len(rows) == 3 * len(times)
    for k, mu in enumerate((0.0, 0.5, 0.9)):
        vols = accessible_volume(noise, mu, times)
        for t, v, p, row in zip(times, vols, ps, rows[k * len(times):]):
            exact = mp_closed_volume(noise, mu, p)
            assert abs(v - exact) <= REL_TOL * exact, (mu, t, v, exact)
            assert row[2] == format(v, ".12g")
            _check_printed(row[2], exact, (mu, t))


def _check_printed(cell, exact, where):
    """A printed cell may differ from the 12 digits of the exact value only
    where that lies within REL_TOL of the midpoint between two 12-digit
    decimals, where rounding decides."""
    with mp.workdps(DPS):
        printed, right = mp.mpf(cell), mp.mpf(mp.nstr(exact, 12))
        if printed != right:
            midpoint = (printed + right) / 2
            assert abs(exact - midpoint) <= REL_TOL * exact, (*where, cell, exact)


def test_overdamped_rtn_volume_preset_matches_mpmath(tmp_path):
    # `volume --noise rtn --a 0.001 --gamma 10 --tmax 1e6 --steps 1001 --mu 0`:
    # V = p^16, with p(t) from mpmath. r t and W t reach 1e7 while p(t) stays
    # above 0.8, and an exponent taken as their difference printed 999 of the
    # 1001 volumes wrong
    noise = RtnParams(a=0.001, gamma=10.0)
    out = tmp_path / "volume.csv"
    assert main(["volume", "--noise", "rtn", "--a", "0.001", "--gamma", "10", "--tmax", "1e6",
                 "--steps", "1001", "--mu", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 1001
    for t, row in zip(np.linspace(0.0, 1e6, 1001), rows):
        with mp.workdps(DPS):
            exact = mp_rtn_p(noise, t) ** 16
        _check_printed(row[2], exact, (t,))
