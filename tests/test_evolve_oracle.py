"""Printed `evolve`, `tracedist` and `concurrence` values against an mpmath
oracle.

The oracle applies the Kraus operators of each channel to the package's
float initial state in 60-digit arithmetic, starting from the noise value
p(t) that the package computes, so that it checks the state update and
not p(t). Where p(t) or tau(mu) = mu + (1 - mu) p^2 is small, a
double-precision Kraus sum such as q0 rho + q3 Z rho Z cancels and loses
relative accuracy; every printed entry must still be right to all 12
significant digits. The concurrence of a state that is not X-shaped is
checked against the Wootters formula in mpmath on the package's float
state, to an absolute bound.
"""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from corrchan.channels import evolve
from corrchan.cli import main
from corrchan.measures import concurrence, probe_state
from corrchan.noise import NmadParams, RtnParams, noise_p

from conftest import mp_nmad_g, mp_rtn_p
from test_volume_oracle import DPS, GOLDEN_TIMES, NMAD, OUN, RTN, mp_apply

# the arguments of tests/data/golden/{evolve,tracedist}_*.csv
MUS = (0.0, 0.5, 1.0)
NOISES = {"rtn": (RTN, ["--a", "0.8", "--gamma", "0.05"]),
          "oun": (OUN, ["--G", "1", "--g", "0.05"]),
          "nmad": (NMAD, ["--gamma0", "1", "--g", "0.05"])}
GRID = ["--mu", "0,0.5,1", "--tmax", "30", "--steps", "12"]


def _printed_rows(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(MUS) * len(GOLDEN_TIMES)
    return rows


def _mp_state(rho):
    return {(i, j): mp.mpc(x.real, x.imag) for (i, j), x in np.ndenumerate(rho) if x != 0}


def _digits(x) -> str:
    return format(float(x), ".12g")


@pytest.mark.parametrize("state", ["phi+", "psi+", "++", "alpha"])
@pytest.mark.parametrize("family", sorted(NOISES))
def test_evolve_entries_match_mpmath(family, state, tmp_path):
    noise, args = NOISES[family]
    rows = _printed_rows(tmp_path, ["evolve", "--noise", family, *args, *GRID,
                                    "--state", state])
    ps = noise_p(noise, GOLDEN_TIMES)
    rho = _mp_state(probe_state(state))
    wrong = []
    with mp.workdps(DPS):
        for k, row in enumerate(rows):
            mu, p = MUS[k // len(ps)], ps[k % len(ps)]
            image = mp_apply(noise, mu, p, rho)
            for a in range(16):
                exact = image.get(divmod(a, 4), 0)
                for printed, part in zip(row[2 + 2 * a:4 + 2 * a], (mp.re, mp.im)):
                    if printed != _digits(part(exact)):
                        wrong.append((row[0], row[1], a, printed, _digits(part(exact))))
    assert wrong == []


# Over-damped presets at mu = 0, with p(t) from mpmath: their slow
# exponential decays over times where r t and W t are large, and an exponent
# taken as the difference (W - r) t printed 393 RTN rows with a wrong rho14,
# and rho44 = 1 for NMAD at t = 5e299, where it is exp(-1)
OVERDAMPED_PRESETS = {
    "rtn": (RtnParams(a=0.01, gamma=5.0), ["--a", "0.01", "--gamma", "5", "--tmax", "5000",
                                           "--steps", "1001", "--state", "phi+"]),
    "nmad": (NmadParams(gamma0=1e-300, g=1.0), ["--gamma0", "1e-300", "--g", "1", "--tmax",
                                                "1e300", "--steps", "3", "--state", "11"]),
}


@pytest.mark.parametrize("family", sorted(OVERDAMPED_PRESETS))
def test_overdamped_preset_entries_match_mpmath(family, tmp_path):
    noise, args = OVERDAMPED_PRESETS[family]
    out = tmp_path / "out.csv"
    assert main(["evolve", "--noise", family, *args, "--mu", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    rho = _mp_state(probe_state(args[-1]))
    wrong = []
    for row in rows:
        t = float(row[0])
        if isinstance(noise, RtnParams):
            p = mp_rtn_p(noise, t)
        else:
            p = 1 - mp_nmad_g(noise, t) ** 2
        with mp.workdps(DPS):
            image = mp_apply(noise, 0.0, p, rho)
            for a in range(16):
                exact = image.get(divmod(a, 4), 0)
                for printed, part in zip(row[2 + 2 * a:4 + 2 * a], (mp.re, mp.im)):
                    if printed != _digits(part(exact)):
                        wrong.append((row[0], a, printed, _digits(part(exact))))
    assert wrong == []
    if family == "nmad":
        assert rows[1][0] == "5e+299" and rows[1][-2] == _digits(mp.e ** -1)


# phi+ - phi- and psi+ - psi- are X-shaped, and their distances are the
# factor that scales the |00><11| or the |01><10| coherence, tau(mu) under
# dephasing; ++ - -- is not, and its distance is an eigensolve
TRACEDIST_PAIRS = ("phi+:phi-", "psi+:psi-", "++:--")


def _mp_matrix(image):
    m = mp.matrix(4, 4)
    for (i, j), x in image.items():
        m[i, j] = x
    return m


@pytest.mark.parametrize("family", sorted(NOISES))
def test_tracedist_matches_mpmath(family, tmp_path):
    noise, args = NOISES[family]
    ps = noise_p(noise, GOLDEN_TIMES)
    wrong = []
    for pair in TRACEDIST_PAIRS:
        rows = _printed_rows(tmp_path, ["tracedist", "--noise", family, *args, *GRID,
                                        "--pair", pair])
        rho1, rho2 = (_mp_state(probe_state(name)) for name in pair.split(":"))
        with mp.workdps(DPS):
            for k, (t, mu_text, printed) in enumerate(rows):
                mu, p = MUS[k // len(ps)], ps[k % len(ps)]
                diff = (_mp_matrix(mp_apply(noise, mu, p, rho1))
                        - _mp_matrix(mp_apply(noise, mu, p, rho2)))
                exact = sum(abs(w) for w in mp.eigh(diff, eigvals_only=True)) / 2
                if printed != _digits(exact):
                    wrong.append((pair, t, mu_text, printed, _digits(exact)))
    assert wrong == []


# The default `concurrence` preset: 500 times up to 100 at each of three mu.
PRESET_MUS = (0.0, 0.5, 0.9)
PRESET_TIMES = np.linspace(0.0, 100.0, 500)

# Known exception: rows of the NMAD preset at mu = 0, by grid index, whose
# printed concurrence is off in its last digits. For phi+ under uncorrelated
# damping C = 2 (|rho14| - rho22) = (1 - p)^2, and where p is near 1 the two
# terms cancel: each is right to an ulp, and the difference is right to
# about 1e-19 absolute, which is not 12 digits of a C below 1e-5.
NMAD_CANCELLING_ROWS = frozenset({156, 251, 256, 355, 356, 357, 358, 442, 452, 456,
                                  457, 458, 459, 477})
CANCELLING_BOUND = 1e-17


def _mp_x_concurrence(image):
    """2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)) of
    an X-shaped sparse state (Yu and Eberly, Quantum Inf. Comput. 7, 459)."""
    def entry(i, j):
        return image.get((i, j), 0)
    return 2 * max(0, abs(entry(0, 3)) - mp.sqrt(mp.re(entry(1, 1)) * mp.re(entry(2, 2))),
                   abs(entry(1, 2)) - mp.sqrt(mp.re(entry(0, 0)) * mp.re(entry(3, 3))))


@pytest.mark.parametrize("family", sorted(NOISES))
def test_concurrence_matches_mpmath(family, tmp_path):
    """Every printed row of the default `concurrence` preset is right to 12
    digits, except the cancelling NMAD rows, which are right to 1e-17."""
    noise, args = NOISES[family]
    out = tmp_path / "out.csv"
    assert main(["concurrence", "--noise", family, *args, "--mu", "0,0.5,0.9",
                 "--tmax", "100", "--steps", "500", "--probe", "phi+", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(PRESET_MUS) * len(PRESET_TIMES)
    ps = noise_p(noise, PRESET_TIMES)
    uncorrelated = concurrence(evolve(noise, 0.0, PRESET_TIMES, probe_state("phi+")))
    rho = _mp_state(probe_state("phi+"))
    wrong, cancelling = [], set()
    with mp.workdps(DPS):
        for k, (t, mu_text, printed) in enumerate(rows):
            mu, i = PRESET_MUS[k // len(ps)], k % len(ps)
            exact = _mp_x_concurrence(mp_apply(noise, mu, ps[i], rho))
            if printed == _digits(exact):
                continue
            if family == "nmad" and mu == 0.0 and i in NMAD_CANCELLING_ROWS:
                assert abs(uncorrelated[i] - exact) <= CANCELLING_BOUND, (t, printed, exact)
                cancelling.add(i)
            else:
                wrong.append((t, mu_text, printed, _digits(exact)))
    assert wrong == []
    assert cancelling == (NMAD_CANCELLING_ROWS if family == "nmad" else set())


GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("family", sorted(NOISES))
def test_concurrence_goldens_match_mpmath(family):
    """Every row of tests/data/golden/concurrence_*.csv, which the golden
    tests compare byte for byte, is right to 12 digits."""
    noise = NOISES[family][0]
    lines = (GOLDEN_DIR / f"concurrence_{family}.csv").read_text().splitlines()[1:]
    assert len(lines) == len(MUS) * len(GOLDEN_TIMES)
    ps = noise_p(noise, GOLDEN_TIMES)
    rho = _mp_state(probe_state("phi+"))
    wrong = []
    with mp.workdps(DPS):
        for k, line in enumerate(lines):
            t, mu_text, printed = line.split(",")
            exact = _mp_x_concurrence(mp_apply(noise, MUS[k // len(ps)], ps[k % len(ps)], rho))
            if printed != _digits(exact):
                wrong.append((t, mu_text, printed, _digits(exact)))
    assert wrong == []


_YY = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])


def _mp_wootters(rho):
    """max(0, l1 - l2 - l3 - l4) of the float state rho, with the l_k the
    square roots of the eigenvalues of sqrt(rho) rho_tilde sqrt(rho), in the
    current mpmath precision (Wootters, PRL 80, 2245, 1998)."""
    r = mp.matrix(rho.tolist())
    w, v = mp.eighe(r)
    root = v * mp.diag([mp.sqrt(max(x, 0)) for x in w]) * v.transpose_conj()
    squares = mp.eighe(root * _YY * r.conjugate() * _YY * root, eigvals_only=True)
    lam = sorted((mp.sqrt(max(x, 0)) for x in squares), reverse=True)
    return max(0, lam[0] - lam[1] - lam[2] - lam[3])


# Every 25th row of the default preset, and the rows where an eigenvalue
# clamp once dropped a genuine l_k: alpha under OUN at mu = 0 (t = 0.40) and
# ++ under NMAD at mu = 0.5 (t = 51.3)
WOOTTERS_ROWS = sorted({*range(0, len(PRESET_TIMES), 25), 2, 256})
# the l_k are singular values of a product of unit-norm factors, each right
# to a few ulps of 1 absolute, and C sums four of them
WOOTTERS_BOUND = 16 * np.finfo(float).eps


@pytest.mark.parametrize("probe", ["alpha", "++"])
@pytest.mark.parametrize("family", sorted(NOISES))
def test_concurrence_of_non_x_probe_matches_mpmath(family, probe):
    noise = NOISES[family][0]
    far = []
    for mu in PRESET_MUS:
        states = evolve(noise, mu, PRESET_TIMES[WOOTTERS_ROWS], probe_state(probe))
        values = concurrence(states)
        with mp.workdps(40):
            for i, state, value in zip(WOOTTERS_ROWS, states, values):
                exact = _mp_wootters(state)
                if not abs(value - exact) <= WOOTTERS_BOUND:
                    far.append((mu, i, value, float(exact)))
    assert far == []
