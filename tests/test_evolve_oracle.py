"""Printed `evolve` and `tracedist` values against an mpmath oracle.

The oracle applies the Kraus operators of each channel to the package's
float initial state in 60-digit arithmetic, starting from the noise value
p(t) that the package computes, so that it checks the state update and
not p(t). Where p(t) or tau(mu) = mu + (1 - mu) p^2 is small, a
double-precision Kraus sum such as q0 rho + q3 Z rho Z cancels and loses
relative accuracy; every printed entry must still be right to all 12
significant digits.
"""

import mpmath as mp
import numpy as np
import pytest

from corrchan.cli import main
from corrchan.measures import probe_state
from corrchan.noise import noise_p

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


@pytest.mark.parametrize("family", sorted(NOISES))
def test_tracedist_matches_mpmath(family, tmp_path):
    # phi+ - phi- = |00><11| + |11><00|: the distance is the factor that
    # scales the |00><11| coherence, tau(mu) under dephasing
    noise, args = NOISES[family]
    rows = _printed_rows(tmp_path, ["tracedist", "--noise", family, *args, *GRID,
                                    "--pair", "phi+:phi-"])
    ps = noise_p(noise, GOLDEN_TIMES)
    rho1, rho2 = _mp_state(probe_state("phi+")), _mp_state(probe_state("phi-"))
    wrong = []
    with mp.workdps(DPS):
        for k, (t, mu_text, printed) in enumerate(rows):
            mu, p = MUS[k // len(ps)], ps[k % len(ps)]
            im1, im2 = mp_apply(noise, mu, p, rho1), mp_apply(noise, mu, p, rho2)
            diff = mp.matrix(4, 4)
            for i in range(4):
                for j in range(4):
                    diff[i, j] = im1.get((i, j), 0) - im2.get((i, j), 0)
            exact = sum(abs(w) for w in mp.eigh(diff, eigvals_only=True)) / 2
            if printed != _digits(exact):
                wrong.append((t, mu_text, printed, _digits(exact)))
    assert wrong == []
