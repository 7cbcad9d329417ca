"""Printed `blp` and `qec` values against an mpmath oracle.

`blp`: the channel maps each probe pair's difference rho1 - rho2, in
60-digit arithmetic from the noise value p(t) that the package computes
(`mp_apply`), and the trace distance is taken there in closed form: every
difference these channels produce from the default pairs is either
X-shaped or has only single-flip entries, and both have exact trace norms.
The positive variation of the distances is then summed in mpmath, so the
printed backflow is checked to all 12 digits whatever order the package
sums its rises in.

`qec`: the degree-10 success polynomial, and with `--normalized` the
chained mass of all 64 error words, are evaluated in mpmath at the
package's float p(t).
"""

import itertools

import mpmath as mp
import numpy as np
import pytest

from corrchan.cli import main
from corrchan.measures import RISE_THRESHOLD, probe_state
from corrchan.noise import noise_p
from corrchan.params import PROBE_PAIRS

from test_evolve_oracle import NOISES, _digits, _mp_state
from test_volume_oracle import DPS, mp_apply

# the default grid of `blp`, and its default noise parameters, which NOISES repeats
BLP_MUS = (0.0, 0.5, 0.9)
BLP_TIMES = np.linspace(0.0, 100.0, 500)


def _printed(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


def _mp_trace_distance(delta):
    """(1/2) tr|delta| of a sparse Hermitian 4 x 4 delta that is either
    X-shaped, the direct sum of its blocks on the levels {1, 4} and {2, 3},
    or zero there, [[0, B], [B^dagger, 0]] over those two level pairs,
    whose eigenvalues are +-(the singular values of the 2 x 2 B)."""
    def entry(i, j):
        return delta.get((i, j), 0)
    single = [(i, j) for i, j in delta if (i ^ j) in (1, 2)]
    if not single:
        # a Hermitian block [[x, z], [z*, y]] has eigenvalues (x + y +- gap) / 2
        diag = [mp.re(entry(i, i)) for i in range(4)]
        return sum(max(abs(diag[a] + diag[b]),
                       mp.sqrt((diag[a] - diag[b]) ** 2 + 4 * abs(entry(a, b)) ** 2))
                   for a, b in ((0, 3), (1, 2))) / 2
    assert len(single) == len(delta), "neither X-shaped nor single-flip"
    b = [[entry(i, j) for j in (1, 2)] for i in (0, 3)]
    frobenius = sum(abs(x) ** 2 for row in b for x in row)
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    return mp.sqrt(frobenius + 2 * abs(det))


def _mp_positive_variation(values):
    rises = (b - a for a, b in zip(values, values[1:]))
    return mp.fsum(r for r in rises if r > RISE_THRESHOLD)


@pytest.mark.parametrize("family", sorted(NOISES))
def test_blp_matches_mpmath(family, tmp_path):
    """Every row of the default `blp` preset, each pair and the max."""
    noise, args = NOISES[family]
    rows = _printed(tmp_path, ["blp", "--noise", family, *args])
    assert len(rows) == len(BLP_MUS) * (len(PROBE_PAIRS) + 1)
    ps = noise_p(noise, BLP_TIMES)
    deltas = [_mp_state(probe_state(a) - probe_state(b)) for a, b in PROBE_PAIRS]
    labels = [f"{a}:{b}" for a, b in PROBE_PAIRS] + ["max"]
    expected = []
    with mp.workdps(DPS):
        for mu in BLP_MUS:
            values = [_mp_positive_variation([_mp_trace_distance(mp_apply(noise, mu, p, delta))
                                              for p in ps])
                      for delta in deltas]
            expected += [[_digits(mu), label, _digits(value)]
                         for label, value in zip(labels, [*values, max([0, *values])])]
    assert rows == expected


# the default grid of `qec`
QEC_MUS = (0.0, 0.5, 0.9)
QEC_TIMES = np.linspace(0.0, 50.0, 200)


def _mp_success(p, mu):
    """The degree-10 success polynomial of `qec.success_probability_closed`."""
    return (2 + 4 * p**10 * (-1 + mu)**4 + 3 * mu - mu**3
            + p**8 * (26 - 47 * mu + 37 * mu**3 - 16 * mu**4)
            + 2 * p**2 * (10 + 11 * mu + 7 * mu**3 + 2 * mu**4)
            + 2 * p**6 * (12 + mu * (-7 + 12 * mu) * (-3 + mu**2))
            - 4 * p**4 * (-13 + mu + mu**2 * (-12 + mu * (5 + 4 * mu)))) / 128


def _mp_mass(p, mu):
    """The chained mass of `qec.total_probability_mass`: over the 64 words
    of {I, Z}^6, the product of the five neighbouring pair factors and the
    last letter's marginal, summed."""
    q = {"I": (1 + p) / 2, "Z": (1 - p) / 2}
    pair = {(a, b): (1 - mu) * q[a] * q[b] + (mu * q[a] if a == b else 0)
            for a in "IZ" for b in "IZ"}
    return mp.fsum(mp.fprod(pair[w[k], w[k + 1]] for k in range(5)) * q[w[5]]
                   for w in itertools.product("IZ", repeat=6))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("family", ["oun", "rtn"])
def test_qec_matches_mpmath(family, normalized, tmp_path):
    """Every row of the default `qec` preset, with and without --normalized."""
    noise, args = NOISES[family]
    rows = _printed(tmp_path, ["qec", "--noise", family, *args]
                    + (["--normalized"] if normalized else []))
    assert len(rows) == len(QEC_MUS) * len(QEC_TIMES)
    ps = noise_p(noise, QEC_TIMES)
    wrong = []
    with mp.workdps(DPS):
        for k, (t, mu_text, printed) in enumerate(rows):
            mu, p = mp.mpf(QEC_MUS[k // len(ps)]), mp.mpf(ps[k % len(ps)])
            exact = _mp_success(p, mu)
            if normalized:
                exact /= _mp_mass(p, mu)
            if printed != _digits(min(max(exact, 0), 1)):
                wrong.append((t, mu_text, printed, _digits(exact)))
    assert wrong == []
