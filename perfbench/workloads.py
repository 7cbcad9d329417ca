"""The three workloads: seeded `corrchan` command lists and their checks.

Each workload is one closed-loop client issuing its commands one after
another. The seed picks noise parameters, probe states, mu values and the
seed of the random BLP probes inside the ranges written next to each
command; grid sizes are fixed, so every seed costs about the same work.
`corrchan` only ever sees the generated argv.
"""

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference as ref


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    A command with `csv` set gets `--out <file>` appended and is checked on
    that file; otherwise its stdout is checked. `check(text, outputs)` gets
    the outputs of the whole pass by label, for checks across commands, and
    returns None or a reason. A probe has no check: it must exit with code 2
    and print nothing on stdout. `grid_points` counts the (mu, t) points the
    command evaluates (times g^-1 values for sss), the base of the
    per-point ratios.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[str, dict[str, str]], str | None] | None
    csv: bool = False
    grid_points: int = 0

    @property
    def probe(self) -> bool:
        return self.check is None


# Every probe state except "--": argparse takes a value of "--" for the end
# of options, and `--state=--` escapes main as a TypeError (exit 1), so that
# state cannot be asked for on the command line at all.
STATES = tuple(name for name in ref.KETS if name != "--")


def _num(x: float) -> str:
    return f"{x:.4g}"


def _mus(rng: random.Random) -> list[float]:
    """Uncorrelated, intermediate and strongly correlated: mu = 0,
    U(0.3, 0.7) and U(0.8, 0.95), rounded to two decimals."""
    return [0.0, round(rng.uniform(0.3, 0.7), 2), round(rng.uniform(0.8, 0.95), 2)]


def _grid_args(mus, tmax, steps) -> tuple[str, ...]:
    return ("--mu", ",".join(_num(m) for m in mus), "--tmax", _num(tmax),
            "--steps", str(steps))


def _points(mus, tmax, steps) -> int:
    return len(mus) * steps


def _rtn(rng):
    """RTN with 2a/gamma in [6, 50]: the non-Markovian regime where p(t)
    oscillates through zero, so concurrence and trace distance revive."""
    a, gamma = round(rng.uniform(0.3, 1.0), 3), round(rng.uniform(0.02, 0.1), 3)
    return (a, gamma), ("--noise", "rtn", "--a", _num(a), "--gamma", _num(gamma)), \
        partial(ref.rtn_p, a=a, gamma=gamma)


def _oun(rng):
    """OUN with G in [0.5, 1.5] and correlation time 1/g in [5, 50]."""
    G, g = round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.02, 0.2), 3)
    return (G, g), ("--noise", "oun", "--G", _num(G), "--g", _num(g)), \
        partial(ref.oun_p, G=G, g=g)


def _nmad(rng):
    """NMAD with g < 2 gamma0 (gamma0 in [0.5, 1.5], g in [0.02, 0.2]):
    G(t) oscillates through zero, so p(t) reaches 1 on the grid."""
    gamma0, g = round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.02, 0.2), 3)
    return (gamma0, g), ("--noise", "nmad", "--gamma0", _num(gamma0), "--g", _num(g))


def trajectories(rng: random.Random) -> list[Command]:
    """Per-time-point rebuilds: each (mu, t) builds a Kraus set, applies it
    with two `validate_density` calls and evaluates a measure; `blp` builds
    the same channel again for every probe pair. Never touches qec or scipy.
    """
    cmds = []
    (gamma0, g), nmad_args = _nmad(rng)
    mus, state = _mus(rng), rng.choice(STATES)
    grid = (mus, 40.0, 200)
    cmds.append(Command(
        "evolve", ("evolve", *nmad_args, *_grid_args(*grid), f"--state={state}"),
        lambda text, _, args=(gamma0, g, *grid, state): ref.check_evolve_nmad(text, *args),
        csv=True, grid_points=_points(*grid)))

    _, rtn_args, p_rtn = _rtn(rng)
    mus, probe = _mus(rng), rng.choice(ref.BELL_STATES)
    grid = (mus, 100.0, 200)
    cmds.append(Command(
        "concurrence", ("concurrence", *rtn_args, *_grid_args(*grid), "--probe", probe),
        lambda text, _, grid=grid: ref.check_tau_series(
            text, "concurrence", p_rtn, *grid, atol=ref.CONCURRENCE_ATOL),
        csv=True, grid_points=_points(*grid)))

    _, oun_args, p_oun = _oun(rng)
    mus, pair = _mus(rng), rng.choice(("phi+:phi-", "psi+:psi-"))
    grid = (mus, 100.0, 200)
    cmds.append(Command(
        "tracedist", ("tracedist", *oun_args, *_grid_args(*grid), "--pair", pair),
        lambda text, _, grid=grid: ref.check_tau_series(text, "trace_distance", p_oun, *grid),
        csv=True, grid_points=_points(*grid)))

    _, rtn_args, p_blp = _rtn(rng)
    mus, n_random = _mus(rng), 2
    grid = (mus, 100.0, 100)
    cmds.append(Command(
        "blp", ("blp", *rtn_args, *_grid_args(*grid), "--random-probes", str(n_random),
                "--seed", str(rng.randrange(10 ** 6))),
        lambda text, _, grid=grid: ref.check_blp(text, p_blp, *grid, n_random),
        csv=True, grid_points=_points(*grid)))
    return cmds


def map_measures(rng: random.Random) -> list[Command]:
    """Maps instead of states: `transfer_matrix` sandwiches the 16 basis
    elements through each Kraus set, and `sss --family free` carries all of
    the `scipy.optimize.minimize` work (4 starts at each of 12 points).
    """
    cmds = []
    (a, gamma), rtn_args, p_rtn = _rtn(rng)
    grid = ([0.9], 100.0, 500)
    cmds.append(Command(
        "volume_rtn", ("volume", *rtn_args, *_grid_args(*grid)),
        lambda text, _, grid=grid: ref.check_volume(
            text, lambda t, mu: float(p_rtn(t) ** 8 * ref.tau(p_rtn(t), mu) ** 4), *grid),
        csv=True, grid_points=_points(*grid)))

    (gamma0, g), nmad_args = _nmad(rng)
    grid = (_mus(rng), 40.0, 250)
    cmds.append(Command(
        "volume_nmad", ("volume", *nmad_args, *_grid_args(*grid)),
        lambda text, _, grid=grid: ref.check_volume(
            text, lambda t, mu: ref.nmad_volume(float(ref.nmad_damping(t, gamma0, g)), mu),
            *grid),
        csv=True, grid_points=_points(*grid)))

    # The Nelder-Mead cost depends on G; G in [0.55, 0.75] keeps it about
    # level across seeds. Correlation times 1/g span short, medium and long.
    G = round(rng.uniform(0.55, 0.75), 3)
    g_inverses = [round(rng.uniform(lo, hi), 1) for lo, hi in ((5, 15), (40, 60), (90, 110))]
    mus, tmax, steps = [0.0, 0.3, 0.6, 0.9], 100.0, 200
    sss_args = ("sss", "--G", _num(G), "--g-inverse", ",".join(_num(x) for x in g_inverses),
                "--mu", ",".join(_num(m) for m in mus), "--tmax", _num(tmax),
                "--steps", str(steps))
    for family in ("markov", "free"):
        cmds.append(Command(
            f"sss_{family}", (*sss_args, "--family", family),
            lambda text, outs, family=family: ref.check_sss(
                text, G, g_inverses, mus, tmax, steps, family, outs.get("sss_markov")),
            csv=True, grid_points=len(g_inverses) * len(mus) * steps))
    return cmds


# Inputs the CLI must reject with exit code 2 and no verdict. The last two
# currently print `frozen` with exit 0 and so count as failed commands.
BOUNDARY_PROBES = (
    ("concurrence", "--tmax", "nan"),
    ("qec", "--mu", "1.5"),
    ("freeze-check", "--c", "5,5,5", "--channel", "oun", "--mu", "1"),
    ("freeze-check", "--c", "nan,0,0", "--channel", "oun", "--mu", "1"),
)


def short_calls(rng: random.Random) -> list[Command]:
    """Short invocations where interpreter start-up and the scipy.optimize
    import dominate; the only workload that runs qec and freezing.
    """
    cmds = [Command("classify", ("classify-errors",), lambda text, _: ref.check_classify(text))]

    # One unital and one damping channel, a random probe state each; mu = 1
    # for one of them (where freezing happens), mu in [0, 0.95] for the other.
    mus = [1.0, round(rng.uniform(0.0, 0.95), 2)]
    rng.shuffle(mus)
    for k, (kind, mu) in enumerate(zip((rng.choice(("rtn", "oun", "unital", "dephasing")),
                                        "nmad"), mus)):
        state = rng.choice(STATES)
        cmds.append(Command(
            f"freeze{k}", ("freeze-check", f"--state={state}", "--channel", kind, "--mu", _num(mu)),
            lambda text, _, args=(state, kind, mu): ref.check_freeze(text, *args)))

    # Long grids so that qec's own work (five brute-force spot checks per mu
    # and, normalized, the 64-word mass at every point) is measurable.
    _, oun_args, p_oun = _oun(rng)
    grid = (_mus(rng), 50.0, 2000)
    cmds.append(Command(
        "qec_oun", ("qec", *oun_args, *_grid_args(*grid)),
        lambda text, _, grid=grid: ref.check_qec(text, p_oun, *grid, normalized=False),
        csv=True, grid_points=_points(*grid)))
    _, rtn_args, p_rtn = _rtn(rng)
    grid = (_mus(rng), 50.0, 1000)
    cmds.append(Command(
        "qec_rtn_normalized", ("qec", *rtn_args, *_grid_args(*grid), "--normalized"),
        lambda text, _, grid=grid: ref.check_qec(text, p_rtn, *grid, normalized=True),
        csv=True, grid_points=_points(*grid)))

    cmds.extend(Command(f"probe{k}", argv, None) for k, argv in enumerate(BOUNDARY_PROBES))
    return cmds


WORKLOADS = {
    "trajectories": trajectories,
    "map_measures": map_measures,
    "short_calls": short_calls,
}


def build(name: str, seed: int) -> list[Command]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
