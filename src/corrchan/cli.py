"""Command-line front end: trajectory sweeps and figure-style presets,
emitted as deterministic CSV.

Every numeric subcommand writes RFC-4180 CSV (header row, '.' decimal,
12 significant digits, lines ending in CRLF, no field quoted) to --out,
one row per sample, rows in grid order. A subcommand returns its header
and all of its lines, and only then does `main` open the output and write
them, so a sweep that fails part-way leaves no partial CSV behind. Numpy
warnings are silenced while a command runs: every invariant rejects NaN and
inf itself, and a numeric failure prints one `numeric failure:` line.
Exit codes: 0 success, 2 invalid usage or parameters, 3 numeric failure.

Options can also be supplied through --config FILE, a plain text file of
`key = value` lines using the long option names (without leading dashes);
command-line flags override file values.
"""

import argparse
import contextlib
import sys
# Unused here, but perfbench/tracing.py patches this name when it installs.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from .errors import NumericError
from .noise import NmadParams, OunParams, RtnParams
from .channels import _check_mu, evolve
from .map_algebra import correlated_oun_generator, dephasing_generator, transfer_sampler
from .measures import (PROBE_NAMES, PROBE_PAIRS, blp_measure, concurrence,
                       probe_state, random_bell_probes, sss_measure,
                       trace_distance, volume_trace)
from .freezing import freezing_predicate
from .qec import classify_errors, success_vs_time


Table = tuple[list[str], list[str]]  # CSV header and formatted lines


def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so that a signed zero prints as 0
    return format(float(x) + 0.0, ".12g")


def _lines(data: np.ndarray) -> list[str]:
    """One CSV line per row of a 2-d float array, each cell as `_fmt`
    prints it ('%.12g' and '.12g' format a float alike)."""
    line = ",".join(["%.12g"] * data.shape[1])
    return [line % tuple(row) for row in (data + 0.0).tolist()]


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_mus(text: str) -> list[float]:
    mus = _parse_floats(text)
    if not mus:
        raise ValueError("at least one mu value is required")
    for mu in mus:
        _check_mu(mu)
    return mus


def _time_grid(args) -> np.ndarray:
    if not 0 < args.tmax < np.inf:
        raise ValueError(f"--tmax must be positive and finite, got {args.tmax}")
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    return np.linspace(0.0, args.tmax, args.steps)


def _noise_from_args(args) -> RtnParams | OunParams | NmadParams:
    kind = args.noise
    if kind == "rtn":
        return RtnParams(a=args.a, gamma=args.gamma)
    if kind == "oun":
        return OunParams(G=args.G, g=args.g)
    if kind == "nmad":
        return NmadParams(gamma0=args.gamma0, g=args.g)
    raise ValueError(f"unknown noise family {kind!r}")


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    # the bytes of csv.writer's excel dialect: no field here needs quoting
    text = "\r\n".join([",".join(header), *lines, ""])
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _sweep(args, columns: list[str], cells) -> Table:
    """Header and lines `t, mu, *columns` over the time grid, for each mu in
    turn; `cells(noise, mu, times)` returns a float array of shape (n,) or
    (n, len(columns))."""
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    lines = []
    for mu in mus:
        lines += _lines(np.column_stack([times, np.full_like(times, mu),
                                         cells(noise, mu, times)]))
    return ["t", "mu", *columns], lines


def _cmd_evolve(args) -> Table:
    rho0 = probe_state(args.state)
    columns = [f"rho{i}{j}_{part}" for i in range(1, 5)
               for j in range(1, 5) for part in ("re", "im")]

    def cells(noise, mu, times):
        rho = evolve(noise, mu, times, rho0)
        return np.stack([rho.real, rho.imag], axis=-1).reshape(len(times), -1)
    return _sweep(args, columns, cells)


def _cmd_concurrence(args) -> Table:
    rho0 = probe_state(args.probe)
    return _sweep(args, ["concurrence"], lambda noise, mu, times:
                  concurrence(evolve(noise, mu, times, rho0)))


def _split_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected a probe pair like phi+:phi-, got {text!r}")
    return parts[0], parts[1]


def _cmd_tracedist(args) -> Table:
    name1, name2 = _split_pair(args.pair)
    rho1, rho2 = probe_state(name1), probe_state(name2)
    return _sweep(args, ["trace_distance"], lambda noise, mu, times:
                  trace_distance(evolve(noise, mu, times, rho1),
                                 evolve(noise, mu, times, rho2)))


def _cmd_blp(args) -> Table:
    if args.random_probes < 0:
        raise ValueError(f"--random-probes must be non-negative, got {args.random_probes}")
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    pairs = [(_split_pair(tok)) for tok in args.pairs.split(",")]
    named = [(f"{a}:{b}", probe_state(a), probe_state(b)) for a, b in pairs]
    if args.random_probes > 0:
        randoms = random_bell_probes(2 * args.random_probes, seed=args.seed)
        for k in range(args.random_probes):
            named.append((f"random{k}", randoms[2 * k], randoms[2 * k + 1]))
    lines = []
    for mu in mus:
        best = 0.0
        for label, rho1, rho2 in named:
            value = blp_measure(evolve(noise, mu, times, rho1), evolve(noise, mu, times, rho2),
                                times).value
            best = max(best, value)
            lines.append(f"{_fmt(mu)},{label},{_fmt(value)}")
        lines.append(f"{_fmt(mu)},max,{_fmt(best)}")
    return ["mu", "pair", "blp"], lines


def _cmd_sss(args) -> Table:
    mus = _parse_mus(args.mu)
    g_inverses = _parse_floats(args.g_inverse)
    if not g_inverses or not all(0 < gi < np.inf for gi in g_inverses):
        raise ValueError("--g-inverse requires positive finite values")
    reference = dephasing_generator(-args.G / 2, -args.G)
    rows = []
    for g_inv in g_inverses:
        params = OunParams(G=args.G, g=1.0 / g_inv)
        for mu in mus:
            zeta = sss_measure(lambda t: correlated_oun_generator(t, params, mu),
                               reference, args.tmax, n_points=args.steps,
                               free=args.family == "free")
            rows.append([g_inv, mu, zeta])
    return ["g_inverse", "mu", "zeta"], _lines(np.array(rows, dtype=float))


def _cmd_volume(args) -> Table:
    def cells(noise, mu, times):
        trace = volume_trace(transfer_sampler(noise, mu)(times), times)
        # the 0/1 flags print as 0 and 1 through '%.12g'
        return np.column_stack([trace.series.values, trace.witness_flags])
    return _sweep(args, ["volume", "witness_flag"], cells)


def _cmd_qec(args) -> Table:
    column = "p_success_normalized" if args.normalized else "p_success"
    return _sweep(args, [column], lambda noise, mu, times:
                  success_vs_time(noise, mu, times, normalized=args.normalized).values)


def _cmd_classify_errors(args) -> None:
    cls = classify_errors()
    print(f"undetectable ({len(cls.undetectable)}): " + " ".join(sorted(cls.undetectable)))
    print(f"detectable ({len(cls.detectable)}): " + " ".join(sorted(cls.detectable)))
    print(f"correctable ({len(cls.correctable)}): " + " ".join(sorted(cls.correctable)))


def _cmd_freeze_check(args) -> None:
    if args.c is not None:
        state = tuple(_parse_floats(args.c))
        if len(state) != 3:
            raise ValueError(f"--c expects three components, got {args.c!r}")
    else:
        state = probe_state(args.state)
    verdict = freezing_predicate(state, args.channel, args.mu)
    print(verdict.status)
    print(f"reason: {verdict.reason}")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_noise_options(sub, default="oun"):
    sub.add_argument("--noise", choices=("rtn", "oun", "nmad"), default=default,
                     help="noise family (default %(default)s)")
    sub.add_argument("--a", type=float, default=0.8,
                     help="RTN coupling strength (default %(default)s)")
    sub.add_argument("--gamma", type=float, default=0.05,
                     help="RTN fluctuation rate (default %(default)s)")
    sub.add_argument("--G", type=float, default=1.0,
                     help="OUN effective relaxation rate (default %(default)s)")
    sub.add_argument("--g", type=float, default=0.05,
                     help="OUN/NMAD inverse correlation time (default %(default)s)")
    sub.add_argument("--gamma0", type=float, default=1.0,
                     help="NMAD coupling rate (default %(default)s)")


def _add_grid_options(sub, tmax=100.0, steps=500):
    sub.add_argument("--mu", default="0,0.5,0.9",
                     help="comma-separated correlation factors (default %(default)s)")
    sub.add_argument("--tmax", type=float, default=tmax,
                     help="end of the time grid (default %(default)s)")
    sub.add_argument("--steps", type=int, default=steps,
                     help="number of grid points (default %(default)s)")


def _add_common(sub):
    sub.add_argument("--out", default="-",
                     help="output CSV path, - for stdout (default stdout)")
    sub.add_argument("--config", default=None,
                     help="key = value file of option defaults; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrchan",
        description="Correlated non-Markovian channels: trajectories, measures "
                    "and error-correction sweeps, as deterministic CSV.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("evolve", help="evolved density-matrix entries over time")
    _add_noise_options(sub)
    _add_grid_options(sub)
    sub.add_argument("--state", default="phi+", choices=PROBE_NAMES,
                     help="initial probe state (default %(default)s)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_evolve)

    sub = subs.add_parser("concurrence", help="concurrence of an evolving probe state")
    _add_noise_options(sub)
    _add_grid_options(sub)
    sub.add_argument("--probe", default="phi+", choices=PROBE_NAMES,
                     help="initial probe state (default %(default)s)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_concurrence)

    sub = subs.add_parser("tracedist", help="trace distance of an evolving probe pair")
    _add_noise_options(sub)
    _add_grid_options(sub)
    sub.add_argument("--pair", default="phi+:phi-",
                     help="probe pair as name:name (default %(default)s)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_tracedist)

    sub = subs.add_parser("blp", help="information-backflow measure over a probe family")
    _add_noise_options(sub)
    _add_grid_options(sub)
    sub.add_argument("--pairs", default=",".join(f"{a}:{b}" for a, b in PROBE_PAIRS),
                     help="comma-separated probe pairs (default %(default)s)")
    sub.add_argument("--random-probes", type=int, default=0,
                     help="additional random local-unitary probe pairs (default 0)")
    sub.add_argument("--seed", type=int, default=0, help="seed for random probes")
    _add_common(sub)
    sub.set_defaults(func=_cmd_blp)

    sub = subs.add_parser("sss", help="temporal-self-similarity measure for correlated OUN")
    sub.add_argument("--G", type=float, default=0.6,
                     help="OUN effective relaxation rate (default %(default)s)")
    sub.add_argument("--g-inverse", default="10,50,100",
                     help="comma-separated environment correlation times (default %(default)s)")
    sub.add_argument("--mu", default="0,0.3,0.6,0.9",
                     help="comma-separated correlation factors (default %(default)s)")
    sub.add_argument("--tmax", type=float, default=100.0,
                     help="averaging window length (default %(default)s)")
    sub.add_argument("--steps", type=int, default=400,
                     help="quadrature grid points (default %(default)s)")
    sub.add_argument("--family", choices=("markov", "free"), default="markov",
                     help="comparison generator family: the fixed memoryless-limit "
                          "generator, or free two-rate minimization (default %(default)s)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_sss)

    sub = subs.add_parser("volume", help="accessible-state volume and its witness")
    _add_noise_options(sub, default="rtn")
    _add_grid_options(sub, steps=1000)
    _add_common(sub)
    sub.set_defaults(func=_cmd_volume)

    sub = subs.add_parser("qec", help="error-correction success probability over time")
    _add_noise_options(sub)
    _add_grid_options(sub, tmax=50.0, steps=200)
    sub.add_argument("--normalized", action="store_true",
                     help="divide by the total chained probability mass")
    _add_common(sub)
    sub.set_defaults(func=_cmd_qec)

    sub = subs.add_parser("classify-errors",
                          help="print the undetectable / detectable / correctable sets")
    sub.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub.set_defaults(func=_cmd_classify_errors)

    sub = subs.add_parser("freeze-check", help="freezing verdict for a state and channel")
    sub.add_argument("--state", default="psi+", choices=PROBE_NAMES,
                     help="probe state (default %(default)s)")
    sub.add_argument("--c", default=None,
                     help="Bell-diagonal Bloch triple c1,c2,c3 (overrides --state)")
    sub.add_argument("--channel", default="nmad",
                     choices=("rtn", "oun", "unital", "dephasing", "nmad"),
                     help="channel kind (default %(default)s)")
    sub.add_argument("--mu", type=float, default=1.0,
                     help="correlation factor (default %(default)s)")
    sub.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub.set_defaults(func=_cmd_freeze_check)

    return parser


def _load_config(path: str) -> list[str]:
    """Turn a `key = value` config file into an argv fragment."""
    injected: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if value.lower() in ("true", "yes", "on"):
                injected.append(f"--{key}")
            elif value.lower() in ("false", "no", "off"):
                continue
            else:
                injected.extend((f"--{key}", value))
    return injected


def _apply_config(argv: list[str]) -> list[str]:
    """Inject config-file options right after the subcommand so that
    explicit flags (parsed later) override them."""
    path = None
    rest = argv
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config requires a file path")
            path = argv[i + 1]
            rest = argv[:i] + argv[i + 2:]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            rest = argv[:i] + argv[i + 1:]
            break
    if path is None:
        return argv
    if not rest:
        raise ValueError("--config requires a subcommand")
    return [rest[0]] + _load_config(path) + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads `--name=--` as []
                raise ValueError(f"--{name.replace('_', '-')} requires a value, got '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with np.errstate(all="ignore"):
            table = args.func(args)
        if table is not None:
            _write_csv(args.out, *table)
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
