"""Command-line front end: trajectory sweeps and figure-style presets,
emitted as deterministic CSV.

Every numeric subcommand writes RFC-4180 CSV (header row, '.' decimal,
12 significant digits) to --out, one row per sample, rows in grid order.
All rows are computed before the output is opened, so a sweep that fails
part-way leaves no partial CSV behind.
Exit codes: 0 success, 2 invalid usage or parameters, 3 numeric failure.

Options can also be supplied through --config FILE, a plain text file of
`key = value` lines using the long option names (without leading dashes);
command-line flags override file values.
"""

import argparse
import contextlib
import csv
import sys
# Unused here, but perfbench/tracing.py patches this name when it installs.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from .errors import NumericError, ValidationError
from .noise import NmadParams, OunParams, RtnParams
from .channels import apply, channel_at_time
from .map_algebra import correlated_oun_generator, dephasing_generator, transfer_sampler
from .measures import (PROBE_NAMES, PROBE_PAIRS, blp_measure, concurrence,
                       probe_state, random_bell_probes, sss_measure,
                       trace_distance, volume_trace)
from .freezing import freezing_predicate
from .qec import classify_errors, success_vs_time


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_mus(text: str) -> list[float]:
    mus = _parse_floats(text)
    if not mus:
        raise ValueError("at least one mu value is required")
    for m in mus:
        if not 0 <= m <= 1:
            raise ValueError(f"mu values must lie in [0, 1], got {m}")
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


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_evolve(args) -> int:
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    rho0 = probe_state(args.state)
    rows = []
    for mu in mus:
        for t, rho in zip(times, apply(channel_at_time(noise, mu, times), rho0)):
            row = [_fmt(t), _fmt(mu)]
            for x in rho.flat:
                row.extend((_fmt(x.real), _fmt(x.imag)))
            rows.append(row)
    header = ["t", "mu"] + [f"rho{i}{j}_{part}" for i in range(1, 5)
                            for j in range(1, 5) for part in ("re", "im")]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_concurrence(args) -> int:
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    rho0 = probe_state(args.probe)
    rows = []
    for mu in mus:
        cvals = concurrence(apply(channel_at_time(noise, mu, times), rho0))
        rows.extend([_fmt(t), _fmt(mu), _fmt(c)] for t, c in zip(times, cvals))
    _write_csv(args.out, ["t", "mu", "concurrence"], rows)
    return 0


def _split_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected a probe pair like phi+:phi-, got {text!r}")
    return parts[0], parts[1]


def _cmd_tracedist(args) -> int:
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    name1, name2 = _split_pair(args.pair)
    rho1, rho2 = probe_state(name1), probe_state(name2)
    rows = []
    for mu in mus:
        ch = channel_at_time(noise, mu, times)
        dvals = trace_distance(apply(ch, rho1), apply(ch, rho2))
        rows.extend([_fmt(t), _fmt(mu), _fmt(d)] for t, d in zip(times, dvals))
    _write_csv(args.out, ["t", "mu", "trace_distance"], rows)
    return 0


def _cmd_blp(args) -> int:
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
    rows = []
    for mu in mus:
        ch = channel_at_time(noise, mu, times)
        best = 0.0
        for label, rho1, rho2 in named:
            value = blp_measure(apply(ch, rho1), apply(ch, rho2), times).value
            best = max(best, value)
            rows.append([_fmt(mu), label, _fmt(value)])
        rows.append([_fmt(mu), "max", _fmt(best)])
    _write_csv(args.out, ["mu", "pair", "blp"], rows)
    return 0


def _cmd_sss(args) -> int:
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
            rows.append([_fmt(g_inv), _fmt(mu), _fmt(zeta)])
    _write_csv(args.out, ["g_inverse", "mu", "zeta"], rows)
    return 0


def _cmd_volume(args) -> int:
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    rows = []
    for mu in mus:
        trace = volume_trace(transfer_sampler(noise, mu)(times), times)
        rows.extend([_fmt(t), _fmt(mu), _fmt(v), str(flag)]
                    for t, v, flag in zip(times, trace.series.values, trace.witness_flags))
    _write_csv(args.out, ["t", "mu", "volume", "witness_flag"], rows)
    return 0


def _cmd_qec(args) -> int:
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    rows = []
    for mu in mus:
        series = success_vs_time(noise, mu, times, normalized=args.normalized)
        rows.extend([_fmt(t), _fmt(mu), _fmt(v)]
                    for t, v in zip(series.times, series.values))
    column = "p_success_normalized" if args.normalized else "p_success"
    _write_csv(args.out, ["t", "mu", column], rows)
    return 0


def _cmd_classify_errors(args) -> int:
    cls = classify_errors()
    print(f"undetectable ({len(cls.undetectable)}): " + " ".join(sorted(cls.undetectable)))
    print(f"detectable ({len(cls.detectable)}): " + " ".join(sorted(cls.detectable)))
    print(f"correctable ({len(cls.correctable)}): " + " ".join(sorted(cls.correctable)))
    return 0


def _cmd_freeze_check(args) -> int:
    if args.c is not None:
        state = tuple(_parse_floats(args.c))
        if len(state) != 3:
            raise ValueError(f"--c expects three components, got {args.c!r}")
    else:
        state = probe_state(args.state)
    if not 0 <= args.mu <= 1:
        raise ValueError(f"mu must lie in [0, 1], got {args.mu}")
    verdict = freezing_predicate(state, args.channel, args.mu)
    print(verdict.status)
    print(f"reason: {verdict.reason}")
    return 0


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
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
