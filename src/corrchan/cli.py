"""Command-line front end: trajectory sweeps and figure-style presets,
emitted as deterministic CSV.

Every numeric subcommand writes RFC-4180 CSV (header row, '.' decimal,
12 significant digits, lines ending in CRLF, no field quoted) to --out,
one row per sample, rows in grid order. A subcommand returns its header
and all of its lines, in chunks of text, and only then does `main` open
the output and write them, so a sweep that fails part-way leaves no
partial CSV behind.
Exit codes: 0 success, 2 invalid usage or parameters, 3 numeric failure or
out of memory. `main` builds one argparse parser per call: when the first
argument names a subcommand, the parser of that subcommand only, else the
top-level parser that lists the subcommands.

This module loads no numpy. It parses argv and checks every scalar option
(the noise parameters, --tmax, --steps, --mu, --c and the probe names) with
the pure-Python checks of `params`, in the order the subcommand reads them,
and prints `classify-errors` and every `freeze-check` verdict, of a named
--state or a --c triple, from the pure-Python `freezing`. Only then does a
numeric subcommand import `sweeps`, which loads numpy and the numeric
layers and computes the rows.

Run as the program (`python -m corrchan.cli` or the `corrchan` script, that
is `main()` with no argv), the CLI sets OPENBLAS_NUM_THREADS=1 in its own
environment before numpy loads, unless the caller has set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS. Its BLAS and
LAPACK calls take 4x4 states, 2x2 systems and grid-length vectors, and
OpenBLAS splits none of them at the preset grids, so a worker pool would
only slow the start. `main(argv)` called in process leaves the host's
environment and BLAS as they are.

Options can also be supplied through --config FILE, a plain text file of
`key = value` lines using the long option names (without leading dashes);
command-line flags override file values.
"""

import argparse
import contextlib
import functools
import math
import os
import shutil
import sys

from .errors import NumericError
from .freezing import freezing_predicate
from .params import (GRID_ERROR, PROBE_NAMES, PROBE_PAIRS, NmadParams, OunParams, RtnParams,
                     _check_dephasing, _check_mu, _check_probe)
from .words import classify_errors


def __getattr__(name: str):
    # perfbench/tracing.py patches `cli.ThreadPoolExecutor` when it installs;
    # no command runs one, so concurrent.futures loads only on that access
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_floats(text: str, option: str) -> list[float]:
    """The numbers of the comma-separated list `text` given to `option`; an
    empty item is an error."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} expects a comma-separated list of numbers, "
                         f"got {text!r}") from None


def _parse_mus(text: str) -> list[float]:
    mus = _parse_floats(text, "--mu")
    for mu in mus:
        _check_mu(mu)
    return mus


# 2^59 float64 grid points fill 4 EiB, more than any memory, and numpy
# cannot describe an array of 2^60 of them (8 x 2^60 bytes overflows its sizes)
_MAX_STEPS = 2 ** 59


def _check_grid(args) -> None:
    if not 0 < args.tmax < math.inf:
        raise ValueError(f"--tmax must be positive and finite, got {args.tmax}")
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.steps > _MAX_STEPS:
        raise ValueError(f"--steps must be at most 2^59 = {_MAX_STEPS}, got {args.steps}")


def _noise_params(family, **options):
    """`family(**options)`; a parameter error names the option of its name."""
    try:
        return family(**options)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None


def _noise_from_args(args) -> RtnParams | OunParams | NmadParams:
    if args.noise == "rtn":
        return _noise_params(RtnParams, a=args.a, gamma=args.gamma)
    if args.noise == "oun":
        return _noise_params(OunParams, G=args.G, g=args.g)
    return _noise_params(NmadParams, gamma0=args.gamma0, g=args.g)  # the choices leave nmad


def _split_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected a probe pair like phi+:phi-, got {text!r}")
    return parts[0], parts[1]


def _write_csv(path: str, header: list[str], chunks: list[str]) -> None:
    # the bytes of csv.writer's excel dialect: no field here needs quoting;
    # each chunk holds whole CRLF lines
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        fh.write(",".join(header) + "\r\n")
        for chunk in chunks:
            fh.write(chunk)


# --------------------------------------------------------------------------
# Subcommands: the checks of their options, which run before numpy loads,
# then their numeric work in `sweeps`
# --------------------------------------------------------------------------


def _numeric(args):
    """The numeric work of `args.command`, from `sweeps`, which loads numpy
    and the numeric layers on the first command that needs them."""
    from . import sweeps
    return sweeps.run(args)


def _check_sweep(args) -> None:
    """The noise parameters, the grid and each mu, in that order, kept as
    `args.params` and `args.mus`."""
    args.params = _noise_from_args(args)
    _check_grid(args)
    args.mus = _parse_mus(args.mu)


def _run_sweep(args):
    """The numeric sweep over `args.params`. Its last check, after every
    other option's, is that the parameters give a finite oscillator: RTN's
    w = `omega` overflows beyond a ratio 2a/gamma of about 1.3e154, and
    NMAD's `discriminant` 2 gamma0 g - g^2 beyond g of about 1.3e154 or
    gamma0 g of about 9e307; p(t) is not finite there."""
    if isinstance(args.params, RtnParams) and not args.params.omega < math.inf:
        raise ValueError(f"--a {args.a} and --gamma {args.gamma} overflow (2a/gamma)^2")
    if isinstance(args.params, NmadParams) and not math.isfinite(args.params.discriminant):
        raise ValueError(f"--gamma0 {args.gamma0} and --g {args.g} overflow 2 gamma0 g - g^2")
    return _numeric(args)


def _cmd_sweep(args):
    """evolve, concurrence and volume."""
    _check_sweep(args)
    return _run_sweep(args)


def _cmd_qec(args):
    _check_sweep(args)
    _check_dephasing(args.params)
    return _run_sweep(args)


def _cmd_tracedist(args):
    args.probe_pair = _split_pair(args.pair)
    for name in args.probe_pair:
        _check_probe(name)
    return _cmd_sweep(args)


def _cmd_blp(args):
    if args.random_probes < 0:
        raise ValueError(f"--random-probes must be non-negative, got {args.random_probes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    _check_sweep(args)
    args.probe_pairs = [_split_pair(tok) for tok in args.pairs.split(",")]
    for pair in args.probe_pairs:
        for name in pair:
            _check_probe(name)
    return _run_sweep(args)


def _cmd_sss(args):
    args.mus = _parse_mus(args.mu)
    args.g_inverses = _parse_floats(args.g_inverse, "--g-inverse")
    for g_inv in args.g_inverses:
        # 1 / g_inv is the OUN rate g, and overflows below about 5.6e-309
        if not (0 < g_inv < math.inf and 1.0 / g_inv < math.inf):
            raise ValueError("--g-inverse requires positive finite values with a finite "
                             f"inverse, got {g_inv!r}")
    _check_grid(args)
    args.oun_params = [_noise_params(OunParams, G=args.G, g=1.0 / g_inv)
                       for g_inv in args.g_inverses]
    # a step that `measures.sss_measure` would reject, found before numpy loads
    if args.tmax / (args.steps - 1) < sys.float_info.min:
        raise ValueError(f"--tmax {args.tmax!r} and --steps {args.steps}: {GRID_ERROR}")
    return _numeric(args)


def _cmd_classify_errors(args) -> None:
    cls = classify_errors()
    print(f"undetectable ({len(cls.undetectable)}): " + " ".join(sorted(cls.undetectable)))
    print(f"detectable ({len(cls.detectable)}): " + " ".join(sorted(cls.detectable)))
    print(f"correctable ({len(cls.correctable)}): " + " ".join(sorted(cls.correctable)))


def _cmd_freeze_check(args) -> None:
    state = args.state
    if args.c is not None:
        state = _parse_floats(args.c, "--c")
        if len(state) != 3:
            raise ValueError(f"--c expects three components, got {args.c!r}")
    verdict = freezing_predicate(state, args.channel, args.mu)
    print(verdict.status)
    print(f"reason: {verdict.reason}")


# --------------------------------------------------------------------------
# Parser: each subcommand's handler, help and (flag, argparse keyword
# arguments) options, in the order of the usage line and of its help
# --------------------------------------------------------------------------


def _G(default: float):
    return "--G", dict(type=float, default=default,
                       help="OUN effective relaxation rate (default %(default)s)")


def _noise(default: str):
    return [("--noise", dict(choices=("rtn", "oun", "nmad"), default=default,
                             help="noise family (default %(default)s)")),
            ("--a", dict(type=float, default=0.8,
                         help="RTN coupling strength (default %(default)s)")),
            ("--gamma", dict(type=float, default=0.05,
                             help="RTN fluctuation rate (default %(default)s)")),
            _G(1.0),
            ("--g", dict(type=float, default=0.05,
                         help="OUN/NMAD inverse correlation time (default %(default)s)")),
            ("--gamma0", dict(type=float, default=1.0,
                              help="NMAD coupling rate (default %(default)s)"))]


def _grid(mu="0,0.5,0.9", tmax=100.0, steps=500, tmax_help="end of the time grid",
          steps_help="number of grid points"):
    return [("--mu", dict(default=mu,
                          help="comma-separated correlation factors (default %(default)s)")),
            ("--tmax", dict(type=float, default=tmax, help=f"{tmax_help} (default %(default)s)")),
            ("--steps", dict(type=int, default=steps, help=f"{steps_help} (default %(default)s)"))]


_COMMON = [("--out", dict(default="-", help="output CSV path, - for stdout (default stdout)")),
           ("--config", dict(default=None,
                             help="key = value file of option defaults; flags override"))]
_HIDDEN_CONFIG = ("--config", dict(default=None, help=argparse.SUPPRESS))


def _sweep(*own, noise="oun", **grid):
    return [*_noise(noise), *_grid(**grid), *own, *_COMMON]


def _probe(flag: str, default: str, stem: str):
    return flag, dict(default=default, choices=PROBE_NAMES, help=f"{stem} (default %(default)s)")


_SUBCOMMANDS = {
    "evolve": (_cmd_sweep, "evolved density-matrix entries over time",
               _sweep(_probe("--state", "phi+", "initial probe state"))),
    "concurrence": (_cmd_sweep, "concurrence of an evolving probe state",
                    _sweep(_probe("--probe", "phi+", "initial probe state"))),
    "tracedist": (_cmd_tracedist, "trace distance of an evolving probe pair",
                  _sweep(("--pair", dict(default="phi+:phi-",
                                         help="probe pair as name:name (default %(default)s)")))),
    "blp": (_cmd_blp, "information-backflow measure over a probe family",
            _sweep(("--pairs", dict(default=",".join(f"{a}:{b}" for a, b in PROBE_PAIRS),
                                    help="comma-separated probe pairs (default %(default)s)")),
                   ("--random-probes", dict(type=int, default=0, help="additional random "
                                            "local-unitary probe pairs (default 0)")),
                   ("--seed", dict(type=int, default=0, help="seed for random probes")))),
    "sss": (_cmd_sss, "temporal-self-similarity measure for correlated OUN",
            [_G(0.6),
             ("--g-inverse", dict(default="10,50,100", help="comma-separated environment "
                                  "correlation times (default %(default)s)")),
             *_grid("0,0.3,0.6,0.9", 100.0, 400, "averaging window length",
                    "quadrature grid points"),
             ("--family", dict(choices=("markov", "free"), default="markov", help="comparison "
                               "generator family: the fixed memoryless-limit generator, or free "
                               "two-rate minimization (default %(default)s)")),
             *_COMMON]),
    "volume": (_cmd_sweep, "accessible-state volume and its witness",
               _sweep(noise="rtn", steps=1000)),
    "qec": (_cmd_qec, "error-correction success probability over time",
            _sweep(("--normalized", dict(action="store_true",
                                         help="divide by the total chained probability mass")),
                   tmax=50.0, steps=200)),
    "classify-errors": (_cmd_classify_errors,
                        "print the undetectable / detectable / correctable sets",
                        [_HIDDEN_CONFIG]),
    "freeze-check": (_cmd_freeze_check, "freezing verdict for a state and channel",
                     [_probe("--state", "psi+", "probe state"),
                      ("--c", dict(default=None, help="Bell-diagonal Bloch triple c1,c2,c3 "
                                                      "(overrides --state)")),
                      ("--channel", dict(default="nmad",
                                         choices=("rtn", "oun", "unital", "dephasing", "nmad"),
                                         help="channel kind (default %(default)s)")),
                      ("--mu", dict(type=float, default=1.0,
                                    help="correlation factor (default %(default)s)")),
                      _HIDDEN_CONFIG]),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of the subcommand `command`, `corrchan <command>`, with its
    options and defaults `command` and `func`: what argparse's subparser of
    that name would be. Any other value, None included, gives the top-level
    `corrchan` parser, whose subparsers hold only the name and help of each
    subcommand.

    The help width is argparse's own, the terminal width less 2, worked out
    once per parser: argparse builds a formatter for every option it adds,
    and each would query the terminal again."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    if command in _SUBCOMMANDS:
        func, _, options = _SUBCOMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"corrchan {command}", formatter_class=formatter)
        parser.set_defaults(command=command, func=func)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        return parser
    parser = argparse.ArgumentParser(
        prog="corrchan", formatter_class=formatter,
        description="Correlated non-Markovian channels: trajectories, measures "
                    "and error-correction sweeps, as deterministic CSV.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, _) in _SUBCOMMANDS.items():
        subs.add_parser(name, help=summary, formatter_class=formatter)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The options of argv. The top-level parser's only option is -h, so
    argv[0] alone can name a subcommand, and then its parser alone reads
    the rest, as argparse's subparser would; what it leaves over is a
    top-level usage error, as argparse reports it."""
    if argv and argv[0] in _SUBCOMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if rest:
            build_parser(None).error(f"unrecognized arguments: {' '.join(rest)}")
        return args
    return build_parser(None).parse_args(argv)


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


# the variables that set OpenBLAS's thread count, in the order it reads them
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program, before numpy loads: one BLAS thread, unless the
        # caller chose a count (an in-process call leaves its host alone)
        if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        args = _parse(_apply_config(argv))
        if args.config is not None:  # _apply_config took out the first --config
            raise ValueError(f"config file {args.config!r} is not read: give one --config FILE")
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads `--name=--` as []
                raise ValueError(f"--{name.replace('_', '-')} requires a value, got '--'")
        table = args.func(args)
        if table is not None:
            _write_csv(args.out, *table)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
