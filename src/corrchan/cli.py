"""Command-line front end: trajectory sweeps and figure-style presets,
emitted as deterministic CSV.

Every numeric subcommand writes RFC-4180 CSV (header row, '.' decimal,
12 significant digits, lines ending in CRLF, no field quoted) to --out,
one row per sample, rows in grid order. Each line is rendered with one `%`
from a template that holds the text of the columns that are constant over
the table, or over a mu block of a sweep, and a '%.12g' slot for every
other column (`_lines`). A subcommand returns its header
and all of its lines, and only then does `main` open the output and write
them, so a sweep that fails part-way leaves no partial CSV behind. Numpy
warnings are silenced while a command runs: every invariant rejects NaN and
inf itself, and a numeric failure prints one `numeric failure:` line.
Exit codes: 0 success, 2 invalid usage or parameters, 3 numeric failure or
out of memory. When the first argument names a subcommand, `main` builds the
subparser of that subcommand only.

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
from .map_algebra import accessible_volume, correlated_oun_rates
from .measures import (PROBE_NAMES, PROBE_PAIRS, RISE_THRESHOLD, _concurrence,
                       _trace_distance, positive_variation, probe_state,
                       random_bell_probes, sss_measure)
from .freezing import freezing_predicate
from .qec import classify_errors, success_vs_time


Table = tuple[list[str], list[str]]  # CSV header and formatted lines


def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so that a signed zero prints as 0
    return format(float(x) + 0.0, ".12g")


def _lines(data: np.ndarray, lead: list[str], fixed: tuple[str, ...] = ()) -> list[str]:
    """One CSV line per row of a 2-d float array with at least one row: the
    row's string of `lead`, then the formatted cells `fixed`, then each cell
    of the row as `_fmt` prints it ('%.12g' and '.12g' format a float
    alike), with one `%` per line. The line template holds `fixed` and the
    `_fmt` text of each column that is constant over the rows, formatted
    once, and a '%.12g' slot for each other column; NaN never equals itself,
    so a column with a NaN keeps its slots."""
    constant = (data == data[0]).all(axis=0)
    cells = [_fmt(x) if same else "%.12g"
             for x, same in zip(data[0].tolist(), constant.tolist())]
    columns = (data[:, ~constant] + 0.0).T.tolist()
    line = ",".join(["%s", *fixed, *cells])
    return [line % row for row in zip(lead, *columns)]


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


def _time_grid(args) -> np.ndarray:
    if not 0 < args.tmax < np.inf:
        raise ValueError(f"--tmax must be positive and finite, got {args.tmax}")
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    return np.linspace(0.0, args.tmax, args.steps)


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
    (n, len(columns)). Each mu's block is rendered by `_lines` with one `%`
    per line, from the template `%s,<mu>,<cells>`: the t cells fill the
    leading slot and are formatted once per sweep, mu once per block, and
    each column that is constant over the grid once per block."""
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    t_cells = ["%.12g" % t for t in (times + 0.0).tolist()]
    lines = []
    for mu in mus:
        values = np.reshape(cells(noise, mu, times), (len(times), -1))
        lines += _lines(values, t_cells, (_fmt(mu),))
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
                  _concurrence(evolve(noise, mu, times, rho0)))


def _split_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected a probe pair like phi+:phi-, got {text!r}")
    return parts[0], parts[1]


def _cmd_tracedist(args) -> Table:
    name1, name2 = _split_pair(args.pair)
    probes = np.stack([probe_state(name1), probe_state(name2)])
    return _sweep(args, ["trace_distance"], lambda noise, mu, times:
                  _trace_distance(np.subtract(*evolve(noise, mu, times, probes))))


# probe states per `evolve` call in `blp`: an even number, so that a chunk
# holds whole pairs, and the memory of a sweep does not grow with the probes
_BLP_CHUNK = 16


def _cmd_blp(args) -> Table:
    if args.random_probes < 0:
        raise ValueError(f"--random-probes must be non-negative, got {args.random_probes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    noise = _noise_from_args(args)
    times = _time_grid(args)
    mus = _parse_mus(args.mu)
    pairs = [_split_pair(tok) for tok in args.pairs.split(",")]
    labels = [f"{a}:{b}" for a, b in pairs]
    probes = [probe_state(name) for pair in pairs for name in pair]
    if args.random_probes > 0:  # numpy.random is imported only for random probes
        labels += [f"random{k}" for k in range(args.random_probes)]
        probes += random_bell_probes(2 * args.random_probes, seed=args.seed)
    probes = np.stack(probes)
    lines = []
    for mu in mus:
        # one chunk's trajectories are freed before the next chunk's are evolved
        values = []
        for start in range(0, len(probes), _BLP_CHUNK):
            states = evolve(noise, mu, times, probes[start:start + _BLP_CHUNK])
            values.append(positive_variation(_trace_distance(states[0::2] - states[1::2])))
        values = np.concatenate(values)
        lines += [f"{_fmt(mu)},{label},{_fmt(value)}" for label, value in zip(labels, values)]
        lines.append(f"{_fmt(mu)},max,{_fmt(values.max(initial=0.0))}")
    return ["mu", "pair", "blp"], lines


# rate elements per `sss_measure` call: the cells of a chunk are solved
# together, and the memory of a sweep does not grow with the number of cells
_SSS_CHUNK = 1 << 14


def _cmd_sss(args) -> Table:
    mus = _parse_mus(args.mu)
    g_inverses = _parse_floats(args.g_inverse, "--g-inverse")
    for g_inv in g_inverses:
        # 1 / g_inv is the OUN rate g, and overflows below about 5.6e-309
        if not (0 < g_inv < np.inf and 1.0 / g_inv < np.inf):
            raise ValueError("--g-inverse requires positive finite values with a finite "
                             f"inverse, got {g_inv!r}")
    times = _time_grid(args)
    reference = (-args.G / 2, -args.G) if args.family == "markov" else None  # memoryless limit
    params = {g_inv: _noise_params(OunParams, G=args.G, g=1.0 / g_inv) for g_inv in g_inverses}
    cells = [(g_inv, mu) for g_inv in g_inverses for mu in mus]
    chunk = max(1, _SSS_CHUNK // len(times))
    zetas = []
    for start in range(0, len(cells), chunk):
        rates = [correlated_oun_rates(times, params[g_inv], mu)
                 for g_inv, mu in cells[start:start + chunk]]
        try:
            zetas += list(sss_measure(times, np.stack(rates, axis=1), reference))
        except ValueError as exc:  # the grid is the only input it can reject
            raise ValueError(f"--tmax {args.tmax!r} and --steps {args.steps}: {exc}") from None
    lead = [f"{_fmt(g_inv)},{_fmt(mu)}" for g_inv, mu in cells]
    return ["g_inverse", "mu", "zeta"], _lines(np.column_stack([zetas]), lead)


def _cmd_volume(args) -> Table:
    def cells(noise, mu, times):
        volume = accessible_volume(noise, mu, times)
        # 1 where V rose from the previous point; the flags print as 0 and 1
        return np.column_stack([volume, np.diff(volume, prepend=volume[0]) > RISE_THRESHOLD])
    return _sweep(args, ["volume", "witness_flag"], cells)


def _cmd_qec(args) -> Table:
    column = "p_success_normalized" if args.normalized else "p_success"
    return _sweep(args, [column], lambda noise, mu, times:
                  success_vs_time(noise, mu, times, normalized=args.normalized))


def _cmd_classify_errors(args) -> None:
    cls = classify_errors()
    print(f"undetectable ({len(cls.undetectable)}): " + " ".join(sorted(cls.undetectable)))
    print(f"detectable ({len(cls.detectable)}): " + " ".join(sorted(cls.detectable)))
    print(f"correctable ({len(cls.correctable)}): " + " ".join(sorted(cls.correctable)))


def _cmd_freeze_check(args) -> None:
    if args.c is not None:
        state = tuple(_parse_floats(args.c, "--c"))
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


# each subcommand's handler and help, in the order of the usage line
_SUBCOMMANDS = {
    "evolve": (_cmd_evolve, "evolved density-matrix entries over time"),
    "concurrence": (_cmd_concurrence, "concurrence of an evolving probe state"),
    "tracedist": (_cmd_tracedist, "trace distance of an evolving probe pair"),
    "blp": (_cmd_blp, "information-backflow measure over a probe family"),
    "sss": (_cmd_sss, "temporal-self-similarity measure for correlated OUN"),
    "volume": (_cmd_volume, "accessible-state volume and its witness"),
    "qec": (_cmd_qec, "error-correction success probability over time"),
    "classify-errors": (_cmd_classify_errors,
                        "print the undetectable / detectable / correctable sets"),
    "freeze-check": (_cmd_freeze_check, "freezing verdict for a state and channel"),
}


def _add_options(sub, command: str) -> None:
    """Add the options of subcommand `command` to its subparser `sub`."""
    if command == "evolve":
        _add_noise_options(sub)
        _add_grid_options(sub)
        sub.add_argument("--state", default="phi+", choices=PROBE_NAMES,
                         help="initial probe state (default %(default)s)")
        _add_common(sub)
    elif command == "concurrence":
        _add_noise_options(sub)
        _add_grid_options(sub)
        sub.add_argument("--probe", default="phi+", choices=PROBE_NAMES,
                         help="initial probe state (default %(default)s)")
        _add_common(sub)
    elif command == "tracedist":
        _add_noise_options(sub)
        _add_grid_options(sub)
        sub.add_argument("--pair", default="phi+:phi-",
                         help="probe pair as name:name (default %(default)s)")
        _add_common(sub)
    elif command == "blp":
        _add_noise_options(sub)
        _add_grid_options(sub)
        sub.add_argument("--pairs", default=",".join(f"{a}:{b}" for a, b in PROBE_PAIRS),
                         help="comma-separated probe pairs (default %(default)s)")
        sub.add_argument("--random-probes", type=int, default=0,
                         help="additional random local-unitary probe pairs (default 0)")
        sub.add_argument("--seed", type=int, default=0, help="seed for random probes")
        _add_common(sub)
    elif command == "sss":
        sub.add_argument("--G", type=float, default=0.6,
                         help="OUN effective relaxation rate (default %(default)s)")
        sub.add_argument("--g-inverse", default="10,50,100",
                         help="comma-separated environment correlation times "
                              "(default %(default)s)")
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
    elif command == "volume":
        _add_noise_options(sub, default="rtn")
        _add_grid_options(sub, steps=1000)
        _add_common(sub)
    elif command == "qec":
        _add_noise_options(sub)
        _add_grid_options(sub, tmax=50.0, steps=200)
        sub.add_argument("--normalized", action="store_true",
                         help="divide by the total chained probability mass")
        _add_common(sub)
    elif command == "classify-errors":
        sub.add_argument("--config", default=None, help=argparse.SUPPRESS)
    elif command == "freeze-check":
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


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The `corrchan` parser. When `command` names a subcommand, its only
    subparser is that subcommand's, with its options and `func`, and the
    usage line still lists every name. Any other value, None included,
    gives a subparser with only the name and help of each subcommand."""
    parser = argparse.ArgumentParser(
        prog="corrchan",
        description="Correlated non-Markovian channels: trajectories, measures "
                    "and error-correction sweeps, as deterministic CSV.")
    if command in _SUBCOMMANDS:
        subs = parser.add_subparsers(dest="command", required=True,
                                     metavar="{%s}" % ",".join(_SUBCOMMANDS))
        func, summary = _SUBCOMMANDS[command]
        sub = subs.add_parser(command, help=summary)
        sub.set_defaults(func=func)
        _add_options(sub, command)
    else:
        subs = parser.add_subparsers(dest="command", required=True)
        for name, (_, summary) in _SUBCOMMANDS.items():
            subs.add_parser(name, help=summary)
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
    try:
        argv = _apply_config(argv)
        # the top-level parser's only option is -h, so only argv[0] can name
        # the subcommand whose subparser needs building
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if args.config is not None:  # _apply_config took out the first --config
            raise ValueError(f"config file {args.config!r} is not read: give one --config FILE")
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads `--name=--` as []
                raise ValueError(f"--{name.replace('_', '-')} requires a value, got '--'")
        with np.errstate(all="ignore"):
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
