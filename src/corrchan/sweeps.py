"""The numeric work of the subcommands, on options that `cli` has checked.

`cli` imports this module only to run a command that computes with numpy,
that is every CSV subcommand. So `classify-errors`, `freeze-check` and
every rejected option run without numpy. This module imports numpy and
every numeric layer at its top, and never imports `cli`: under
`python -m corrchan.cli` that import would run the command line a second
time, as a module of its own.

A handler returns its CSV table, a header and all of its lines in chunks
of CRLF text, and `cli` writes it. Each grid command evaluates its mu in
passes: one call of the library's closed forms over all of the (probe, mu,
t) points of a pass, up to _PASS_POINTS of them, which at the preset grids
is every mu at once. `render` builds the text with numpy, byte for byte as
'%.12g' prints each cell, one block of lines per pass: the t cells,
rendered once per table, tiled over the pass's mu, each mu cell repeated
over the grid, and each column that is constant over the block once.
Numpy warnings are silenced while a command runs: each invariant rejects
NaN and inf itself, and a numeric failure prints one `numeric failure:` line.
"""

from itertools import islice

import numpy as np

from .channels import evolve
from .map_algebra import accessible_volume, correlated_oun_rates
from .measures import (RISE_THRESHOLD, _concurrence, _trace_distance, positive_variation,
                       probe_state, random_bell_probes, sss_measure)
from .qec import success_vs_time
from .render import cells as render_cells, labels, lines

Table = tuple[list[str], list[str]]  # CSV header, and its lines in chunks of CRLF text


def run(args) -> Table:
    """The result of the subcommand `args.command`."""
    with np.errstate(all="ignore"):
        return _COMMANDS[args.command](args)


def _times(args) -> np.ndarray:
    return np.linspace(0.0, args.tmax, args.steps)


# (probe, mu, t) points evaluated in one pass: a command takes all of its mu
# at once up to this bound and fewer beyond it, down to one mu and, in `blp`,
# one probe pair, so that the memory of a long grid stays that of one mu
_PASS_POINTS = 1 << 14


def _passes(probes: int, mus: int, times: int, whole: int) -> list[tuple[slice, slice]]:
    """The (probe slice, mu slice) of each pass over `probes` probe states,
    `mus` mu and `times` times, mu by mu: at most _PASS_POINTS points, but
    whole groups of `whole` probes and at least one mu."""
    group = min(probes, max(whole, _PASS_POINTS // times // whole * whole))
    run = max(1, _PASS_POINTS // (group * times)) if group == probes else 1
    return [(slice(first, first + group), slice(mu, mu + run))
            for mu in range(0, mus, run) for first in range(0, probes, group)]


def _sweep(args, columns: list[str], cells, probes: int = 1) -> Table:
    """Header and lines `t, mu, *columns` over the time grid, for each mu in
    turn; `cells(noise, mus, times)` returns the cells of the m mu of a pass
    over `probes` probe states, a float array with leading axes (m, n)."""
    times = _times(args)
    return _grid_table(columns, times, args.mus, (
        cells(args.params, args.mus[run], times)
        for _, run in _passes(probes, len(args.mus), len(times), probes)))


def _grid_table(columns: list[str], times, mus, passes) -> Table:
    """Header and lines `t, mu, *columns`, for each mu in turn, of the cells
    of consecutive runs of mu over the grid `times`, each an array with
    leading axes (m, n) and rendered as one block (`render.lines`): the t
    cells, rendered once per table, tiled over its m mu, and each mu's cell,
    rendered once, repeated over the grid."""
    head = render_cells(np.concatenate([times, mus]))
    t_cells, mu_cells = head[:len(times)], head[len(times):]

    def blocks():
        done = 0
        for values in passes:
            m, run = len(values), mu_cells[done:done + len(values)]
            # one mu: its one cell repeats, and the t cells need no copy
            lead = [t_cells, run] if m == 1 else [np.tile(t_cells, (m, 1)),
                                                   np.repeat(run, len(times), axis=0)]
            yield np.reshape(values, (m * len(times), -1)), lead
            done += m
    return ["t", "mu", *columns], lines(blocks())


def _cmd_evolve(args) -> Table:
    rho0 = probe_state(args.state)
    columns = [f"rho{i}{j}_{part}" for i in range(1, 5)
               for j in range(1, 5) for part in ("re", "im")]

    def cells(noise, mus, times):
        rho = evolve(noise, mus, times, rho0)
        return np.stack([rho.real, rho.imag], axis=-1)
    return _sweep(args, columns, cells)


def _cmd_concurrence(args) -> Table:
    rho0 = probe_state(args.probe)
    return _sweep(args, ["concurrence"], lambda noise, mus, times:
                  _concurrence(evolve(noise, mus, times, rho0)))


def _cmd_tracedist(args) -> Table:
    probes = np.stack([probe_state(name) for name in args.probe_pair])
    return _sweep(args, ["trace_distance"], lambda noise, mus, times:
                  _trace_distance(np.subtract(*evolve(noise, mus, times, probes))), probes=2)


def _pair_distances(states: np.ndarray) -> np.ndarray:
    """The trace distances of the pairs (0, 1), (2, 3), ... of a stack."""
    return _trace_distance(states[0::2] - states[1::2])


def _cmd_blp(args) -> Table:
    times = _times(args)
    names = [f"{a}:{b}" for a, b in args.probe_pairs]
    probes = [probe_state(name) for pair in args.probe_pairs for name in pair]
    if args.random_probes > 0:  # numpy.random is imported only for random probes
        names += [f"random{k}" for k in range(args.random_probes)]
        probes += random_bell_probes(2 * args.random_probes, seed=args.seed)
    probes = np.stack(probes)
    values = np.empty((len(args.mus), len(names)))
    for group, run in _passes(len(probes), len(args.mus), len(times), 2):
        # a pass's trajectories are freed before the next pass's are evolved
        values[run, group.start // 2:group.stop // 2] = positive_variation(_pair_distances(
            evolve(args.params, args.mus[run], times, probes[group]))).T
    values = np.column_stack([values, values.max(axis=1, initial=0.0)])
    lead = [np.repeat(render_cells(args.mus), values.shape[1], axis=0),
            np.tile(labels([*names, "max"]), (len(args.mus), 1))]
    return ["mu", "pair", "blp"], lines([(values.reshape(-1, 1), lead)])


# rate elements per `sss_measure` call: the cells of a chunk are solved
# together, and the memory of a sweep does not grow with the number of cells
_SSS_CHUNK = 1 << 14


def _cmd_sss(args) -> Table:
    times = _times(args)
    reference = (-args.G / 2, -args.G) if args.family == "markov" else None  # memoryless limit
    cells = [(g_inv, mu) for g_inv in args.g_inverses for mu in args.mus]
    chunk = max(1, _SSS_CHUNK // len(times))

    def rate_rows():
        # each g^-1's rates once for all of its mu, in runs of at most a chunk
        for g_inv in args.g_inverses:
            for start in range(0, len(args.mus), chunk):
                yield from zip(*correlated_oun_rates(
                    times, args.oun_params[g_inv], args.mus[start:start + chunk]))

    rows, zetas = rate_rows(), []
    for _ in range(0, len(cells), chunk):
        rates = list(islice(rows, chunk))
        try:
            zetas += list(sss_measure(times, np.stack(rates, axis=1), reference))
        except ValueError as exc:  # the grid is the only input it can reject
            raise ValueError(f"--tmax {args.tmax!r} and --steps {args.steps}: {exc}") from None
    return ["g_inverse", "mu", "zeta"], lines([(np.column_stack([*zip(*cells), zetas]), [])])


def _cmd_volume(args) -> Table:
    def cells(noise, mus, times):
        volume = accessible_volume(noise, mus, times)
        # 1 where V rose from the previous point; the flags print as 0 and 1
        rose = np.diff(volume, prepend=volume[:, :1]) > RISE_THRESHOLD
        return np.stack([volume, rose], axis=-1)
    return _sweep(args, ["volume", "witness_flag"], cells)


def _cmd_qec(args) -> Table:
    column = "p_success_normalized" if args.normalized else "p_success"
    times = _times(args)
    values = success_vs_time(args.params, args.mus, times, normalized=args.normalized)
    return _grid_table([column], times, args.mus, (
        values[run] for _, run in _passes(1, len(args.mus), len(times), 1)))


_COMMANDS = {
    "evolve": _cmd_evolve,
    "concurrence": _cmd_concurrence,
    "tracedist": _cmd_tracedist,
    "blp": _cmd_blp,
    "sss": _cmd_sss,
    "volume": _cmd_volume,
    "qec": _cmd_qec,
}
