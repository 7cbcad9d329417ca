"""The numeric work of the subcommands, on options that `cli` has checked.

`cli` imports this module only to run a command that computes with numpy,
that is every CSV subcommand. So `classify-errors`, `freeze-check` and
every rejected option run without numpy. This module imports numpy and
every numeric layer at its top, and never imports `cli`: under
`python -m corrchan.cli` that import would run the command line a second
time, as a module of its own.

A handler returns its CSV table, a header and all of its lines in chunks
of CRLF text, and `cli` writes it. `render` builds the text with numpy,
byte for byte as '%.12g' prints each cell, in one array pass over the
varying cells of each chunk of lines: the t column once per sweep, each mu
once, and each column that is constant over a mu block once per block.
Numpy warnings are silenced while a command runs: each invariant rejects
NaN and inf itself, and a numeric failure prints one `numeric failure:` line.
"""

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


def _sweep(args, columns: list[str], cells) -> Table:
    """Header and lines `t, mu, *columns` over the time grid, for each mu in
    turn; `cells(noise, mu, times)` returns a float array of shape (n,) or
    (n, len(columns))."""
    times = _times(args)
    return _grid_table(columns, times, args.mus,
                       (cells(args.params, mu, times) for mu in args.mus))


def _grid_table(columns: list[str], times, mus, blocks) -> Table:
    """Header and lines `t, mu, *columns`, for each mu in turn, of the
    blocks of cells of each mu over the grid `times`: the t cells are
    rendered once per table, mu once per block, and each column that is
    constant over the grid once per block (`render.lines`)."""
    head = render_cells(np.concatenate([times, mus]))
    t_cells, mu_cells = head[:len(times)], head[len(times):]
    return ["t", "mu", *columns], lines(
        (np.reshape(values, (len(times), -1)), [t_cells, mu_cell])
        for mu_cell, values in zip(mu_cells, blocks))


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


def _cmd_tracedist(args) -> Table:
    probes = np.stack([probe_state(name) for name in args.probe_pair])
    return _sweep(args, ["trace_distance"], lambda noise, mu, times:
                  _trace_distance(np.subtract(*evolve(noise, mu, times, probes))))


# probe states per `evolve` call in `blp`: an even number, so that a chunk
# holds whole pairs, and the memory of a sweep does not grow with the probes
_BLP_CHUNK = 16


def _cmd_blp(args) -> Table:
    times = _times(args)
    names = [f"{a}:{b}" for a, b in args.probe_pairs]
    probes = [probe_state(name) for pair in args.probe_pairs for name in pair]
    if args.random_probes > 0:  # numpy.random is imported only for random probes
        names += [f"random{k}" for k in range(args.random_probes)]
        probes += random_bell_probes(2 * args.random_probes, seed=args.seed)
    probes = np.stack(probes)
    pairs = labels([*names, "max"])

    def blocks():
        for mu, mu_cell in zip(args.mus, render_cells(args.mus)):
            # one chunk's trajectories are freed before the next chunk's are evolved
            values = []
            for start in range(0, len(probes), _BLP_CHUNK):
                states = evolve(args.params, mu, times, probes[start:start + _BLP_CHUNK])
                values.append(positive_variation(_trace_distance(states[0::2] - states[1::2])))
            values = np.concatenate(values)
            yield np.append(values, values.max(initial=0.0))[:, None], [mu_cell, pairs]
    return ["mu", "pair", "blp"], lines(blocks())


# rate elements per `sss_measure` call: the cells of a chunk are solved
# together, and the memory of a sweep does not grow with the number of cells
_SSS_CHUNK = 1 << 14


def _cmd_sss(args) -> Table:
    times = _times(args)
    reference = (-args.G / 2, -args.G) if args.family == "markov" else None  # memoryless limit
    cells = [(g_inv, mu) for g_inv in args.g_inverses for mu in args.mus]
    chunk = max(1, _SSS_CHUNK // len(times))
    zetas = []
    for start in range(0, len(cells), chunk):
        rates = [correlated_oun_rates(times, args.oun_params[g_inv], mu)
                 for g_inv, mu in cells[start:start + chunk]]
        try:
            zetas += list(sss_measure(times, np.stack(rates, axis=1), reference))
        except ValueError as exc:  # the grid is the only input it can reject
            raise ValueError(f"--tmax {args.tmax!r} and --steps {args.steps}: {exc}") from None
    return ["g_inverse", "mu", "zeta"], lines([(np.column_stack([*zip(*cells), zetas]), [])])


def _cmd_volume(args) -> Table:
    def cells(noise, mu, times):
        volume = accessible_volume(noise, mu, times)
        # 1 where V rose from the previous point; the flags print as 0 and 1
        return np.column_stack([volume, np.diff(volume, prepend=volume[0]) > RISE_THRESHOLD])
    return _sweep(args, ["volume", "witness_flag"], cells)


def _cmd_qec(args) -> Table:
    column = "p_success_normalized" if args.normalized else "p_success"
    times = _times(args)
    return _grid_table([column], times, args.mus, success_vs_time(
        args.params, args.mus, times, normalized=args.normalized))


_COMMANDS = {
    "evolve": _cmd_evolve,
    "concurrence": _cmd_concurrence,
    "tracedist": _cmd_tracedist,
    "blp": _cmd_blp,
    "sss": _cmd_sss,
    "volume": _cmd_volume,
    "qec": _cmd_qec,
}
