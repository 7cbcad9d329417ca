import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrchan.cli import main
from corrchan.errors import NumericError
from corrchan.measures import sss_measure
from corrchan.params import GRID_ERROR
from corrchan.render import cells, labels, lines


SRC = Path(__file__).resolve().parent.parent / "src"
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_qec_preset(tmp_path):
    out = tmp_path / "qec.csv"
    code = main(["qec", "--noise", "oun", "--G", "1", "--g", "0.05",
                 "--mu", "0,0.5,0.9", "--tmax", "50", "--steps", "20",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "mu", "p_success"]
    assert len(rows) == 1 + 3 * 20
    assert float(rows[1][2]) == 1.0  # t = 0
    # blocks ordered by mu, rows by t inside each block
    assert [r[1] for r in rows[1:21]] == ["0"] * 20


def test_concurrence_preset_freezing_visible(tmp_path):
    out = tmp_path / "conc.csv"
    code = main(["concurrence", "--noise", "rtn", "--a", "0.8", "--gamma", "0.05",
                 "--mu", "0,1", "--probe", "phi+", "--tmax", "40", "--steps", "25",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "mu", "concurrence"]
    frozen = [float(r[2]) for r in rows[1:] if r[1] == "1"]
    decayed = [float(r[2]) for r in rows[1:] if r[1] == "0"]
    assert all(abs(c - 1) < 1e-9 for c in frozen)
    assert min(decayed) < 0.9


def test_byte_identical_reruns(tmp_path):
    args = ["volume", "--noise", "rtn", "--a", "0.8", "--gamma", "0.05",
            "--mu", "0.9,0.3", "--tmax", "60", "--steps", "50"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_volume_witness_flags(tmp_path):
    out = tmp_path / "vol.csv"
    assert main(["volume", "--noise", "rtn", "--mu", "0.9", "--tmax", "100",
                 "--steps", "200", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "mu", "volume", "witness_flag"]
    flags = {r[3] for r in rows[1:]}
    assert flags == {"0", "1"}


def test_volume_oun_no_witness(tmp_path):
    out = tmp_path / "vol.csv"
    assert main(["volume", "--noise", "oun", "--mu", "0.5", "--tmax", "80",
                 "--steps", "120", "--out", str(out)]) == 0
    assert all(r[3] == "0" for r in read_csv(out)[1:])


def test_evolve_columns(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--noise", "nmad", "--gamma0", "1", "--g", "0.05",
                 "--state", "psi+", "--mu", "1", "--tmax", "10", "--steps", "5",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows[0]) == 2 + 32
    assert rows[0][2] == "rho11_re"
    # psi+ is frozen under fully correlated damping: rows identical over time
    assert rows[1][2:] == rows[-1][2:]


def test_tracedist_subcommand(tmp_path):
    out = tmp_path / "td.csv"
    assert main(["tracedist", "--noise", "oun", "--pair", "++:--",
                 "--mu", "0.5", "--tmax", "30", "--steps", "10",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    values = [float(r[2]) for r in rows[1:]]
    assert abs(values[0] - 1.0) < 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_blp_subcommand(tmp_path):
    out = tmp_path / "blp.csv"
    assert main(["blp", "--noise", "rtn", "--mu", "0,0.9", "--tmax", "60",
                 "--steps", "150", "--pairs", "++:--,00:11",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["mu", "pair", "blp"]
    by_mu = {}
    for mu, pair, value in rows[1:]:
        by_mu.setdefault(mu, {})[pair] = float(value)
    for mu, vals in by_mu.items():
        assert vals["max"] == max(v for k, v in vals.items() if k != "max")
        assert vals["max"] > 0.01  # revivals under RTN
        assert vals["00:11"] == 0.0  # dephasing-insensitive pair


BLP_ARGV = ["blp", "--random-probes", "20", "--mu", "0,0.7", "--tmax", "30", "--steps", "400"]


def test_blp_evolves_at_most_one_chunk_at_once(monkeypatch, tmp_path):
    # 4 default pairs and 20 random ones are 48 probe states, at 2 mu and 400
    # times: more (probe, mu, t) state points than one pass holds
    import corrchan.sweeps as sweeps_mod

    evolve, sizes = sweeps_mod.evolve, []

    def counting_evolve(noise, mus, times, probes):
        sizes.append(len(probes) * len(mus) * len(times))
        return evolve(noise, mus, times, probes)

    monkeypatch.setattr(sweeps_mod, "evolve", counting_evolve)
    assert main([*BLP_ARGV, "--out", str(tmp_path / "x.csv")]) == 0
    assert sum(sizes) == 2 * 48 * 400
    assert max(sizes) <= sweeps_mod._PASS_POINTS < 2 * 48 * 400


def test_blp_chunks_write_the_csv_of_one_stack(monkeypatch, tmp_path):
    import corrchan.sweeps as sweeps_mod

    chunked, whole = tmp_path / "chunked.csv", tmp_path / "whole.csv"
    assert main([*BLP_ARGV, "--out", str(chunked)]) == 0
    monkeypatch.setattr(sweeps_mod, "_PASS_POINTS", sys.maxsize)
    assert main([*BLP_ARGV, "--out", str(whole)]) == 0
    assert chunked.read_bytes() == whole.read_bytes()


def test_sss_subcommand_monotone(tmp_path):
    out = tmp_path / "sss.csv"
    assert main(["sss", "--G", "0.6", "--g-inverse", "10,100",
                 "--mu", "0,0.3,0.6,0.9", "--tmax", "100", "--steps", "300",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["g_inverse", "mu", "zeta"]
    for ginv in ("10", "100"):
        zetas = [float(r[2]) for r in rows[1:] if r[0] == ginv]
        assert zetas == sorted(zetas)
        assert len(zetas) == 4
        assert all(b > a for a, b in zip(zetas, zetas[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["markov", "free"])
def test_sss_mu_zero_long_window(family, tmp_path):
    # OUN p^2 underflows inside the window; the mu = 0 rates use their limit
    import numpy as np

    out = tmp_path / "sss.csv"
    assert main(["sss", "--mu", "0", "--tmax", "3000", "--g-inverse", "10",
                 "--steps", "50", "--family", family, "--out", str(out)]) == 0
    zeta = float(read_csv(out)[1][2])
    assert np.isfinite(zeta)
    if family == "markov":
        # L(t) - L_markov = e^{-g t} (G/2 on 8 slots, G on 4): norm sqrt(6) G e^{-g t}
        times = np.linspace(0.0, 3000.0, 50)
        closed = np.trapezoid(np.sqrt(6) * 0.6 * np.exp(-times / 10), times) / 3000
        assert abs(zeta - closed) <= 1e-11 * closed  # printed to 12 digits


@pytest.mark.parametrize("family", ["markov", "free"])
def test_sss_non_finite_generator_exits_3(family, monkeypatch, tmp_path):
    import numpy as np

    import corrchan.sweeps as sweeps_mod

    real = sweeps_mod.correlated_oun_rates

    def with_nan(t, params, mu):
        single, double = real(t, params, mu)
        single[len(single) // 2] = np.nan
        return single, double

    monkeypatch.setattr(sweeps_mod, "correlated_oun_rates", with_nan)
    out = tmp_path / "x.csv"
    assert main(["sss", "--mu", "0.5", "--steps", "20", "--family", family,
                 "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sss", "--G", "1e300"],
    ["sss", "--G", "1e300", "--family", "free"],
], ids=["sss-markov", "sss-free"])
def test_overflow_of_finite_parameters_exits_3(args, tmp_path):
    # finite parameters whose squares or norms overflow: a numeric failure,
    # not a traceback (exit 1) or rows of inf (exit 0); `main` itself keeps
    # numpy from warning, which the test configuration would turn into errors
    out = tmp_path / "x.csv"
    assert main(args + ["--steps", "5", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("a, gamma", [("1e154", "0.05"), ("0.8", "1e-310"), ("1e160", "1e-10")],
                         ids=["a-1e154", "gamma-1e-310", "volume-rtn"])
def test_rtn_ratio_overflow_exits_2(a, gamma, capsys):
    # finite, positive RTN parameters whose (2a/gamma)^2 overflows cannot be
    # evaluated: the parameter check rejects them, naming both options,
    # where the kernel used to find p(t) not finite (exit 3)
    assert main(["volume", "--noise", "rtn", "--a", a, "--gamma", gamma, "--steps", "5"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --a {float(a)} and --gamma {float(gamma)} overflow (2a/gamma)^2\n")


@pytest.mark.parametrize("gamma0, g", [("1", "1e160"), ("1e308", "10")],
                         ids=["evolve-nmad", "gamma0-1e308"])
def test_nmad_discriminant_overflow_exits_2(gamma0, g, capsys):
    # finite, positive NMAD parameters whose 2 gamma0 g - g^2 overflows: the
    # parameter check rejects them, naming both options, where the kernel
    # found G(t) not finite (exit 3)
    assert main(["evolve", "--noise", "nmad", "--gamma0", gamma0, "--g", g, "--steps", "5"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --gamma0 {float(gamma0)} and --g {float(g)} overflow 2 gamma0 g - g^2\n")


def test_nmad_rate_product_overflows_only_where_the_product_does(tmp_path):
    # 2 * gamma0 * g overflowed from left to right (exit 3); gamma0 g = 1 is
    # doubled after the product, so these parameters now give finite rows
    out = tmp_path / "x.csv"
    assert main(["volume", "--noise", "nmad", "--gamma0", "1e308", "--g", "1e-308",
                 "--steps", "5", "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 15
    assert all(np.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize("args", [
    # over damped, g t and the phase l t overflow on this grid, yet G(t) and
    # p(t) decay to 0: the exponent of the slow exponential is one product
    ["evolve", "--noise", "nmad", "--g", "1e10", "--tmax", "1e300"],
    ["evolve", "--noise", "rtn", "--gamma", "1e10", "--tmax", "1e300"],
], ids=["nmad", "rtn"])
def test_overdamped_overflow_of_rate_and_phase_gives_finite_rows(args, tmp_path):
    out = tmp_path / "x.csv"
    assert main([*args, "--steps", "5", "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 15
    assert all(np.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize("args", [
    # under damped, the phase d t / 2 overflows on this grid, where cos has
    # no value
    ["evolve", "--noise", "nmad", "--gamma0", "10", "--g", "1", "--tmax", "1e308"],
    ["sss", "--G", "1e300"],
], ids=["evolve-nmad", "sss-markov"])
def test_numeric_failure_prints_one_stderr_line(args, tmp_path):
    # a fresh interpreter that shows warnings, where a numpy RuntimeWarning
    # would print two lines before the failure
    out = tmp_path / "x.csv"
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "corrchan.cli", *args,
                           "--steps", "5", "--out", str(out)],
                          env=_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numeric failure: ")
    assert not out.exists()


def test_sss_uncertified_minimiser_exits_3(monkeypatch, tmp_path):
    import corrchan.measures as measures_mod

    monkeypatch.setattr(measures_mod, "SSS_MAX_ITERATIONS", 0)
    out = tmp_path / "x.csv"
    assert main(["sss", "--mu", "0.5", "--steps", "20", "--family", "free",
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_classify_errors_output(capsys):
    assert main(["classify-errors"]) == 0
    out = capsys.readouterr().out
    assert "undetectable (8):" in out
    assert "detectable (56):" in out
    assert "correctable (32):" in out
    assert "ZIZIZI" in out


def test_freeze_check_output(capsys):
    assert main(["freeze-check", "--state", "psi+", "--channel", "nmad",
                 "--mu", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "frozen"
    assert main(["freeze-check", "--state", "phi+", "--channel", "nmad",
                 "--mu", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "not_frozen"
    assert main(["freeze-check", "--c", "0.5,0.5,-1", "--channel", "nmad",
                 "--mu", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "conditional"


def test_stdout_output(capsys):
    assert main(["qec", "--noise", "oun", "--mu", "0.5", "--tmax", "10",
                 "--steps", "3", "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].strip() == "t,mu,p_success"
    assert len(lines) == 4


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise = oun\nmu = 0.25\ntmax = 10\nsteps = 4\n# comment\n")
    out1 = tmp_path / "c1.csv"
    assert main(["qec", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_csv(out1)
    assert len(rows) == 5
    assert rows[1][1] == "0.25"
    # explicit flag wins over the file value
    out2 = tmp_path / "c2.csv"
    assert main(["qec", "--config", str(cfg), "--mu", "0.75",
                 "--out", str(out2)]) == 0
    assert read_csv(out2)[1][1] == "0.75"
    # --config=FILE reads the same file
    out3 = tmp_path / "c3.csv"
    assert main(["qec", f"--config={cfg}", "--out", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize("value,column", [("true", "p_success_normalized"),
                                          ("on", "p_success_normalized"),
                                          ("false", "p_success"), ("no", "p_success")])
def test_config_file_boolean_flag(value, column, tmp_path):
    # a true value sets a store_true flag; a false one leaves it unset
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text(f"noise = oun\ntmax = 10\nsteps = 3\nnormalized = {value}\n")
    assert main(["qec", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out)[0] == ["t", "mu", column]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    assert main(["qec", "--config", str(bad)]) == 2
    assert main(["qec", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad.write_text("tmax = 10\n = 3\n")
    assert main(["qec", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.endswith("bad.cfg:2: empty key\n")
    # a config file with no subcommand after it
    for argv in (["--config", str(bad)], [f"--config={bad}"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --config requires a subcommand\n"


@pytest.mark.parametrize("second", [["--config", "{}"], ["--config={}"], ["--conf", "{}"],
                                    "config = {}"])
def test_second_config_file_rejected(second, tmp_path, capsys):
    # a second file on the command line, or named inside the first, was
    # silently dropped: only one is read, and the run stops naming the other
    first, other, out = tmp_path / "a.cfg", tmp_path / "b.cfg", tmp_path / "out.csv"
    other.write_text("mu = 0.75\n")
    argv = ["qec", "--config", str(first), "--tmax", "10", "--steps", "3", "--out", str(out)]
    if isinstance(second, str):
        first.write_text("mu = 0.25\n" + second.format(other) + "\n")
    else:
        first.write_text("mu = 0.25\n")
        argv += [tok.format(other) for tok in second]
    assert main(argv) == 2
    assert f"config file {str(other)!r} is not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["qec", "--noise", "oun", "--mu", "1.5"],          # mu out of range
    ["qec", "--noise", "nmad"],                        # unsupported noise for qec
    ["qec", "--noise", "oun", "--tmax", "-5"],         # bad grid
    ["qec", "--noise", "oun", "--steps", "1"],         # bad grid
    ["concurrence", "--noise", "rtn", "--a", "-1"],    # bad parameter
    ["tracedist", "--pair", "phi+"],                   # malformed pair
    ["freeze-check", "--c", "1,2"],                    # malformed triple
])
def test_validation_exit_code(args, tmp_path):
    assert main(args + ["--out", str(tmp_path / "x.csv")]
                if args[0] != "freeze-check" else args) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["freeze-check", "--c", "5,5,5", "--channel", "oun", "--mu", "1"],    # not a state
    ["freeze-check", "--c", "nan,0,0", "--channel", "oun", "--mu", "1"],  # not finite
    ["volume", "--noise", "oun", "--G", "inf", "--steps", "3"],
    ["concurrence", "--tmax", "nan"],
    ["concurrence", "--tmax", "inf"],
    ["sss", "--tmax", "nan"],
    ["sss", "--g-inverse", "nan"],
    ["evolve", "--state=--", "--steps", "3"],  # argparse turns the value into []
    ["tracedist", "--pair=--", "--steps", "3"],
    ["blp", "--random-probes", "-3", "--steps", "5"],
    # finite, but the eigenvalue sums overflow
    ["freeze-check", "--c", "1e308,1e308,-1e308", "--channel", "oun", "--mu", "1"],
])
def test_invalid_input_rejected_without_output(args, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# each CSV subcommand and the binding that evaluates its mu, once for all mu
# of these small grids (sss: once per g^-1; qec: the spot check that
# `success_vs_time` makes once for all mu, row by row)
SWEEP_BINDINGS = {"evolve": "sweeps.evolve", "concurrence": "sweeps.evolve",
                  "tracedist": "sweeps.evolve", "blp": "sweeps.evolve",
                  "volume": "sweeps.accessible_volume",
                  "qec": "qec.success_probability_bruteforce",
                  "sss": "sweeps.correlated_oun_rates"}


@pytest.mark.parametrize("command", SWEEP_BINDINGS)
def test_failed_sweep_leaves_no_csv(command, monkeypatch, tmp_path):
    import importlib

    module, binding = SWEEP_BINDINGS[command].split(".")
    module = importlib.import_module(f"corrchan.{module}")
    real = getattr(module, binding)
    seen = []

    def fail_on_second_value(*args, **kwargs):
        # the grid commands fail at the second mu's row of their one call;
        # sss, with one mu, at the second g^-1
        seen.extend([len(seen)] if command == "sss" else args[1])
        if len(set(seen)) > 1:
            raise NumericError("injected failure")
        return real(*args, **kwargs)

    def fail_at_second_mu(p, mu):
        # qec spot-checks every mu in one call: the second mu's row fails
        seen.extend(mu)
        brute = real(p, mu)
        brute[1] = np.nan
        return brute

    monkeypatch.setattr(module, binding,
                        fail_at_second_mu if command == "qec" else fail_on_second_value)
    out = tmp_path / "x.csv"
    sweep = ["--mu", "0.5", "--g-inverse", "10,50"] if command == "sss" else ["--mu", "0,0.5"]
    assert main([command, *sweep, "--tmax", "5", "--steps", "3", "--out", str(out)]) == 3
    assert len(set(seen)) == 2
    assert not out.exists()


def test_usage_exit_codes(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    assert main(["qec", "--help"]) == 0
    capsys.readouterr()


SUBCOMMANDS = ("evolve", "concurrence", "tracedist", "blp", "sss", "volume", "qec",
               "classify-errors", "freeze-check")


def _parser_with_every_option():
    """One parser holding every subcommand's options as argparse
    subparsers, built from the table `cli._SUBCOMMANDS`, as `main` built it
    before it built only the invoked subcommand's parser."""
    from corrchan.cli import _SUBCOMMANDS, build_parser

    parser = argparse.ArgumentParser(prog="corrchan", description=build_parser(None).description)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(func=func)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    assert list(subs.choices) == list(SUBCOMMANDS)
    return parser


def _usage_cases(config):
    """(argv, exit code) pairs: help, usage errors and --config before the
    subcommand, at the top level and for every subcommand."""
    cases = [([], 2), (["--help"], 0), (["no-such-command"], 2), (["--", "qec"], 2),
             (["--config", config, "qec", "--mu", "0.5"], 0),
             (["--config", config, "qec", "--help"], 0),
             (["--config", config, "freeze-check", "--bogus"], 2)]
    bad_value = {"evolve": ["--steps", "two"], "concurrence": ["--noise", "zzz"],
                 "tracedist": ["--tmax", "x"], "blp": ["--random-probes", "1.5"],
                 "sss": ["--family", "zzz"], "volume": ["--G", "g"], "qec": ["--steps", "3.5"],
                 "classify-errors": ["stray"], "freeze-check": ["--channel", "zzz"]}
    for sub in SUBCOMMANDS:
        missing = ["--config"] if sub == "classify-errors" else ["--mu"]
        # `--` ends the subcommand's options: x is a top-level usage error
        cases += [([sub, "--help"], 0), ([sub, "--bogus"], 2),
                  ([sub, *bad_value[sub]], 2), ([sub, *missing], 2), ([sub, "--", "x"], 2)]
    return cases


def test_usage_matches_a_parser_with_every_option(monkeypatch, capsys, tmp_path):
    """`main` builds only the invoked subcommand's parser; on help, usage
    errors and --config it prints what a parser with every option prints."""
    import corrchan.cli as cli_mod

    config = tmp_path / "grid.cfg"
    config.write_text("tmax = 2\nsteps = 3\n")
    every = _parser_with_every_option()
    for argv, code in _usage_cases(str(config)):
        assert main(list(argv)) == code, argv
        lazy = capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli_mod, "_parse", every.parse_args)
            assert main(list(argv)) == code, argv
        assert capsys.readouterr() == lazy, argv


def test_classify_errors_builds_no_other_options(monkeypatch, capsys):
    # a deterministic guard on the parser cost: no other subcommand's options
    added = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["classify-errors"]) == 0
    capsys.readouterr()
    # -h on the subcommand's parser: one parser in all
    assert added.count(("-h", "--help")) == 1
    assert [args for args in added if args != ("-h", "--help")] == [("--config",)]


def test_freeze_check_builds_no_other_options(monkeypatch, capsys):
    # a deterministic guard on the parser cost: no other subcommand's options
    added = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["freeze-check"]) == 0
    capsys.readouterr()
    # -h on the subcommand's parser: one parser in all
    assert added.count(("-h", "--help")) == 1
    assert [args for args in added if args != ("-h", "--help")] == [
        ("--state",), ("--c",), ("--channel",), ("--mu",), ("--config",)]


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_width_is_worked_out_once_per_parser(columns, monkeypatch, capsys):
    """`-h` prints what argparse's own formatter prints, which queries the
    terminal for its width on every use; `build_parser` queries it once."""
    import shutil

    from corrchan.cli import build_parser

    monkeypatch.setenv("COLUMNS", columns)
    for argv in [[], *([sub] for sub in SUBCOMMANDS)]:
        assert main([*argv, "-h"]) == 0
        printed = capsys.readouterr().out
        parser = build_parser(argv[0] if argv else None)
        parser.formatter_class = argparse.HelpFormatter
        assert printed == parser.format_help(), argv
    queries = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda: queries.append(1) or size())
    assert main(["qec", "--tmax", "1", "--steps", "2", "--out", "-"]) == 0
    capsys.readouterr()
    assert len(queries) == 1


def test_help_matches_golden(monkeypatch, capsys):
    """`corrchan -h` and each `corrchan <sub> -h` at a 100-column terminal,
    byte for byte: every option's flag, default and help text, in order."""
    monkeypatch.setenv("COLUMNS", "100")
    printed = []
    for argv in [[], *([sub] for sub in SUBCOMMANDS)]:
        assert main([*argv, "-h"]) == 0
        printed.append(f"$ corrchan {' '.join([*argv, '-h'])}\n" + capsys.readouterr().out)
    assert "\n".join(printed) == (GOLDEN_DIR / "help.txt").read_text()


def test_free_sss_preset_evaluates_few_gaps(monkeypatch, tmp_path):
    # a deterministic guard on the solver cost: the costly certificate of a
    # row is evaluated only where f elsewhere does not already rule it out
    import corrchan.measures as measures_mod

    gap, evaluated = measures_mod._gap, []

    def counting_gap(local, row, weights):
        evaluated.append(row)
        return gap(local, row, weights)

    monkeypatch.setattr(measures_mod, "_gap", counting_gap)
    assert main(["sss", "--family", "free", "--out", str(tmp_path / "x.csv")]) == 0
    assert 0 < len(evaluated) <= 48


def test_free_sss_preset_evaluates_few_local_models(monkeypatch, tmp_path):
    # a deterministic guard on the solver cost: each row starts at its chord
    # median, a data point near its minimiser, where a start at the weighted
    # centroid took 18 evaluations of the local model
    import corrchan.measures as measures_mod

    local, evaluated = measures_mod._local, []

    def counting_local(u, points, weights):
        evaluated.append(len(u))
        return local(u, points, weights)

    monkeypatch.setattr(measures_mod, "_local", counting_local)
    assert main(["sss", "--family", "free", "--out", str(tmp_path / "x.csv")]) == 0
    assert 0 < len(evaluated) <= 8


def test_sss_memory_does_not_grow_with_cells(tmp_path):
    # `sss` solves its cells in chunks of at most sweeps._SSS_CHUNK rate values:
    # twelve cells of 50000 times peak like one, where one stack of all of
    # them would take about twelve times its memory
    import tracemalloc

    def peak(cells):
        tracemalloc.start()
        try:
            assert main(["sss", "--family", "free", "--steps", "50000", *cells,
                         "--out", str(tmp_path / "x.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(["--g-inverse", "10", "--mu", "0.3"])
    assert peak(["--g-inverse", "10,50,100", "--mu", "0,0.3,0.6,0.9"]) <= 1.2 * one


def test_out_of_memory_exits_3_without_csv(capsys, tmp_path):
    # 10**15 grid points need 8 PB, beyond any 47-bit user address space, so
    # the allocation fails without touching memory
    out = tmp_path / "x.csv"
    assert main(["qec", "--steps", str(10 ** 15), "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("out of memory: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("steps", [2 ** 63 - 1, 2 ** 63, 10 ** 20])
@pytest.mark.parametrize("command", ["evolve", "qec", "sss"])
def test_steps_beyond_any_grid_exit_2_naming_the_option(command, steps, capsys, tmp_path):
    # numpy's linspace fails on these counts with an IndexError, or with
    # its own size errors that name no option
    out = tmp_path / "x.csv"
    assert main([command, "--steps", str(steps), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: --steps must be at most 2^59 = {2 ** 59}, got {steps}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["blp", "--random-probes", "1", "--seed", "-1", "--steps", "5"],
     "--seed must be non-negative, got -1"),
    # 1 / 1e-320 overflows to inf
    (["sss", "--g-inverse", "1e-320"],
     "--g-inverse requires positive finite values with a finite inverse, got 1e-320"),
    # sss checks its grid like the other grid commands
    (["sss", "--steps", "1"], "--steps must be at least 2, got 1"),
    (["sss", "--tmax", "nan"], "--tmax must be positive and finite, got nan"),
    # an empty list item is an error, not a shorter list: no verdict, no rows
    (["freeze-check", "--c", "0.5,,0.5,-1", "--channel", "oun", "--mu", "1"],
     "--c expects a comma-separated list of numbers, got '0.5,,0.5,-1'"),
    (["qec", "--mu", "0,,0.9"], "--mu expects a comma-separated list of numbers, got '0,,0.9'"),
    (["sss", "--g-inverse", "10,"],
     "--g-inverse expects a comma-separated list of numbers, got '10,'"),
    (["sss", "--mu", ""], "--mu expects a comma-separated list of numbers, got ''"),
    # a noise parameter error names its option
    (["sss", "--G", "nan"], "--G must be positive and finite, got nan"),
    (["qec", "--noise", "rtn", "--a", "-1"], "--a must be positive and finite, got -1.0"),
    (["evolve", "--noise", "nmad", "--gamma0", "-1"],
     "--gamma0 must be positive and finite, got -1.0"),
    # a grid step below the smallest normal float gives imprecise trapezoid weights
    (["sss", "--g-inverse", "10", "--mu", "0", "--tmax", "1e-320"],
     "--tmax 1e-320 and --steps 400: times must be a finite, strictly increasing grid "
     "of at least two points, with no step below the smallest normal float"),
    (["sss", "--family", "free", "--tmax", "4e-308", "--steps", "3"],
     "--tmax 4e-308 and --steps 3: times must be a finite, strictly increasing grid "
     "of at least two points, with no step below the smallest normal float"),
])
def test_boundary_error_names_the_option(args, message, capsys):
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("steps", [2, 3, 400])
def test_sss_grid_step_rejected_where_either_check_rejects(steps, capsys):
    """Around tmax = tiny (steps - 1), wherever the command's own check of
    tmax / (steps - 1) or `sss_measure` on its grid rejects the step, `sss`
    exits 2 with the one message, and computes its row otherwise."""
    tiny = sys.float_info.min
    edge = lo = hi = tiny * (steps - 1)
    tmaxes = {edge * f for f in (0.5, 0.999, 1, 1.001, 2)}
    for _ in range(4):  # four floats on either side of the edge
        lo, hi = math.nextafter(lo, 0), math.nextafter(hi, math.inf)
        tmaxes |= {lo, hi}
    verdicts = set()
    for tmax in sorted(tmaxes):
        try:
            sss_measure(np.linspace(0.0, tmax, steps), (0.0, 0.0), (0.0, 0.0))
            rejected = tmax / (steps - 1) < tiny
        except ValueError:
            rejected = True
        code = main(["sss", "--g-inverse", "10", "--mu", "0", "--tmax", repr(tmax),
                     "--steps", str(steps)])
        out, err = capsys.readouterr()
        if rejected:
            assert (code, out, err) == (
                2, "", f"error: --tmax {tmax!r} and --steps {steps}: {GRID_ERROR}\n")
        else:
            assert (code, err, len(out.splitlines())) == (0, "", 2), tmax
        verdicts.add(rejected)
    assert verdicts == {False, True}


def test_default_preset_runtime(tmp_path):
    import time
    start = time.perf_counter()
    assert main(["concurrence", "--noise", "rtn", "--a", "0.8", "--gamma", "0.05",
                 "--mu", "0,0.5,0.9", "--probe", "phi+", "--tmax", "100",
                 "--steps", "500", "--out", str(tmp_path / "preset.csv")]) == 0
    assert time.perf_counter() - start < 60


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    import corrchan.sweeps as sweeps_mod

    def boom(*args, **kwargs):
        raise NumericError("spot check failed")

    monkeypatch.setattr(sweeps_mod, "success_vs_time", boom)
    assert main(["qec", "--noise", "oun", "--mu", "0.5", "--tmax", "5",
                 "--steps", "3", "--out", str(tmp_path / "x.csv")]) == 3


def test_lapack_failure_exits_3(monkeypatch, tmp_path, capsys):
    """A LAPACK failure exits 3, prints no verdict and writes no CSV."""
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    concurrence = ["concurrence", "--noise", "rtn", "--mu", "0.5", "--tmax", "5",
                   "--steps", "3", "--out", str(tmp_path / "x.csv")]
    for routine, command in [
            # the concurrence of a state that is not X-shaped takes one eigh
            ("eigh", concurrence + ["--probe", "alpha"]),
            # validating the probe state takes one eigvalsh
            ("eigvalsh", concurrence)]:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, routine, no_convergence)
            assert main(command) == 3, routine
        assert not (tmp_path / "x.csv").exists()
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("numeric failure: ") and "did not converge" in stderr
    # the positivity of a Bloch triple has a closed form and needs no LAPACK
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    assert main(["freeze-check", "--c", "0.5,0.5,-1"]) == 0


OVERDAMPED_GRID = ["--tmax", "1000", "--steps", "3", "--mu", "0.5"]


def test_overdamped_nmad_decays_at_large_t(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--noise", "nmad", "--g", "5", "--gamma0", "1",
                 *OVERDAMPED_GRID, "--state", "11", "--out", str(out)]) == 0
    rows = read_csv(out)
    population = [float(r[rows[0].index("rho44_re")]) for r in rows[1:]]
    assert population[0] == 1.0
    assert population[1] < 1e-12 and population[2] < 1e-12  # t = 500, 1000


@pytest.mark.parametrize("command", ["volume", "qec"])
def test_overdamped_rtn_rows_finite_at_large_t(command, tmp_path):
    import math

    from corrchan.noise import RtnParams, rtn_p

    out = tmp_path / f"{command}.csv"
    assert main([command, "--noise", "rtn", "--a", "0.01", "--gamma", "5",
                 *OVERDAMPED_GRID, "--out", str(out)]) == 0
    values = [float(r[2]) for r in read_csv(out)[1:]]
    assert all(math.isfinite(v) for v in values)
    if command == "volume":
        p = rtn_p(1000.0, RtnParams(a=0.01, gamma=5.0))
        assert abs(values[2] - p ** 8 * (0.5 + 0.5 * p * p) ** 4) < 1e-10


@pytest.mark.parametrize("command", ["evolve", "qec"])
def test_tiny_time_grid_accepted(command, tmp_path):
    # unclipped, OUN p(t) rounds to 1.0000000000000004 near t = 0 (exit 2)
    out = tmp_path / f"{command}.csv"
    assert main([command, "--noise", "oun", "--tmax", "1e-6", "--steps", "50",
                 "--out", str(out)]) == 0
    assert len(read_csv(out)) == 1 + 3 * 50


# Golden outputs: small grids of every subcommand, recorded from the code as it
# stood before the serial-sweep refactor and compared byte for byte. Never
# regenerate them to make a change pass; a changed byte is a changed result.
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
_GRID = ["--mu", "0,0.5,1", "--tmax", "30", "--steps", "12"]
_NOISE = {"rtn": ["--noise", "rtn", "--a", "0.8", "--gamma", "0.05"],
          "oun": ["--noise", "oun", "--G", "1", "--g", "0.05"],
          "nmad": ["--noise", "nmad", "--gamma0", "1", "--g", "0.05"]}
_SSS = ["sss", "--G", "0.6", "--g-inverse", "10,50", "--mu", "0,0.5,1",
        "--tmax", "50", "--steps", "20"]

GOLDEN_CSV = {f"{cmd}_{noise}": [cmd, *args, *_GRID]
              for cmd in ("evolve", "concurrence", "tracedist", "blp", "volume")
              for noise, args in _NOISE.items()}
GOLDEN_CSV.update({
    "evolve_nmad_psiplus": ["evolve", *_NOISE["nmad"], *_GRID, "--state", "psi+"],
    # not X-shaped: 16 of the 32 columns vary over the grid at mu 0 and 0.5, 8 at mu 1
    "evolve_nmad_alpha": ["evolve", *_NOISE["nmad"], *_GRID, "--state", "alpha"],
    # not X-shaped either: every row takes the Wootters route of `concurrence`
    "concurrence_nmad_alpha": ["concurrence", *_NOISE["nmad"], *_GRID, "--probe", "alpha"],
    "concurrence_rtn_plusplus": ["concurrence", *_NOISE["rtn"], *_GRID, "--probe", "++"],
    "tracedist_rtn_plusminus": ["tracedist", *_NOISE["rtn"], *_GRID, "--pair", "++:--"],
    "blp_rtn_random": ["blp", *_NOISE["rtn"], *_GRID, "--pairs", "phi+:phi-",
                       "--random-probes", "2", "--seed", "7"],
    "sss_markov": [*_SSS, "--family", "markov"],
    "sss_free": [*_SSS, "--family", "free"],
    # the 12-point grids of the CLI defaults and of the seed-1 map_measures benchmark
    "sss_free_defaults": ["sss", "--family", "free"],
    "sss_free_map_measures": ["sss", "--G", "0.601", "--g-inverse", "8.2,59.7,105.3",
                              "--mu", "0,0.3,0.6,0.9", "--tmax", "100", "--steps", "200",
                              "--family", "free"],
})
GOLDEN_CSV.update({f"qec_{noise}{suffix}": ["qec", *_NOISE[noise], *_GRID, *flag]
                   for noise in ("rtn", "oun")
                   for suffix, flag in (("", []), ("_normalized", ["--normalized"]))})

GOLDEN_STDOUT = {
    "classify_errors": ["classify-errors"],
    "freeze_psiplus_nmad_1": ["freeze-check", "--state", "psi+", "--channel", "nmad", "--mu", "1"],
    "freeze_phiplus_nmad_1": ["freeze-check", "--state", "phi+", "--channel", "nmad", "--mu", "1"],
    "freeze_00_nmad_0.5": ["freeze-check", "--state", "00", "--channel", "nmad", "--mu", "0.5"],
    "freeze_alpha_rtn_0.5": ["freeze-check", "--state", "alpha", "--channel", "rtn",
                             "--mu", "0.5"],
    "freeze_c_nmad_0.5": ["freeze-check", "--c", "0.5,0.5,-1", "--channel", "nmad",
                          "--mu", "0.5"],
    "freeze_c_oun_1": ["freeze-check", "--c", "0.2,-0.3,0.1", "--channel", "oun", "--mu", "1"],
    "freeze_c_dephasing_0.2": ["freeze-check", "--c", "0,0,0.5", "--channel", "dephasing",
                               "--mu", "0.2"],
}


@pytest.mark.parametrize("name", [*GOLDEN_CSV, *GOLDEN_STDOUT])
def test_golden_output(name, tmp_path, capsys):
    if name in GOLDEN_CSV:
        out = tmp_path / "out.csv"
        assert main(GOLDEN_CSV[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
    else:
        assert main(GOLDEN_STDOUT[name]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", GOLDEN_CSV)
def test_golden_csv_needs_no_quoting(name):
    """Re-writing a golden through csv.writer (excel dialect) gives the same
    bytes, so `_write_csv` joining fields with ',' and CRLF loses nothing."""
    data = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(csv.reader(io.StringIO(data.decode(), newline="")))
    assert buffer.getvalue().encode() == data


def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so that a signed zero prints as 0
    return format(float(x) + 0.0, ".12g")


def _text(data, lead=()) -> str:
    return "".join(lines([(data, lead)]))


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-300, 1 - 1e-15, 0.1 + 0.2, 1e16, 1e17,
    -1.5, 2.0 / 3.0, 123456789012.5, 1e300, 100.0 / 11.0,
    float("nan"), float("inf"), -float("inf"),
])
def test_lines_formats_like_fmt(x):
    # witness flags 0.0 and 1.0, and a t = 0, mu row, in the same array
    data = np.array([[x, 0.0, 1.0], [0.0, 0.5, x]])
    expected = [",".join(format(v + 0.0, ".12g") for v in row) for row in data.tolist()]
    assert _text(data, [labels("ab")]) == "".join(
        f"{t},{line}\r\n" for t, line in zip("ab", expected))
    assert _text(data[:, 1:], [cells(data[:, 0])]) == "".join(f"{line}\r\n" for line in expected)


def _constant_column_layouts(values):
    """The column layouts that `lines` renders with constant cells, one per
    call of a sweep's `cells`, each applied to a random array in turn."""
    yield values
    for column in (-0.0, 1e-300, np.nan):  # all -0.0, a finite constant, NaN
        layout = values.copy()
        layout[:, 0] = column
        yield layout
    layout = values.copy()
    layout[:, 0] = 2.0 / 3.0
    layout[-1, 0] = 0.5  # constant except in the last row
    yield layout
    yield np.broadcast_to(values[0], values.shape).copy()  # no varying column


@pytest.mark.parametrize("width", [1, 2, 32])
def test_sweep_rows_equal_one_array_per_mu(width):
    """`_sweep` renders the t cells once and each mu once; its lines are
    those of the array [t, mu, cells] of each mu in turn, also where a
    column is constant over the grid: all -0.0, finite, NaN, constant but
    for the last row, or every column at once."""
    from corrchan.params import OunParams
    from corrchan.sweeps import _sweep

    rng = np.random.default_rng(width)
    mus = (-0.0, 1e-300, 0.25, 0.5, 0.75, 1.0)
    # the options as `cli` hands them on, checked: the noise parameters and mus
    args = argparse.Namespace(params=OunParams(G=1.0, g=0.05), mus=list(mus), tmax=7.0, steps=50)
    values = rng.normal(size=(50, width)) * 10.0 ** rng.integers(-300, 300, size=(50, width))
    values[::7] = -0.0
    layouts = _constant_column_layouts(values)
    cells_of_mu = []

    def layout_cells(noise, mus, times):
        cells_of_mu.extend(next(layouts) for _ in mus)
        stacked = np.stack(cells_of_mu[-len(mus):])
        return stacked[..., 0] if width == 1 else stacked

    header, chunks = _sweep(args, [f"c{k}" for k in range(width)], layout_cells)
    assert len(cells_of_mu) == len(mus)
    times = np.linspace(0.0, 7.0, 50)
    stacked = [np.column_stack([times, np.full_like(times, mu), values])
               for mu, values in zip(mus, cells_of_mu)]
    assert header == ["t", "mu", *(f"c{k}" for k in range(width))]
    text = "".join(chunks)
    assert text == "".join(_text(data[:, 1:], [cells(data[:, 0])]) for data in stacked)
    assert text == "".join(",".join(_fmt(v) for v in row) + "\r\n"
                           for data in stacked for row in data.tolist())
    assert text.split(",")[:2] == ["0", "0"]


def test_lines_with_no_varying_column():
    """An array whose every column is constant, one row or many, renders
    as the same cells after each lead, with and without fixed cells."""
    data = np.array([[-0.0, 1e-300, 2.0 / 3.0]] * 3)
    line = "0,1e-300,0.666666666667"
    assert _text(data, [labels("abc")]) == "".join(f"{t},{line}\r\n" for t in "abc")
    assert _text(data[:1], [labels("a")]) == f"a,{line}\r\n"
    assert _text(data, [labels("abc"), cells(0.5)]) == "".join(
        f"{t},0.5,{line}\r\n" for t in "abc")


def test_commands_import_neither_scipy_nor_numpy_random(tmp_path):
    """A cold run of every subcommand, `blp` without random probes and
    `sss --family free` included, loads neither scipy nor numpy.random, nor
    the Kraus oracle `corrchan.oracle`."""
    commands = [["evolve"], ["concurrence"], ["tracedist"], ["blp"], ["volume"],
                ["qec"], ["sss", "--g-inverse", "10"],
                ["sss", "--g-inverse", "10", "--family", "free"]]
    argvs = [cmd + ["--steps", "5", "--out", str(tmp_path / f"{k}.csv")]
             for k, cmd in enumerate(commands)]
    argvs += [["classify-errors"],
              ["freeze-check", "--c", "0.5,0.5,-1", "--channel", "oun", "--mu", "1"]]
    script = ("import json, sys\n"
              "from corrchan.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "loaded = [m for m in ('scipy', 'numpy.random', 'corrchan.oracle')\n"
              "          if m in sys.modules]\n"
              "print(json.dumps([codes, loaded]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert loaded == []


# Public functions of the modules the subcommands load (`corrchan.cli`, and
# through `corrchan.sweeps` every numeric layer) that no subcommand calls,
# each kept for a reason of its own.
UNREACHED_BY_COMMANDS = {
    # the NMAD decay rate gamma(t); no command prints it yet
    "corrchan.noise.nmad_gamma",
    # the concurrence-revival indicator, waiting for a command of its own
    "corrchan.measures.nm_concurrence_measure",
    # a forwarder kept only so that perfbench/tracing.py finds the name to wrap
    "corrchan.measures.minimize",
    # library boundary: validates states from outside the package, then runs the
    # kernel that the commands call on states they evolved
    "corrchan.measures.trace_distance",
    "corrchan.measures.concurrence",
    "corrchan.measures.blp_measure",
}


def test_commands_reach_every_public_function(tmp_path):
    """Every subcommand, run in one fresh interpreter under a profile hook,
    reaches every public function of the modules the commands load except the
    ones in UNREACHED_BY_COMMANDS; the test references live in
    `corrchan.oracle`, which no command loads."""
    grid = ["--steps", "5"]
    argvs = [[cmd, "--noise", noise, *grid]
             for cmd in ("evolve", "concurrence", "tracedist", "volume")
             for noise in ("rtn", "oun", "nmad")]
    argvs += [["blp", "--noise", noise, "--random-probes", "1", *grid]
              for noise in ("rtn", "oun", "nmad")]
    # states and differences that are not X-shaped take the LAPACK routes
    argvs += [["concurrence", "--probe", "alpha", *grid], ["tracedist", "--pair", "++:--", *grid]]
    argvs += [["qec", "--noise", noise, *flag, *grid]
              for noise in ("rtn", "oun") for flag in ([], ["--normalized"])]
    argvs += [["sss", "--g-inverse", "10", "--steps", "20", *family]
              for family in ([], ["--family", "free"])]
    argvs = [argv + ["--out", str(tmp_path / f"{k}.csv")] for k, argv in enumerate(argvs)]
    argvs += [["classify-errors"],
              ["freeze-check", "--c", "0.5,0.5,-1", "--channel", "oun", "--mu", "1"],
              ["freeze-check", "--c", "0.5,0.5,-1", "--channel", "nmad", "--mu", "0.5"],
              ["freeze-check", "--state", "psi+", "--channel", "nmad", "--mu", "1"],
              ["freeze-check", "--state", "phi+", "--channel", "rtn", "--mu", "1"]]
    script = ("import inspect, json, sys\n"
              "import corrchan.cli\n"
              "codes = set()\n"
              "def hook(frame, event, arg):\n"
              "    if event == 'call':\n"
              "        codes.add(frame.f_code)\n"
              "sys.setprofile(hook)\n"
              "exits = [corrchan.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "sys.setprofile(None)\n"
              "unreached = sorted(f'{name}.{attr}' for name, module in list(sys.modules.items())\n"
              "                   if name.startswith('corrchan.')\n"
              "                   for attr, obj in vars(module).items()\n"
              "                   if inspect.isfunction(obj) and obj.__module__ == name\n"
              "                   and not attr.startswith('_') and obj.__code__ not in codes)\n"
              "print(json.dumps([exits, unreached, 'corrchan.oracle' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exits, unreached, oracle_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exits == [0] * len(argvs)
    assert set(unreached) == UNREACHED_BY_COMMANDS
    assert not oracle_loaded


def test_volume_calls_no_determinant(monkeypatch, tmp_path):
    """V(t) is the product of the eigenvalues of F(t), for every family."""
    def forbidden(*args, **kwargs):
        raise AssertionError("volume called a determinant")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    for noise in ("rtn", "oun", "nmad"):
        out = tmp_path / "x.csv"
        assert main(["volume", "--noise", noise, "--steps", "5", "--out", str(out)]) == 0


def test_measures_minimize_forwards_to_scipy():
    """The benchmark tracer reads `nit` and `success` from what
    `measures.minimize` returns."""
    from corrchan.measures import minimize

    res = minimize(lambda x: (x[0] - 1) ** 2 + 2 * (x[1] + 0.5) ** 2, [0.0, 0.0],
                   method="Nelder-Mead")
    assert res.success
    assert res.nit > 0
    assert abs(res.x[0] - 1) < 1e-3 and abs(res.x[1] + 0.5) < 1e-3


def test_trajectory_commands_build_no_kraus_set(monkeypatch, tmp_path):
    """evolve, concurrence, tracedist and blp evolve states in closed form;
    Kraus sets are the oracle of the tests and of cptp_report only."""
    from corrchan.oracle import KrausSet

    def forbidden(self):
        raise AssertionError("a trajectory command built a KrausSet")

    monkeypatch.setattr(KrausSet, "__post_init__", forbidden)
    for command in (["evolve"], ["concurrence"], ["tracedist"],
                    ["blp", "--random-probes", "1"]):
        for noise in ("rtn", "oun", "nmad"):
            out = tmp_path / "x.csv"
            assert main(command + ["--noise", noise, "--steps", "5", "--out", str(out)]) == 0


@pytest.mark.parametrize("command, trajectories", [("evolve", 3), ("concurrence", 3),
                                                   ("tracedist", 6), ("blp", 24)])
def test_default_preset_validates_only_the_probes(command, trajectories, monkeypatch, tmp_path):
    """The default presets evolve 1, 1, 2 and 8 probe states over 500 times
    for each of 3 mu, 3, 3, 6 and 24 trajectories, in one `evolve` call.
    Each probe state is validated once, as the input of `evolve`, where it
    enters the package; the evolved states are measured or printed without
    being validated again. Validation takes one eigvalsh of the probes; the
    only other matrices eigvalsh sees are the 3 x 500 differences of the
    `++:--` pair of `blp`, the one default pair that is not X-shaped; every
    other trace distance and concurrence is in closed form."""
    import corrchan.sweeps as sweeps_mod

    eigvalsh, evolve = np.linalg.eigvalsh, sweeps_mod.evolve
    solved, evolve_calls = [], []

    def counting_eigvalsh(m):
        solved.append(m.size // 16)
        return eigvalsh(m)

    def counting_evolve(noise, mus, times, probes):
        evolve_calls.append(len(mus) * (len(probes) if probes.ndim == 3 else 1))
        return evolve(noise, mus, times, probes)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(sweeps_mod, "evolve", counting_evolve)
    assert main([command, "--out", str(tmp_path / "x.csv")]) == 0
    assert evolve_calls == [trajectories]
    assert sum(solved) == trajectories // 3 + (1500 if command == "blp" else 0)


_NAMES = "('phi+', 'phi-', 'psi+', 'psi-', 'alpha', '00', '11', '++', '--')"
_MU = "correlation factor mu must lie in [0, 1], got "

# Two bad options each: the option checks run in pure Python before numpy
# loads, in the order the subcommands read their options, so the first error
# named is the one the numeric handlers named when they checked the options.
# The RTN pairs whose (2a/gamma)^2 overflows are checked last, where the
# kernel met them.
FIRST_ERRORS = [
    (["qec", "--mu", "1.5", "--tmax", "-1"], "--tmax must be positive and finite, got -1.0"),
    (["qec", "--noise", "nmad", "--mu", "2"], _MU + "2.0"),
    (["qec", "--noise", "nmad", "--steps", "1"], "--steps must be at least 2, got 1"),
    (["qec", "--noise", "rtn", "--a", "-1", "--mu", "nan"],
     "--a must be positive and finite, got -1.0"),
    (["evolve", "--noise", "nmad", "--gamma0", "-1", "--g", "nan"],
     "--gamma0 must be positive and finite, got -1.0"),
    (["evolve", "--noise", "oun", "--G", "0", "--tmax", "0"],
     "--G must be positive and finite, got 0.0"),
    (["concurrence", "--steps", "1", "--mu", "0,,1"], "--steps must be at least 2, got 1"),
    (["concurrence", "--tmax", "inf", "--steps", "0"], "--tmax must be positive and finite, got inf"),
    (["volume", "--noise", "rtn", "--a", "1e154", "--tmax", "nan"],
     "--tmax must be positive and finite, got nan"),
    (["volume", "--noise", "rtn", "--a", "1e154", "--mu", "2"], _MU + "2.0"),
    (["volume", "--noise", "rtn", "--gamma", "1e-310", "--mu", "-1"], _MU + "-1.0"),
    (["tracedist", "--pair", "phi+", "--mu", "2"],
     "expected a probe pair like phi+:phi-, got 'phi+'"),
    (["tracedist", "--pair", "foo:bar", "--tmax", "nan"],
     f"unknown probe state 'foo'; choose from {_NAMES}"),
    (["tracedist", "--pair", "phi+:bar", "--noise", "rtn", "--a", "1e154"],
     f"unknown probe state 'bar'; choose from {_NAMES}"),
    (["blp", "--seed", "-1", "--random-probes", "-2"], "--random-probes must be non-negative, got -2"),
    (["blp", "--seed", "-1", "--mu", "2"], "--seed must be non-negative, got -1"),
    (["blp", "--pairs", "phi+", "--mu", "2"], _MU + "2.0"),
    (["blp", "--pairs", "foo:bar", "--noise", "rtn", "--a", "-1"],
     "--a must be positive and finite, got -1.0"),
    (["blp", "--pairs", "phi+:foo", "--noise", "rtn", "--a", "1e154"],
     f"unknown probe state 'foo'; choose from {_NAMES}"),
    (["sss", "--G", "nan", "--mu", "2"], _MU + "2.0"),
    (["sss", "--G", "nan", "--tmax", "inf"], "--tmax must be positive and finite, got inf"),
    (["sss", "--g-inverse", "0", "--steps", "1"],
     "--g-inverse requires positive finite values with a finite inverse, got 0.0"),
    (["sss", "--G", "nan", "--g-inverse", "x"],
     "--g-inverse expects a comma-separated list of numbers, got 'x'"),
    (["sss", "--tmax", "1e-320", "--G", "-1"], "--G must be positive and finite, got -1.0"),
    (["freeze-check", "--c", "5,5,5", "--mu", "2"], _MU + "2.0"),
    (["freeze-check", "--c", "1,2", "--mu", "2"], "--c expects three components, got '1,2'"),
    (["freeze-check", "--c", "nan,0,0", "--mu", "-1"], _MU + "-1.0"),
    (["freeze-check", "--state", "psi+", "--mu", "2"], _MU + "2.0"),
]


@pytest.mark.parametrize("args, message", FIRST_ERRORS, ids=[" ".join(a) for a, _ in FIRST_ERRORS])
def test_first_of_two_bad_options_is_named(args, message, capsys):
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _cold_run(argv):
    """`python -X importtime -m corrchan.cli *argv` in a fresh interpreter:
    its exit code, its stdout and the set of modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "corrchan.cli", *argv],
                          env=_ENV, capture_output=True, text=True, timeout=60)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, imported


def test_import_loads_no_numpy():
    for module in ("corrchan", "corrchan.cli"):
        proc = subprocess.run([sys.executable, "-c", f"import sys, {module}\n"
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
                              env=_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


def test_package_exports_resolve_lazily():
    """Each export of `corrchan` is read from its module on access; a name of
    a pure-Python module loads no numpy."""
    import importlib

    import corrchan

    for name in corrchan.__all__:
        module = importlib.import_module(f"corrchan.{corrchan._MODULE_OF[name]}")
        assert getattr(corrchan, name) is getattr(module, name), name
    assert set(corrchan.__all__) <= set(dir(corrchan))
    proc = subprocess.run([sys.executable, "-c", "import sys\n"
                           "from corrchan import RtnParams, BlochDiagonal, classify_errors\n"
                           "print('numpy' in sys.modules)"],
                          env=_ENV, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("args, code", [
    (["classify-errors"], 0),
    (["freeze-check", "--c", "0.5,0.5,-1", "--channel", "oun", "--mu", "1"], 0),
    # the four boundary probes of the benchmark's short_calls workload
    (["concurrence", "--tmax", "nan"], 2),
    (["qec", "--mu", "1.5"], 2),
    (["freeze-check", "--c", "5,5,5", "--channel", "oun", "--mu", "1"], 2),
    (["freeze-check", "--c", "nan,0,0", "--channel", "oun", "--mu", "1"], 2),
    # named states get their verdict from the ket table
    (["freeze-check", "--state=psi+", "--channel", "nmad", "--mu", "1"], 0),
    (["freeze-check", "--state=alpha", "--channel", "rtn", "--mu", "0.5"], 0),
    (["freeze-check", "--state=00", "--channel", "nmad", "--mu", "0.5"], 0),
    # a grid step below the smallest normal float
    (["sss", "--g-inverse", "10", "--mu", "0", "--tmax", "1e-320"], 2),
    (["sss", "--family", "free", "--tmax", "4e-308", "--steps", "3"], 2),
])
def test_commands_without_numeric_work_load_no_numpy(args, code, capsys):
    # the same exit code and output as in process, from the pure-Python modules
    assert main(list(args)) == code
    expected = capsys.readouterr().out
    exit_code, stdout, imported = _cold_run(args)
    assert (exit_code, stdout) == (code, expected)
    assert "numpy" not in imported
    assert {m for m in imported if m.startswith("corrchan.")} <= {
        "corrchan.errors", "corrchan.params", "corrchan.freezing", "corrchan.words"}


def test_module_run_imports_cli_once(tmp_path):
    """Under `python -m corrchan.cli`, cli.py runs as __main__; `sweeps`
    must not import `corrchan.cli`, which would run cli.py a second time as
    a module of its own."""
    out = tmp_path / "x.csv"
    code, _, imported = _cold_run(["volume", "--steps", "3", "--out", str(out)])
    assert code == 0 and out.exists()
    assert {"numpy", "corrchan.sweeps"} <= imported
    assert "corrchan.cli" not in imported


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# `cli.main()` as the console script calls it: argv from sys.argv; then the
# exit code, the number of threads of the process, OPENBLAS_NUM_THREADS and
# whether numpy loaded
_AS_PROGRAM = """import os, sys
sys.argv[0] = "corrchan"
from corrchan import cli
code = cli.main()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(code, threads, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


def _program_run(argv, **variables):
    """`_AS_PROGRAM` in a fresh interpreter whose environment sets no BLAS
    thread count but `variables`: its last line of stdout, split."""
    env = {k: v for k, v in _ENV.items() if k not in _BLAS_THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", _AS_PROGRAM, *argv], env={**env, **variables},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts the threads of a process in /proc/self/task, on at least two CPUs")

_VOLUME = ["volume", "--steps", "50", "--out", os.devnull]


@needs_threads
def test_program_starts_one_blas_thread():
    # a numeric command run as the program loads numpy with one BLAS thread,
    # so its process has no thread beside the interpreter's
    assert _program_run(_VOLUME) == ["0", "1", "1", "True"]


@needs_threads
@pytest.mark.parametrize("variable", _BLAS_THREAD_VARIABLES)
def test_program_keeps_a_caller_set_blas_thread_count(variable):
    # the interpreter's thread and one BLAS worker; OPENBLAS_NUM_THREADS is
    # set only where the caller set it
    expected = "2" if variable == "OPENBLAS_NUM_THREADS" else "None"
    assert _program_run(_VOLUME, **{variable: "2"}) == ["0", "2", expected, "True"]


def test_in_process_main_leaves_the_environment_alone():
    before = dict(os.environ)
    assert main(_VOLUME) == 0
    assert dict(os.environ) == before


def test_program_without_numeric_work_loads_no_numpy():
    code, _, blas_threads, numpy_loaded = _program_run(["classify-errors"])
    assert (code, blas_threads, numpy_loaded) == ("0", "1", "False")
