import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrchan.cli import _fmt, _lines, main
from corrchan.errors import NumericError


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

    import corrchan.cli as cli_mod

    real = cli_mod.correlated_oun_generator

    def with_nan(t, params, mu):
        stack = real(t, params, mu)
        stack[len(stack) // 2, 1, 1] = np.nan
        return stack

    monkeypatch.setattr(cli_mod, "correlated_oun_generator", with_nan)
    out = tmp_path / "x.csv"
    assert main(["sss", "--mu", "0.5", "--steps", "20", "--family", family,
                 "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("noise", ["rtn", "nmad"])
def test_volume_non_finite_noise_exits_3(noise, monkeypatch, tmp_path):
    import numpy as np

    import corrchan.map_algebra as map_algebra_mod

    real = map_algebra_mod.noise_p

    def with_nan(params, t):
        p = real(params, t)
        p[len(p) // 2] = np.nan
        return p

    monkeypatch.setattr(map_algebra_mod, "noise_p", with_nan)
    out = tmp_path / "x.csv"
    assert main(["volume", "--noise", noise, "--steps", "20", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["volume", "--noise", "rtn", "--a", "1e160", "--gamma", "1e-10"],
    ["evolve", "--noise", "nmad", "--g", "1e160"],
    ["sss", "--G", "1e300"],
    ["sss", "--G", "1e300", "--family", "free"],
], ids=["volume-rtn", "evolve-nmad", "sss-markov", "sss-free"])
def test_overflow_of_finite_parameters_exits_3(args, tmp_path):
    # finite parameters whose squares or norms overflow: a numeric failure,
    # not a traceback (exit 1) or rows of inf (exit 0); `main` itself keeps
    # numpy from warning, which the test configuration would turn into errors
    out = tmp_path / "x.csv"
    assert main(args + ["--steps", "5", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["evolve", "--noise", "nmad", "--g", "1e160"],
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


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    assert main(["qec", "--config", str(bad)]) == 2
    assert main(["qec", "--config", str(tmp_path / "missing.cfg")]) == 2


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
])
def test_invalid_input_rejected_without_output(args, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# each CSV subcommand and the cli binding it calls once per mu (sss: per g^-1)
SWEEP_BINDINGS = {"evolve": "evolve", "concurrence": "evolve", "tracedist": "evolve",
                  "blp": "evolve", "volume": "transfer_sampler",
                  "qec": "success_vs_time", "sss": "sss_measure"}


@pytest.mark.parametrize("command", SWEEP_BINDINGS)
def test_failed_sweep_leaves_no_csv(command, monkeypatch, tmp_path):
    import corrchan.cli as cli_mod

    binding = SWEEP_BINDINGS[command]
    real = getattr(cli_mod, binding)
    seen = []

    def fail_on_second_value(*args, **kwargs):
        # the grid commands fail at the second mu; sss, with one mu, at the
        # second g^-1
        seen.append(len(seen) if command == "sss" else args[1])
        if len(set(seen)) > 1:
            raise NumericError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, binding, fail_on_second_value)
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


def test_default_preset_runtime(tmp_path):
    import time
    start = time.perf_counter()
    assert main(["concurrence", "--noise", "rtn", "--a", "0.8", "--gamma", "0.05",
                 "--mu", "0,0.5,0.9", "--probe", "phi+", "--tmax", "100",
                 "--steps", "500", "--out", str(tmp_path / "preset.csv")]) == 0
    assert time.perf_counter() - start < 60


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    import corrchan.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericError("spot check failed")

    monkeypatch.setattr(cli_mod, "success_vs_time", boom)
    assert main(["qec", "--noise", "oun", "--mu", "0.5", "--tmax", "5",
                 "--steps", "3", "--out", str(tmp_path / "x.csv")]) == 3


def test_lapack_failure_exits_3(monkeypatch, tmp_path):
    import numpy as np

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    out = tmp_path / "x.csv"
    assert main(["concurrence", "--noise", "rtn", "--mu", "0.5", "--tmax", "5",
                 "--steps", "3", "--out", str(out)]) == 3
    assert not out.exists()


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


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-300, 1 - 1e-15, 0.1 + 0.2, 1e16, 1e17,
    -1.5, 2.0 / 3.0, 123456789012.5, 1e300, 100.0 / 11.0,
])
def test_lines_formats_like_fmt(x):
    # witness flags 0.0 and 1.0, and a t = 0, mu row, in the same array
    data = np.array([[x, 0.0, 1.0], [0.0, 0.5, x]])
    expected = [",".join(format(v + 0.0, ".12g") for v in row) for row in data.tolist()]
    assert _lines(data) == expected
    assert _lines(data)[0].split(",")[0] == _fmt(x)


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
