"""Benchmark of the corrchan CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): trajectories, map_measures, short_calls.
The seed only generates the argv that corrchan receives; compare two
commits with the same seeds and --seconds on the same machine.

--trace 0 times the workload with tracing off:
  setup_s      median wall time of a fresh `import corrchan.cli`, one
               sample before every pass
  cli_wall_s   the command list, each command in a fresh interpreter
               (`python -m corrchan.cli` with PYTHONPATH=src): the sum over
               commands of each command's median time
  warm_s       the same list in-process through corrchan.cli.main, after
               the import and one warm-up pass, summed the same way
  peak_rss_mb  the largest max-RSS of the CLI processes (os.wait4)
  error_rate   failed / attempted commands; printed above the result line,
               and carried by its `failed` and `attempted` fields
--trace 1 alternates untraced and traced in-process passes and reports
per-layer counts and self times (tracing.py), plus `python -X importtime`.

A command fails on an unexpected exit code, a timeout, or an output that
fails its reference check (reference.py). `correct` is false when a command
with valid input fails or when an output differs between passes (traced or
not); a boundary probe that is not rejected counts as failed only.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Output files go to .perfbench/ in the checkout.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
ENV = dict(os.environ, PYTHONPATH="src")
COMMAND_TIMEOUT_S = 60
IMPORTTIME_SAMPLES = 3

PER_LAYER_CALLS = (
    "noise.noise_p", "channels.channel_at_time", "channels.apply",
    "channels.completeness_residual", "linalg.validate_density", "linalg.eig_hermitian",
    "map_algebra.transfer_matrix", "map_algebra.dephasing_generator",
    "measures.trace_distance", "measures.concurrence", "measures.sss_measure",
    "scipy.minimize", "qec.error_probability", "qec.success_probability_bruteforce",
    "freezing.freezing_predicate",
)
PER_POINT = ("channels.channel_at_time", "linalg.validate_density")
SELF_TIME_LAYERS = ("noise", "channels", "linalg", "map_algebra", "measures", "qec",
                    "freezing", "cli")
ERROR_LAYERS = tracing.LAYERS + ("scipy",)


class Bench:
    """Runs a workload's command list and checks every output."""

    def __init__(self, commands: list[workloads.Command]):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: dict[str, str] = {}
        self.digests: dict[str, set[str]] = defaultdict(set)
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def _argv(self, cmd) -> list[str]:
        return [*cmd.argv, "--out", str(WORK / f"{cmd.label}.csv")] if cmd.csv else list(cmd.argv)

    def _output(self, cmd, stdout: str) -> str:
        if not cmd.csv:
            return stdout
        path = WORK / f"{cmd.label}.csv"
        return path.read_text() if path.exists() else ""

    def _clear(self, cmd) -> None:
        (WORK / f"{cmd.label}.csv").unlink(missing_ok=True)

    def cold_pass(self) -> tuple[dict[str, float], float]:
        """Each command in a fresh interpreter: (seconds by label, peak RSS in MB)."""
        seconds, codes, outputs, peak = {}, {}, {}, 0.0
        stdout_path = WORK / "stdout.txt"
        for cmd in self.commands:
            self._clear(cmd)
            with open(stdout_path, "wb") as fh:
                start = time.perf_counter()
                codes[cmd.label], usage = run_process(
                    [sys.executable, "-m", "corrchan.cli", *self._argv(cmd)], fh)
                seconds[cmd.label] = time.perf_counter() - start
            peak = max(peak, usage.ru_maxrss / 1024)
            outputs[cmd.label] = self._output(cmd, stdout_path.read_text())
        self._judge(codes, outputs)
        return seconds, peak

    def warm_pass(self, tracer: tracing.Tracer | None = None) -> tuple[dict[str, float], dict]:
        """Each command through corrchan.cli.main in this process:
        (seconds by label, {"codes": exit codes, "outputs": outputs} by label)."""
        import corrchan.cli

        seconds, codes, outputs = {}, {}, {}
        for index, cmd in enumerate(self.commands):
            self._clear(cmd)
            if tracer is not None:
                tracer.request = index
            stdout = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[cmd.label] = corrchan.cli.main(self._argv(cmd))
                except Exception as exc:  # an escaped exception is a failed command
                    codes[cmd.label] = f"{type(exc).__name__}: {exc}"
            seconds[cmd.label] = time.perf_counter() - start
            outputs[cmd.label] = self._output(cmd, stdout.getvalue())
        self._judge(codes, outputs)
        return seconds, {"codes": codes, "outputs": outputs}

    def _judge(self, codes: dict, outputs: dict[str, str]) -> None:
        pass_digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        for cmd in self.commands:
            code, text = codes[cmd.label], outputs[cmd.label]
            self.attempted += 1
            if cmd.probe:
                problem = None if code == 2 and not text.strip() else \
                    f"boundary probe not rejected: exit {code}, stdout {text.strip()[:60]!r}"
            elif code != 0:
                problem = f"exit {code}"
            else:
                key = (cmd.label, pass_digest)
                if key not in self._verdicts:
                    self._verdicts[key] = cmd.check(text, outputs)
                problem = self._verdicts[key]
                self.digests[cmd.label].add(hashlib.sha256(text.encode()).hexdigest())
                if len(self.digests[cmd.label]) > 1:
                    problem = problem or "output differs between passes"
            if problem:
                self.failed += 1
                self.problems[cmd.label] = problem
                if not cmd.probe:
                    self.correct = False


def run_process(argv: list[str], stdout) -> tuple[int | str, "resource.struct_rusage"]:
    """Run to completion or COMMAND_TIMEOUT_S; (exit code or 'timeout', rusage)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    done = threading.Event()
    timed_out = []

    def watchdog():
        if not done.wait(COMMAND_TIMEOUT_S):
            timed_out.append(True)
            proc.kill()
    watcher = threading.Thread(target=watchdog)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ("timeout" if timed_out else proc.returncode), usage


def median_sum(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


def setup_seconds() -> float:
    """Wall time of a fresh interpreter running `import corrchan.cli`."""
    start = time.perf_counter()
    code, _ = run_process([sys.executable, "-c", "import corrchan.cli"], subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"perfbench: `import corrchan.cli` failed with exit {code}")
    return elapsed


def measure(bench: Bench, seconds: float) -> dict:
    """Interleave cold and warm passes for `seconds`, at least one of each,
    with one set-up sample before every pass; a pass is not started when the
    last pass of its kind would overrun."""
    import corrchan.cli  # noqa: F401  (import cost stays out of warm_s)

    bench.warm_pass()
    cold, warm, setup = defaultdict(list), defaultdict(list), []
    spent = {"cold": 0.0, "warm": 0.0}
    last = dict(spent)
    peak = 0.0
    start = time.perf_counter()
    while True:
        # cold and warm passes share the measuring time equally
        kind = "cold" if spent["cold"] <= spent["warm"] else "warm"
        if cold and warm and time.perf_counter() - start + last[kind] > seconds:
            break
        t0 = time.perf_counter()
        setup.append(setup_seconds())
        if kind == "cold":
            times, rss = bench.cold_pass()
            peak = max(peak, rss)
            for label, t in times.items():
                cold[label].append(t)
        else:
            for label, t in bench.warm_pass()[0].items():
                warm[label].append(t)
        last[kind] = time.perf_counter() - t0
        spent[kind] += last[kind]
    return {"setup": setup, "cold": cold, "warm": warm, "peak_rss_mb": peak}


def importtime_seconds() -> dict[str, list[float]]:
    """Cumulative import time of corrchan, scipy and numpy under
    `python -X importtime -c 'import corrchan.cli'`, one sample per run."""
    samples = defaultdict(list)
    failures = 0
    log = WORK / "importtime.txt"
    for _ in range(IMPORTTIME_SAMPLES):
        with open(log, "wb") as fh:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corrchan.cli"],
                                  cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, stderr=fh,
                                  timeout=COMMAND_TIMEOUT_S)
        failures += proc.returncode != 0
        entries = parse_importtime(log.read_text())
        for package in ("corrchan", "scipy", "numpy"):
            samples[package].append(package_import_seconds(entries, package))
    samples["errors"] = [failures]
    return samples


def parse_importtime(text: str) -> list[tuple[int, float, str]]:
    """(depth, cumulative seconds, module) per line, in the printed order,
    which lists every module after the modules it imported."""
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(parts[1]) / 1e6, name.strip()))
    return entries


def package_import_seconds(entries, package: str) -> float:
    """Sum of the cumulative times of the outermost modules of `package`:
    those with no enclosing import from the same package."""
    total, ancestors = 0.0, []
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top == package and all(a.split(".")[0] != package for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total


def layer_metrics(bench: Bench, tracer: tracing.Tracer, run: dict) -> dict[str, float]:
    calls, self_s, errors = tracer.summary()
    grid_points = sum(cmd.grid_points for cmd in bench.commands)
    m = {}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = calls[name]
    for name in PER_POINT:
        m[f"{name}.per_point"] = calls[name] / grid_points
    m["scipy.minimize.self_s"] = self_s["scipy.minimize"]
    m["scipy.minimize.nit"] = sum(nit for nit, _ in tracer.minimize_results)
    m["scipy.minimize.not_converged"] = sum(not ok for _, ok in tracer.minimize_results)
    csv_out = [run["outputs"][cmd.label] for cmd in bench.commands if cmd.csv]
    m["cli.csv_rows"] = sum(max(text.count("\n") - 1, 0) for text in csv_out)
    m["cli.csv_bytes"] = sum(len(text.encode()) for text in csv_out)
    m["cli.grid_points"] = grid_points
    for layer in ERROR_LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    # cli.main turns exceptions into exit codes, and a boundary probe should
    # exit with 2: a cli error is an exit code other than the expected one
    m["cli.errors"] = sum(run["codes"][cmd.label] != (2 if cmd.probe else 0)
                          for cmd in bench.commands)
    return m


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict, tracing.Tracer]:
    """Alternate untraced and traced in-process passes for `seconds`."""
    import corrchan.cli  # noqa: F401

    bench.warm_pass()
    untraced, traced, per_pass = defaultdict(list), defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    tracer = None
    while not traced or time.perf_counter() - start < seconds:
        for label, t in bench.warm_pass()[0].items():
            untraced[label].append(t)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times, run = bench.warm_pass(tracer)
        finally:
            tracer.uninstall()
        for label, t in times.items():
            traced[label].append(t)
        for name, value in layer_metrics(bench, tracer, run).items():
            per_pass[name].append(value)
    per_pass["trace.overhead"] = [median_sum(traced) / median_sum(untraced)]
    return per_pass, {"untraced": untraced, "traced": traced}, tracer


def write_spans(tracer: tracing.Tracer, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start,end,thread,request,ok\n")
        for s in tracer.spans:
            fh.write(f"{s.id},{s.parent},{s.name},{s.start:.9f},{s.end:.9f},"
                     f"{s.thread},{s.request},{int(s.ok)}\n")


def run_record(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "corrchan" / "cli.py").is_file():
        print("perfbench: run from the root of a corrchan checkout (src/corrchan is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    print("run:", json.dumps(run_record(args)))
    bench = Bench(workloads.build(args.workload, args.seed))
    n_cmds = len(bench.commands)

    if args.trace:
        imports = importtime_seconds()
        per_pass, timings, tracer = measure_traced(bench, args.seconds)
        write_spans(tracer, WORK / "spans.csv")
        metrics = {f"setup.import_{pkg}_s": statistics.median(imports[pkg])
                   for pkg in ("corrchan", "scipy", "numpy")}
        metrics["setup.errors"] = imports["errors"][0]
        metrics.update({name: statistics.median(v) for name, v in per_pass.items()})
        n_traced = len(next(iter(timings["traced"].values())))
        print(f"per-layer metrics: medians over {n_traced} traced passes of {n_cmds} commands; "
              f"imports: medians over {IMPORTTIME_SAMPLES} runs of python -X importtime")
    else:
        timings = measure(bench, args.seconds)
        setup = timings["setup"]
        n_cold = len(next(iter(timings["cold"].values())))
        n_warm = len(next(iter(timings["warm"].values())))
        metrics = {
            "setup_s": statistics.median(setup),
            "cli_wall_s": median_sum(timings["cold"]),
            "warm_s": median_sum(timings["warm"]),
            "peak_rss_mb": timings["peak_rss_mb"],
        }
        print(f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh imports, "
              f"one before every pass")
        print(f"cli_wall_s   {metrics['cli_wall_s']:.4f} s   sum over {n_cmds} commands of "
              f"the median of {n_cold} fresh-interpreter runs")
        print(f"warm_s       {metrics['warm_s']:.4f} s   sum over {n_cmds} commands of "
              f"the median of {n_warm} in-process runs")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  max over "
              f"{n_cold * n_cmds} CLI processes")
    print(f"error_rate   {bench.failed / bench.attempted:.4f} ratio  "
          f"{bench.failed} of {bench.attempted} commands failed")
    for label, problem in sorted(bench.problems.items()):
        print(f"  failed: {label}: {problem}")
    for label, digests in sorted(bench.digests.items()):
        print(f"  sha256 {label}: {' '.join(sorted(digests))}")
    for f in WORK.glob("*.csv"):
        if f.name != "spans.csv":
            f.unlink()
    units = metric_units()
    print(json.dumps({
        "correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
