"""The benchmark's trace mode must still install against the package.

`perfbench/tracing.py` patches names of the package from outside (every
public function of the layer modules, `cli.ThreadPoolExecutor` and
`measures.minimize`); a package change that drops one of them breaks
`perfbench/run.py --trace 1`. It installs once every layer module is
loaded: `import corrchan.cli` loads no numeric layer, and the harness's
untraced warm-up pass runs a numeric command, whose `corrchan.sweeps` import
loads them all. `cli.ThreadPoolExecutor` resolves on first access (a module
`__getattr__`), so it is not among the bindings before the tracer patches
it. The sweeps call their layer functions through `sweeps`' own bindings,
so those must be patched too, or the per-layer attribution of the sweeps
goes missing. The Kraus oracle (`corrchan.oracle`) is not a layer and no
command calls it, so the tracer leaves it alone and its per-layer counts in
the benchmark (`channels.channel_at_time`, `map_algebra.transfer_matrix`,
...) read 0.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import corrchan.cli  # noqa: F401
import corrchan.sweeps  # noqa: F401  (imports every other layer module)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return {(name, attr): obj for name, module in sys.modules.items()
            if name == "corrchan" or name.startswith("corrchan.")
            for attr, obj in vars(module).items() if callable(obj)}


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key for key, obj in bindings().items() if before.get(key) is not obj}
        assert ("corrchan.cli", "ThreadPoolExecutor") in patched
        assert ("corrchan.measures", "minimize") in patched
        assert ("corrchan.channels", "evolve") in patched
        for name in ("evolve", "accessible_volume", "success_vs_time", "sss_measure"):
            assert ("corrchan.sweeps", name) in patched
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(after[key] is obj for key, obj in before.items())
    assert inspect.isfunction(corrchan.sweeps.evolve)


def test_one_numeric_command_loads_every_layer(tmp_path):
    """The harness installs the tracer after `import corrchan.cli` and one
    warm-up pass: a single numeric command must load all of LAYERS. Of them,
    the import loads only `cli` and the pure-Python `freezing`."""
    script = ("import json, sys\n"
              "import corrchan.cli\n"
              "before = sorted(m for m in sys.modules if m.startswith('corrchan.'))\n"
              "code = corrchan.cli.main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, before, sorted(sys.modules)]))\n")
    argv = ["volume", "--steps", "3", "--out", str(tmp_path / "x.csv")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, before, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    layers = {f"corrchan.{layer}" for layer in load_tracing().LAYERS}
    assert layers & set(before) == {"corrchan.cli", "corrchan.freezing"}
    assert layers <= set(loaded)
