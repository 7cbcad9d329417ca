"""The benchmark's trace mode must still install against the package.

`perfbench/tracing.py` patches names of the package from outside (every
public function of the layer modules, `cli.ThreadPoolExecutor` and
`measures.minimize`); a package change that drops one of them breaks
`perfbench/run.py --trace 1`. The sweeps call their layer functions through
`cli`'s own bindings, so those must be patched too, or the per-layer
attribution of the sweeps goes missing. The Kraus oracle (`corrchan.oracle`)
is not a layer and no command calls it, so the tracer leaves it alone and
its per-layer counts in the benchmark (`channels.channel_at_time`,
`map_algebra.transfer_matrix`, ...) read 0.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import corrchan.cli  # noqa: F401  (imports every layer module)

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
        patched = {key for key, obj in bindings().items() if before[key] is not obj}
        assert ("corrchan.cli", "ThreadPoolExecutor") in patched
        assert ("corrchan.measures", "minimize") in patched
        assert ("corrchan.channels", "evolve") in patched
        for name in ("evolve", "accessible_volume", "success_vs_time", "sss_measure"):
            assert ("corrchan.cli", name) in patched
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(after[key] is obj for key, obj in before.items())
    assert inspect.isfunction(corrchan.cli.evolve)
