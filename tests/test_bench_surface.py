"""The benchmark in ``perfbench/`` wraps l1ppr functions by module and name.

Installing its full set of layer wrappers on the live package fails here if a
name it looks up is renamed or removed, so such a change shows up as a test
failure instead of as failed benchmark operations.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import l1ppr
import l1ppr.cli  # noqa: F401  (not imported by the package itself)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

_MODULES = ("cli", "diagnostics", "graph", "objective", "solver", "sweep", "synth")


def test_benchmark_wrappers_install_on_live_modules():
    modules = [getattr(l1ppr, name) for name in _MODULES]
    saved = [dict(vars(mod)) for mod in modules]
    try:
        tracing.instrument(tracing.Tracer(), l1ppr, layers=True)
        wrapped = {
            f"{mod.__name__}.{attr}"
            for mod, before in zip(modules, saved)
            for attr, value in vars(mod).items()
            if before.get(attr) is not value
        }
    finally:
        for mod, before in zip(modules, saved):
            for attr, value in before.items():
                setattr(mod, attr, value)
    assert {"l1ppr.solver.solve", "l1ppr.solver.prox_grad_step",
            "l1ppr.sweep.parse_snap_edgelist", "l1ppr.synth.build_from_edges"} <= wrapped
    assert [dict(vars(mod)) for mod in modules] == saved


def test_positional_signatures_called_by_the_benchmark():
    def params(fn):
        return list(inspect.signature(fn).parameters)[:5]

    assert params(l1ppr.diagnostics.verify_confinement) == ["g", "p", "cfg", "s", "trace"]
    assert params(l1ppr.solver.rate_envelope) == ["g", "p", "cfg", "trace", "f_star"]
    # the kernel counter reads the graph from args[0] and z_act from args[3]
    assert params(l1ppr.solver.prox_grad_step) == ["g", "p", "z_vals", "z_act"]
    assert callable(l1ppr.kernels.active_backend)


def test_package_import_binds_what_the_benchmark_reads():
    """``import l1ppr, l1ppr.cli`` alone, as ``perfbench/run.py`` imports the
    package, binds every module and name that the layer wrappers and the
    machine facts read, ``l1ppr.kernels`` included. It runs in a fresh
    interpreter: this session imports every submodule, which would bind them
    whatever the package imports."""
    code = (
        "import l1ppr, l1ppr.cli\n"
        "import run, tracing\n"
        "tracing.instrument(tracing.Tracer(), l1ppr, layers=True)\n"
        "print(run.machine_facts(l1ppr)['backend'])\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "numpy\n"
