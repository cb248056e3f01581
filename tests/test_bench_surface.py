"""The benchmark in ``perfbench/`` wraps l1ppr functions by module and name.

Installing its full set of layer wrappers on the live package fails here if a
name it looks up is renamed or removed, so such a change shows up as a test
failure instead of as failed benchmark operations.
"""

import inspect
import sys
from pathlib import Path

import l1ppr
import l1ppr.cli  # noqa: F401  (not imported by the package itself)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
    assert callable(l1ppr.kernels.active_backend)
