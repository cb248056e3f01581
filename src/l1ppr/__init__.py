"""Sparsity-inducing personalized PageRank: local solvers, work accounting,
confinement diagnostics, analytic instances, and a sweep harness.

Every name in a module's ``__all__`` is importable from the package itself.
``kernels`` is imported only so ``l1ppr.kernels`` resolves; it is not
re-exported.
"""

from . import diagnostics, graph, kernels, objective, solver, sweep, synth  # noqa: F401
from .diagnostics import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .objective import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for mod in (graph, objective, solver, synth, diagnostics, sweep)
           for name in mod.__all__] + ["__version__"]
