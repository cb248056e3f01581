"""Name of the prox-gradient step implementation.

The step itself is :func:`l1ppr.objective.prox_grad_step`. This module stays
only because the benchmark harness records ``active_backend()`` among its
machine facts.
"""

__all__ = ["active_backend"]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
