"""ISTA/FISTA proximal-gradient loops with a degree-weighted work ledger.

Both methods run the exact same loop at the unit step 1/L = 1; ISTA is the
momentum-zero branch. Per iteration k the ledger charges

    work_k = vol(supp(y_k)) + vol(supp(x_{k+1}))

which also covers the per-iteration stopping diagnostic (the fixed-point
residual is evaluated at x_{k+1}, whose support volume is already counted).
Iterations start from x_{-1} = x_0 = 0 and stop as soon as the residual drops
to eps, checked every iteration, or at the global iteration cap.

The ledger is the modeled cost; the kernel calls are the actual one. FISTA
makes two per iteration (the step from y_k, then the residual step from
x_{k+1}). Without momentum y_k == x_k, so the step T(x_k) that the previous
residual check computed is exactly x_{k+1}, and ISTA makes one. Every step
is :func:`l1ppr.objective.prox_grad_step`, which also returns the residual
at its input point; the stopping residual is the one from the step at
x_{k+1}, so ``trace.final_residual`` equals ``kkt_residual`` of the returned
iterate exactly.

Iterates stay in their (sorted nodes, values) array form throughout, so a
solve's wall clock follows the volume of its iterates, not n. The only
n-length array is the gather core's position scratch, kept per graph in
:mod:`l1ppr.objective`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .graph import Graph, NodeSet
from .objective import (
    ProblemParams,
    SparseVector,
    _check_seed,
    _position_scratch,
    objective_value,
    prox_grad_step,
)

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveTrace",
    "Solution",
    "NumericalDivergenceError",
    "fista_momentum",
    "solve",
    "EnvelopePoint",
    "rate_envelope",
]

_METHODS = ("ista", "fista")
_TRACE_LEVELS = ("summary", "full")


class NumericalDivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""


def fista_momentum(alpha: float) -> float:
    """Momentum (1 - sqrt(alpha)) / (1 + sqrt(alpha)) for the strongly convex rate."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    r = math.sqrt(alpha)
    return (1.0 - r) / (1.0 + r)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "fista"
    eps: float = 1e-6
    max_iter: int = 50000
    trace_level: str = "summary"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.trace_level not in _TRACE_LEVELS:
            raise ValueError(f"trace_level must be one of {_TRACE_LEVELS}")


@dataclass(slots=True)
class IterationRecord:
    k: int
    vol_supp_y: int
    vol_supp_x_next: int
    work: int
    residual: float
    spurious_vol: int | None = None
    y_nodes: np.ndarray | None = None
    y_vals: np.ndarray | None = None
    x_nodes: np.ndarray | None = None
    x_vals: np.ndarray | None = None


@dataclass
class SolveTrace:
    """Per-iteration ledger of one solve.

    The per-iteration numbers are kept in compact array columns, one entry
    per iteration (``spurious_vol`` only when the solve had a baseline), and
    ``snapshots`` holds ``(y_nodes, y_vals, x_nodes, x_vals)`` per iteration
    at the full level. ``records`` assembles them into
    :class:`IterationRecord` objects on each access.
    """

    iterations: int = 0
    total_work: int = 0
    final_residual: float = float("inf")
    converged: bool = False
    level: str = "summary"
    spurious_total: int | None = None
    vol_supp_y: array = field(default_factory=partial(array, "q"))
    vol_supp_x_next: array = field(default_factory=partial(array, "q"))
    residual: array = field(default_factory=partial(array, "d"))
    spurious_vol: array = field(default_factory=partial(array, "q"))
    snapshots: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def records(self) -> list[IterationRecord]:
        spur = self.spurious_vol if self.spurious_total is not None else repeat(None)
        snaps = self.snapshots if self.level == "full" else repeat((None,) * 4)
        return [
            IterationRecord(k, vy, vx, vy + vx, r, s, *snap)
            for k, (vy, vx, r, s, snap) in enumerate(
                zip(self.vol_supp_y, self.vol_supp_x_next, self.residual, spur, snaps))
        ]


@dataclass
class Solution:
    x: SparseVector
    trace: SolveTrace
    support: NodeSet


def solve(
    g: Graph,
    p: ProblemParams,
    cfg: SolverConfig,
    spurious_baseline: NodeSet | None = None,
) -> Solution:
    """Run the configured method from zero until the residual target or cap.

    When ``spurious_baseline`` is given, the trace additionally accumulates
    the per-iteration degree volume of supp(x_{k+1}) outside that set, which
    lets sweeps report spurious volumes without keeping full traces.
    """
    _check_seed(g, p)
    beta = fista_momentum(p.alpha) if cfg.method == "fista" else 0.0
    reuse = beta == 0.0  # ISTA, and FISTA at alpha = 1
    full = cfg.trace_level == "full"
    degrees = g.degrees

    trace = SolveTrace(level=cfg.trace_level)
    if spurious_baseline is not None:
        trace.spurious_total = 0

    empty_act, empty_vals = np.empty(0, dtype=np.int64), np.empty(0)
    with _position_scratch(g) as pos:
        # Residual of the zero start: if it already meets eps the solution
        # is 0 and no iteration is charged.
        t_act, t_vals, r = prox_grad_step(g, p, empty_vals, empty_act, pos)
        if r <= cfg.eps:
            trace.converged = True
            trace.final_residual = r
            return Solution(SparseVector(), trace, NodeSet())

        x_act, x_vals = prev_act, prev_vals = empty_act, empty_vals
        for k in range(cfg.max_iter):
            union = np.union1d(x_act, prev_act)
            xu = _place(union, x_act, x_vals)
            merged = xu + beta * (xu - _place(union, prev_act, prev_vals))
            if not np.isfinite(merged).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
            nz = merged != 0.0
            y_vals = merged[nz]
            y_act = union[nz]
            vol_y = int(degrees[y_act].sum())

            if reuse:
                # Without momentum y_k == x_k, so x_{k+1} = T(x_k) is the
                # step the last residual check computed.
                xn_act, xn_vals = t_act, t_vals
            else:
                xn_act, xn_vals, _ = prox_grad_step(g, p, y_vals, y_act, pos)
            if not np.isfinite(xn_vals).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
            vol_xn = int(degrees[xn_act].sum())

            t_act, t_vals, r = prox_grad_step(g, p, xn_vals, xn_act, pos)

            if spurious_baseline is not None:
                spur = int(degrees[xn_act[~spurious_baseline.contains(xn_act)]].sum())
                trace.spurious_vol.append(spur)
                trace.spurious_total += spur

            trace.vol_supp_y.append(vol_y)
            trace.vol_supp_x_next.append(vol_xn)
            trace.residual.append(r)
            if full:
                trace.snapshots.append((y_act, y_vals, xn_act, xn_vals))
            trace.total_work += vol_y + vol_xn
            trace.iterations += 1

            prev_act, prev_vals = x_act, x_vals
            x_act, x_vals = xn_act, xn_vals
            if r <= cfg.eps:
                trace.converged = True
                break

    trace.final_residual = r
    return Solution(SparseVector.from_arrays(x_act, x_vals), trace, NodeSet(x_act))


def _place(union: np.ndarray, act: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The point that is ``vals`` at ``act`` (a subset of the sorted array
    ``union``), as values at ``union``."""
    out = np.zeros(union.size)
    out[np.searchsorted(union, act)] = vals
    return out


@dataclass(frozen=True)
class EnvelopePoint:
    k: int
    gap: float
    bound: float

    def violates(self, slack: float = 1e-9) -> bool:
        return self.gap > self.bound + slack


def rate_envelope(
    g: Graph,
    p: ProblemParams,
    cfg: SolverConfig,
    trace: SolveTrace,
    f_star: float,
) -> list[EnvelopePoint]:
    """Measured optimality gaps against the envelope 2*Delta0*(1-sqrt(alpha))^k.

    ``f_star`` must come from a high-precision reference solve; Delta0 is
    F(0) - f_star = -f_star. Requires a full trace (iterate snapshots).
    """
    del cfg
    if trace.level != "full":
        raise ValueError("full trace required")
    delta0 = 0.0 - f_star
    decay = 1.0 - math.sqrt(p.alpha)
    points = [EnvelopePoint(0, delta0, 2.0 * delta0)]
    for k, (_, _, x_nodes, x_vals) in enumerate(trace.snapshots, start=1):
        gap = objective_value(g, p, SparseVector.from_arrays(x_nodes, x_vals)) - f_star
        points.append(EnvelopePoint(k, gap, 2.0 * delta0 * decay**k))
    return points
