"""ISTA/FISTA proximal-gradient loops with a degree-weighted work ledger.

Both methods run the exact same loop at the unit step 1/L = 1; ISTA is the
momentum-zero branch, which takes y_k = x_k without extrapolating. Per
iteration k the ledger charges

    work_k = vol(supp(y_k)) + vol(supp(x_{k+1}))

which also covers the per-iteration stopping diagnostic (the fixed-point
residual is evaluated at x_{k+1}, whose support volume is already counted).
Iterations start from x_{-1} = x_0 = 0. The residual at x_k is tested
against eps once, at the top of iteration k, so a zero start that already
meets it charges nothing; the global iteration cap ends the loop otherwise.

The ledger is the modeled cost; the kernel calls are the actual one. FISTA
makes two per iteration (the step from y_k, then the residual step from
x_{k+1}). Without momentum the step T(x_k) that the previous residual check
computed is exactly x_{k+1}, and ISTA makes one. Every step is
:func:`l1ppr.objective.prox_grad_step`, which also returns the residual at
its input point; the stopping residual is the one from the step at x_{k+1},
so ``trace.final_residual`` equals ``kkt_residual`` of the returned iterate
exactly.

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

import numpy as np

from .graph import Graph, NodeSet
from .objective import (
    ProblemParams,
    SettingError,
    SparseVector,
    _check_seed,
    _position_scratch,
    objective_value,
    prox_grad_step,
)

__all__ = [
    "SolverConfig",
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
            raise SettingError(f"method must be one of {_METHODS}, got {self.method!r}", "method")
        if not self.eps > 0.0:
            raise SettingError(f"eps must be positive, got {self.eps}", "eps")
        if self.max_iter < 1:
            raise SettingError(f"max_iter must be at least 1, got {self.max_iter}", "max_iter")
        if self.trace_level not in _TRACE_LEVELS:
            raise SettingError(f"trace_level must be one of {_TRACE_LEVELS}", "trace_level")


@dataclass
class SolveTrace:
    """Per-iteration ledger of one solve.

    Each column holds one entry per iteration; ``spurious_vol`` is ``None``
    when the solve had no baseline. At the full level ``snapshots`` holds
    ``(y_nodes, y_vals, x_nodes, x_vals)`` per iteration. The counters are
    read off the columns.
    """

    final_residual: float = float("inf")
    converged: bool = False
    level: str = "summary"
    vol_supp_y: array = field(default_factory=partial(array, "q"))
    vol_supp_x_next: array = field(default_factory=partial(array, "q"))
    residual: array = field(default_factory=partial(array, "d"))
    spurious_vol: array | None = None
    snapshots: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residual)

    @property
    def total_work(self) -> int:
        return sum(self.vol_supp_y) + sum(self.vol_supp_x_next)

    @property
    def spurious_total(self) -> int | None:
        return None if self.spurious_vol is None else sum(self.spurious_vol)


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

    trace = SolveTrace(level=cfg.trace_level,
                       spurious_vol=None if spurious_baseline is None else array("q"))

    x_act, x_vals = prev_act, prev_vals = np.empty(0, dtype=np.int64), np.empty(0)
    with _position_scratch(g) as pos:
        t_act, t_vals, r = prox_grad_step(g, p, x_vals, x_act, pos)
        for k in range(cfg.max_iter):
            if r <= cfg.eps:
                break
            if reuse:
                # Without momentum y_k == x_k, so x_{k+1} = T(x_k) is the
                # step the last residual check computed.
                y_act, y_vals = x_act, x_vals
                xn_act, xn_vals = t_act, t_vals
            else:
                union = np.union1d(x_act, prev_act)
                xu = _place(union, x_act, x_vals)
                merged = xu + beta * (xu - _place(union, prev_act, prev_vals))
                if not np.isfinite(merged).all():
                    raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
                nz = merged != 0.0
                y_act, y_vals = union[nz], merged[nz]
                xn_act, xn_vals, _ = prox_grad_step(g, p, y_vals, y_act, pos)
            if not np.isfinite(xn_vals).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")

            t_act, t_vals, r = prox_grad_step(g, p, xn_vals, xn_act, pos)

            trace.vol_supp_y.append(int(degrees[y_act].sum()))
            trace.vol_supp_x_next.append(int(degrees[xn_act].sum()))
            trace.residual.append(r)
            if spurious_baseline is not None:
                outside = xn_act[~spurious_baseline.contains(xn_act)]
                trace.spurious_vol.append(int(degrees[outside].sum()))
            if full:
                trace.snapshots.append((y_act, y_vals, xn_act, xn_vals))

            prev_act, prev_vals = x_act, x_vals
            x_act, x_vals = xn_act, xn_vals

    trace.converged = r <= cfg.eps
    trace.final_residual = r
    return Solution(SparseVector.from_arrays(x_act, x_vals), trace, NodeSet(x_act))


def _place(union: np.ndarray, act: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The point that is ``vals`` at ``act`` (a subset of the sorted array
    ``union``), as values at ``union``."""
    out = np.zeros(union.size)
    out[np.searchsorted(union, act)] = vals
    return out


# Rounding allowance of ``EnvelopePoint.violates``.
_ENVELOPE_SLACK = 1e-9


@dataclass(frozen=True)
class EnvelopePoint:
    k: int
    gap: float
    bound: float

    def violates(self) -> bool:
        return self.gap > self.bound + _ENVELOPE_SLACK


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
