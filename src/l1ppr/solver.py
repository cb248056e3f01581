"""ISTA/FISTA proximal-gradient loops with a degree-weighted work ledger.

Both methods run the exact same loop; ISTA is the momentum-zero branch. Per
iteration k the ledger charges

    work_k = vol(supp(y_k)) + vol(supp(x_{k+1}))

which also covers the per-iteration stopping diagnostic (the fixed-point
residual is evaluated at x_{k+1}, whose support volume is already counted).
Iterations start from x_{-1} = x_0 = 0 and stop as soon as the residual drops
to eps, checked every iteration, or at the global iteration cap.

The ledger is the modeled cost; the kernel calls are the actual one. FISTA
makes two per iteration (the step from y_k, then the residual step from
x_{k+1}). Without momentum y_k == x_k, so the step T(x_k) that the previous
residual check computed is exactly x_{k+1}, and ISTA makes one. Every step
is :func:`l1ppr.kernels.prox_grad_step`, the one kernel, built from the
gather core and soft threshold that :func:`l1ppr.objective.kkt_residual`
uses, so ``trace.final_residual`` equals ``kkt_residual`` of the returned
iterate exactly.

Dense n-length buffers come from the workspace kept per graph in
:mod:`l1ppr.objective` (weakly, so it goes with the graph) and are reset only
at the indices a solve touched, so a solve's wall clock follows the volume of
its iterates, not n. The reset runs in a ``finally`` block: a solve that
raises leaves the buffers clean.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .graph import Graph, NodeSet
from .kernels import prox_grad_step
from .objective import (
    _WORKSPACES,
    ProblemParams,
    SparseVector,
    _check_seed,
    _new_workspace,
    objective_value,
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
    eta: float = 1.0
    momentum: float | None = None  # None: (1-sqrt(a))/(1+sqrt(a)) for fista, 0 for ista
    trace_level: str = "summary"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.momentum is not None and not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.trace_level not in _TRACE_LEVELS:
            raise ValueError(f"trace_level must be one of {_TRACE_LEVELS}")

    def resolved_momentum(self, alpha: float) -> float:
        if self.momentum is not None:
            return self.momentum
        return fista_momentum(alpha) if self.method == "fista" else 0.0


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
    beta = cfg.resolved_momentum(p.alpha)
    reuse = beta == 0.0
    eta = cfg.eta
    full = cfg.trace_level == "full"
    degrees = g.degrees

    trace = SolveTrace(level=cfg.trace_level)
    if spurious_baseline is not None:
        trace.spurious_total = 0

    ws = _WORKSPACES.pop(g, None) or _new_workspace(g.n)
    x_cur, x_prev, y_buf, t_buf, pos = ws
    empty = np.empty(0, dtype=np.int64)
    # Every nonzero of the four buffers lies at an index in one of these.
    act_cur = act_prev = y_act = xn_act = t_act = empty
    try:
        # Residual of the zero start: if it already meets eps the solution
        # is 0 and no iteration is charged.
        t_act = prox_grad_step(g, p, y_buf, empty, eta, t_buf, pos)
        r = float(np.max(np.abs(t_buf[t_act]))) if t_act.size else 0.0
        if r <= cfg.eps:
            trace.converged = True
            trace.final_residual = r
            return Solution(SparseVector(), trace, NodeSet())

        for k in range(cfg.max_iter):
            union = np.union1d(act_cur, act_prev)
            merged = x_cur[union] + beta * (x_cur[union] - x_prev[union])
            if not np.isfinite(merged).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
            nz = merged != 0.0
            y_vals = merged[nz]
            y_act = union[nz]
            vol_y = int(degrees[y_act].sum())

            # x_prev is only needed to extrapolate y; recycle its buffer.
            x_prev[act_prev] = 0.0
            if reuse:
                # Without momentum y_k == x_k, so x_{k+1} = T(x_k) is the
                # step the last residual check computed.
                x_next, xn_act = t_buf, t_act
                t_buf, t_act = x_prev, empty
            else:
                t_buf[t_act] = 0.0
                y_buf[y_act] = y_vals
                x_next = x_prev
                xn_act = prox_grad_step(g, p, y_buf, y_act, eta, x_next, pos)
                y_buf[y_act] = 0.0
            xn_vals = x_next[xn_act]
            if not np.isfinite(xn_vals).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
            vol_xn = int(degrees[xn_act].sum())

            t_act = prox_grad_step(g, p, x_next, xn_act, eta, t_buf, pos)
            check = np.union1d(xn_act, t_act)
            r = float(np.max(np.abs(x_next[check] - t_buf[check]))) if check.size else 0.0

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

            x_prev, act_prev = x_cur, act_cur
            x_cur, act_cur = x_next, xn_act
            if r <= cfg.eps:
                trace.converged = True
                break

        trace.final_residual = r
        x = SparseVector.from_arrays(act_cur, x_cur[act_cur])
        return Solution(x, trace, NodeSet(act_cur))
    finally:
        live = np.concatenate((act_cur, act_prev, y_act, xn_act, t_act))
        for buf in ws[:4]:
            buf[live] = 0.0
        _WORKSPACES[g] = ws


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
    for rec in trace.records:
        gap = objective_value(g, p, SparseVector.from_arrays(rec.x_nodes, rec.x_vals)) - f_star
        points.append(EnvelopePoint(rec.k + 1, gap, 2.0 * delta0 * decay ** (rec.k + 1)))
    return points
