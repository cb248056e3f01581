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

The ledger is the modeled cost; the kernel calls are the actual one. Both
methods make one per iteration, the residual step from x_{k+1}, which is
:func:`l1ppr.objective.prox_grad_step`; it also returns the residual at its
input point, so ``trace.final_residual`` equals ``kkt_residual`` of the
returned iterate exactly. Without momentum the step T(x_k) that the previous
residual check computed is exactly x_{k+1}. FISTA forms x_{k+1} = T(y_k)
without a step from y_k: f is quadratic, so the forward map
u(z) = z - grad f(z) is affine and

    u(y_k) = u(x_k) + beta (u(x_k) - u(x_{k-1})),

and the residual steps from x_k and x_{k-1} return both maps on the right.
FISTA soft-thresholds that u(y_k). It still forms y_k, whose support the
ledger charges and full traces record, although no kernel reads it; the
ledger is the method's, not the kernel's.

Iterates stay in their (sorted nodes, values) array form throughout, so a
solve's wall clock follows the volume of its iterates, not n. Each step
also returns the frame of its input point: the plan's array of ids, which
holds the candidates (it is either those alone or the id span up to the
largest of them, no longer than the rows the step read), and the point and
its forward map at each of them. A solve holds no array of length n:
all the gather core keeps per graph, in :mod:`l1ppr.objective`, is the
plan of the last support a step read, sized by that support's volume.
Once a solve's support stops changing, which the iterates of a
proximal-gradient method do after finitely many steps, its steps reuse that
plan and read no adjacency row.

FISTA extrapolates y_k and u(y_k) together, in one call, from the frames of
x_k and x_{k-1}. While the support stands, both frames are on the plan's
one array of ids and their values are aligned as they are. When the id
arrays differ, their union is found and a frame's two value arrays are
placed on it only when its ids do not already cover it; most support
changes only add nodes, and then the newer frame covers the union. A
sorted array of n distinct ids whose last is n - 1 is the id span
[0, n - 1], the frame of an id-binned plan: when one frame is a span and
the other's ids end inside it, the span is the union as it is, and an id
is its own position on it. Only two frames that neither holds are merged,
and placed by a sorted search. vol(supp y_k) is the degree sum over the
nonzero entries of y_k in the frame. The volume of a support, and d and
sqrt(d) at the frame's ids (slices of the graph's arrays at a span), are
computed once per array, not once per iteration. A step
that leaves its input's support unchanged returns the plan's own support
array, and FISTA takes it for x_{k+1} when supp(x_{k+1}) equals
supp(T(x_k)), so the next step finds the plan by identity.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import Graph, NodeSet, _union
from .objective import (
    ProblemParams,
    SettingError,
    SparseVector,
    _check_alpha,
    _check_ints,
    _soft_threshold,
    objective_value,
    prox_grad_step,
)

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolveTrace",
    "Solution",
    "NumericalDivergenceError",
    "fista_momentum",
    "solve",
    "EnvelopePoint",
    "rate_envelope",
]

METHODS = ("ista", "fista")
_TRACE_LEVELS = ("summary", "full")


class NumericalDivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""


def fista_momentum(alpha: float) -> float:
    """Momentum (1 - sqrt(alpha)) / (1 + sqrt(alpha)) for the strongly convex rate."""
    _check_alpha(alpha)
    r = math.sqrt(alpha)
    return (1.0 - r) / (1.0 + r)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "fista"
    eps: float = 1e-6
    max_iter: int = 50000
    trace_level: str = "summary"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SettingError(f"method must be one of {METHODS}, got {self.method!r}", "method")
        if not self.eps > 0.0:
            raise SettingError(f"eps must be positive, got {self.eps}", "eps")
        _check_ints(self, "max_iter")
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


def _require_full(trace: SolveTrace) -> None:
    """Raise ValueError unless ``trace`` is a full trace, the one level that
    keeps the iterate snapshots an audit replays."""
    if trace.level != "full":
        raise ValueError(f"full trace required, got a {trace.level} trace")


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
    beta = fista_momentum(p.alpha) if cfg.method == "fista" else 0.0
    reuse = beta == 0.0  # ISTA, and FISTA at alpha = 1
    full = cfg.trace_level == "full"
    degrees = g.degrees

    trace = SolveTrace(level=cfg.trace_level,
                       spurious_vol=None if spurious_baseline is None else array("q"))

    x_act, x_vals = np.empty(0, dtype=np.int64), np.empty(0)
    volume = _per_array(lambda act: int(degrees[act].sum()))
    deg_at = _per_array(partial(_at_frame, degrees))
    sqrt_deg = _per_array(partial(_at_frame, g.sqrt_degrees))
    if spurious_baseline is not None:
        spurious = _per_array(lambda act: int(degrees[act[~spurious_baseline.contains(act)]].sum()))
    t_act, t_vals, r, cand, z, u = prox_grad_step(g, p, x_vals, x_act)
    prev_cand, prev_z, prev_u = cand, z, u  # x_{-1} = x_0
    for k in range(cfg.max_iter):
        if r <= cfg.eps:
            break
        if reuse:
            # Without momentum y_k == x_k, so x_{k+1} = T(x_k) is the
            # step the last residual check computed.
            y_act, y_vals = x_act, x_vals
            vol_y = volume(y_act)
            xn_act, xn_vals = t_act, t_vals
            if not np.isfinite(xn_vals).all():
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
        else:
            # u is affine, so u(y_k) extrapolates u(x_k) and u(x_{k-1}) as
            # y_k does x_k and x_{k-1}
            y_cand, y, u_y = _extrapolate(beta, cand, z, u, prev_cand, prev_z, prev_u)
            if not (np.isfinite(y).all() and np.isfinite(u_y).all()):  # the threshold would drop a nan
                raise NumericalDivergenceError(f"numerical divergence at iteration {k}")
            nz = y != 0.0
            vol_y = int(deg_at(y_cand)[nz].sum())
            if full:
                y_act, y_vals = y_cand[nz], y[nz]
            keep, xn = _soft_threshold(p, sqrt_deg(y_cand), u_y)
            xn_act, xn_vals = y_cand[keep], xn[keep]
            if xn_act.tobytes() == t_act.tobytes():
                # T(x_k) has this support too: take its array, which is the
                # plan's when it is also supp(x_k), so the step finds the plan
                # by identity
                xn_act = t_act

        prev_cand, prev_z, prev_u = cand, z, u
        t_act, t_vals, r, cand, z, u = prox_grad_step(g, p, xn_vals, xn_act)

        trace.vol_supp_y.append(vol_y)
        trace.vol_supp_x_next.append(volume(xn_act))
        trace.residual.append(r)
        if spurious_baseline is not None:
            trace.spurious_vol.append(spurious(xn_act))
        if full:
            trace.snapshots.append((y_act, y_vals, xn_act, xn_vals))

        x_act, x_vals = xn_act, xn_vals

    trace.converged = r <= cfg.eps
    trace.final_residual = r
    return Solution(SparseVector.from_arrays(x_act, x_vals), trace, NodeSet._adopt(x_act))


def _per_array(fn):
    """``fn`` of one array, computed again only when called with another
    array object than the last call's; the solver never writes into the
    support arrays it passes."""
    last = [None, None]

    def call(a):
        if a is not last[0]:
            last[:] = a, fn(a)
        return last[1]

    return call


def _extrapolate(beta: float, cand: np.ndarray, z: np.ndarray, u: np.ndarray,
                 prev_cand: np.ndarray, prev_z: np.ndarray, prev_u: np.ndarray) -> tuple:
    """The frame of y = z + beta (z - z') from the frames ``(cand, z, u)``
    of z and ``(prev_cand, prev_z, prev_u)`` of z': its candidates, y at
    them and u(y) = u + beta (u - u') at them, u being affine. The
    candidates are ``cand`` when the two candidate arrays are equal and
    their union otherwise. A frame whose candidates cover the union, which
    have its size, is used as it is: only the other frame is placed on it.
    A frame that is an id span [0, top], with the other frame's last id at
    most top, is the union; only two frames of which neither is such a span
    are merged."""
    if cand is not prev_cand and cand.tobytes() != prev_cand.tobytes():
        if _is_span(cand) and prev_cand[-1] <= cand[-1]:
            union = cand
        elif _is_span(prev_cand) and cand[-1] <= prev_cand[-1]:
            union = prev_cand
        else:
            union = _union(cand, prev_cand)
        if cand.size != union.size:
            z, u = _place(union, cand, z, u)
        if prev_cand.size != union.size:
            prev_z, prev_u = _place(union, prev_cand, prev_z, prev_u)
        cand = union
    return cand, z + beta * (z - prev_z), u + beta * (u - prev_u)


def _is_span(ids: np.ndarray) -> bool:
    """Whether the sorted, distinct, non-empty ids are the span [0, top]:
    n such ids are all below n exactly when the last is n - 1."""
    return ids[-1] == ids.size - 1


def _at_frame(values: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The per-node ``values`` at the frame's ids ``cand``: a slice of them
    at an id span, a gather otherwise."""
    return values[:cand.size] if _is_span(cand) else values[cand]


def _place(union: np.ndarray, cand: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The value arrays ``z`` and ``u`` at ``cand`` (a subset of the sorted
    array ``union``) as the two rows of values at ``union``, +0.0
    elsewhere. On an id span an id is its own position; elsewhere a sorted
    search finds it."""
    out = np.zeros((2, union.size))
    out[:, cand if _is_span(union) else np.searchsorted(union, cand)] = z, u
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
    _require_full(trace)
    delta0 = 0.0 - f_star
    decay = 1.0 - math.sqrt(p.alpha)
    points = [EnvelopePoint(0, delta0, 2.0 * delta0)]
    for k, (_, _, x_nodes, x_vals) in enumerate(trace.snapshots, start=1):
        gap = objective_value(g, p, SparseVector.from_arrays(x_nodes, x_vals)) - f_star
        points.append(EnvelopePoint(k, gap, 2.0 * delta0 * decay**k))
    return points
