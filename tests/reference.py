"""Dict-based reference implementations of the objective functions.

These walk the support one node and one edge at a time in the fixed
accumulation order (sources in ascending node order, CSR row order within a
source). ``l1ppr.objective`` and the step kernel compute the same
quantities through one vectorised gather core and one vectorised soft
threshold; the tests check the two against each other bit for bit.
``jump_audit`` is the per-node loop that ``l1ppr.diagnostics.jump_audit``
replaced, ``rate_envelope`` the envelope that evaluated F at each snapshot
before full traces kept F(x_{k+1}), and ``two_gather_fista`` the FISTA loop
that ``l1ppr.solver.solve`` ran before it took the step from y_k from the
residual steps' forward maps.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from l1ppr import objective
from l1ppr.diagnostics import JumpViolation, slacks
from l1ppr.graph import Graph, NodeSet
from l1ppr.objective import ProblemParams, SparseVector, prox_grad_step
from l1ppr.solver import EnvelopePoint, SolveTrace, fista_momentum


def _check_seed(g: Graph, p: ProblemParams) -> None:
    if p.seed >= g.n:
        raise ValueError(f"seed node {p.seed} out of range for graph with n={g.n}")


def _neighbor_sums(g: Graph, x: SparseVector) -> dict[int, float]:
    """acc[i] = sum over supported j ~ i of x_j / sqrt(d_i d_j)."""
    isd = g.inv_sqrt_degrees
    acc: dict[int, float] = {}
    for j, xj in x.items():
        push = xj * isd[j]
        for i in g.neighbors[g.row_offsets[j]:g.row_offsets[j + 1]].tolist():
            acc[i] = acc.get(i, 0.0) + push * isd[i]
    return acc


def gradient(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """grad f at x; support is contained in supp(x), its neighbors, and {v}."""
    _check_seed(g, p)
    acc = _neighbor_sums(g, x)
    hp, hm = p.hp, p.hm
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    touched = set(acc)
    touched.update(int(i) for i in x.support())
    touched.add(p.seed)
    out: dict[int, float] = {}
    for i in touched:
        gval = hp * x[i] - hm * acc.get(i, 0.0)
        if i == p.seed:
            gval = gval - seed_term
        if gval != 0.0:
            out[i] = gval
    return SparseVector(out)


def forward_map(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """u(x) = x - grad f(x)."""
    gr = gradient(g, p, x)
    out: dict[int, float] = {}
    keys = {int(i) for i in x.support()} | {int(i) for i in gr.support()}
    for i in keys:
        ui = x[i] - gr[i]
        if ui != 0.0:
            out[i] = ui
    return SparseVector(out)


def shrink(tau: float, sqrt_deg: float, wi: float) -> float | None:
    """The soft threshold of one value ``wi`` at a node whose sqrt(d_i) is
    ``sqrt_deg``, with ``tau`` = c*alpha*rho: the shrunk value, or None when
    the entry drops (exactly on its threshold, below it, or nan)."""
    t = tau * float(sqrt_deg)
    a = abs(wi)
    if a > t:
        s = 1.0 if wi > 0.0 else -1.0
        return s * (a - t)
    return None


def prox(g: Graph, p: ProblemParams, w: SparseVector) -> SparseVector:
    """Weighted soft threshold: shrink each entry by c*alpha*rho*sqrt(d_i);
    entries exactly on the threshold map to zero."""
    sd = g.sqrt_degrees
    tau = p.reg_level
    out: dict[int, float] = {}
    for i, wi in w.items():
        v = shrink(tau, sd[i], wi)
        if v is not None:
            out[i] = v
    return SparseVector(out)


def kkt_residual(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Fixed-point residual ||x - prox(x - grad f(x))||_inf."""
    t = prox(g, p, forward_map(g, p, x))
    r = 0.0
    for i in {int(i) for i in x.support()} | {int(i) for i in t.support()}:
        r = max(r, abs(x[i] - t[i]))
    return r


def objective_value(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Composite value F(x); F(0) is exactly 0."""
    _check_seed(g, p)
    acc = _neighbor_sums(g, x)
    hp, hm = p.hp, p.hm
    sd = g.sqrt_degrees
    quad = 0.0
    l1 = 0.0
    for i, xi in x.items():
        qx_i = hp * xi - hm * acc.get(i, 0.0)
        quad += xi * (0.5 * qx_i)
        l1 += float(sd[i]) * abs(xi)
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    return quad - seed_term * x[p.seed] + p.reg_level * l1


def jump_audit(g: Graph, p: ProblemParams, trace: SolveTrace, x_star: SparseVector) -> list[JumpViolation]:
    """Every spurious activation of the trace whose jump fails the strict
    inequality, checked one node at a time."""
    report = slacks(g, p, x_star)
    u_star = forward_map(g, p, x_star)
    sd = g.sqrt_degrees
    violations: list[JumpViolation] = []
    for k, (y_nodes, y_vals, x_nodes, _) in enumerate(trace.snapshots):
        spurious = [i for i in x_nodes.tolist() if i not in report.active]
        if not spurious:
            continue
        y = SparseVector(dict(zip(y_nodes.tolist(), y_vals.tolist())))
        u_y = forward_map(g, p, y)
        for i in spurious:
            lhs = abs(u_y.get(i) - u_star.get(i))
            rhs = report.slack_at(i) * float(sd[i])
            if not lhs > rhs:
                violations.append(JumpViolation(k, i, lhs, rhs))
    return violations


def rate_envelope(g: Graph, p: ProblemParams, trace: SolveTrace, f_star: float) -> list[EnvelopePoint]:
    """The envelope points of ``l1ppr.solver.rate_envelope``, with F(x_k)
    evaluated by ``objective_value`` (one gather each) at every snapshot."""
    delta0 = 0.0 - f_star
    decay = 1.0 - math.sqrt(p.alpha)
    points = [EnvelopePoint(0, delta0, 2.0 * delta0)]
    for k, (_, _, x_nodes, x_vals) in enumerate(trace.snapshots, start=1):
        gap = objective.objective_value(g, p, SparseVector.from_arrays(x_nodes, x_vals)) - f_star
        points.append(EnvelopePoint(k, gap, 2.0 * delta0 * decay**k))
    return points


def two_gather_fista(g: Graph, p: ProblemParams, eps: float, max_iter: int,
                     spurious_baseline: NodeSet | None = None) -> tuple[SparseVector, SolveTrace]:
    """FISTA with two gathers per iteration: x_{k+1} = T(y_k) from the
    extrapolated point y_k itself, then the residual step from x_{k+1}.
    Returns the last iterate and the full trace, ledger as ``solve``'s."""
    beta = fista_momentum(p.alpha)
    trace = SolveTrace(level="full", spurious_vol=None if spurious_baseline is None else array("q"))
    x = prev = SparseVector()
    r = prox_grad_step(g, p, np.zeros(0), np.empty(0, dtype=np.int64))[2]
    for _ in range(max_iter):
        if r <= eps:
            break
        nodes = np.union1d(x.support(), prev.support())
        xv, pv = x.values_at(nodes), prev.values_at(nodes)
        y = SparseVector.from_arrays(nodes, xv + beta * (xv - pv))
        x, prev = SparseVector.from_arrays(*prox_grad_step(g, p, y.arrays()[1], y.support())[:2]), x
        r = prox_grad_step(g, p, x.arrays()[1], x.support())[2]
        trace.vol_supp_y.append(int(g.degrees[y.support()].sum()))
        trace.vol_supp_x_next.append(int(g.degrees[x.support()].sum()))
        trace.residual.append(r)
        if spurious_baseline is not None:
            outside = x.support()[~spurious_baseline.contains(x.support())]
            trace.spurious_vol.append(int(g.degrees[outside].sum()))
        trace.snapshots.append((*y.arrays(), *x.arrays()))
    trace.converged = r <= eps
    trace.final_residual = r
    return x, trace
