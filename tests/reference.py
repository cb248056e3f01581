"""Dict-based reference implementations of the objective functions.

These walk the support one node and one edge at a time in the fixed
accumulation order (sources in ascending node order, CSR row order within a
source). ``l1ppr.objective`` and the step kernel compute the same
quantities through one vectorised gather core and one vectorised soft
threshold; the tests check the two against each other bit for bit.
``jump_audit`` is the per-node loop that ``l1ppr.diagnostics.jump_audit``
replaced.
"""

from __future__ import annotations

from l1ppr.diagnostics import JumpViolation, slacks
from l1ppr.graph import Graph
from l1ppr.objective import ProblemParams, SparseVector, _check_seed
from l1ppr.solver import SolveTrace


def _neighbor_sums(g: Graph, x: SparseVector) -> dict[int, float]:
    """acc[i] = sum over supported j ~ i of x_j / sqrt(d_i d_j)."""
    isd = g.inv_sqrt_degrees
    acc: dict[int, float] = {}
    for j, xj in x.items():
        push = xj * isd[j]
        for i in map(int, g.neighbors_of(j)):
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


def prox(g: Graph, p: ProblemParams, w: SparseVector) -> SparseVector:
    """Weighted soft threshold: shrink each entry by c*alpha*rho*sqrt(d_i);
    entries exactly on the threshold map to zero."""
    sd = g.sqrt_degrees
    tau = p.reg_level
    out: dict[int, float] = {}
    for i, wi in w.items():
        t = tau * float(sd[i])
        a = abs(wi)
        if a > t:
            s = 1.0 if wi > 0.0 else -1.0
            out[i] = s * (a - t)
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
    for rec in trace.records:
        spurious = [i for i in rec.x_nodes.tolist() if i not in report.active]
        if not spurious:
            continue
        y = SparseVector(dict(zip(rec.y_nodes.tolist(), rec.y_vals.tolist())))
        u_y = forward_map(g, p, y)
        for i in spurious:
            lhs = abs(u_y.get(i) - u_star.get(i))
            rhs = report.slack_at(i) * float(sd[i])
            if not lhs > rhs:
                violations.append(JumpViolation(rec.k, i, lhs, rhs))
    return violations
