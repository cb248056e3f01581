"""Optimality-slack and locality diagnostics.

Everything in here interrogates a solved problem or a running trace:

* ``slacks`` reports the degree-normalized distance of each inactive node
  from its activation threshold (gamma_i = (lambda_i - |grad_i|) / sqrt(d_i)),
  after verifying the supplied point actually satisfies the KKT conditions;
* ``two_tier_split`` solves the problem at the base penalty and at twice the
  base penalty and checks that the low-slack inactive nodes of the heavier
  problem are active in the lighter one;
* ``check_no_percolation`` evaluates, for every exterior node next to the
  boundary of S, the exposure inequality that certifies iterate supports stay
  inside S and its boundary;
* ``verify_confinement`` replays a full trace against a candidate set and
  ledgers every escape plus the spurious volume relative to that set;
* ``degree_cutoff`` gives the degree above which an (A)-inactive node can
  never activate under the doubled penalty;
* ``jump_audit`` re-derives, for every spurious activation in a trace, the
  strict jump inequality that any such activation must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .graph import Graph, NodeSet, _check_nodes, _is_int, _rows, vertex_boundary
from .objective import ProblemParams, SparseVector, _check_alpha, _check_rho, _gradient_at, forward_map
from .solver import SolveTrace, SolverConfig, _require_full, solve

__all__ = [
    "SlackReport",
    "TwoTierSplit",
    "NoPercolationReport",
    "ConfinementReport",
    "JumpViolation",
    "slacks",
    "two_tier_split",
    "check_no_percolation",
    "verify_confinement",
    "degree_cutoff",
    "jump_audit",
]


@dataclass(frozen=True)
class SlackReport:
    """Degree-normalized activation slacks of the inactive nodes.

    ``gamma`` holds the explicitly computed entries (nodes with a nonzero
    gradient, i.e. within one hop of the support or the seed). Every other
    inactive node has a zero gradient, hence slack exactly ``far_slack``
    (= reg_factor * alpha * rho); they are only counted, not stored.
    ``threshold`` is alpha * rho at the base penalty, splitting the inactive
    nodes into ``i_small`` (slack below it) and the stored part of the rest.
    """

    active: NodeSet
    gamma: dict[int, float]
    far_slack: float
    far_count: int
    min_slack: float
    threshold: float
    i_small: NodeSet
    i_large_near: NodeSet

    def slack_at(self, i: int) -> float:
        n = len(self.active) + len(self.gamma) + self.far_count
        if not _is_int(i):
            raise ValueError(f"node {i!r} is not an integer")
        _check_nodes(n, (i,))
        if i in self.active:
            raise ValueError(f"node {i} is active; slack is defined for inactive nodes")
        return self.gamma.get(i, self.far_slack)


# Tolerance of the KKT check in ``slacks``.
_MINIMIZER_TOL = 1e-6


def slacks(g: Graph, p: ProblemParams, x_star: SparseVector) -> SlackReport:
    """Slack report at ``x_star``; raises if it is not a minimizer.

    Active nodes must sit on their subgradient face (|grad_i + sign(x_i) *
    lambda_i| <= tol) and inactive ones inside the band [-lambda_i - tol,
    tol], with tol = ``_MINIMIZER_TOL``; the one-sided upper bound reflects
    that minimizers here are nonnegative.
    """
    plan, xc, grad = _gradient_at(g, p, *x_star.arrays())
    cand, lvl = plan.cand, p.reg_level
    lam = lvl * plan.sqrt_cand
    on = xc != 0.0
    viol = np.abs(grad[on] + np.where(xc[on] > 0.0, lam[on], -lam[on]))
    bad = np.flatnonzero(viol > _MINIMIZER_TOL)
    if bad.size:
        i, v = int(cand[on][bad[0]]), float(viol[bad[0]])
        raise ValueError(f"not a minimizer: active node {i} violates stationarity by {v:.3e}")
    active = NodeSet._adopt(cand[on])
    near = ~on & (grad != 0.0)
    ids, gi, lam = cand[near], grad[near], lam[near]
    bad = np.flatnonzero((gi > _MINIMIZER_TOL) | (gi < -lam - _MINIMIZER_TOL))
    if bad.size:
        i, gb, lb = int(ids[bad[0]]), float(gi[bad[0]]), float(lam[bad[0]])
        raise ValueError(
            f"not a minimizer: inactive node {i} has gradient {gb:.3e} "
            f"outside [-{lb:.3e} - tol, tol]"
        )
    gam = lvl - np.abs(gi) * g.inv_sqrt_degrees[ids]
    gamma = dict(zip(ids.tolist(), gam.tolist()))
    far_count = g.n - len(active) - len(gamma)
    # the builtin min, in node order: with a NaN slack the result depends on it
    candidates = list(gamma.values())
    if far_count > 0:
        candidates.append(lvl)
    min_slack = min(candidates) if candidates else math.inf
    thr = p.alpha * p.rho
    i_small = NodeSet._adopt(ids[gam < thr])
    i_large_near = NodeSet._adopt(ids[gam >= thr])
    return SlackReport(
        active=active,
        gamma=gamma,
        far_slack=lvl,
        far_count=far_count,
        min_slack=min_slack,
        threshold=thr,
        i_small=i_small,
        i_large_near=i_large_near,
    )


class TwoTierSplit(NamedTuple):
    s_a: NodeSet
    i_small: NodeSet
    i_large: NodeSet
    witness: bool


def two_tier_split(
    g: Graph, p: ProblemParams, eps: float = 1e-11, max_iter: int = SolverConfig.max_iter
) -> TwoTierSplit:
    """Solve at the base and doubled penalty; split the heavier problem's
    inactive slacks at alpha*rho and check the small-slack set is contained
    in the lighter problem's support.

    ``i_large`` only lists the near nodes (nonzero gradient); all far nodes
    have slack exactly 2*alpha*rho, which is above the threshold whenever
    alpha*rho > 0, so they always belong to the large-slack side and are
    omitted from the returned set.
    """
    cfg = SolverConfig(method="fista", eps=eps, max_iter=max_iter)
    sol_a = solve(g, replace(p, reg_factor=1), cfg)
    sol_b = solve(g, replace(p, reg_factor=2), cfg)
    for tag, sol in (("base", sol_a), ("doubled", sol_b)):
        if not sol.trace.converged:
            raise RuntimeError(
                f"{tag}-penalty solve did not reach eps={eps} within {max_iter} iterations"
            )
    report = slacks(g, replace(p, reg_factor=2), sol_b.x)
    witness = report.i_small.issubset(sol_a.support)
    return TwoTierSplit(sol_a.support, report.i_small, report.i_large_near, witness)


class NoPercolationReport(NamedTuple):
    holds: bool
    worst_node: int | None
    worst_ratio: float


def check_no_percolation(g: Graph, p: ProblemParams, s: NodeSet) -> NoPercolationReport:
    """Exposure inequality over the exterior of ``s``.

    For every node i outside s and its boundary, the fraction of its
    neighbors lying on the boundary must satisfy
    |N(i) ∩ ∂s| / d_i <= (alpha*rho / (2(1-alpha)))^2 * d_i * min_{∂s} d.
    The report carries the largest LHS/RHS ratio; ``holds`` means it is <= 1.
    A node with no boundary neighbor has a zero LHS and cannot fail, so only
    the exterior nodes next to ∂s are evaluated, counted from the rows of ∂s:
    the check reads the rows of s and ∂s and nothing else. Degenerate cases:
    alpha = 1 makes the bound infinite, and an empty boundary or one with no
    exterior neighbor leaves nothing to check — all treated as holding.
    """
    if p.alpha >= 1.0:
        return NoPercolationReport(True, None, 0.0)
    bnd = vertex_boundary(g, s)
    nbrs, _ = _rows(g, bnd.ids)
    ext, hits = np.unique(nbrs[~s.union(bnd).contains(nbrs)], return_counts=True)
    if not ext.size:
        return NoPercolationReport(True, None, 0.0)
    d_min_bnd = float(g.degrees[bnd.ids].min())
    coef = (p.alpha * p.rho / (2.0 * (1.0 - p.alpha))) ** 2
    deg = g.degrees[ext].astype(np.float64)
    with np.errstate(divide="ignore"):  # coef underflows to 0: the ratios are inf
        ratios = hits / (coef * deg * deg * d_min_bnd)
    w = int(np.argmax(ratios))
    worst_ratio = float(ratios[w])
    worst_node = int(ext[w]) if worst_ratio > 0.0 else None
    return NoPercolationReport(worst_ratio <= 1.0, worst_node, worst_ratio)


@dataclass(frozen=True)
class ConfinementReport:
    """Escape ledger of a full trace against a candidate set.

    ``violations`` maps iteration index k to the nodes of supp(x_{k+1})
    outside s ∪ ∂s; ``confined`` means it is empty. Spurious volume is
    measured against ``s`` itself: vol(supp(x_{k+1}) \\ s) per iteration,
    with its running maximum and total.
    """

    confined: bool
    violations: dict[int, NodeSet]
    max_spurious_vol: int
    cum_spurious_vol: int


def verify_confinement(
    g: Graph, p: ProblemParams, cfg: SolverConfig, s: NodeSet, trace: SolveTrace
) -> ConfinementReport:
    """Replay the full ``trace`` against the candidate set ``s``.

    The report maps each iteration k whose iterate supp(x_{k+1}) leaves
    s ∪ ∂s to the nodes that escaped, and carries the per-iteration maximum
    and the total of vol(supp(x_{k+1}) \\ s). ``p`` and ``cfg`` are unused;
    they stay in the signature for existing callers.
    """
    _require_full(trace)
    allowed = s.union(vertex_boundary(g, s))
    violations: dict[int, NodeSet] = {}
    max_sp = 0
    cum_sp = 0
    for k, (_, _, nodes, _) in enumerate(trace.snapshots):
        escaped = nodes[~allowed.contains(nodes)]
        if escaped.size:
            violations[k] = NodeSet._adopt(escaped)
        spurious = nodes[~s.contains(nodes)]
        vol = int(g.degrees[spurious].sum())
        cum_sp += vol
        max_sp = max(max_sp, vol)
    return ConfinementReport(
        confined=not violations,
        violations=violations,
        max_spurious_vol=max_sp,
        cum_spurious_vol=cum_sp,
    )


# The gradient Lipschitz bound and the iterate-radius bound of ``degree_cutoff``.
_LIPSCHITZ = 1.0
_RADIUS = math.sqrt(20.0)


def degree_cutoff(alpha: float, rho: float) -> float:
    """Degree above which an inactive node stays inactive under the doubled
    penalty: (L*R / (alpha*rho))^2, with L = ``_LIPSCHITZ`` a gradient
    Lipschitz bound and R = ``_RADIUS`` an iterate-radius bound."""
    _check_alpha(alpha)
    _check_rho(rho)
    return (_LIPSCHITZ * _RADIUS / (alpha * rho)) ** 2


@dataclass(frozen=True)
class JumpViolation:
    k: int
    node: int
    lhs: float
    rhs: float


def jump_audit(
    g: Graph,
    p: ProblemParams,
    trace: SolveTrace,
    x_star: SparseVector,
) -> list[JumpViolation]:
    """Check every spurious activation against the strict jump inequality.

    A node i outside supp(x_star) can only enter supp(x_{k+1}) if the
    forward map u(y_k) = y_k - grad f(y_k) moved coordinate i strictly
    further than gamma_i * sqrt(d_i) away from its value at x_star. Returns
    the (expected empty) list of activations that fail this.
    """
    _require_full(trace)
    report = slacks(g, p, x_star)
    u_star = forward_map(g, p, x_star)
    sd = g.sqrt_degrees
    violations: list[JumpViolation] = []
    for k, (y_nodes, y_vals, x_nodes, _) in enumerate(trace.snapshots):
        spurious = x_nodes[~report.active.contains(x_nodes)]
        if not spurious.size:
            continue
        u_y = forward_map(g, p, SparseVector.from_arrays(y_nodes, y_vals))
        lhs = np.abs(u_y.values_at(spurious) - u_star.values_at(spurious))
        slack = np.array([report.gamma.get(i, report.far_slack) for i in spurious.tolist()])
        rhs = slack * sd[spurious]
        bad = ~(lhs > rhs)
        violations.extend(
            JumpViolation(k, i, a, b)
            for i, a, b in zip(spurious[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist())
        )
    return violations
