import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ppr.diagnostics import (
    check_no_percolation,
    degree_cutoff,
    jump_audit,
    slacks,
    two_tier_split,
    verify_confinement,
)
from l1ppr.graph import NodeSet, build_from_edges
from l1ppr.objective import ProblemParams, SettingError, SparseVector
from l1ppr.solver import SolverConfig, rate_envelope, solve
from l1ppr.synth import SynthParams, generate, path_instance, star_instance

import reference
from oracle import build_dense, dense_gradient, random_connected_graph


def test_star_leaf_slacks():
    inst = star_instance(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    rep = slacks(inst.graph, p, inst.solution_formula(0.5, 0.1))
    assert rep.active.ids.tolist() == [0]
    assert sorted(rep.gamma) == [1, 2, 3, 4]
    for i in range(1, 5):
        assert rep.gamma[i] == pytest.approx(0.025, abs=1e-12)
        assert rep.slack_at(i) == rep.gamma[i]
    assert rep.far_count == 0
    assert rep.min_slack == pytest.approx(0.025, abs=1e-12)
    assert rep.threshold == 0.05
    assert rep.i_small.ids.tolist() == [1, 2, 3, 4]
    assert len(rep.i_large_near) == 0
    with pytest.raises(ValueError, match="active"):
        rep.slack_at(0)


def test_path_slacks_far_nodes_exact():
    inst = path_instance(4)
    for rf in (1, 2):
        p = ProblemParams(0.5, 0.2, 0, rf)
        # formulas describe the base penalty; the doubled problem at rho is
        # the base problem at 2*rho
        x = inst.solution_formula(0.5, 0.2 * rf)
        x = SparseVector({0: x.get(0)})
        rep = slacks(inst.graph, p, x)
        assert sorted(rep.gamma) == [1]
        assert rep.far_count == 4
        assert rep.far_slack == p.reg_level          # exact, no arithmetic
        for far in (2, 3, 4, 5):
            assert rep.slack_at(far) == p.reg_level
    p1 = ProblemParams(0.5, 0.2, 0, 1)
    rep1 = slacks(inst.graph, p1, inst.solution_formula(0.5, 0.2))
    assert rep1.gamma[1] == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert rep1.min_slack == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert rep1.i_small.ids.tolist() == [1]


def test_slack_at_rejects_nodes_outside_the_graph():
    g, _ = build_from_edges([(0, 1), (1, 2), (2, 3)])
    p = ProblemParams(0.5, 0.01, 0)
    rep = slacks(g, p, solve(g, p, SolverConfig(eps=1e-12)).x)
    assert len(rep.active) + len(rep.gamma) + rep.far_count == g.n
    for i in (-1, g.n, 99):
        with pytest.raises(ValueError, match="out of range"):
            rep.slack_at(i)
    for i in (1.5, 2.0, True, np.float64(3.0), "1"):
        with pytest.raises(ValueError, match="not an integer"):
            rep.slack_at(i)
    assert rep.slack_at(np.int64(3)) == rep.slack_at(3)


def test_slacks_reject_non_minimizers():
    g = star_instance(4).graph
    p = ProblemParams(0.5, 0.1, 0, 1)
    with pytest.raises(ValueError, match="active node 0"):
        slacks(g, p, SparseVector({0: 0.5}))
    with pytest.raises(ValueError, match="inactive node 0"):
        slacks(g, ProblemParams(0.5, 0.01, 0, 1), SparseVector({}))


def test_slacks_consistency_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(3):
        g = random_connected_graph(rng, int(rng.integers(8, 25)))
        p = ProblemParams(float(rng.uniform(0.2, 0.8)),
                          float(rng.uniform(0.02, 0.2)), 0, 1)
        sol = solve(g, p, SolverConfig(method="ista", eps=1e-12))
        rep = slacks(g, p, sol.x)
        dp = build_dense(g, p, check_spectrum=False)
        grad = dense_gradient(dp, sol.x.values_at(np.arange(g.n)))
        isd = g.inv_sqrt_degrees
        inactive = [i for i in range(g.n) if i not in rep.active]
        assert len(rep.active) + len(rep.gamma) + rep.far_count == g.n
        want_min = math.inf
        for i in inactive:
            want = p.reg_level - abs(grad[i]) * isd[i]
            assert abs(rep.slack_at(i) - want) <= 1e-10
            want_min = min(want_min, rep.slack_at(i))
        assert rep.min_slack == want_min


def test_two_tier_star_above_breakpoint():
    # doubled penalty zeroes the seed; base penalty keeps it, so the seed
    # itself is the small-slack witness node
    g = star_instance(4).graph
    sp = two_tier_split(g, ProblemParams(0.5, 0.2, 0, 1))
    assert sp.s_a.ids.tolist() == [0]
    assert sp.i_small.ids.tolist() == [0]
    assert len(sp.i_large) == 0
    assert sp.witness


def test_two_tier_star_below_breakpoint():
    # base penalty is below the activation breakpoint: every leaf is active
    # in the light problem and small-slack in the heavy one
    g = star_instance(4).graph
    sp = two_tier_split(g, ProblemParams(0.5, 0.04, 0, 1))
    assert sp.s_a.ids.tolist() == [0, 1, 2, 3, 4]
    assert sp.i_small.ids.tolist() == [1, 2, 3, 4]
    assert sp.witness


def test_two_tier_propagates_convergence_failure():
    g = star_instance(4).graph
    with pytest.raises(RuntimeError, match="base-penalty solve did not reach"):
        two_tier_split(g, ProblemParams(0.5, 0.04, 0, 1), eps=1e-14, max_iter=1)


def test_no_percolation_hand_computed_path():
    g = path_instance(4).graph
    s = NodeSet([2])
    # worst exterior node is the endpoint 0: one of its single neighbor lies
    # on the boundary, so the inequality reads 1 <= coef * 1 * 2 and flips
    # exactly at rho = sqrt(2) (1 - alpha) / alpha
    alpha = 0.5
    rho_star = math.sqrt(2.0) * (1 - alpha) / alpha
    rep = check_no_percolation(g, ProblemParams(alpha, 1.01 * rho_star, 0, 1), s)
    coef = (alpha * 1.01 * rho_star / (2 * (1 - alpha))) ** 2
    assert rep.holds
    assert rep.worst_node == 0
    assert rep.worst_ratio == pytest.approx(1.0 / (2 * coef), rel=1e-12)
    rep_bad = check_no_percolation(g, ProblemParams(alpha, 0.99 * rho_star, 0, 1), s)
    assert not rep_bad.holds
    assert rep_bad.worst_node == 0
    assert rep_bad.worst_ratio > 1.0


def test_no_percolation_degenerate_cases():
    g = path_instance(4).graph
    assert check_no_percolation(g, ProblemParams(1.0, 0.1, 0, 1), NodeSet([2])) == \
        (True, None, 0.0)
    everything = NodeSet(np.arange(6))
    assert check_no_percolation(g, ProblemParams(0.5, 0.1, 0, 1), everything).holds
    no_ext = NodeSet([1, 4])  # boundary {0,2,3,5} swallows the rest
    rep = check_no_percolation(g, ProblemParams(0.5, 1e-4, 0, 1), no_ext)
    assert rep.holds and rep.worst_node is None


def test_no_percolation_underflow_names_a_node():
    """When the bound's coefficient underflows to 0, every exterior node next
    to the boundary has an infinite ratio, and the first of them is named."""
    g, part = generate(SynthParams(core_size=5, boundary_size=30, exterior_size=50,
                                   c_bnd=3, deg_b=4, deg_ext=6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_no_percolation(g, ProblemParams(0.2, 1e-170, 0, 2), part.core)
    # the core's fan-out reaches nodes 5..19; node 20 is the first beyond it
    assert rep == (False, 20, math.inf)


def test_no_percolation_monotone_in_alpha():
    g = path_instance(4).graph
    s = NodeSet([2])
    ratios = [
        check_no_percolation(g, ProblemParams(a, 1.0, 0, 1), s).worst_ratio
        for a in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), alpha=st.floats(0.05, 0.95))
def test_no_percolation_matches_per_node_definition(seed, n, alpha):
    """The vectorized report equals the exposure ratio computed node by node
    from the docstring's inequality, on random graphs and random sets."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    s = NodeSet(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    p = ProblemParams(alpha, float(rng.uniform(1e-3, 1.0)), 0, 1)
    inside = set(s.ids.tolist())
    row = [g.neighbors[g.row_offsets[i]:g.row_offsets[i + 1]].tolist() for i in range(n)]
    bnd = {j for i in inside for j in row[i]} - inside
    ext = [i for i in range(n) if i not in inside and i not in bnd]
    want = (True, None, 0.0)
    if bnd and ext:
        coef = (alpha * p.rho / (2.0 * (1.0 - alpha))) ** 2
        d_min = float(min(g.degrees[j] for j in bnd))
        ratios = []
        for i in ext:
            d = float(g.degrees[i])
            ratios.append(sum(j in bnd for j in row[i]) / (coef * d * d * d_min))
        w = int(np.argmax(ratios))
        want = (ratios[w] <= 1.0, ext[w] if ratios[w] > 0.0 else None, ratios[w])
    assert tuple(check_no_percolation(g, p, s)) == want


def test_verify_confinement_requires_full_trace():
    inst = star_instance(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    sol = solve(inst.graph, p, SolverConfig(method="ista", eps=1e-10))
    with pytest.raises(ValueError, match="full trace"):
        verify_confinement(inst.graph, p, SolverConfig(), NodeSet([0]), sol.trace)


def test_audits_of_a_summary_trace_raise_one_message():
    """The three audits that replay iterate snapshots state the full-trace
    rule once: each raises the same message on a summary trace."""
    inst = star_instance(4)
    g = inst.graph
    p = ProblemParams(0.5, 0.1, 0, 1)
    trace = solve(g, p, SolverConfig(method="fista", eps=1e-10)).trace
    audits = (
        lambda: rate_envelope(g, p, SolverConfig(), trace, f_star=-1.0),
        lambda: verify_confinement(g, p, SolverConfig(), NodeSet([0]), trace),
        lambda: jump_audit(g, p, trace, inst.solution_formula(0.5, 0.1)),
    )
    messages = []
    for audit in audits:
        with pytest.raises(ValueError) as exc:
            audit()
        messages.append(str(exc.value))
    assert messages == ["full trace required, got a summary trace"] * 3


def test_verify_confinement_counts():
    inst = star_instance(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    cfg = SolverConfig(method="ista", eps=1e-10, trace_level="full")
    sol = solve(inst.graph, p, cfg)
    rep = verify_confinement(inst.graph, p, cfg, NodeSet([0]), sol.trace)
    assert rep.confined and not rep.violations
    assert rep.max_spurious_vol == 0 and rep.cum_spurious_vol == 0
    # against the empty set everything is an escape and spurious volume is
    # the full support volume each iteration
    rep2 = verify_confinement(inst.graph, p, cfg, NodeSet([]), sol.trace)
    assert not rep2.confined
    assert set(rep2.violations) == set(range(sol.trace.iterations))
    assert all(v.ids.tolist() == [0] for v in rep2.violations.values())
    assert rep2.max_spurious_vol == 4
    assert rep2.cum_spurious_vol == 4 * sol.trace.iterations


def test_verify_confinement_trivial_trace():
    g = star_instance(4).graph
    p = ProblemParams(0.5, 0.3, 0, 1)  # zero solution, no iterations
    cfg = SolverConfig(method="fista", eps=1e-10, trace_level="full")
    sol = solve(g, p, cfg)
    rep = verify_confinement(g, p, cfg, NodeSet([0]), sol.trace)
    assert rep.confined and rep.cum_spurious_vol == 0


def test_degree_cutoff_values():
    assert degree_cutoff(1.0, 1.0) == pytest.approx(20.0)
    assert degree_cutoff(0.5, 0.1) == pytest.approx(20.0 / 0.05 ** 2)
    # alpha and rho obey the rules ProblemParams holds them to, nan included
    for alpha, rho, match in ((0.0, 1.0, "alpha must lie in"), (math.nan, 1.0, "alpha must lie in"),
                              (1.5, 0.1, "alpha must lie in"), (0.5, 0.0, "rho must be positive"),
                              (0.5, math.nan, "rho must be positive")):
        with pytest.raises(SettingError, match=match):
            degree_cutoff(alpha, rho)


def test_jump_audit_clean_on_ista():
    inst = star_instance(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    cfg = SolverConfig(method="ista", eps=1e-10, trace_level="full")
    sol = solve(inst.graph, p, cfg)
    assert jump_audit(inst.graph, p, sol.trace, inst.solution_formula(0.5, 0.1)) == []


def test_jump_audit_holds_for_breakpoint_dust():
    # momentum steps park transient mass on the zero-slack leaves right at
    # the breakpoint; each such activation must clear a zero threshold
    # strictly, so the audit passes while actually exercising its loop
    inst = star_instance(4)
    rho0 = inst.rho_breakpoint(0.5)
    p = ProblemParams(0.5, rho0, 0, 1)
    cfg = SolverConfig(method="fista", eps=1e-10, trace_level="full")
    sol = solve(inst.graph, p, cfg)
    spurious_seen = any(x_nodes.size > 1 for _, _, x_nodes, _ in sol.trace.snapshots)
    assert spurious_seen
    assert jump_audit(inst.graph, p, sol.trace, inst.solution_formula(0.5, rho0)) == []


def test_jump_audit_errors():
    inst = star_instance(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    summary = solve(inst.graph, p, SolverConfig(method="fista", eps=1e-10))
    with pytest.raises(ValueError, match="full trace"):
        jump_audit(inst.graph, p, summary.trace, inst.solution_formula(0.5, 0.1))
    full = solve(inst.graph, p, SolverConfig(method="fista", eps=1e-10,
                                             trace_level="full"))
    with pytest.raises(ValueError, match="not a minimizer"):
        jump_audit(inst.graph, p, full.trace, SparseVector({0: 0.7}))


@given(case_seed=st.integers(0, 2**32 - 1))
def test_jump_audit_matches_loop_reference(case_seed):
    """The array version gives the per-node loop's violations exactly. The
    trace comes from a lighter penalty, so its iterates activate nodes
    outside supp(x_star), and some of those jumps fail."""
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(4, 40))
    g = random_connected_graph(rng, n)
    p = ProblemParams(
        alpha=float(rng.uniform(0.05, 0.9)),
        rho=float(rng.uniform(1e-3, 0.1)),
        seed=int(rng.integers(0, n)),
        reg_factor=int(rng.integers(1, 3)),
    )
    x_star = solve(g, p, SolverConfig(method="fista", eps=1e-12)).x
    lighter = replace(p, rho=p.rho * float(rng.uniform(0.2, 0.9)))
    trace = solve(g, lighter, SolverConfig(method="ista", eps=1e-8, trace_level="full")).trace
    assert jump_audit(g, p, trace, x_star) == reference.jump_audit(g, p, trace, x_star)
