import math

import numpy as np
import pytest

from l1ppr.graph import NodeSet, build_from_edges, volume
from l1ppr.objective import ProblemParams, SparseVector, kkt_residual, objective_value, prox_grad_step
from l1ppr.solver import (
    NumericalDivergenceError,
    SolverConfig,
    fista_momentum,
    rate_envelope,
    solve,
)
from l1ppr.synth import SynthParams, generate, star_instance

from oracle import build_dense, dense_solve, random_connected_graph


def star(m):
    return star_instance(m).graph


def test_config_validation():
    for bad in (
        dict(method="gd"), dict(eps=0.0), dict(max_iter=0), dict(trace_level="verbose"),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_fista_momentum_values():
    assert fista_momentum(1.0) == 0.0
    b = fista_momentum(0.25)
    assert b == pytest.approx((1 - 0.5) / (1 + 0.5))
    with pytest.raises(ValueError):
        fista_momentum(0.0)


def test_ista_is_momentum_zero_branch():
    # FISTA's momentum is 0 at alpha = 1
    g, _ = build_from_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
    p = ProblemParams(1.0, 0.02, 0, 1)
    cfg_i = SolverConfig(method="ista", eps=1e-10, trace_level="full")
    cfg_f0 = SolverConfig(method="fista", eps=1e-10, trace_level="full")
    a = solve(g, p, cfg_i)
    b = solve(g, p, cfg_f0)
    assert a.x == b.x
    assert a.trace.total_work == b.trace.total_work
    assert [r.residual for r in a.trace.records] == [r.residual for r in b.trace.records]


def test_trivial_solution_costs_nothing():
    # star center has degree 4; the solution is identically zero once
    # rho >= 1/(reg_factor * d_seed)
    g = star(4)
    p = ProblemParams(0.5, 0.26, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-10))
    assert len(sol.x) == 0
    assert sol.trace.iterations == 0
    assert sol.trace.total_work == 0
    assert sol.trace.converged
    # just below the threshold the solve is nontrivial
    p2 = ProblemParams(0.5, 0.24, 0, 1)
    sol2 = solve(g, p2, SolverConfig(method="fista", eps=1e-10))
    assert len(sol2.x) == 1 and sol2.trace.total_work > 0


def test_final_residual_matches_reference_kkt_exactly():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(8, 30)))
        p = ProblemParams(
            float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.01, 0.2)),
            int(rng.integers(0, g.n)), 1,
        )
        for method in ("ista", "fista"):
            sol = solve(g, p, SolverConfig(method=method, eps=1e-9))
            assert sol.trace.converged
            # same expression trees on both paths -> exact agreement
            assert kkt_residual(g, p, sol.x) == sol.trace.final_residual


def test_methods_agree_on_minimizer():
    g, _ = build_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    p = ProblemParams(0.2, 0.05, 0, 1)
    xs = [
        solve(g, p, SolverConfig(method=m, eps=1e-12)).x
        for m in ("ista", "fista")
    ]
    assert xs[0].max_abs_diff(xs[1]) <= 1e-6


def test_matches_dense_oracle_small():
    g, _ = build_from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    p = ProblemParams(0.4, 0.03, 1, 2)
    want = dense_solve(build_dense(g, p))
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-12))
    assert np.max(np.abs(sol.x.to_dense(g.n) - want)) <= 1e-9


def test_work_ledger_replays_from_snapshots():
    g, part = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                   c_bnd=4, deg_b=6, deg_ext=10))
    p = ProblemParams(0.3, 1e-3, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-10, trace_level="full"))
    total = 0
    for rec in sol.trace.records:
        vol_y = volume(g, NodeSet(rec.y_nodes))
        vol_x = volume(g, NodeSet(rec.x_nodes))
        assert rec.work == vol_y + vol_x
        assert rec.vol_supp_y == vol_y and rec.vol_supp_x_next == vol_x
        total += rec.work
    assert total == sol.trace.total_work
    assert isinstance(sol.trace.total_work, int)


def test_summary_trace_has_no_snapshots():
    g = star(3)
    p = ProblemParams(0.5, 0.01, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-8))
    assert sol.trace.records and sol.trace.records[0].x_nodes is None
    full = solve(g, p, SolverConfig(method="fista", eps=1e-8, trace_level="full"))
    assert full.trace.records[0].x_nodes is not None


def _faulty_step(fault):
    """``prox_grad_step`` whose values go bad from its third call on.

    With ``"inf"`` they are infinite, which the check on x_{k+1} catches.
    With ``"overflow"`` they are +-1.5e308 on alternate calls: every iterate
    is finite, but its extrapolation x + beta (x - x_prev) is not (at alpha
    0.2 FISTA's momentum takes 1.5e308 past the largest double; ISTA's
    x - x_prev overflows and 0 * inf is nan), which the check on y_k catches.
    """
    calls = []

    def step(g, p, z_vals, z_act, pos):
        act, vals, r = prox_grad_step(g, p, z_vals, z_act, pos)
        calls.append(None)
        if len(calls) < 3:
            return act, vals, r
        bad = np.inf if fault == "inf" else (1.5e308 if len(calls) % 2 else -1.5e308)
        return act, np.full(vals.size, bad), r

    return step


# the iteration at which each fault trips the divergence check
DIVERGES_AT = {("fista", "inf"): 1, ("fista", "overflow"): 2,
               ("ista", "inf"): 2, ("ista", "overflow"): 4}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergence_raises(monkeypatch):
    import l1ppr.solver as solver

    g = star(4)
    p = ProblemParams(0.2, 0.01, 0, 1)
    for (method, fault), k in DIVERGES_AT.items():
        monkeypatch.setattr(solver, "prox_grad_step", _faulty_step(fault))
        with pytest.raises(NumericalDivergenceError, match=f"^numerical divergence at iteration {k}$"):
            solve(g, p, SolverConfig(method=method, eps=1e-10))


def test_iteration_cap_reported_not_converged():
    g = star(4)
    p = ProblemParams(0.5, 0.01, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-15, max_iter=3))
    assert not sol.trace.converged
    assert sol.trace.iterations == 3
    assert math.isfinite(sol.trace.final_residual)


def test_seed_out_of_range():
    g = star(2)
    with pytest.raises(ValueError, match="out of range"):
        solve(g, ProblemParams(0.5, 0.1, 5, 1), SolverConfig())


def test_spurious_accumulation_matches_full_trace():
    g, part = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                   c_bnd=4, deg_b=6, deg_ext=10))
    p = ProblemParams(0.3, 1e-3, 0, 1)
    cfg = SolverConfig(method="fista", eps=1e-10, trace_level="full")
    sol = solve(g, p, cfg, spurious_baseline=part.core)
    mask = np.zeros(g.n, dtype=bool)
    mask[part.core.ids] = True
    want = 0
    for rec in sol.trace.records:
        outside = rec.x_nodes[~mask[rec.x_nodes]]
        vol = int(g.degrees[outside].sum())
        assert rec.spurious_vol == vol
        want += vol
    assert sol.trace.spurious_total == want


def test_rate_envelope_requires_full_trace():
    g = star(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-10))
    with pytest.raises(ValueError, match="full trace"):
        rate_envelope(g, p, SolverConfig(), sol.trace, f_star=-1.0)


def test_rate_envelope_holds_on_star():
    inst = star_instance(4)
    g = inst.graph
    p = ProblemParams(0.5, 0.1, 0, 1)
    cfg = SolverConfig(method="fista", eps=1e-12, trace_level="full")
    sol = solve(g, p, cfg)
    f_star = objective_value(g, p, inst.solution_formula(0.5, 0.1))
    points = rate_envelope(g, p, cfg, sol.trace, f_star)
    assert len(points) == sol.trace.iterations + 1
    assert not any(pt.violates() for pt in points)


def test_ista_iterates_monotone_from_zero():
    g, _ = generate(SynthParams(core_size=6, boundary_size=12, exterior_size=16,
                                c_bnd=3, deg_b=4, deg_ext=8))
    p = ProblemParams(0.25, 2e-3, 0, 1)
    sol = solve(g, p, SolverConfig(method="ista", eps=1e-11, trace_level="full"))
    prev = np.zeros(g.n)
    prev_supp: set[int] = set()
    for rec in sol.trace.records:
        cur = np.zeros(g.n)
        cur[rec.x_nodes] = rec.x_vals
        assert np.all(cur >= 0.0)
        assert np.all(cur - prev >= 0.0)
        supp = set(rec.x_nodes.tolist())
        assert prev_supp <= supp
        prev, prev_supp = cur, supp


def clique_ring(ring_nodes, clique=20):
    iu, ju = np.triu_indices(clique, 1)
    ring = np.arange(clique, clique + ring_nodes, dtype=np.int64)
    return build_from_edges(np.concatenate([
        np.stack([iu, ju], axis=1),
        np.stack([ring, np.roll(ring, -1)], axis=1),
        [[clique - 1, clique]],
    ]))[0]


def _same_solution(a, b):
    assert a.x == b.x and a.support == b.support
    ta, tb = a.trace, b.trace
    assert (ta.iterations, ta.total_work, ta.final_residual, ta.converged) == \
        (tb.iterations, tb.total_work, tb.final_residual, tb.converged)
    assert (ta.vol_supp_y, ta.vol_supp_x_next, ta.residual) == (tb.vol_supp_y, tb.vol_supp_x_next, tb.residual)
    assert len(ta.snapshots) == len(tb.snapshots)
    for sa, sb in zip(ta.snapshots, tb.snapshots):
        assert all(np.array_equal(u, v) for u, v in zip(sa, sb))


@pytest.mark.parametrize("method", ["fista", "ista"])
def test_solve_allocation_independent_of_n(method):
    """The same local problem on a 10^3- and a 10^5-node ring allocates the
    same at its peak: nothing in a solve scales with n once the graph's
    workspace exists."""
    import tracemalloc

    p = ProblemParams(0.2, 1e-4, 3)
    cfg = SolverConfig(method=method, eps=1e-8)
    peaks = []
    for ring_nodes in (10**3, 10**5):
        g = clique_ring(ring_nodes)
        solve(g, p, cfg)  # creates the workspace
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solve(g, p, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4096, peaks


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("method", ["fista", "ista"])
def test_workspace_clean_after_divergence(method, monkeypatch):
    import l1ppr.objective as objective
    import l1ppr.solver as solver

    g = clique_ring(1000)
    p = ProblemParams(0.2, 1e-4, 3)
    for fault in ("inf", "overflow"):
        monkeypatch.setattr(solver, "prox_grad_step", _faulty_step(fault))
        with pytest.raises(NumericalDivergenceError, match=f"iteration {DIVERGES_AT[method, fault]}$"):
            solve(g, p, SolverConfig(method=method, eps=1e-10))
    monkeypatch.undo()
    cfg = SolverConfig(method=method, eps=1e-8, trace_level="full")
    _same_solution(solve(g, p, cfg), solve(clique_ring(1000), p, cfg))
    # all the graph keeps is the kernel's position scratch, which may hold anything
    pos = objective._SCRATCH[g]
    assert pos.dtype == np.int64 and pos.shape == (g.n,)


def test_retained_state_is_one_position_scratch():
    """What a solve leaves on its graph is one int64 array of length n; the
    iterates themselves are never copied into n-length buffers."""
    import gc
    import tracemalloc

    p, cfg = ProblemParams(0.2, 1e-4, 3), SolverConfig(eps=1e-8)
    solve(clique_ring(100), p, cfg)  # numpy imports some modules on first use
    g = clique_ring(10**5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve(g, p, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert abs(retained - 8 * g.n) < 4096, retained


@pytest.mark.parametrize("method, passes", [("ista", 1), ("fista", 2)])
def test_kernel_calls_per_iteration(method, passes, monkeypatch):
    """One residual step from zero, then one kernel pass per ISTA iteration
    (the residual step is the next iterate) and two per FISTA iteration."""
    import l1ppr.solver as solver

    calls = []
    step = solver.prox_grad_step
    monkeypatch.setattr(solver, "prox_grad_step", lambda *a: calls.append(1) or step(*a))
    g = clique_ring(100)
    sol = solve(g, ProblemParams(0.2, 1e-4, 3), SolverConfig(method=method, eps=1e-8))
    assert sol.trace.iterations > 5
    assert len(calls) == passes * sol.trace.iterations + 1


def test_concurrent_solves_on_one_graph():
    """Solves overlapping on one graph from several threads give the serial
    results: only one of them at a time holds the graph's workspace."""
    import sys
    import threading

    g = clique_ring(1000)
    jobs = [(ProblemParams(0.2, 1e-4, s), SolverConfig(method=m, eps=1e-8, trace_level="full"))
            for s in range(8) for m in ("fista", "ista")]
    want = [solve(g, p, cfg) for p, cfg in jobs]
    got = [None] * len(jobs)

    def worker(first):
        for i in range(first, len(jobs), 4):
            got[i] = solve(g, *jobs[i])

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, want):
        _same_solution(a, b)


def test_concurrent_solves_and_objective_calls_on_one_graph():
    """Solves and objective evaluations overlapping on one graph from several
    threads share its workspace and give the serial results."""
    import sys
    import threading

    from l1ppr.objective import forward_map

    g = clique_ring(1000)
    cfg = SolverConfig(method="fista", eps=1e-8, trace_level="full")
    probs = [ProblemParams(0.2, 1e-4, s) for s in range(8)]
    sols = [solve(g, p, cfg) for p in probs]
    want = [(objective_value(g, p, sol.x), forward_map(g, p, sol.x)) for p, sol in zip(probs, sols)]
    got = [None] * len(probs)

    def worker(first):
        for i in range(first, len(probs), 4):
            sol = solve(g, probs[i], cfg)
            _same_solution(sol, sols[i])
            got[i] = (objective_value(g, probs[i], sol.x), forward_map(g, probs[i], sol.x))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert got == want
