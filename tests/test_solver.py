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

from oracle import build_dense, clique_ring, dense_solve, random_connected_graph
from reference import two_gather_fista


def star(m):
    return star_instance(m).graph


def test_config_validation():
    for bad in (
        dict(method="gd"), dict(eps=0.0), dict(max_iter=0), dict(max_iter=2.5),
        dict(max_iter=True), dict(trace_level="verbose"),
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
    assert a.trace.residual == b.trace.residual
    # without momentum y_k is x_k itself, from y_0 = x_0 = 0 (at alpha = 1
    # the first step is exact, so ISTA also runs at alpha = 0.3)
    c = solve(g, ProblemParams(0.3, 0.02, 0, 1), cfg_i)
    assert c.trace.iterations > 1
    for sol in (a, b, c):
        snaps = sol.trace.snapshots
        assert snaps and snaps[0][0].size == 0 and snaps[0][1].size == 0
        for (_, _, x_nodes, x_vals), (y_nodes, y_vals, _, _) in zip(snaps, snaps[1:]):
            assert np.array_equal(y_nodes, x_nodes) and np.array_equal(y_vals, x_vals)


def test_trivial_solution_costs_nothing():
    # star center has degree 4; the solution is identically zero once
    # rho >= 1/(reg_factor * d_seed)
    g = star(4)
    p = ProblemParams(0.5, 0.26, 0, 1)
    for method in ("ista", "fista"):
        sol = solve(g, p, SolverConfig(method=method, eps=1e-10))
        assert len(sol.x) == 0
        assert sol.trace.iterations == 0
        assert sol.trace.total_work == 0
        assert sol.trace.converged
        assert sol.trace.final_residual == kkt_residual(g, p, SparseVector())
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
    assert np.max(np.abs(sol.x.values_at(np.arange(g.n)) - want)) <= 1e-9


def test_work_ledger_replays_from_snapshots():
    g, part = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                   c_bnd=4, deg_b=6, deg_ext=10))
    p = ProblemParams(0.3, 1e-3, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-10, trace_level="full"))
    tr = sol.trace
    total = 0
    for (y_nodes, _, x_nodes, _), vy, vx in zip(tr.snapshots, tr.vol_supp_y, tr.vol_supp_x_next, strict=True):
        vol_y = volume(g, NodeSet(y_nodes))
        vol_x = volume(g, NodeSet(x_nodes))
        assert vy == vol_y and vx == vol_x
        total += vy + vx
    assert total == tr.total_work
    assert isinstance(tr.total_work, int)


def test_summary_trace_has_no_snapshots():
    g = star(3)
    p = ProblemParams(0.5, 0.01, 0, 1)
    sol = solve(g, p, SolverConfig(method="fista", eps=1e-8))
    assert sol.trace.iterations and not sol.trace.snapshots
    full = solve(g, p, SolverConfig(method="fista", eps=1e-8, trace_level="full"))
    assert full.trace.iterations and len(full.trace.snapshots) == full.trace.iterations


def _faulty_step(fault):
    """``prox_grad_step`` whose values and forward map go bad from its third
    call on.

    With ``"inf"`` they are infinite. ISTA's check on x_{k+1}, the step's
    values, catches that; FISTA's check on y_k and u(y_k), which it
    extrapolates from the steps' frames, does. With ``"overflow"`` they are
    +-1.5e308 on alternate calls: every iterate and forward map is finite,
    but FISTA's extrapolation u + beta (u - u_prev) is not (at alpha 0.2 its
    momentum takes 1.5e308 past the largest double), which the same check
    catches. ISTA extrapolates nothing, so it runs on these finite iterates
    to the iteration cap. With ``"point"`` the forward map stays right and
    the point z the step returns at its candidates is +-1.5e308 instead:
    FISTA's y_k overflows while u(y_k) stays finite, so only the check's y
    half catches it, and ISTA, which reads no z, runs to the cap.
    """
    calls = []

    def step(g, p, z_vals, z_act):
        act, vals, r, cand, z, u = prox_grad_step(g, p, z_vals, z_act)
        calls.append(None)
        if len(calls) < 3:
            return act, vals, r, cand, z, u
        bad = np.inf if fault == "inf" else (1.5e308 if len(calls) % 2 else -1.5e308)
        if fault == "point":
            return act, vals, r, cand, np.full(z.size, bad), u
        return act, np.full(vals.size, bad), r, cand, z, np.full(u.size, bad)

    return step


# the iteration at which each fault trips the divergence check; ISTA's
# finite overflow and bad point trip none
DIVERGES_AT = {("fista", "inf"): 2, ("fista", "overflow"): 2, ("fista", "point"): 2, ("ista", "inf"): 2}
FAULT_CAP = 10


def _assert_runs_to_cap(sol):
    assert not sol.trace.converged and sol.trace.iterations == FAULT_CAP


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergence_raises(monkeypatch):
    import l1ppr.solver as solver

    g = star(4)
    p = ProblemParams(0.2, 0.01, 0, 1)
    for (method, fault), k in DIVERGES_AT.items():
        monkeypatch.setattr(solver, "prox_grad_step", _faulty_step(fault))
        with pytest.raises(NumericalDivergenceError, match=f"^numerical divergence at iteration {k}$"):
            solve(g, p, SolverConfig(method=method, eps=1e-10, max_iter=FAULT_CAP))
    for fault in ("overflow", "point"):
        monkeypatch.setattr(solver, "prox_grad_step", _faulty_step(fault))
        _assert_runs_to_cap(solve(g, p, SolverConfig(method="ista", eps=1e-10, max_iter=FAULT_CAP)))


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
    for (_, _, x_nodes, _), spur in zip(sol.trace.snapshots, sol.trace.spurious_vol, strict=True):
        outside = x_nodes[~mask[x_nodes]]
        vol = int(g.degrees[outside].sum())
        assert spur == vol
        want += vol
    assert sol.trace.spurious_total == want
    assert solve(g, p, cfg).trace.spurious_vol is None


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
    for _, _, x_nodes, x_vals in sol.trace.snapshots:
        cur = np.zeros(g.n)
        cur[x_nodes] = x_vals
        assert np.all(cur >= 0.0)
        assert np.all(cur - prev >= 0.0)
        supp = set(x_nodes.tolist())
        assert prev_supp <= supp
        prev, prev_supp = cur, supp


CLIQUE = NodeSet(range(20))


def _same_solution(a, b):
    assert a.x == b.x and a.support == b.support
    ta, tb = a.trace, b.trace
    assert (ta.iterations, ta.total_work, ta.final_residual, ta.converged) == \
        (tb.iterations, tb.total_work, tb.final_residual, tb.converged)
    assert (ta.vol_supp_y, ta.vol_supp_x_next, ta.residual) == (tb.vol_supp_y, tb.vol_supp_x_next, tb.residual)
    assert len(ta.snapshots) == len(tb.snapshots)
    for sa, sb in zip(ta.snapshots, tb.snapshots):
        assert all(np.array_equal(u, v) for u, v in zip(sa, sb))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("method", ["fista", "ista"])
def test_workspace_clean_after_divergence(method, monkeypatch):
    import l1ppr.solver as solver

    g = clique_ring(1000)
    p = ProblemParams(0.2, 1e-4, 3)
    for fault in ("inf", "overflow", "point"):
        monkeypatch.setattr(solver, "prox_grad_step", _faulty_step(fault))
        cfg = SolverConfig(method=method, eps=1e-10, max_iter=FAULT_CAP)
        if (method, fault) in DIVERGES_AT:
            with pytest.raises(NumericalDivergenceError, match=f"iteration {DIVERGES_AT[method, fault]}$"):
                solve(g, p, cfg)
        else:
            _assert_runs_to_cap(solve(g, p, cfg))
    monkeypatch.undo()
    cfg = SolverConfig(method=method, eps=1e-8, trace_level="full")
    _same_solution(solve(g, p, cfg), solve(clique_ring(1000), p, cfg))
    _assert_keeps_one_plan(g)


def _assert_keeps_one_plan(g):
    """All a graph keeps after a solve is the plan of its last support, no
    part of which is as long as the graph has nodes."""
    import l1ppr.objective as objective

    plan = objective._PLANS[g]
    assert type(plan) is objective._Plan
    assert all(a.size < g.n for a in plan if isinstance(a, np.ndarray))


def test_retained_state_is_one_plan():
    """What a solve leaves on its graph is the plan of its last support,
    whose size does not grow with n; the iterates themselves are never
    copied into n-length buffers."""
    import gc
    import tracemalloc

    p, cfg = ProblemParams(0.2, 1e-4, 3), SolverConfig(eps=1e-8)
    solve(clique_ring(100), p, cfg)  # numpy imports some modules on first use

    def retained(n):
        g = clique_ring(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(g, p, cfg)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    small, big = retained(10**3), retained(10**5)
    assert abs(big - small) < 4096, (small, big)


@pytest.mark.parametrize("method", ["ista", "fista"])
def test_kernel_calls_per_iteration(method, monkeypatch):
    """One residual step from zero, then one kernel pass per iteration, the
    residual step from x_{k+1}. ISTA takes that step as its next iterate;
    FISTA takes its forward map, from which it extrapolates u(y_k).

    The edges those passes read, vol(supp z) for each step from z, are
    vol(supp x_{k+1}) summed over the iterations, the ledger's second column;
    the first, vol(supp y_k), is charged but not read."""
    import l1ppr.solver as solver

    calls = []
    step = solver.prox_grad_step

    def counted(g, p, z_vals, z_act):
        calls.append(int(g.degrees[z_act].sum()))
        return step(g, p, z_vals, z_act)

    monkeypatch.setattr(solver, "prox_grad_step", counted)
    g = clique_ring(100)
    sol = solve(g, ProblemParams(0.2, 1e-4, 3), SolverConfig(method=method, eps=1e-8))
    assert sol.trace.iterations > 5
    assert len(calls) == sol.trace.iterations + 1
    assert sum(calls) == sum(sol.trace.vol_supp_x_next)


@pytest.mark.parametrize("method, per_iteration", [("ista", 0), ("fista", 1)])
def test_fista_extrapolates_once_per_iteration(method, per_iteration, monkeypatch):
    """FISTA forms y_k and u(y_k) in one _extrapolate call per iteration;
    ISTA, which takes y_k = x_k, makes none."""
    import l1ppr.solver as solver

    calls = []
    extrapolate = solver._extrapolate

    def counted(*args):
        calls.append(None)
        return extrapolate(*args)

    monkeypatch.setattr(solver, "_extrapolate", counted)
    sol = solve(clique_ring(100), ProblemParams(0.2, 1e-4, 3), SolverConfig(method=method, eps=1e-8))
    assert sol.trace.iterations > 5
    assert len(calls) == per_iteration * sol.trace.iterations


def test_fista_frame_changes_on_id_spans_merge_nothing(monkeypatch):
    """On a ``generate`` graph most plans frame an id span [0, top], and
    FISTA takes the span that holds the other frame as their union: its
    solve merges ids with _union in fewer than half of the iterations its
    frames change in."""
    import l1ppr.solver as solver

    changes, merges = [], []
    extrapolate, merge = solver._extrapolate, solver._union

    def recorded_extrapolate(beta, cand, z, u, prev_cand, prev_z, prev_u):
        changes.append(cand.tobytes() != prev_cand.tobytes())
        return extrapolate(beta, cand, z, u, prev_cand, prev_z, prev_u)

    def recorded_union(a, b):
        merges.append(None)
        return merge(a, b)

    monkeypatch.setattr(solver, "_extrapolate", recorded_extrapolate)
    monkeypatch.setattr(solver, "_union", recorded_union)
    g, part = generate(SynthParams(exterior_size=400, deg_ext=398))
    seed = int(part.boundary.ids[0])
    sol = solve(g, ProblemParams(0.1, 3e-5, seed), SolverConfig(eps=1e-8))
    assert sol.trace.converged
    assert len(merges) < sum(changes) / 2, (len(merges), sum(changes))


# rounding allowance of a FISTA solve against the two-gather loop, as a
# multiple of the scale of the quantities compared
FISTA_ULPS = 8 * 2.0**-52


def test_fista_matches_two_gather_reference():
    """FISTA, which extrapolates u(y_k) from the forward maps of x_k and
    x_{k-1}, follows the loop that steps from y_k itself: the same
    iterations, supports, ledger and spurious columns, with values within a
    few ulps of max|x|. Residuals are differences of the forward map, whose
    rounding is on the scale of its seed term alpha/sqrt(d_v) when that
    exceeds max|x|."""
    rng = np.random.default_rng(17)
    cases = [(random_connected_graph(rng, int(rng.integers(8, 40))), None) for _ in range(6)]
    g, part = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                   c_bnd=4, deg_b=6, deg_ext=10))
    cases += [(g, part.core), (clique_ring(200), CLIQUE)]
    for g, baseline in cases:
        for alpha, rho in ((0.05, 1e-4), (0.2, 1e-3), (0.5, 1e-2)):
            p = ProblemParams(alpha, rho, int(rng.integers(0, g.n)), int(rng.integers(1, 3)))
            sol = solve(g, p, SolverConfig(eps=1e-9, max_iter=5000, trace_level="full"), baseline)
            x, ref = two_gather_fista(g, p, 1e-9, 5000, baseline)
            tr = sol.trace
            assert (tr.iterations, tr.converged, tr.total_work) == (ref.iterations, ref.converged, ref.total_work)
            assert (tr.vol_supp_y, tr.vol_supp_x_next, tr.spurious_vol) == \
                (ref.vol_supp_y, ref.vol_supp_x_next, ref.spurious_vol)
            for got, want in zip(tr.snapshots, ref.snapshots, strict=True):
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
            assert np.array_equal(sol.x.support(), x.support())
            scale = float(np.abs(x.arrays()[1]).max(initial=0.0))
            assert np.abs(sol.x.arrays()[1] - x.arrays()[1]).max(initial=0.0) <= FISTA_ULPS * scale
            scale = max(scale, alpha * float(g.inv_sqrt_degrees[p.seed]))
            assert np.abs(np.subtract(tr.residual, ref.residual)).max(initial=0.0) <= FISTA_ULPS * scale


def test_concurrent_solves_on_one_graph():
    """Solves overlapping on one graph from several threads give the serial
    results, and the graph keeps one plan after them."""
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
    _assert_keeps_one_plan(g)


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
