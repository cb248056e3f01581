import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ppr import objective
from l1ppr.graph import build_from_edges
from l1ppr.objective import ProblemParams, SparseVector, prox_grad_step
from l1ppr.solver import SolverConfig, fista_momentum, solve

from oracle import clique_ring, random_connected_graph
from reference import forward_map, gradient, kkt_residual, objective_value, prox


def _run_step(g, p, x: SparseVector):
    act, vals = x.arrays()
    # with no plan on the graph, the step builds one
    objective._PLANS.pop(g, None)
    out_act, out_vals, residual, plan, z, u, grad, q_seed = prox_grad_step(g, p, vals, act)
    cand = plan.cand
    assert np.all(np.diff(out_act) > 0)
    assert np.all(out_vals != 0.0)
    assert np.all(np.diff(cand) > 0) and cand.shape == z.shape == u.shape == grad.shape
    return (out_act, out_vals, residual, cand, z, SparseVector.from_arrays(cand, u),
            SparseVector.from_arrays(cand, grad), q_seed)


def random_problem(case_seed):
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(4, 40))
    g = random_connected_graph(rng, n)
    p = ProblemParams(
        alpha=float(rng.uniform(0.05, 1.0)),
        rho=float(rng.uniform(1e-3, 0.3)),
        seed=int(rng.integers(0, n)),
        reg_factor=int(rng.integers(1, 3)),
    )
    dense = rng.standard_normal(n) * (rng.random(n) < 0.4)
    return g, p, SparseVector.from_arrays(np.arange(n), dense)


@given(case_seed=st.integers(0, 2**32 - 1))
def test_step_matches_reference_ops_bitwise(case_seed):
    """The fused kernel must equal prox(forward_map(x)) from the dict-based
    reference bit for bit, not merely to rounding, and the frame it returns
    must hold x at its candidates, +0.0 off supp(x), the reference's
    forward_map(x) and gradient(x), and Qx at the seed, from which that
    gradient's value there is the seed term alpha / sqrt(d_v) less."""
    g, p, x = random_problem(case_seed)
    u = forward_map(g, p, x)
    act, vals, residual, cand, z, got_u, got_grad, q_seed = _run_step(g, p, x)
    assert got_grad == gradient(g, p, x)
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    assert q_seed - seed_term == got_grad.get(p.seed)
    got = SparseVector(dict(zip(act.tolist(), vals.tolist())))
    assert got == prox(g, p, u)  # SparseVector equality is exact
    assert residual == kkt_residual(g, p, x)
    assert got_u == u
    assert z.tobytes() == x.values_at(cand).tobytes()  # bytes tell -0.0 from +0.0
    assert np.isin(x.support(), cand).all()


def test_step_from_zero_activates_seed_region():
    g, _ = build_from_edges([(0, 1), (1, 2)])
    p = ProblemParams(0.9, 0.01, 0, 1)
    act, vals, residual = prox_grad_step(g, p, np.zeros(0), np.array([], dtype=np.int64))[:3]
    # u = alpha / sqrt(d_0) at the seed, zero elsewhere
    assert act.tolist() == [0]
    tau0 = p.reg_level * g.sqrt_degrees[0]
    assert vals.tolist() == [p.alpha * g.inv_sqrt_degrees[0] - tau0]
    assert residual == vals[0]


def test_exact_tie_dropped_by_kernel():
    # craft u_i == tau_i exactly at the seed: alpha*isd = tau*... use alpha=1
    g, _ = build_from_edges([(0, 1)])
    # u_0 = alpha*1; tau_0 = reg*1 -> tie when rho = 1/reg_factor... pick c=1, rho=1
    p = ProblemParams(1.0, 1.0, 0, 1)
    act, vals, residual = prox_grad_step(g, p, np.zeros(0), np.array([], dtype=np.int64))[:3]
    assert act.size == 0 and vals.size == 0
    assert residual == 0.0


def _count_rows(monkeypatch):
    """Record each adjacency read of the gather core from now on."""
    calls = []
    rows = objective._rows

    def counted(g, nodes):
        calls.append(nodes.size)
        return rows(g, nodes)

    monkeypatch.setattr(objective, "_rows", counted)
    return calls


@pytest.mark.parametrize("method", ["ista", "fista"])
def test_rows_read_once_per_support_change(method, monkeypatch):
    """A solve's steps read adjacency rows only when their (seed, support)
    differs from the previous step's; a step on the previous support reuses
    its plan."""
    import l1ppr.solver as solver

    keys = []
    step = solver.prox_grad_step

    def recorded(g, p, z_vals, z_act):
        keys.append((p.seed, z_act.tobytes()))
        return step(g, p, z_vals, z_act)

    monkeypatch.setattr(solver, "prox_grad_step", recorded)
    rows = _count_rows(monkeypatch)
    solve(clique_ring(100), ProblemParams(0.2, 1e-4, 3), SolverConfig(method=method, eps=1e-8))
    changes = sum(i == 0 or key != keys[i - 1] for i, key in enumerate(keys))
    assert len(rows) == changes < len(keys) / 2, (len(rows), changes, len(keys))


def test_fista_places_values_only_when_the_support_changes(monkeypatch):
    """FISTA extrapolates on the frames' aligned values while the support
    stands: it places them on a union of candidates only in iterations where
    supp(x_k) differs from supp(x_{k-1})."""
    import l1ppr.solver as solver

    steps, placed = [], []
    step, place = solver.prox_grad_step, solver._place

    def counted_step(g, p, z_vals, z_act):
        steps.append(None)
        return step(g, p, z_vals, z_act)

    def recorded_place(union, cand, z, u):
        placed.append(len(steps) - 1)  # one step from zero, then one per iteration
        return place(union, cand, z, u)

    monkeypatch.setattr(solver, "prox_grad_step", counted_step)
    monkeypatch.setattr(solver, "_place", recorded_place)
    sol = solve(clique_ring(100), ProblemParams(0.2, 1e-4, 3), SolverConfig(eps=1e-8, trace_level="full"))
    supports = [b""] + [x_act.tobytes() for _, _, x_act, _ in sol.trace.snapshots]  # x_0 = 0
    changed = {k for k in range(1, sol.trace.iterations) if supports[k] != supports[k - 1]}
    assert set(placed) <= changed, (sorted(set(placed)), sorted(changed))
    assert len(set(placed)) < sol.trace.iterations / 2, (len(set(placed)), sol.trace.iterations)


@pytest.mark.parametrize("act, prev_act, places", [
    ([1, 4, 7], [1, 4, 7], 0),  # equal
    ([1, 4, 7, 9], [4, 7], 1),  # nested: the newer frame covers the union
    ([4, 7], [1, 4, 7, 9], 1),  # nested: the older frame covers it
    ([0, 2], [1, 3, 5], 2),  # disjoint
    ([0, 2, 5], [2, 3], 2),  # overlapping
    ([0, 1, 2, 3, 4], [0, 1, 2], 1),  # an id span and a shorter one
    ([0, 1, 2], [0, 1, 2, 3, 4], 1),  # the same, the older frame the longer
    ([0, 1, 2, 3, 4, 5], [1, 4, 5], 1),  # a span holding a frame that ends at its top
    ([2, 3], [0, 1, 2, 3, 4, 5], 1),  # a span holding a frame that ends inside it
    ([0, 1, 2, 3], [2, 5, 9], 2),  # a frame reaching past the span: merged
    ([0, 1, 2], [1, 3], 2),  # merged into a union that is an id span
])
def test_extrapolate_places_only_a_side_short_of_the_union(act, prev_act, places, monkeypatch):
    """_extrapolate equals placing both frames' z and u on np.union1d, byte
    for byte, and calls _place only for a frame that lacks some node of the
    union. The frames' candidate arrays are ``act`` and ``prev_act``. It
    merges them with _union only when they differ and neither is an id span
    [0, top] holding the other, which is the union itself."""
    import l1ppr.solver as solver

    rng = np.random.default_rng(len(act) * 10 + len(prev_act))
    cand, prev_cand = np.array(act), np.array(prev_act)
    union = np.union1d(cand, prev_cand)
    beta = fista_momentum(0.2)
    frame, prev_frame, want = [], [], []
    for _ in ("z", "u"):
        vals, prev_vals = rng.standard_normal(cand.size), rng.standard_normal(prev_cand.size)
        a, b = np.zeros(union.size), np.zeros(union.size)
        a[np.searchsorted(union, cand)] = vals
        b[np.searchsorted(union, prev_cand)] = prev_vals
        frame.append(vals)
        prev_frame.append(prev_vals)
        want.append(a + beta * (a - b))
    placed = []
    place = solver._place

    def recorded_place(union, cand, z, u):
        placed.append(cand)
        return place(union, cand, z, u)

    merged = []
    merge = solver._union

    def recorded_union(a, b):
        merged.append(None)
        return merge(a, b)

    monkeypatch.setattr(solver, "_place", recorded_place)
    monkeypatch.setattr(solver, "_union", recorded_union)
    got_cand, got_y, got_u = solver._extrapolate(beta, cand, *frame, prev_cand, *prev_frame)
    assert got_cand.tobytes() == union.tobytes()
    assert got_y.tobytes() == want[0].tobytes()
    assert got_u.tobytes() == want[1].tobytes()
    assert len(placed) == places
    span_holds = any(np.array_equal(a, np.arange(a.size)) and np.isin(b, a).all()
                     for a, b in ((cand, prev_cand), (prev_cand, cand)))
    assert len(merged) == (0 if act == prev_act or span_holds else 1)


def test_step_on_an_unchanged_support_returns_the_plan_array():
    """A step whose support stands returns the read-only support array it was
    given, once that array is the plan's: the next step finds the plan by
    identity."""
    g, p = clique_ring(100), ProblemParams(0.2, 1e-4, 3)
    act, vals = prox_grad_step(g, p, np.zeros(0), np.empty(0, dtype=np.int64))[:2]
    for _ in range(100):
        out_act, out_vals = prox_grad_step(g, p, vals, act)[:2]
        if out_act is act:
            break
        act, vals = out_act, out_vals
    assert out_act is act and not act.flags.writeable
    assert np.array_equal(act, objective._PLANS[g].act)


def test_writable_support_is_not_taken_as_the_plan():
    """The plan keeps its own copy of the support: a step from a caller's
    array that was changed in place since the last step gives the
    reference's step, not the old plan's."""
    g, p = clique_ring(100), ProblemParams(0.2, 1e-4, 3)
    act, vals = np.array([1, 3, 5]), np.array([0.1, -0.2, 0.3])
    prox_grad_step(g, p, vals, act)
    act[2] = 6
    got = prox_grad_step(g, p, vals, act)
    z = SparseVector.from_arrays(act, vals)
    assert SparseVector.from_arrays(*got[:2]) == prox(g, p, forward_map(g, p, z))
    assert got[2] == kkt_residual(g, p, z)
    assert objective._PLANS[g].act is not act


def test_plan_hit_equals_cold_step_and_reference(monkeypatch):
    """A step, and each objective function, at the support of the last call
    but with new values reuses the plan and gives what a step on a graph
    without a plan gives, and the dict-based reference, bit for bit."""
    rows = _count_rows(monkeypatch)
    for case_seed in range(40):
        g, p, x = random_problem(case_seed)
        act, vals = x.arrays()
        prox_grad_step(g, p, vals, act)  # builds the plan
        y = SparseVector.from_arrays(act, np.random.default_rng(case_seed).standard_normal(act.size))
        assert np.array_equal(y.support(), act)
        read = len(rows)
        hit = prox_grad_step(g, p, y.arrays()[1], act)
        assert objective.gradient(g, p, y) == gradient(g, p, y)
        assert objective.forward_map(g, p, y) == forward_map(g, p, y)
        assert objective.objective_value(g, p, y) == objective_value(g, p, y)
        assert len(rows) == read
        del objective._PLANS[g]
        cold = prox_grad_step(g, p, y.arrays()[1], act)
        assert ([a.tobytes() for a in (*hit[:2], hit[3].cand, *hit[4:])]
                == [a.tobytes() for a in (*cold[:2], cold[3].cand, *cold[4:])])
        assert hit[2] == cold[2]
        assert len(rows) == read + 1
        assert SparseVector.from_arrays(*hit[:2]) == prox(g, p, forward_map(g, p, y))
        assert hit[2] == kkt_residual(g, p, y)


def test_plan_misses_on_another_seed_support_or_graph(monkeypatch):
    """The plan is for one graph, one seed and one support: a change of any
    of them reads the rows again and gives the reference's step."""
    rows = _count_rows(monkeypatch)
    g = clique_ring(100)
    p = ProblemParams(0.2, 1e-4, 3)
    act, vals = np.array([1, 3, 5]), np.array([0.1, -0.2, 0.3])
    cases = {
        "another seed": (g, ProblemParams(0.2, 1e-4, 4), act),
        "another support of the same length": (g, p, np.array([1, 3, 6])),
        "a copy of the graph": (dataclasses.replace(g), p, act),
        # None: the plan's own copy of act, which a step finds by identity
        "the plan's own support under another seed": (g, ProblemParams(0.2, 1e-4, 4), None),
    }
    for name, (g2, p2, act2) in cases.items():
        prox_grad_step(g, p, vals, act)
        read = len(rows)
        if act2 is None:
            act2 = objective._PLANS[g].act
            assert prox_grad_step(g, p, vals, act2)[2] == kkt_residual(g, p, SparseVector.from_arrays(act, vals))
            assert len(rows) == read, name
        assert prox_grad_step(g, p, vals, act)[2] == kkt_residual(g, p, SparseVector.from_arrays(act, vals))
        assert len(rows) == read, name
        got = prox_grad_step(g2, p2, vals, act2)
        assert len(rows) == read + 1, name
        z = SparseVector.from_arrays(act2, vals)
        assert SparseVector.from_arrays(*got[:2]) == prox(g2, p2, forward_map(g2, p2, z)), name
        assert got[2] == kkt_residual(g2, p2, z), name
