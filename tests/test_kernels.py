import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from l1ppr.graph import build_from_edges
from l1ppr.objective import ProblemParams, SparseVector, prox_grad_step

from oracle import random_connected_graph
from reference import forward_map, kkt_residual, prox


def _run_step(g, p, x: SparseVector):
    act, vals = x.arrays()
    # the position scratch is written before it is read, so garbage must not matter
    pos = np.random.default_rng(g.n).integers(-2**62, 2**62, g.n)
    out_act, out_vals, residual = prox_grad_step(g, p, vals, act, pos)
    assert np.all(np.diff(out_act) > 0)
    assert np.all(out_vals != 0.0)
    return out_act, out_vals, residual


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
    return g, p, SparseVector.from_dense(dense)


@given(case_seed=st.integers(0, 2**32 - 1))
def test_step_matches_reference_ops_bitwise(case_seed):
    """The fused kernel must equal prox(forward_map(x)) from the dict-based
    reference bit for bit, not merely to rounding."""
    g, p, x = random_problem(case_seed)
    want = prox(g, p, forward_map(g, p, x))
    act, vals, residual = _run_step(g, p, x)
    got = SparseVector(dict(zip(act.tolist(), vals.tolist())))
    assert got == want  # SparseVector equality is exact
    assert residual == kkt_residual(g, p, x)


def test_step_from_zero_activates_seed_region():
    g, _ = build_from_edges([(0, 1), (1, 2)])
    p = ProblemParams(0.9, 0.01, 0, 1)
    pos = np.zeros(3, dtype=np.int64)
    act, vals, residual = prox_grad_step(g, p, np.zeros(0), np.array([], dtype=np.int64), pos)
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
    pos = np.zeros(2, dtype=np.int64)
    act, vals, residual = prox_grad_step(g, p, np.zeros(0), np.array([], dtype=np.int64), pos)
    assert act.size == 0 and vals.size == 0
    assert residual == 0.0
