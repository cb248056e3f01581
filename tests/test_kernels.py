import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from l1ppr.graph import build_from_edges
from l1ppr.kernels import prox_grad_step
from l1ppr.objective import ProblemParams, SparseVector

from oracle import random_connected_graph
from reference import forward_map, prox


def _run_step(g, p, x: SparseVector, eta: float):
    z = np.zeros(g.n)
    act = x.support()
    z[act] = [x.get(int(i)) for i in act]
    out = np.zeros(g.n)
    # the position scratch is written before it is read, so garbage must not matter
    pos = np.random.default_rng(g.n).integers(-2**62, 2**62, g.n)
    out_act = prox_grad_step(g, p, z, act, eta, out, pos)
    vals = out[out_act].copy()
    assert np.all(vals != 0.0)
    # everything off the returned index set must be untouched zeros
    mask = np.ones(g.n, dtype=bool)
    mask[out_act] = False
    assert np.all(out[mask] == 0.0)
    return out_act, vals


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


@given(case_seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([1.0, 0.7]))
def test_step_matches_reference_ops_bitwise(case_seed, eta):
    """The fused kernel must equal prox(forward_map(x)) from the dict-based
    reference bit for bit, not merely to rounding."""
    g, p, x = random_problem(case_seed)
    want = prox(g, p, forward_map(g, p, x, eta), eta)
    act, vals = _run_step(g, p, x, eta)
    got = SparseVector(dict(zip(act.tolist(), vals.tolist())))
    assert got == want  # SparseVector equality is exact


def test_step_from_zero_activates_seed_region():
    g, _ = build_from_edges([(0, 1), (1, 2)])
    p = ProblemParams(0.9, 0.01, 0, 1)
    out = np.zeros(3)
    pos = np.zeros(3, dtype=np.int64)
    act = prox_grad_step(g, p, np.zeros(3), np.array([], dtype=np.int64), 1.0, out, pos)
    # u = eta * alpha / sqrt(d_0) at the seed, zero elsewhere
    assert act.tolist() == [0]
    tau0 = p.reg_level * g.sqrt_degrees[0]
    assert out[0] == p.alpha * g.inv_sqrt_degrees[0] - tau0


def test_exact_tie_dropped_by_kernel():
    # craft u_i == tau_i exactly at the seed: alpha*isd = tau*... use alpha=1
    g, _ = build_from_edges([(0, 1)])
    # u_0 = alpha*1; tau_0 = reg*1 -> tie when rho = 1/reg_factor... pick c=1, rho=1
    p = ProblemParams(1.0, 1.0, 0, 1)
    out = np.zeros(2)
    pos = np.zeros(2, dtype=np.int64)
    act = prox_grad_step(g, p, np.zeros(2), np.array([], dtype=np.int64), 1.0, out, pos)
    assert act.size == 0
    assert np.all(out == 0.0)
