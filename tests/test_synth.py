import itertools

import numpy as np
import pytest

from l1ppr.objective import ProblemParams
from l1ppr.synth import (
    SynthParams,
    _even_circulant_degree,
    generate,
    path_instance,
    star_instance,
)

from oracle import breakpoint_scan, build_dense, dense_gradient, dense_solve


def test_default_family_structure():
    params = SynthParams()
    g, part = generate(params)
    assert g.n == 1660
    assert g.edge_count == 527_570
    # core: clique plus c_bnd fan-out edges each
    assert np.all(g.degrees[:60] == 59 + 20)
    # boundary: circulant 82, two core edges each, exterior attach 2/1 split
    bdeg = g.degrees[60:660]
    assert np.all(bdeg[:400] == 82 + 2 + 2)
    assert np.all(bdeg[400:] == 82 + 2 + 1)
    # exterior: circulant 998 plus one boundary attachment
    assert np.all(g.degrees[660:] == 999)
    assert part.core.ids.tolist() == list(range(60))
    assert len(part.boundary) == 600 and len(part.exterior) == 1000
    assert part.boundary.ids[0] == 60 and part.exterior.ids[0] == 660


def test_circulant_degree_rounding():
    assert _even_circulant_degree(82, 600) == 82
    assert _even_circulant_degree(83, 600) == 82
    assert _even_circulant_degree(82, 50) == 48   # cap at 49, then even
    assert _even_circulant_degree(5, 6) == 4
    assert _even_circulant_degree(5, 4) == 2
    assert _even_circulant_degree(0, 10) == 0
    assert _even_circulant_degree(7, 1) == 0


def test_small_boundary_gets_capped_circulant():
    params = SynthParams(core_size=1, boundary_size=50, exterior_size=0,
                         c_bnd=1, deg_b=82, deg_ext=0)
    g, _ = generate(params)
    assert g.degrees[0] == 1
    assert g.degrees[1] == 48 + 1      # boundary node 0 carries the fan-out edge
    assert np.all(g.degrees[2:] == 48)


def test_params_validation():
    cases = [
        (dict(core_size=0), "at least 1"),
        (dict(boundary_size=-1), "non-negative"),
        (dict(boundary_size=0, exterior_size=0, c_bnd=2), "non-empty boundary"),
        (dict(boundary_size=20, c_bnd=30), "exceeds boundary_size"),
        (dict(boundary_size=0, c_bnd=0, exterior_size=5), "need a boundary"),
        (dict(exterior_size=10, deg_ext=10), "smaller than exterior_size"),
        (dict(core_density=1.5), "core_density"),
        (dict(core_density=0.0), "core_density"),
        (dict(core_size=10, core_density=0.1), "too low"),
        (dict(boundary_size=2**63 - 1060), "exceeds the int64 node-id bound 9223372036854775807"),
        # a float or bool size, degree or generator seed, named where it is set
        (dict(core_size=2.5), "core_size must be an integer, got 2.5"),
        (dict(deg_b=3.5), "deg_b must be an integer"),
        (dict(boundary_size=10.5), "boundary_size must be an integer"),
        (dict(core_density=0.5, rng_seed=1.5), "rng_seed must be an integer"),
        (dict(c_bnd=True), "c_bnd must be an integer, got True"),
        # a string or a bool density is no real number
        (dict(core_density="0.5"), "core_density must be a real number, got '0.5'"),
        (dict(core_density=True), "core_density must be a real number, got True"),
    ]
    for overrides, match in cases:
        with pytest.raises(ValueError, match=match):
            SynthParams(**overrides)
    # node ids 0 .. 2**63 - 2 still fit (nothing is generated here)
    assert SynthParams(boundary_size=2**63 - 1061).total_nodes == 2**63 - 1


def test_one_node_sparse_core_is_the_clique():
    """A one-node core has no edge to keep, so its random spanning tree is
    empty and any density builds the clique's graph."""
    one = dict(core_size=1, boundary_size=10, exterior_size=0, c_bnd=2, deg_b=4)
    g_sparse, _ = generate(SynthParams(**one, core_density=0.5))
    g_clique, _ = generate(SynthParams(**one, core_density=1.0))
    assert g_sparse.equals(g_clique)


def test_isolated_nodes_rejected():
    with pytest.raises(ValueError, match="isolated"):
        generate(SynthParams(core_size=2, boundary_size=3, exterior_size=0,
                             c_bnd=0, deg_b=0, deg_ext=0))


def _core_subgraph_connected(g, core_size):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors[g.row_offsets[u]:g.row_offsets[u + 1]].tolist():
            if v < core_size and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == core_size


def test_sparse_core_connected_and_deterministic():
    params = SynthParams(core_size=12, boundary_size=8, exterior_size=0,
                         c_bnd=2, deg_b=4, deg_ext=0, core_density=0.4, rng_seed=3)
    g1, _ = generate(params)
    g2, _ = generate(params)
    assert g1.equals(g2)
    n_core_edges = int((g1.edge_array()[:, 1] < 12).sum())
    assert n_core_edges == round(0.4 * 12 * 11 / 2)
    assert _core_subgraph_connected(g1, 12)
    g3, _ = generate(SynthParams(core_size=12, boundary_size=8, exterior_size=0,
                                 c_bnd=2, deg_b=4, deg_ext=0, core_density=0.4,
                                 rng_seed=4))
    assert not g1.equals(g3)


def test_analytic_instance_shapes():
    st = star_instance(5)
    assert st.graph.n == 6
    assert st.graph.degrees.tolist() == [5, 1, 1, 1, 1, 1]
    pa = path_instance(3)
    assert pa.graph.n == 5
    assert pa.graph.degrees.tolist() == [1, 2, 2, 2, 1]
    with pytest.raises(ValueError, match="at least one leaf"):
        star_instance(0)
    with pytest.raises(ValueError, match="two interior"):
        path_instance(1)
    # a count that is no integer builds a graph the closed forms do not
    # describe: m = 2.5 would build a 3-leaf star
    for make, m in itertools.product((star_instance, path_instance), (2.5, True)):
        with pytest.raises(ValueError, match=f"integer count .*got m={m}"):
            make(m)


def test_validity_interval_enforced():
    inst = star_instance(4)
    lo, hi = inst.valid_interval(0.5)
    assert lo == pytest.approx(0.0625) and hi == 0.25
    inst.solution_formula(0.5, 0.0625)  # left endpoint included
    for bad in (0.06, 0.25, -0.1):
        with pytest.raises(ValueError, match="outside validity interval"):
            inst.solution_formula(0.5, bad)
    with pytest.raises(ValueError, match="alpha"):
        inst.rho_breakpoint(0.0)
    # teleportation 1 degenerates the breakpoint to zero
    assert star_instance(3).rho_breakpoint(1.0) == 0.0


@pytest.mark.parametrize("family,m", [("star", 1), ("star", 4), ("path", 2), ("path", 5)])
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_formulas_match_dense_oracle(family, m, alpha):
    inst = star_instance(m) if family == "star" else path_instance(m)
    lo, hi = inst.valid_interval(alpha)
    rho = lo + 0.4 * (hi - lo)
    p = ProblemParams(alpha, rho, inst.seed, 1)
    dp = build_dense(inst.graph, p)
    x = dense_solve(dp)
    want = inst.solution_formula(alpha, rho)
    assert np.flatnonzero(x).tolist() == [inst.seed]
    assert abs(x[inst.seed] - want.get(inst.seed)) <= 1e-10
    grad = dense_gradient(dp, x)
    isd = inst.graph.inv_sqrt_degrees
    for i, gamma in inst.slack_formula(alpha, rho).items():
        measured = p.reg_level - abs(grad[i]) * isd[i]
        assert abs(measured - gamma) <= 1e-10


def test_path_far_slack_is_exact_product():
    inst = path_instance(4)
    slack = inst.slack_formula(0.5, 0.2)
    assert slack[1] == pytest.approx(1.0 / 30.0, abs=1e-15)
    for i in range(2, 6):
        assert slack[i] == 0.5 * 0.2  # exact float product, no rounding slop


def test_breakpoint_matches_dense_scan():
    st = star_instance(4)
    rho0 = st.rho_breakpoint(0.5)
    grid = [rho0 - 2e-3, rho0 - 1e-3, rho0 + 5e-4, rho0 + 1e-3]
    found = breakpoint_scan(st.graph, 0, 0.5, grid, [0])
    assert found == pytest.approx(rho0 + 5e-4)
    pa = path_instance(2)
    rho0p = pa.rho_breakpoint(0.5)
    assert rho0p == pytest.approx(1.0 / 7.0)
    grid = [rho0p - 2e-3, rho0p + 5e-4]
    assert breakpoint_scan(pa.graph, 0, 0.5, grid, [0]) == pytest.approx(rho0p + 5e-4)
