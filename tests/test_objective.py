import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from l1ppr.graph import build_from_edges
from l1ppr.objective import (
    ProblemParams,
    SparseVector,
    forward_map,
    gradient,
    kkt_residual,
    objective_value,
    prox,
)

import reference
from oracle import build_dense, dense_gradient, dense_objective, random_connected_graph


def star(m):
    g, _ = build_from_edges([(0, k) for k in range(1, m + 1)])
    return g


def test_sparse_vector_purges_exact_zeros():
    v = SparseVector({0: 1.0, 1: 0.0, 2: -2.0})
    assert v.support().tolist() == [0, 2]
    assert 1 not in v
    assert v.get(1) == 0.0
    assert v == SparseVector([(2, -2.0), (0, 1.0)])
    assert len(v) == 2


def test_sparse_vector_dense_round_trip():
    arr = np.array([0.0, 1.5, 0.0, -2.0])
    v = SparseVector.from_dense(arr)
    assert v.support().tolist() == [1, 3]
    assert np.array_equal(v.to_dense(4), arr)
    assert v.max_abs_diff(SparseVector()) == 2.0
    assert SparseVector().max_abs_diff(SparseVector()) == 0.0


def _dict_model(pairs):
    """What a SparseVector built from ``pairs`` holds, as a plain dict: a
    later value for a node replaces an earlier one unless it is zero."""
    d = {}
    for k, val in pairs:
        if float(val) != 0.0:
            d[int(k)] = float(val)
    return dict(sorted(d.items()))


_entries = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5]),
                  st.floats(allow_nan=False, allow_infinity=False)),
    ),
    max_size=16,
)


@given(
    pairs=_entries,
    other_pairs=_entries,
    as_mapping=st.booleans(),
    probe=st.lists(st.integers(-2, 14), max_size=6),
    order_seed=st.integers(0, 2**32 - 1),
)
@example(pairs=[], other_pairs=[], as_mapping=False, probe=[0], order_seed=0)
@example(pairs=[(3, 1.0), (1, -0.0), (3, 0.0), (1, 2.0)], other_pairs=[(1, 2.0)],
         as_mapping=False, probe=[1, 2, 3], order_seed=1)
def test_sparse_vector_matches_dict_model(pairs, other_pairs, as_mapping, probe, order_seed):
    """Every public method of SparseVector against a plain dict holding the
    same entries: values and Python types, on vectors built from a mapping,
    from (node, value) pairs with repeated nodes, from unsorted arrays with
    exact zeros, and from a dense array."""
    model = _dict_model(dict(pairs).items() if as_mapping else pairs)
    v = SparseVector(dict(pairs) if as_mapping else pairs)
    keys = list(model)

    assert len(v) == len(model)
    assert repr(v) == f"SparseVector({model!r})"
    items = list(v.items())
    assert items == list(model.items())
    assert all(type(k) is int and type(val) is float for k, val in items)
    nodes, values = v.arrays()
    assert nodes.dtype == np.int64 and values.dtype == np.float64
    assert nodes.tolist() == keys and values.tolist() == list(model.values())
    assert v.support().tolist() == keys
    assert not (nodes.flags.writeable or values.flags.writeable or v.support().flags.writeable)

    for k in probe + keys:
        want = model.get(k, 0.0)
        for got in (v.get(k), v[k]):
            assert got == want and type(got) is float
        assert v.get(k, "absent") == model.get(k, "absent")
        assert (k in v) == (k in model)
    assert v.values_at(np.array(probe, dtype=np.int64)).tolist() == [model.get(k, 0.0) for k in probe]

    n = 15
    dense = np.zeros(n)
    dense[keys] = list(model.values())
    assert np.array_equal(v.to_dense(n), dense)
    assert SparseVector.from_dense(dense) == v

    # from_arrays: the entries in a shuffled order, with exact zeros at other nodes
    rng = np.random.default_rng(order_seed)
    zeros = [k for k in range(n) if k not in model][: int(rng.integers(0, 4))]
    all_nodes = np.array(keys + zeros, dtype=np.int64)
    all_vals = np.array(list(model.values()) + [rng.choice([0.0, -0.0]) for _ in zeros])
    order = rng.permutation(all_nodes.size)
    assert SparseVector.from_arrays(all_nodes[order], all_vals[order]) == v
    assert list(SparseVector.from_arrays(all_nodes[order], all_vals[order]).items()) == items

    other_model = _dict_model(other_pairs)
    w = SparseVector(other_pairs)
    assert (v == w) == (model == other_model)
    assert v == SparseVector(model) and v != model
    diff = v.max_abs_diff(w)
    want = max([0.0] + [abs(model.get(k, 0.0) - other_model.get(k, 0.0))
                        for k in model.keys() | other_model.keys()])
    assert diff == want and type(diff) is float


def test_params_validation():
    ProblemParams(1.0, 0.1, 0, 2)  # alpha = 1 allowed
    for bad in (
        dict(alpha=0.0), dict(alpha=1.5), dict(rho=0.0), dict(rho=-1.0),
        dict(seed=-1), dict(reg_factor=3),
    ):
        kwargs = dict(alpha=0.5, rho=0.1, seed=0, reg_factor=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)


def test_params_derived_quantities():
    p = ProblemParams(0.5, 0.1, 0, 2)
    assert p.hp == 0.75 and p.hm == 0.25
    assert p.reg_level == 2.0 * (0.5 * 0.1)


def test_gradient_at_zero_is_seed_term_only():
    g = star(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    gr = gradient(g, p, SparseVector())
    assert gr.support().tolist() == [0]
    assert gr.get(0) == -p.alpha / math.sqrt(4)


def test_gradient_seed_out_of_range():
    g = star(2)
    with pytest.raises(ValueError, match="out of range"):
        gradient(g, ProblemParams(0.5, 0.1, 9, 1), SparseVector())


def test_gradient_hand_computed_on_edge():
    g, _ = build_from_edges([(0, 1)])
    p = ProblemParams(0.5, 0.1, 0, 1)
    x = SparseVector({0: 1.0, 1: 2.0})
    gr = gradient(g, p, x)
    # d_0 = d_1 = 1: grad_0 = 0.75*1 - 0.25*2 - 0.5, grad_1 = 0.75*2 - 0.25*1
    assert gr.get(0) == pytest.approx(-0.25, abs=1e-15)
    assert gr.get(1) == pytest.approx(1.25, abs=1e-15)


def test_prox_keeps_strict_and_drops_tie():
    g = star(4)  # d_center = 4, d_leaf = 1
    p = ProblemParams(0.5, 0.1, 0, 2)
    t_leaf = p.reg_level  # sqrt(1) = 1
    w = SparseVector({1: t_leaf, 2: t_leaf * 1.5, 3: -t_leaf * 1.5, 4: t_leaf * 0.5})
    out = prox(g, p, w)
    assert out.support().tolist() == [2, 3]  # exact tie at node 1 drops out
    assert out.get(2) == pytest.approx(0.5 * t_leaf, abs=1e-15)
    assert out.get(3) == pytest.approx(-0.5 * t_leaf, abs=1e-15)


def test_objective_zero_is_zero():
    g = star(3)
    p = ProblemParams(0.3, 0.2, 0, 1)
    assert objective_value(g, p, SparseVector()) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_gradient_and_objective_match_dense(case_seed):
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(5, 30))
    g = random_connected_graph(rng, n)
    p = ProblemParams(
        alpha=float(rng.uniform(0.05, 1.0)),
        rho=float(rng.uniform(1e-3, 0.5)),
        seed=int(rng.integers(0, n)),
        reg_factor=int(rng.integers(1, 3)),
    )
    dense_x = rng.standard_normal(n) * rng.integers(0, 2, size=n)
    x = SparseVector.from_dense(dense_x)
    dp = build_dense(g, p, check_spectrum=False)

    gr = gradient(g, p, x).to_dense(n)
    want = dense_gradient(dp, x.to_dense(n))
    assert np.max(np.abs(gr - want)) <= 1e-12

    fx = objective_value(g, p, x)
    assert fx == pytest.approx(dense_objective(dp, x.to_dense(n)), abs=1e-11)


def test_forward_map_is_x_minus_grad():
    g = star(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    x = SparseVector({0: 0.3, 2: -0.1})
    u = forward_map(g, p, x)
    gr = gradient(g, p, x)
    for i in set(x.support().tolist()) | set(gr.support().tolist()):
        assert u.get(i) == pytest.approx(x.get(i) - gr.get(i), abs=1e-16)


def test_kkt_residual_zero_at_closed_form_minimizer():
    # minimizer of the 4-leaf star at alpha=0.5, rho=0.1 is x = 0.2 e_center
    g = star(4)
    p = ProblemParams(0.5, 0.1, 0, 1)
    x = SparseVector({0: 0.2})
    assert kkt_residual(g, p, x) <= 1e-15
    assert kkt_residual(g, p, SparseVector({0: 0.25})) > 1e-3
    # on one edge at alpha = rho = 1, x_0 = 0 and x_0 = 0.5 both step to
    # u_0 = 1, exactly on the seed's threshold, so T(x) = 0
    g, _ = build_from_edges([(0, 1)])
    p = ProblemParams(1.0, 1.0, 0, 1)
    for fn in (kkt_residual, reference.kkt_residual):
        assert fn(g, p, SparseVector()) == 0.0
        assert fn(g, p, SparseVector({0: 0.5})) == 0.5


def _reference_case(case_seed, reg_factor, density, seed_in_support):
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(4, 120))
    g = random_connected_graph(rng, n)
    p = ProblemParams(
        alpha=float(rng.uniform(0.05, 1.0)),
        rho=float(rng.uniform(1e-4, 0.3)),
        seed=int(rng.integers(0, n)),
        reg_factor=reg_factor,
    )
    dense = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n) * (rng.random(n) < density)
    dense[p.seed] = rng.standard_normal() if seed_in_support else 0.0
    return g, p, SparseVector.from_dense(dense)


def _with_ties(g, p, x):
    """x with every third supported node moved exactly onto its soft
    threshold, keeping the sign."""
    vals = dict(x.items())
    for i in sorted(vals)[::3]:
        vals[i] = math.copysign(p.reg_level * float(g.sqrt_degrees[i]), vals[i])
    return SparseVector(vals)


@given(
    case_seed=st.integers(0, 2**32 - 1),
    reg_factor=st.sampled_from([1, 2]),
    density=st.sampled_from([0.0, 0.2, 0.9]),
    seed_in_support=st.booleans(),
)
@example(case_seed=0, reg_factor=1, density=0.0, seed_in_support=False)
def test_objective_functions_match_dict_reference_bitwise(case_seed, reg_factor, density, seed_in_support):
    """gradient, forward_map, objective_value, prox and kkt_residual equal
    the dict-based reference exactly: SparseVector == compares values with
    ==. density 0 without the seed gives the empty vector; prox also runs on
    a copy of x with entries exactly on their thresholds."""
    g, p, x = _reference_case(case_seed, reg_factor, density, seed_in_support)
    tied = _with_ties(g, p, x)
    assert gradient(g, p, x) == reference.gradient(g, p, x)
    assert forward_map(g, p, x) == reference.forward_map(g, p, x)
    for w in (x, tied):
        assert prox(g, p, w) == reference.prox(g, p, w)
    assert kkt_residual(g, p, x) == reference.kkt_residual(g, p, x)
    assert objective_value(g, p, x) == reference.objective_value(g, p, x)


@pytest.mark.parametrize("reg_factor", [1, 2])
def test_objective_functions_at_zero_and_off_seed(reg_factor):
    g = star(5)
    for x in (SparseVector(), SparseVector({2: 0.4, 4: -1e-3})):
        p = ProblemParams(0.3, 0.05, 0, reg_factor)
        assert gradient(g, p, x) == reference.gradient(g, p, x)
        assert forward_map(g, p, x) == reference.forward_map(g, p, x)
        assert objective_value(g, p, x) == reference.objective_value(g, p, x)
    assert objective_value(g, p, SparseVector()) == 0.0


def test_objective_functions_leave_workspace_clean():
    import l1ppr.objective as objective

    g = star(6)
    p = ProblemParams(0.3, 0.05, 0, 1)
    x = SparseVector({0: 0.5, 3: -0.25})
    objective_value(g, p, x)
    with pytest.raises(ValueError, match="out of range"):
        gradient(g, ProblemParams(0.3, 0.05, 99, 1), x)
    forward_map(g, p, x)
    # all the graph keeps is the gather core's position scratch
    pos = objective._SCRATCH[g]
    assert pos.dtype == np.int64 and pos.shape == (g.n,)


def test_objective_allocation_independent_of_n():
    """One objective_value and one forward_map call at the same local point
    on a 10^3- and a 10^5-node ring allocate the same at their peak: they
    work in the graph's workspace and touch only candidate positions."""
    import tracemalloc

    p = ProblemParams(0.2, 1e-4, 3)
    x = SparseVector({i: 1.0 / (i + 1) for i in range(25)})
    peaks = []
    for ring_nodes in (10**3, 10**5):
        iu, ju = np.triu_indices(20, 1)
        ring = np.arange(20, 20 + ring_nodes, dtype=np.int64)
        g, _ = build_from_edges(np.concatenate([
            np.stack([iu, ju], axis=1),
            np.stack([ring, np.roll(ring, -1)], axis=1),
            [[19, 20]],
        ]))
        objective_value(g, p, x)  # creates the workspace
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            objective_value(g, p, x)
            forward_map(g, p, x)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4096, peaks
