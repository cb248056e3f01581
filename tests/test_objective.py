import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l1ppr.graph import build_from_edges
from l1ppr.objective import (
    REG_FACTORS,
    ProblemParams,
    SparseVector,
    _soft_threshold,
    forward_map,
    gradient,
    kkt_residual,
    objective_value,
    prox,
)
from l1ppr.synth import star_instance

import reference
from oracle import build_dense, dense_gradient, dense_objective, random_connected_graph


def test_sparse_vector_purges_exact_zeros():
    v = SparseVector({0: 1.0, 1: 0.0, 2: -2.0})
    assert v.support().tolist() == [0, 2]
    assert 1 not in v
    assert v.get(1) == 0.0
    assert v == SparseVector.from_arrays([2, 0], [-2.0, 1.0])
    assert len(v) == 2
    assert len(SparseVector.from_arrays([], [])) == 0


def test_sparse_vector_dense_round_trip():
    arr = np.array([0.0, 1.5, 0.0, -2.0])
    v = SparseVector.from_arrays(np.arange(4), arr)
    assert v.support().tolist() == [1, 3]
    assert np.array_equal(v.values_at(np.arange(4)), arr)
    assert v.max_abs_diff(SparseVector()) == 2.0
    assert SparseVector().max_abs_diff(SparseVector()) == 0.0


def _dict_model(mapping):
    """What ``SparseVector(mapping)`` holds, as a plain dict: the nonzero
    entries in ascending node order."""
    return {k: float(val) for k, val in sorted(mapping.items()) if float(val) != 0.0}


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
    probe=st.lists(st.integers(-2, 14), max_size=6),
    order_seed=st.integers(0, 2**32 - 1),
)
@example(pairs=[], other_pairs=[], probe=[0], order_seed=0)
@example(pairs=[(3, 1.0), (1, -0.0), (3, 0.0), (1, 2.0)], other_pairs=[(1, 2.0)],
         probe=[1, 2, 3], order_seed=1)
def test_sparse_vector_matches_dict_model(pairs, other_pairs, probe, order_seed):
    """Every public method of SparseVector against a plain dict holding the
    same entries: values and Python types, on vectors built from a mapping
    and from unsorted arrays with exact zeros."""
    model = _dict_model(dict(pairs))
    v = SparseVector(dict(pairs))
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

    # from_arrays: the entries in a shuffled order, with exact zeros at other nodes
    rng = np.random.default_rng(order_seed)
    zeros = [k for k in range(15) if k not in model][: int(rng.integers(0, 4))]
    all_nodes = np.array(keys + zeros, dtype=np.int64)
    all_vals = np.array(list(model.values()) + [rng.choice([0.0, -0.0]) for _ in zeros])
    order = rng.permutation(all_nodes.size)
    assert SparseVector.from_arrays(all_nodes[order], all_vals[order]) == v
    assert list(SparseVector.from_arrays(all_nodes[order], all_vals[order]).items()) == items

    other_model = _dict_model(dict(other_pairs))
    w = SparseVector(dict(other_pairs))
    assert (v == w) == (model == other_model)
    assert v == SparseVector(model) and v != model
    diff = v.max_abs_diff(w)
    want = max([0.0] + [abs(model.get(k, 0.0) - other_model.get(k, 0.0))
                        for k in model.keys() | other_model.keys()])
    assert diff == want and type(diff) is float


@pytest.mark.parametrize("nodes, values, match", [
    (np.array([0.5, 2.0]), [1.0, 2.0], "integers"),
    ([True, False], [1.0, 2.0], "integers"),
    ({0.5: 1.0, 1: 2.0}, None, "integers"),
    ({True: 2.0}, None, "integers"),
    ({np.float64(3.7): 1.0}, None, "integers"),
    ({2**64: 1.0}, None, "integers"),
    ({-2: 0.3}, None, "non-negative"),
    ({2**63: 1.0}, None, "non-negative"),
    ([4, -1], [1.0, 2.0], "non-negative"),
    ([1, 2], [1.0], "one value each"),
    ([[1, 2]], [[1.0, 2.0]], "one-dimensional"),
    ([3, 1, 3], [1.0, 2.0, 5.0], "duplicate node 3"),
    ([3, 3], [0.0, 1.0], "duplicate node 3"),
], ids=["float", "bool", "float-key", "bool-key", "np-float-key", "key-past-uint64",
        "negative-key", "key-past-int64", "negative", "short-values", "2d", "duplicate",
        "duplicate-zero"])
def test_sparse_vector_rejects_bad_nodes(nodes, values, match):
    """Both constructors reject what is not a distinct, non-negative int64
    node with one value; a dict stands for ``SparseVector(mapping)``."""
    with pytest.raises(ValueError, match=match):
        SparseVector(nodes) if values is None else SparseVector.from_arrays(nodes, values)


def test_params_validation():
    ProblemParams(1.0, 0.1, np.int64(0), 2)  # alpha = 1 allowed
    for bad in (
        dict(alpha=0.0), dict(alpha=1.5), dict(rho=0.0), dict(rho=-1.0),
        dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(reg_factor=3),
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
    g = star_instance(4).graph
    p = ProblemParams(0.5, 0.1, 0, 1)
    gr = gradient(g, p, SparseVector())
    assert gr.support().tolist() == [0]
    assert gr.get(0) == -p.alpha / math.sqrt(4)


def test_gradient_seed_out_of_range():
    g = star_instance(2).graph
    with pytest.raises(ValueError, match="out of range"):
        gradient(g, ProblemParams(0.5, 0.1, 9, 1), SparseVector())
    # so is a support node at or past n, for every function that reads rows
    p = ProblemParams(0.5, 0.1, 0, 1)
    for fn in (gradient, objective_value, kkt_residual, forward_map, prox):
        for node in (g.n, 9):
            with pytest.raises(ValueError, match=f"node {node} out of range for graph with n=3"):
                fn(g, p, SparseVector({1: 0.5, node: 1.0}))


def test_gradient_hand_computed_on_edge():
    g, _ = build_from_edges([(0, 1)])
    p = ProblemParams(0.5, 0.1, 0, 1)
    x = SparseVector({0: 1.0, 1: 2.0})
    gr = gradient(g, p, x)
    # d_0 = d_1 = 1: grad_0 = 0.75*1 - 0.25*2 - 0.5, grad_1 = 0.75*2 - 0.25*1
    assert gr.get(0) == pytest.approx(-0.25, abs=1e-15)
    assert gr.get(1) == pytest.approx(1.25, abs=1e-15)


def test_prox_keeps_strict_and_drops_tie():
    g = star_instance(4).graph  # d_center = 4, d_leaf = 1
    p = ProblemParams(0.5, 0.1, 0, 2)
    t_leaf = p.reg_level  # sqrt(1) = 1
    w = SparseVector({1: t_leaf, 2: t_leaf * 1.5, 3: -t_leaf * 1.5, 4: t_leaf * 0.5})
    out = prox(g, p, w)
    assert out.support().tolist() == [2, 3]  # exact tie at node 1 drops out
    assert out.get(2) == pytest.approx(0.5 * t_leaf, abs=1e-15)
    assert out.get(3) == pytest.approx(-0.5 * t_leaf, abs=1e-15)


_SUBNORMAL = st.floats(5e-324, 2.2e-308)
# sqrt(d) is at least 1 on a graph; 0 and subnormals give zero and subnormal
# thresholds, as does a subnormal rho
_SQRT_DEG = st.just(0.0) | _SUBNORMAL | st.floats(1.0, 1e3)
_U = st.floats() | _SUBNORMAL | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -5e-324])


@given(
    alpha=st.floats(5e-324, 1.0),
    rho=_SUBNORMAL | st.floats(1e-12, 1.0),
    reg_factor=st.sampled_from(REG_FACTORS),
    entries=st.lists(st.tuples(_SQRT_DEG, st.sampled_from(["value", "tie", "-tie"]), _U), max_size=12),
)
@example(alpha=0.5, rho=5e-324, reg_factor=1,  # the threshold rounds to 0
         entries=[(1.0, "tie", 0.0), (1.0, "value", 5e-324), (4.0, "value", -0.0), (1.0, "value", math.nan)])
@example(alpha=1.0, rho=5e-324, reg_factor=2,  # a subnormal threshold
         entries=[(1.0, "tie", 0.0), (1.0, "-tie", 0.0), (1.0, "value", 1.5e-323), (1.0, "value", -math.inf)])
def test_soft_threshold_is_the_scalar_rule(alpha, rho, reg_factor, entries):
    """The mask and the kept values of the vectorised threshold equal the
    scalar rule of ``reference.prox`` bit for bit, on ties |u| == t, signed
    zeros, infinities, nan and subnormal values, with zero and subnormal
    thresholds; every dropped entry of the frame is a zero."""
    p = ProblemParams(alpha, rho, 0, reg_factor)
    tau = p.reg_level
    sqrt_deg = [sd for sd, _, _ in entries]
    u = [{"value": v, "tie": tau * sd, "-tie": -(tau * sd)}[kind] for sd, kind, v in entries]
    keep, frame = _soft_threshold(p, np.array(sqrt_deg), np.array(u))
    assert keep.dtype == bool and frame.dtype == np.float64 and frame.shape == keep.shape == (len(u),)
    for i, (sd, ui) in enumerate(zip(sqrt_deg, u)):
        want = reference.shrink(tau, sd, ui)
        assert bool(keep[i]) == (want is not None), (i, sd, ui)
        if want is None:
            assert frame[i] == 0.0, (i, sd, ui)
        else:
            assert frame[i].tobytes() == np.float64(want).tobytes(), (i, sd, ui)


def test_objective_zero_is_zero():
    g = star_instance(3).graph
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
    x = SparseVector.from_arrays(np.arange(n), dense_x)
    dp = build_dense(g, p, check_spectrum=False)

    gr = gradient(g, p, x).values_at(np.arange(n))
    want = dense_gradient(dp, dense_x)
    assert np.max(np.abs(gr - want)) <= 1e-12

    fx = objective_value(g, p, x)
    assert fx == pytest.approx(dense_objective(dp, dense_x), abs=1e-11)


def test_forward_map_is_x_minus_grad():
    g = star_instance(4).graph
    p = ProblemParams(0.5, 0.1, 0, 1)
    x = SparseVector({0: 0.3, 2: -0.1})
    u = forward_map(g, p, x)
    gr = gradient(g, p, x)
    for i in set(x.support().tolist()) | set(gr.support().tolist()):
        assert u.get(i) == pytest.approx(x.get(i) - gr.get(i), abs=1e-16)


def test_kkt_residual_zero_at_closed_form_minimizer():
    # minimizer of the 4-leaf star at alpha=0.5, rho=0.1 is x = 0.2 e_center
    g = star_instance(4).graph
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
    return g, p, SparseVector.from_arrays(np.arange(n), dense)


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
    g = star_instance(5).graph
    for x in (SparseVector(), SparseVector({2: 0.4, 4: -1e-3})):
        p = ProblemParams(0.3, 0.05, 0, reg_factor)
        assert gradient(g, p, x) == reference.gradient(g, p, x)
        assert forward_map(g, p, x) == reference.forward_map(g, p, x)
        assert objective_value(g, p, x) == reference.objective_value(g, p, x)
    assert objective_value(g, p, SparseVector()) == 0.0


def test_objective_functions_leave_workspace_clean():
    import l1ppr.objective as objective

    g = star_instance(6).graph
    p = ProblemParams(0.3, 0.05, 0, 1)
    x = SparseVector({0: 0.5, 3: -0.25})
    objective_value(g, p, x)
    with pytest.raises(ValueError, match="out of range"):
        gradient(g, ProblemParams(0.3, 0.05, 99, 1), x)
    forward_map(g, p, x)
    # all the graph keeps is one plan; the rows of {0, 3} read 7 entries,
    # more than the top id 6, so its build bins by id over the frame 0..6
    plan = objective._PLANS[g]
    assert type(plan) is objective._Plan
    assert plan.cand.tolist() == list(range(g.n)) and plan.bins.tolist() == [1, 2, 3, 4, 5, 6, 0]
    # the zero point reads no row: its plan has the seed as its one
    # candidate and its one bin
    gradient(g, p, SparseVector())
    plan = objective._PLANS[g]
    assert plan.cand.tolist() == [0] and plan.bins.size == 0
    # the row of {6} reads 1 entry, not more than the top id 6, so its build
    # bins by position among the candidates 0 and 6
    gradient(g, p, SparseVector({6: 0.5}))
    plan = objective._PLANS[g]
    assert plan.cand.tolist() == [0, 6] and plan.bins.tolist() == [0]
    assert plan.act_pos.tolist() == [1] and plan.at_seed == 0


def _padded_below(g):
    """``g`` with every id raised by ``shift``, one more than its row entries,
    and a path over ids 0..shift-1 that no solve on ``g``'s part reaches. The
    shift keeps the order of ``g``'s ids, so a result there is ``g``'s bit
    for bit, but every candidate id of a build is at least the number of row
    entries the build reads."""
    shift = g.neighbors.size + 1
    path = np.stack((np.arange(shift - 1), np.arange(1, shift)), axis=1)
    big, remap = build_from_edges(np.concatenate((g.edge_array() + shift, path)))
    assert np.array_equal(remap, np.arange(big.n))
    return big, shift


def _binned(g, p):
    """How the plan on ``g`` bins, "id" or "position", as the rule gives it
    from the plan's rows and checked against its bins."""
    import l1ppr.objective as objective
    from l1ppr.graph import _rows

    plan = objective._PLANS[g]
    nbrs, _ = _rows(g, plan.act)
    top = max(p.seed, int(plan.act.max(initial=0)), int(nbrs.max(initial=0)))
    if top < nbrs.size:
        assert np.array_equal(plan.cand, np.arange(top + 1)) and np.array_equal(plan.bins, nbrs)
        return "id"
    assert np.array_equal(plan.bins, np.searchsorted(plan.cand, nbrs))
    return "position"


def _same_bits_both_ways(g, big, shift, p, act, vals):
    """One step from ``vals`` at ``act`` on ``g`` and on its padded copy
    ``big``, with the objective functions at that point: every output is
    the same bit for bit, up to the shift of the ids. Returns the step on
    ``g`` and how each side binned."""
    from l1ppr.objective import prox_grad_step

    pb = ProblemParams(p.alpha, p.rho, p.seed + shift, p.reg_factor)
    x, xb = SparseVector.from_arrays(act, vals), SparseVector.from_arrays(act + shift, vals)
    small = prox_grad_step(g, p, vals, act)
    small_path = _binned(g, p)
    padded = prox_grad_step(big, pb, vals, act + shift)
    paths = small_path, _binned(big, pb)
    assert np.array_equal(small[0] + shift, padded[0])  # the support
    assert small[1].tobytes() == padded[1].tobytes()  # the values on it
    assert small[2].hex() == padded[2].hex()
    # the padded side's frame is on the candidates alone; an id-binned
    # frame spans [0, top] and holds +0.0 in z and u at every other id
    cand = padded[3] - shift
    at = np.searchsorted(small[3], cand)
    assert np.array_equal(small[3][at], cand)
    assert paths[0] == "id" or small[3].size == cand.size
    off = np.ones(small[3].size, dtype=bool)
    off[at] = False
    for i in (4, 5):  # z and u
        assert small[i][at].tobytes() == padded[i].tobytes()
        assert small[i][off].tobytes() == bytes(8 * int(off.sum()))
    assert objective_value(g, p, x).hex() == objective_value(big, pb, xb).hex()
    for f in (gradient, forward_map):
        a, b = f(g, p, x).arrays(), f(big, pb, xb).arrays()
        assert np.array_equal(a[0] + shift, b[0]) and a[1].tobytes() == b[1].tobytes()
    return small, paths


def test_binning_by_id_and_by_position_give_the_same_bits():
    """A build bins by node id when the largest candidate id is below the
    number of row entries it reads, and by position among the candidates
    otherwise; both give the same bits. On the padded copy every build bins
    by position."""
    from l1ppr.synth import SynthParams, generate

    g, _ = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                c_bnd=4, deg_b=6, deg_ext=10))
    big, shift = _padded_below(g)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
    seen = []
    # the empty support reads no row, so it bins by position on both sides
    for seed in (0, g.n - 1):
        _, paths = _same_bits_both_ways(g, big, shift, ProblemParams(0.1, 1e-3, seed), *empty)
        assert paths == ("position", "position")
    # ISTA from zero, whose supports grow until the rows they read outnumber
    # the ids they reach
    p = ProblemParams(0.05, 1e-4, 3)
    act, vals = empty
    for _ in range(12):
        (act, vals, *_), paths = _same_bits_both_ways(g, big, shift, p, act, vals)
        seen.append(paths)
    rng = np.random.default_rng(5)
    for size in (1, 2, 5, 20, g.n):
        act = np.sort(rng.choice(g.n, size, replace=False))
        _, paths = _same_bits_both_ways(g, big, shift, p, act, rng.standard_normal(size))
        seen.append(paths)
    # a support whose rows miss the seed, which then joins the candidates
    # on its own
    near = g.neighbors[g.row_offsets[p.seed]:g.row_offsets[p.seed + 1]]
    act = np.sort(rng.choice(np.setdiff1d(np.arange(g.n), np.append(near, p.seed)), 20, replace=False))
    _, paths = _same_bits_both_ways(g, big, shift, p, act, rng.standard_normal(act.size))
    assert paths == ("id", "position")
    assert {small for small, _ in seen} == {"id", "position"}
    assert {padded for _, padded in seen} == {"position"}


@settings(max_examples=60)
@given(case_seed=st.integers(0, 2**32 - 1))
def test_id_binned_plans_frame_the_id_span(case_seed):
    """Every id-binned plan frames the whole id span [0, top], which is no
    longer than the row entries its build read, holds sqrt(d) at each id of
    it, and leaves the caller's support array writable."""
    import l1ppr.objective as objective
    from l1ppr.graph import _rows
    from l1ppr.objective import prox_grad_step

    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(2, 60))
    g = random_connected_graph(rng, n)
    p = ProblemParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(1e-4, 0.1)), int(rng.integers(0, n)))
    act = np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
    vals = rng.standard_normal(act.size)
    for _ in range(4):  # the drawn support, then the steps' own
        out_act, vals = prox_grad_step(g, p, vals, act)[:2]
        assert act.flags.writeable
        if _binned(g, p) == "id":
            plan = objective._PLANS[g]
            assert plan.cand.size <= _rows(g, act)[0].size
            assert plan.sqrt_cand.tobytes() == g.sqrt_degrees[plan.cand].tobytes()
        act = out_act.copy()  # a caller's array, not the plan's read-only one


def test_binning_switches_where_the_top_id_reaches_the_entries_read():
    """On a star of m leaves the center's row reads the m ids 1..m, so the
    support {0} has its top id m equal to the entries read and bins by
    position; {0, 1} reads one entry more, so its top id is the entries read
    minus one, and bins by id."""
    m = 6
    g = star_instance(m).graph
    big, shift = _padded_below(g)
    p = ProblemParams(0.3, 0.05, 2)
    for act, want in (([0], "position"), ([0, 1], "id")):
        act = np.array(act, dtype=np.int64)
        _, paths = _same_bits_both_ways(g, big, shift, p, act, np.linspace(0.5, 0.2, act.size))
        assert paths == (want, "position")
    # a support node above every id its rows reach sets the top itself: with
    # a leaf m + 1 hung on leaf 1, {0, m + 1} reads m + 1 entries up to id m
    g, _ = build_from_edges([(0, k) for k in range(1, m + 1)] + [(1, m + 1)])
    big, shift = _padded_below(g)
    act = np.array([0, m + 1], dtype=np.int64)
    _, paths = _same_bits_both_ways(g, big, shift, p, act, np.array([0.5, -0.25]))
    assert paths == ("position", "position")
