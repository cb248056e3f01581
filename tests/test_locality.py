"""Locality: a solve and its audits cost the volume of the iterates, not n.

One local problem, seed 3 of a 20-clique joined by one edge to a cycle, sits
in a graph of 10^3 nodes and in one of 10^6. Two layouts number the cycle:

* relabeled: ids grow with the distance from the clique, so the local
  problem has the same node ids at both sizes, and results and work must be
  equal on the two;
* sequential (``oracle.clique_ring``): the clique's far cycle neighbor
  is node n + 19, so an allocation sized by the largest id a call touches
  grows with n. Ids differ between the sizes here, so only iterations,
  ledgers and memory are compared, and the audits that take a set get the
  solution's support, which reaches that far node, instead of the clique.

On both, the memory a warm call allocates, as traced by ``tracemalloc``,
must be equal at the two sizes up to a slack: one n-length float buffer at
10^6 nodes is 8 MB, far past it. A graph's first solve at 10^6 nodes must
allocate as much as a warm one up to a slack, so no step allocates an
n-length array even once.

A random graph padded with a component its solves cannot reach, at ids
interleaved with its own in an order-preserving way, must solve bit for bit
as the graph alone: the gather core adds in a fixed order of node ids, so
neither the extra nodes nor the shifted ids may change a result. Every audit
in ``AUDITS`` must then give the same result too, with its node ids mapped,
and its warm peak must not grow with the padding, which spreads the graph's
ids. A random relabeling, which does not keep the order, changes the
accumulation order and with it the low bits; on fixed seeds it must keep the
supports, iterations and ledger, with values within a few ulps.

Not covered here: ``build_from_edges``, which is O(n) by design, and
``SlackReport.far_count``, the number of nodes far from the support, which
grows with the padding by design (the audits compare ``slacks`` by its
``gamma``).
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ppr import (
    NodeSet,
    ProblemParams,
    SolverConfig,
    build_from_edges,
    check_no_percolation,
    forward_map,
    gradient,
    jump_audit,
    kkt_residual,
    objective_value,
    slacks,
    solve,
    verify_confinement,
    vertex_boundary,
)
from oracle import clique_ring, traced

SIZES = (10**3, 10**6)
CLIQUE = NodeSet(range(20))
P = ProblemParams(alpha=0.05, rho=1e-4, seed=3)
EPS = 1e-8
FULL = SolverConfig(method="fista", eps=EPS, trace_level="full")
# bytes by which the traced peak of a warm call may differ between the sizes
PEAK_SLACK = 4096
# bytes by which a graph's first solve may allocate more than a warm solve:
# numpy's and the solver's one-time costs
FIRST_SLACK = 64 * 1024


def _clique_on_cycle(n: int):
    """The clique's last node joined to node k of an n-cycle whose ids grow
    with the distance from k (k, k+1, k+3, ..., k+4, k+2), so the nodes near
    the clique have the same ids at every n."""
    k = len(CLIQUE)
    iu, ju = np.triu_indices(k, 1)
    rest = np.arange(k + 1, k + n, dtype=np.int64)
    cycle = np.concatenate(([k], rest[0::2], rest[1::2][::-1]))
    edges = np.concatenate((
        np.stack((iu, ju), axis=1).astype(np.int64),
        np.stack((cycle, np.roll(cycle, -1)), axis=1),
        [[k - 1, k]],
    ))
    return build_from_edges(edges)[0]


LAYOUTS = {"relabeled": _clique_on_cycle, "sequential": clique_ring}


@pytest.fixture(scope="module")
def graphs():
    built = {name: [build(n) for n in SIZES] for name, build in LAYOUTS.items()}
    # the process's first solves of each kind fill numpy's caches by a few kB
    for g in built["sequential"]:
        for method, level in itertools.product(("ista", "fista"), ("summary", "full")):
            solve(g, P, SolverConfig(method=method, eps=EPS, trace_level=level))
    return built


@pytest.fixture(scope="module")
def solutions(graphs):
    return {name: [solve(g, P, FULL) for g in gs] for name, gs in graphs.items()}


def _warm_peaks(graphs, call):
    """``call(i, g)`` once to warm up, then traced, on each graph: the least
    peak of three traced calls, and the last result. A call can refill
    numpy's internal buffer caches, which counts up to a few kB; an
    allocation the call itself makes counts in every one of the three."""
    runs = []
    for i, g in enumerate(graphs):
        call(i, g)
        peaks = [traced(lambda: call(i, g)) for _ in range(3)]
        runs.append((min(peak for peak, _, _ in peaks), peaks[-1][2]))
    return runs


@pytest.mark.parametrize("level", ["summary", "full"])
@pytest.mark.parametrize("method", ["ista", "fista"])
def test_solve_is_independent_of_n(graphs, method, level):
    cfg = SolverConfig(method=method, eps=EPS, trace_level=level)
    for name, gs in graphs.items():
        (small_peak, small), (big_peak, big) = _warm_peaks(gs, lambda i, g: solve(g, P, cfg))
        assert small.trace.converged
        if name == "relabeled":
            assert [a.tobytes() for a in big.x.arrays()] == [a.tobytes() for a in small.x.arrays()]
        assert big.trace.iterations == small.trace.iterations
        assert big.trace.total_work == small.trace.total_work
        assert abs(big_peak - small_peak) < PEAK_SLACK, name


def test_first_solve_allocates_no_more_than_a_warm_solve(graphs):
    g = graphs["relabeled"][-1]
    cfg = SolverConfig(method="fista", eps=EPS)
    solve(g, P, cfg)  # one-time costs of the process's first solves
    fresh = dataclasses.replace(g)  # the same arrays, but no plan yet
    first, _, _ = traced(lambda: solve(fresh, P, cfg))
    warm, _, _ = traced(lambda: solve(fresh, P, cfg))
    assert abs(first - warm) <= FIRST_SLACK


# name -> (call on a graph, its problem, a solution and a node set;
#          the call's result with each node id in it passed through f)
AUDITS = {
    "kkt_residual": (lambda g, p, sol, s: kkt_residual(g, p, sol.x), lambda r, f: r),
    "objective_value": (lambda g, p, sol, s: objective_value(g, p, sol.x), lambda r, f: r),
    "forward_map": (
        lambda g, p, sol, s: forward_map(g, p, sol.x),
        lambda r, f: (f(r.support()).tolist(), r.arrays()[1].tobytes()),
    ),
    "gradient": (
        lambda g, p, sol, s: list(gradient(g, p, sol.x).items()),
        lambda r, f: [(int(f(i)), v) for i, v in r],
    ),
    "slacks": (lambda g, p, sol, s: slacks(g, p, sol.x).gamma, lambda r, f: {int(f(i)): v for i, v in r.items()}),
    "jump_audit": (
        lambda g, p, sol, s: jump_audit(g, p, sol.trace, sol.x),
        lambda r, f: [(v.k, int(f(v.node)), v.lhs, v.rhs) for v in r],
    ),
    "verify_confinement": (
        lambda g, p, sol, s: verify_confinement(g, p, FULL, s, sol.trace),
        lambda r, f: (r.confined, {k: f(v.ids).tolist() for k, v in r.violations.items()},
                      r.max_spurious_vol, r.cum_spurious_vol),
    ),
    "vertex_boundary": (lambda g, p, sol, s: vertex_boundary(g, s), lambda r, f: f(r.ids).tolist()),
    "check_no_percolation": (
        lambda g, p, sol, s: check_no_percolation(g, p, s),
        lambda r, f: (r.holds, None if r.worst_node is None else int(f(r.worst_node)), r.worst_ratio),
    ),
}


@pytest.mark.parametrize("name", AUDITS)
def test_audit_is_independent_of_n(graphs, solutions, name):
    audit = AUDITS[name][0]
    for layout, gs in graphs.items():
        sols = solutions[layout]
        sets = [CLIQUE] * len(gs) if layout == "relabeled" else [sol.support for sol in sols]
        (small_peak, small), (big_peak, big) = _warm_peaks(
            gs, lambda i, g: audit(g, P, sols[i], sets[i]))
        if layout == "relabeled":
            assert big == small
        assert abs(big_peak - small_peak) < PEAK_SLACK, layout


def _random_edges(rng, n):
    """A random tree on range(n) plus up to 2n random extra edges."""
    tree = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    extra = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
    return np.concatenate((np.array(tree, dtype=np.int64).reshape(-1, 2), extra))


@given(case_seed=st.integers(0, 2**32 - 1))
def test_unreachable_padding_changes_no_bit(case_seed):
    """Solving G, or G padded with a random component at interleaved ids
    (G's ids keep their order), gives the same support under the id map, the
    same value bytes, iterations, ledger and residual bytes, by both
    methods."""
    rng = np.random.default_rng(case_seed)
    n, m = int(rng.integers(5, 40)), int(rng.integers(2, 200))
    g_edges, h_edges = _random_edges(rng, n), _random_edges(rng, m)
    g, _ = build_from_edges(g_edges)
    at = np.sort(rng.choice(n + m, n, replace=False))  # G's ids in the padded graph
    rest = rng.permutation(np.setdiff1d(np.arange(n + m), at))
    padded, remap = build_from_edges(np.concatenate((at[g_edges], rest[h_edges])))
    assert g.n == n and np.array_equal(remap, np.arange(n + m))
    alpha = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
    rho = float(10.0 ** rng.uniform(-5, -1))
    seed = int(rng.integers(0, n))
    for method in ("ista", "fista"):
        cfg = SolverConfig(method=method, eps=1e-9)
        alone = solve(g, ProblemParams(alpha, rho, seed), cfg)
        pad = solve(padded, ProblemParams(alpha, rho, int(at[seed])), cfg)
        nodes, vals = alone.x.arrays()
        pad_nodes, pad_vals = pad.x.arrays()
        assert np.array_equal(at[nodes], pad_nodes), method
        assert vals.tobytes() == pad_vals.tobytes(), method
        ta, tb = alone.trace, pad.trace
        assert (ta.iterations, ta.total_work) == (tb.iterations, tb.total_work), method
        assert ta.residual.tobytes() == tb.residual.tobytes(), method


# node counts of the components that pad a graph in the audit test
PADDINGS = (100, 20_000)


def _random_tree_edges(rng, n):
    """A random tree on range(n) plus n random extra edges, built without a
    loop over the nodes."""
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    tree = np.stack((parents, np.arange(1, n, dtype=np.int64)), axis=1)
    return np.concatenate((tree, rng.integers(0, n, size=(n, 2))))


@pytest.mark.parametrize("case_seed", range(10))
def test_unreachable_padding_changes_no_audit(case_seed):
    """Every audit gives the same result, under the id map, on a random
    graph G and on G padded with an unreachable component at ids
    interleaved with G's in order; and its warm traced peak is the same, up
    to PEAK_SLACK, under paddings of 100 and 20,000 nodes, which spread G's
    ids up to about 20,000. Only the peaks see an allocation sized by the
    largest id a call touches."""
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(5, 40))
    g_edges = _random_edges(rng, n)
    g, _ = build_from_edges(g_edges)
    seed = int(rng.integers(0, n))
    alpha, rho = float(rng.choice([0.05, 0.2, 0.5])), float(10.0 ** rng.uniform(-3, -1))
    padded = []
    for m in PADDINGS:
        at = np.sort(rng.choice(n + m, n, replace=False))  # G's ids in the padded graph
        rest = rng.permutation(np.setdiff1d(np.arange(n + m), at))
        pad, remap = build_from_edges(np.concatenate((at[g_edges], rest[_random_tree_edges(rng, m)])))
        assert g.n == n and np.array_equal(remap, np.arange(n + m))
        padded.append((pad, at))
    problems = [ProblemParams(alpha, rho, int(at[seed])) for _, at in padded]
    sols = [solve(pad, p, FULL) for (pad, _), p in zip(padded, problems)]
    sets = [NodeSet([p.seed]) for p in problems]
    p = ProblemParams(alpha, rho, seed)
    sol = solve(g, p, FULL)
    assert sol.trace.converged
    for name, (audit, mapped) in AUDITS.items():
        want = [mapped(audit(g, p, sol, NodeSet([seed])), at.__getitem__) for _, at in padded]
        runs = _warm_peaks([pad for pad, _ in padded], lambda i, h: audit(h, problems[i], sols[i], sets[i]))
        assert [mapped(out, lambda ids: ids) for _, out in runs] == want, name
        (small_peak, _), (big_peak, _) = runs
        assert abs(big_peak - small_peak) < PEAK_SLACK, name


# rounding allowance of a relabeled solve, as a multiple of max|x|
RELABEL_ULPS = 8 * 2.0**-52


@pytest.mark.parametrize("case_seed", range(20))
def test_relabeling_keeps_supports_and_work(case_seed):
    """Solving G, or G under a random permutation of its ids, gives the same
    support under the permutation, the same iterations and ledger, and values
    within a few ulps of max|x|, by both methods."""
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(5, 40))
    edges = _random_edges(rng, n)
    g, _ = build_from_edges(edges)
    perm = rng.permutation(n)
    relabeled, remap = build_from_edges(perm[edges])
    assert np.array_equal(remap, np.arange(n))
    alpha = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
    rho = float(10.0 ** rng.uniform(-5, -1))
    seed = int(rng.integers(0, n))
    for method in ("ista", "fista"):
        cfg = SolverConfig(method=method, eps=1e-9)
        a = solve(g, ProblemParams(alpha, rho, seed), cfg)
        b = solve(relabeled, ProblemParams(alpha, rho, int(perm[seed])), cfg)
        nodes, vals = a.x.arrays()
        order = np.argsort(perm[nodes])
        assert np.array_equal(perm[nodes][order], b.x.support()), method
        ta, tb = a.trace, b.trace
        assert (ta.iterations, ta.total_work) == (tb.iterations, tb.total_work), method
        scale = float(np.abs(vals).max(initial=0.0))
        assert np.abs(vals[order] - b.x.arrays()[1]).max(initial=0.0) <= RELABEL_ULPS * scale, method
