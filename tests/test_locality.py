"""Locality: a solve and its audits cost the volume of the iterates, not n.

One local problem, seed 3 of a 20-clique joined by one edge to a cycle, sits
in a graph of 10^3 nodes and in one of 10^6, under the same node ids. Results
and work must be equal on the two, and so must the memory a warm call
allocates, as traced by ``tracemalloc``: one n-length float buffer at 10^6
nodes is 8 MB, far past the bound. The only n-length array is the int64
position scratch, which a graph's first solve allocates once.

O(n) by design, and so not covered here: ``exterior``,
``check_no_percolation``, ``SparseVector.to_dense`` and ``build_from_edges``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from l1ppr import (
    NodeSet,
    ProblemParams,
    SolverConfig,
    build_from_edges,
    gradient,
    jump_audit,
    kkt_residual,
    objective_value,
    slacks,
    solve,
    verify_confinement,
    vertex_boundary,
)

SIZES = (10**3, 10**6)
CLIQUE = NodeSet(range(20))
P = ProblemParams(alpha=0.05, rho=1e-4, seed=3)
EPS = 1e-8
FULL = SolverConfig(method="fista", eps=EPS, trace_level="full")
# bytes by which the traced peak of a warm call may differ between the sizes
PEAK_SLACK = 64 * 1024


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


@pytest.fixture(scope="module")
def graphs():
    return [_clique_on_cycle(n) for n in SIZES]


@pytest.fixture(scope="module")
def solutions(graphs):
    return [solve(g, P, FULL) for g in graphs]


def _peak(call):
    """The traced peak of the bytes allocated during ``call()``, and its result."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def _warm_peaks(graphs, call):
    """``call(i, g)`` once to warm up, then traced, on each graph."""
    runs = []
    for i, g in enumerate(graphs):
        call(i, g)
        runs.append(_peak(lambda: call(i, g)))
    return runs


@pytest.mark.parametrize("level", ["summary", "full"])
@pytest.mark.parametrize("method", ["ista", "fista"])
def test_solve_is_independent_of_n(graphs, method, level):
    cfg = SolverConfig(method=method, eps=EPS, trace_level=level)
    (small_peak, small), (big_peak, big) = _warm_peaks(graphs, lambda i, g: solve(g, P, cfg))
    assert small.trace.converged
    assert [a.tobytes() for a in big.x.arrays()] == [a.tobytes() for a in small.x.arrays()]
    assert big.trace.iterations == small.trace.iterations
    assert big.trace.total_work == small.trace.total_work
    assert abs(big_peak - small_peak) <= PEAK_SLACK


def test_first_solve_allocates_the_position_scratch_once(graphs):
    g = graphs[-1]
    cfg = SolverConfig(method="fista", eps=EPS)
    solve(g, P, cfg)  # one-time costs of the process's first solves
    fresh = dataclasses.replace(g)  # the same arrays, but no scratch yet
    first, _ = _peak(lambda: solve(fresh, P, cfg))
    warm, _ = _peak(lambda: solve(fresh, P, cfg))
    assert abs(first - warm - 8 * g.n) <= PEAK_SLACK


AUDITS = {
    "kkt_residual": lambda g, sol: kkt_residual(g, P, sol.x),
    "objective_value": lambda g, sol: objective_value(g, P, sol.x),
    "gradient": lambda g, sol: list(gradient(g, P, sol.x).items()),
    "slacks": lambda g, sol: slacks(g, P, sol.x).gamma,
    "jump_audit": lambda g, sol: jump_audit(g, P, sol.trace, sol.x),
    "verify_confinement": lambda g, sol: verify_confinement(g, P, FULL, CLIQUE, sol.trace),
    "vertex_boundary": lambda g, sol: vertex_boundary(g, CLIQUE),
}


@pytest.mark.parametrize("name", AUDITS)
def test_audit_is_independent_of_n(graphs, solutions, name):
    audit = AUDITS[name]
    (small_peak, small), (big_peak, big) = _warm_peaks(
        graphs, lambda i, g: audit(g, solutions[i]))
    assert big == small
    assert abs(big_peak - small_peak) <= PEAK_SLACK
